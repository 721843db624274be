"""Circuit construction, evaluation paths and serialization."""

import json

import numpy as np
import pytest

from itertools import permutations, product

from nvqa.channels import CHANNEL_KINDS, NoiseSpec, _apply_noise, make_channel
from nvqa.circuits import (
    CX_MATRIX,
    MAX_DENSITY_QUBITS,
    Circuit,
    Cx,
    NOISE,
    NoiseMark,
    Ry,
    build_2q_circuit,
    build_4q_vqe,
    build_hea,
    build_valley_demo,
    circuit_from_dict,
    circuit_from_json,
    circuit_to_dict,
    circuit_to_json,
    evaluate,
    evaluate_pure,
    ry_matrix,
    _ByRow,
    _as_density_matrix,
    _cx_perm,
    _expectation_gradients,
    _expectations,
    _reduce,
    _row_blocks,
    _simulate,
    _spec_blocks,
)
from nvqa.qstate import MAX_QUBITS, DensityMatrix


def dense_gate(n_qubits: int, op, params: np.ndarray) -> np.ndarray:
    """Full 2^n x 2^n matrix of one Ry or CX op."""
    dim = 2 ** n_qubits
    if isinstance(op, Ry):
        mats = [np.eye(2, dtype=complex)] * n_qubits
        mats[op.qubit] = ry_matrix(params[op.param_index])
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        return full
    full = np.eye(dim, dtype=complex)
    for basis in range(dim):
        shift_c = n_qubits - 1 - op.control
        shift_t = n_qubits - 1 - op.target
        if (basis >> shift_c) & 1:
            src = basis ^ (1 << shift_t)
            full[basis, basis] = 0.0
            full[basis, src] = 1.0
    return full


def dense_unitary(circuit: Circuit, params: np.ndarray) -> np.ndarray:
    """Multiply out the full matrix, ignoring noise markers."""
    u = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for op in circuit.ops:
        if not isinstance(op, NoiseMark):
            u = dense_gate(circuit.n_qubits, op, params) @ u
    return u


def tensor_kraus_density(circuit: Circuit, params: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Dense gates, and at every noise mark the explicit sum over all tensor
    products of the per-qubit Kraus operators."""
    n = circuit.n_qubits
    dim = 2 ** n
    per_qubit = [make_channel(spec.channel.kind, spec.channel.gamma * s).kraus
                 for s in spec.per_qubit_scale]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for op in circuit.ops:
        if isinstance(op, NoiseMark):
            out = np.zeros_like(rho)
            for ops in product(*per_qubit):
                full = ops[0]
                for e in ops[1:]:
                    full = np.kron(full, e)
                out += full @ rho @ full.conj().T
            rho = out
        else:
            u = dense_gate(n, op, params)
            rho = u @ rho @ u.conj().T
    return rho


def _rotate(state: np.ndarray, c: np.ndarray, s: np.ndarray, outer: int, inner: int) -> np.ndarray:
    """Ry on the axis of length 2 when each row of state is viewed as (outer, 2, inner)."""
    t = state.reshape(len(c), outer, 2, inner)
    x0, x1 = t[:, :, 0], t[:, :, 1]
    out = np.empty_like(t)
    out[:, :, 0] = c * x0 - s * x1
    out[:, :, 1] = s * x0 + c * x1
    return out.reshape(state.shape)


def step_reference(circuit: Circuit, params: np.ndarray, noise: NoiseSpec | None = None) -> np.ndarray:
    """The per-op kernel _simulate replaced: one _rotate per Ry on a statevector
    and two on a density matrix, one gather per CX and axis, and one
    _apply_noise per noise mark."""
    n = circuit.n_qubits
    dim = 2 ** n
    idx = np.arange(dim)
    m = len(params)
    density = noise is not None
    cols = dim if density else 1
    state = np.zeros((m, dim, dim) if density else (m, dim))
    state.reshape(m, -1)[:, 0] = 1.0
    cos = np.cos(0.5 * params)[:, :, None, None]
    sin = np.sin(0.5 * params)[:, :, None, None]
    for op in circuit.ops:
        if isinstance(op, Ry):
            a = 2 ** op.qubit
            b = dim // (2 * a)
            c, s = cos[:, op.param_index], sin[:, op.param_index]
            state = _rotate(state, c, s, a, b * cols)
            if density:
                state = _rotate(state, c, s, dim * a, b)
        elif isinstance(op, Cx):
            cbit = (idx >> (n - 1 - op.control)) & 1
            perm = np.where(cbit == 1, idx ^ (1 << (n - 1 - op.target)), idx)
            state = state[..., perm]
            if density:
                state = state[:, perm]
        elif density:
            state = _apply_noise(state, noise.channel.kind, noise._gammas)
    return state


# circuits whose groups take every shape the kernel compiles
KERNEL_CASES = {
    # two Ry on one qubit back to back, twice, and a circuit that ends in rotations
    "ry-repeat": Circuit(2, (Ry(0, 0), Ry(1, 0), Ry(2, 1), Cx(0, 1), NOISE, Ry(3, 1), Ry(4, 1))),
    # starts with a noise mark and a CX, ends in a fixed group, odd qubit count
    "fixed-ends": Circuit(3, (NOISE, Cx(0, 2), Ry(0, 0), Ry(1, 2), NOISE, Cx(2, 1), Ry(2, 1),
                              Cx(1, 0), NOISE, Cx(0, 2))),
    "2q-a": build_2q_circuit("a"),
    "hea-2": build_hea(2),
    "4q-vqe": build_4q_vqe(),  # three noise marks per fixed group
    "valley": build_valley_demo(),
}


# statevector rows also run at MAX_QUBITS: CX gates between distant qubits in
# both directions, a noise mark, and two Ry on one qubit back to back
PURE_CASES = {**KERNEL_CASES, "wide": Circuit(
    MAX_QUBITS, tuple(Ry(q, q) for q in range(MAX_QUBITS))
    + (Cx(0, 9), Cx(7, 2), Cx(4, 5), NOISE, Ry(MAX_QUBITS, 3), Ry(MAX_QUBITS + 1, 3), Cx(9, 0),
       Ry(MAX_QUBITS + 2, 6)))}


@pytest.mark.parametrize("m", [1, 5, 33, 600])
@pytest.mark.parametrize("name", list(PURE_CASES))
def test_simulate_pure_rows_equal_the_step_reference_bit_for_bit(name, m, rng):
    circuit = PURE_CASES[name]
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(m, circuit.n_params))
    got = _simulate(circuit, thetas)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, step_reference(circuit, thetas))


@pytest.mark.parametrize("name", ["2q-a", "hea-2", "4q-vqe", "fixed-ends"])
def test_pure_rows_do_not_depend_on_their_batch(name, rng):
    """Each statevector row alone equals its row in 2-, 33- and 600-row
    batches and in an offset batch, as a kernel row and as an _expectations
    value; 600 rows are two _expectations chunks at 4 qubits."""
    circuit = KERNEL_CASES[name]
    dim = 2 ** circuit.n_qubits
    obs = rng.standard_normal((dim, dim))
    obs += obs.T
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(601, circuit.n_params))
    rows = np.concatenate([_simulate(circuit, t[None]) for t in thetas])
    values = np.concatenate([_expectations(circuit, t[None], None, obs) for t in thetas])
    for lo, hi in ((0, 2), (0, 33), (0, 600), (1, 601), (7, 40)):
        np.testing.assert_array_equal(_simulate(circuit, thetas[lo:hi]), rows[lo:hi])
        np.testing.assert_array_equal(_expectations(circuit, thetas[lo:hi], None, obs), values[lo:hi])


@pytest.mark.parametrize("gamma", [0.27, 1.0])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_simulate_density_rows_match_the_step_reference(name, kind, gamma, rng):
    """Grouped density rows agree with the per-op kernel and the tensor Kraus
    sum, per-qubit scales containing 0, at full strength too (whole blocks
    vanish), and each row of an offset batch equals that row alone."""
    circuit = KERNEL_CASES[name]
    scales = (1.0, 0.0, 0.5, 0.8)[:circuit.n_qubits] if circuit.n_qubits > 1 else (0.7,)
    spec = NoiseSpec(make_channel(kind, gamma), scales)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(4, circuit.n_params))
    got = _simulate(circuit, thetas[1:], spec)
    assert np.abs(got - step_reference(circuit, thetas[1:], spec)).max() <= 1e-13
    for rho, params in zip(got, thetas[1:]):
        assert np.abs(rho - tensor_kraus_density(circuit, params, spec)).max() <= 1e-13
    for i in range(3):
        np.testing.assert_array_equal(_simulate(circuit, thetas[i + 1:i + 2], spec)[0], got[i])


def test_noisy_evaluation_stops_at_max_density_qubits(rng):
    """Density rows run up to MAX_DENSITY_QUBITS and are refused above it;
    noiseless rows, and a trivial spec, run at any width without building
    the density tables."""
    def brick(n):
        return Circuit(n, tuple(Ry(q, q) for q in range(n)) + (Cx(0, 1), NOISE, Ry(n, 1)))

    widest = brick(MAX_DENSITY_QUBITS)
    spec = NoiseSpec.uniform("amplitude", 0.3, widest.n_qubits)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(2, widest.n_params))
    assert np.abs(_simulate(widest, thetas, spec) - step_reference(widest, thetas, spec)).max() <= 1e-13
    wide = brick(MAX_DENSITY_QUBITS + 1)
    params = rng.uniform(0.0, 2.0 * np.pi, wide.n_params)
    with pytest.raises(ValueError, match=f"at most {MAX_DENSITY_QUBITS} qubits"):
        evaluate(wide, params, NoiseSpec.uniform("amplitude", 0.3, wide.n_qubits))
    rho = evaluate(wide, params, NoiseSpec.uniform("amplitude", 0.0, wide.n_qubits))
    np.testing.assert_array_equal(rho.data, evaluate(wide, params).data)
    np.testing.assert_array_equal(_simulate(wide, params[None]), step_reference(wide, params[None]))
    assert "_density_plan" not in vars(wide) and "_blocks" not in vars(wide)


def random_hamiltonian(n_qubits: int, rng):
    """Eight random Pauli words with normal weights; Y-odd words make the matrix complex."""
    from nvqa.pauli import PauliSum

    words = ("".join(rng.choice(list("IXYZ"), n_qubits)) for _ in range(8))
    return PauliSum(n_qubits, tuple((float(rng.standard_normal()), w) for w in words))


ADJOINT_CASES = {**{f"hea-{l}": build_hea(l) for l in (1, 2, 4, 6)}, "4q-vqe": build_4q_vqe(),
                 **{f"2q-{v}": build_2q_circuit(v) for v in "abc"}, "valley": build_valley_demo(),
                 "ry-repeat": KERNEL_CASES["ry-repeat"], "fixed-ends": KERNEL_CASES["fixed-ends"]}


@pytest.mark.parametrize("gamma", [0.27, 1.0])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("name", list(ADJOINT_CASES))
def test_adjoint_gradients_match_the_parameter_shift_rule(name, kind, gamma, rng):
    """The reverse-mode gradient of Tr[Re(H) rho] equals the public
    parameter-shift gradient of the energy cost to 1e-12, at every width,
    with per-qubit scales containing 0 and at full strength."""
    from nvqa.optimize import energy_cost, gradient

    circuit = ADJOINT_CASES[name]
    n = circuit.n_qubits
    spec = NoiseSpec(make_channel(kind, gamma), (1.0, 0.0, 0.5, 0.8)[:n] if n > 1 else (0.7,))
    h = random_hamiltonian(n, rng)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(3, circuit.n_params))
    got = _expectation_gradients(circuit, thetas, spec, h.to_matrix())[1]
    want = np.array([gradient(energy_cost(circuit, h, spec), t) for t in thetas])
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("name", ["hea-2", "4q-vqe", "2q-c", "valley", "fixed-ends"])
def test_adjoint_gradient_rows_do_not_depend_on_their_batch(name, kind, rng):
    """Each row alone has the bits of its row in a 2-row batch, a 33-row
    batch (two chunks at four qubits) and an offset batch, for the value and
    the gradient, and the value is _expectations' bit for bit. A
    zero-strength spec still runs density rows; no spec is refused."""
    circuit = ADJOINT_CASES[name]
    n = circuit.n_qubits
    obs = random_hamiltonian(n, rng).to_matrix()
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(34, circuit.n_params))
    for spec in (NoiseSpec.uniform(kind, 0.3, n), NoiseSpec.uniform(kind, 0.0, n)):
        vals, grads = zip(*(_expectation_gradients(circuit, t[None], spec, obs) for t in thetas))
        vals, grads = np.concatenate(vals), np.concatenate(grads)
        if not spec.is_trivial:
            single = [_expectations(circuit, t[None], spec, obs)[0] for t in thetas]
            np.testing.assert_array_equal(vals, single)
        for lo, hi in ((0, 2), (0, 33), (1, 34)):
            got_vals, got_grads = _expectation_gradients(circuit, thetas[lo:hi], spec, obs)
            np.testing.assert_array_equal(got_grads, grads[lo:hi])
            np.testing.assert_array_equal(got_vals, vals[lo:hi])
            if not spec.is_trivial:
                np.testing.assert_array_equal(got_vals, _expectations(circuit, thetas[lo:hi], spec, obs))
    with pytest.raises(ValueError, match="NoiseSpec"):
        _expectation_gradients(circuit, thetas, None, obs)


def pattern_block_reference(n_qubits: int, ops: tuple, x: int, y: int, kind: str, gammas) -> np.ndarray:
    """The per-pattern compose _pattern_blocks replaced. Block [i, k]: the
    coefficient of rho[k, k ^ x] in entry (i, i ^ y) after ops, from the 2^n
    basis matrices |k><k ^ x| run through the group's gathers and channels
    as one full (dim, dim, dim) tensor."""
    idx = np.arange(2 ** n_qubits)
    t = np.zeros((idx.size,) * 3)
    t[idx, idx, idx ^ x] = 1.0
    for op in ops:
        if isinstance(op, Cx):
            perm = _cx_perm(n_qubits, op)
            t = t[:, perm][:, :, perm]
        else:
            t = _apply_noise(t, kind, gammas)
    return t[:, idx, idx ^ y].T


@pytest.mark.parametrize("gamma", [0.27, 1.0])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("name", ["hea-1", "hea-2", "4q-vqe", "2q-a", "2q-b", "2q-c", "valley",
                                  "fixed-ends"])
def test_channel_blocks_equal_the_full_tensor_compose_bit_for_bit(name, kind, gamma):
    """Each fixed group's blocks, composed on one (dim, dim) slice per input
    pattern, equal the full-tensor compose bit for bit, with per-qubit
    scales containing 0 and at full strength."""
    circuit = ADJOINT_CASES[name]
    n = circuit.n_qubits
    spec = NoiseSpec(make_channel(kind, gamma), (1.0, 0.0, 0.5, 0.8)[:n] if n > 1 else (0.7,))
    fixed = [(ops, perm) for ops, perm in circuit._groups if perm is not None]
    got = _spec_blocks(circuit, spec)
    assert len(got) == len(fixed)
    for (ops, perm), blocks in zip(fixed, got):
        want = np.stack([pattern_block_reference(n, ops, x, y, kind, spec._gammas)
                         for y, x in enumerate(perm)])
        assert blocks.flags.c_contiguous
        np.testing.assert_array_equal(blocks, want)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("name", ["ry-repeat", "fixed-ends", "4q-vqe"])
def test_a_second_spec_composes_only_its_blocks(name, kind, rng):
    """A new spec on a circuit keeps the circuit's density plan, holds its
    own blocks beside the first spec's (the circuit keeps every spec it
    composed), and gives the rows of a freshly built circuit bit for bit;
    every Ry on one qubit reads the same partner and sign arrays."""
    circuit = KERNEL_CASES[name]
    fresh = Circuit(circuit.n_qubits, circuit.ops)
    n = circuit.n_qubits
    obs = random_hamiltonian(n, rng).to_matrix()
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(5, circuit.n_params))
    first = NoiseSpec.uniform(kind, 0.3, n)
    _simulate(circuit, thetas, first)
    second = NoiseSpec(make_channel(kind, 0.1), tuple(rng.uniform(0.0, 1.0, n)))
    plan = circuit._density_plan
    got = _simulate(circuit, thetas, second), _expectation_gradients(circuit, thetas, second, obs)
    assert circuit._density_plan is plan
    assert {first, second} <= circuit._blocks.keys()
    np.testing.assert_array_equal(got[0], _simulate(fresh, thetas, second))
    for a, b in zip(got[1], _expectation_gradients(fresh, thetas, second, obs)):
        np.testing.assert_array_equal(a, b)
    rys = [ry for ops, perm in circuit._groups if perm is None for ry in ops]
    for (_, q, partner, sign), (_, r, other_partner, other_sign) in product(rys, rys):
        assert (partner is other_partner and sign is other_sign) == (q == r)


CALLS = {
    "one-spec": lambda circuit, thetas, specs, which, obs: [_simulate(circuit, thetas, spec) for spec in specs],
    "per-row": lambda circuit, thetas, specs, which, obs: [_simulate(circuit, thetas, _ByRow(specs, which)),
                                                           _expectations(circuit, thetas, _ByRow(specs, which), obs)],
    "adjoint": lambda circuit, thetas, specs, which, obs: [
        *_expectation_gradients(circuit, thetas, _ByRow(specs, which), obs),
        *(a for spec in specs for a in _expectation_gradients(circuit, thetas, spec, obs))],
}


@pytest.mark.parametrize("order", list(permutations(CALLS)), ids="-".join)
def test_a_circuit_composes_each_spec_once(order, monkeypatch, rng):
    """Single-spec, per-row (_ByRow) and adjoint calls, made in any order,
    compose each spec's blocks once in the circuit's life, one
    _pattern_blocks call per spec and distinct fixed group; later calls read
    the arrays the circuit keeps, and every row keeps a fresh circuit's bits."""
    import nvqa.circuits as circuits

    case = KERNEL_CASES["fixed-ends"]
    circuit = Circuit(case.n_qubits, case.ops)
    n = circuit.n_qubits
    n_fixed = len({ops for ops, perm in circuit._groups if perm is not None})
    specs = tuple(NoiseSpec.uniform(kind, 0.1, n) for kind in CHANNEL_KINDS)
    obs = random_hamiltonian(n, rng).to_matrix()
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(6, circuit.n_params))
    which = np.array([2, 2, 0, 1, 1, 0])
    want = {name: call(Circuit(n, case.ops), thetas, specs, which, obs) for name, call in CALLS.items()}
    composed, compose = [], circuits._pattern_blocks
    monkeypatch.setattr(circuits, "_pattern_blocks", lambda *a: composed.append(a[1:]) or compose(*a))
    kept = None
    for name in order:
        got = CALLS[name](circuit, thetas, specs, which, obs)
        for a, b in zip(got, want[name], strict=True):
            np.testing.assert_array_equal(a, b)
        assert n_fixed > 1 and len(composed) == len(set(composed)) == len(specs) * n_fixed
        if kept is None:
            kept = {spec: circuit._blocks[spec] for spec in specs}
        assert all(circuit._blocks[spec] is kept[spec] for spec in specs)
    per_row, runs = _row_blocks(circuit, _ByRow(specs, which))
    assert runs == [(0, 2, 2), (2, 3, 0), (3, 5, 1), (5, 6, 0)]
    for k, spec in enumerate(specs):
        blocks, runs = _row_blocks(circuit, spec)
        assert blocks is kept[spec] and runs is None
        assert all(group[k] is b for group, b in zip(per_row, kept[spec], strict=True))


@pytest.mark.parametrize("noise", ["none", "one-spec", "per-row"])
@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_an_empty_batch_is_a_batch_like_any_other(name, noise, rng):
    """m = 0 rows give empty results of their kind from _simulate, _reduce,
    _expectations and _expectation_gradients, with no noise, one spec or a
    _ByRow of empty index, and one observable or a _ByRow of them; an empty
    _ByRow has no runs. The reducers run an empty batch through the kernel,
    so one of the wrong width is refused as any other is."""
    circuit = Circuit(KERNEL_CASES[name].n_qubits, KERNEL_CASES[name].ops)
    n, dim = circuit.n_qubits, 2 ** circuit.n_qubits
    specs = tuple(NoiseSpec.uniform(kind, 0.1, n) for kind in CHANNEL_KINDS)
    rows = {"none": None, "one-spec": specs[0], "per-row": _ByRow(specs, np.empty(0, dtype=int))}[noise]
    obs = random_hamiltonian(n, rng).to_matrix()
    empty = np.empty((0, circuit.n_params))
    states = _simulate(circuit, empty, rows)
    assert states.shape == (0,) + (dim,) * (1 if rows is None else 2)
    for o in (obs, _ByRow(obs.real[None], np.empty(0, dtype=int))):
        assert _reduce(states, o).shape == (0,)
        assert _expectations(circuit, empty, rows, o).shape == (0,)
        if rows is not None:
            values, grads = _expectation_gradients(circuit, empty, rows, o)
            assert values.shape == (0,) and grads.shape == (0, circuit.n_params)
    wide = np.empty((0, circuit.n_params + 1))
    for reducer in (_expectations, _expectation_gradients)[:1 if rows is None else 2]:
        with pytest.raises(ValueError, match=rf"expected shape \(m, {circuit.n_params}\)"):
            reducer(circuit, wide, rows, obs)
    if noise == "per-row":
        assert _row_blocks(circuit, rows)[1] == []


def test_equal_specs_share_one_block_entry(rng):
    """Two equal specs built apart hash alike and the circuit keeps one block
    entry for both, which a pickled copy reads too."""
    import pickle

    circuit = build_2q_circuit("c")
    a = NoiseSpec.uniform("amplitude", 0.2, 2)
    b = NoiseSpec(make_channel("amplitude", 0.2), (1.0, 1.0))
    assert a == b and a is not b and hash(a) == hash(b)
    theta = rng.uniform(0.0, 2.0 * np.pi, (3, circuit.n_params))
    np.testing.assert_array_equal(_simulate(circuit, theta, a), _simulate(circuit, theta, b))
    assert len(circuit._blocks) == 1
    for spec in (b, pickle.loads(pickle.dumps(b))):
        assert _spec_blocks(circuit, spec) is circuit._blocks[a]


def test_per_row_specs_of_the_wrong_width_are_refused(rng):
    """Every spec a _ByRow noise carries must cover the circuit's qubits,
    whichever rows read it."""
    from nvqa.circuits import _ByRow

    circuit = build_2q_circuit("c")
    specs = (NoiseSpec.uniform("phase", 0.1, 2), NoiseSpec.uniform("phase", 0.1, 3))
    theta = rng.uniform(0.0, 2.0 * np.pi, (2, circuit.n_params))
    with pytest.raises(ValueError, match="covers 3 qubits, circuit has 2"):
        _expectations(circuit, theta, _ByRow(specs, np.array([0, 0])), np.eye(4))


def test_ry_matrix_basics():
    assert np.allclose(ry_matrix(0.0), np.eye(2))
    assert np.allclose(ry_matrix(np.pi), np.array([[0.0, -1.0], [1.0, 0.0]]))
    a, b = 0.9, -2.3
    assert np.allclose(ry_matrix(a) @ ry_matrix(b), ry_matrix(a + b), atol=1e-14)
    assert np.allclose(ry_matrix(1.1).imag, 0.0)


def test_cx_matrix_is_the_standard_permutation():
    assert np.allclose(CX_MATRIX, np.eye(4)[[0, 1, 3, 2]])


def test_circuit_validates_parameter_usage():
    for slots in ((0, 0), (0, 2), (1, 1), (1, 2)):  # the Ry slots are 0..k-1, once each
        with pytest.raises(ValueError, match="Ry gates must use the slots"):
            Circuit(1, tuple(Ry(p, 0) for p in slots))
    with pytest.raises(ValueError):
        Circuit(2, (Ry(0, 0), Cx(0, 2)))
    with pytest.raises(ValueError):
        Circuit(2, (Ry(0, 0), Cx(1, 1)))


def test_n_params_is_the_ry_count_and_not_an_argument():
    """n_params is read off the ops; Circuit(1, (), -1) built a circuit of -1
    parameters that no parameter vector fits."""
    c = Circuit(2, (Ry(np.int64(2), 1), Cx(0, 1), NOISE, Ry(0, 0), Ry(1, 1)))
    assert c.n_params == 3 and type(c.n_params) is int
    assert Circuit(1, ()).n_params == 0 and build_hea(3).n_params == 12
    with pytest.raises(TypeError):
        Circuit(1, (), -1)


def test_a_dict_written_with_n_params_still_loads():
    """Files written before n_params was derived hold the key; it is ignored."""
    old = ('{"n_qubits":2,"ops":[{"ry":{"p":0,"q":0}},{"ry":{"p":1,"q":1}},{"cx":{"c":0,"t":1}},'
           '"noise",{"ry":{"p":2,"q":0}},{"ry":{"p":3,"q":1}}],"n_params":4}')
    assert circuit_from_json(old) == build_2q_circuit("c")
    assert circuit_from_dict(json.loads(old)) == build_2q_circuit("c")
    assert "n_params" not in circuit_to_dict(build_2q_circuit("c"))


@pytest.mark.parametrize("variant, n_params", [("a", 3), ("b", 3), ("c", 4)])
def test_2q_builder_shapes(variant, n_params):
    c = build_2q_circuit(variant)
    assert c.n_qubits == 2
    assert c.n_params == n_params
    assert sum(isinstance(op, NoiseMark) for op in c.ops) == 1


def test_2q_builder_rejects_unknown_variant():
    with pytest.raises(ValueError):
        build_2q_circuit("d")


@pytest.mark.parametrize("layers", [1, 2, 4])
def test_hea_builder_shapes(layers):
    c = build_hea(layers)
    assert c.n_qubits == 4
    assert c.n_params == 4 * layers
    assert sum(isinstance(op, NoiseMark) for op in c.ops) == 2 * layers
    assert sum(isinstance(op, Cx) for op in c.ops) == 3 * layers


def test_hea_layer_structure():
    ops = build_hea(1).ops
    kinds = [type(op).__name__ for op in ops]
    assert kinds == ["Ry", "Ry", "Ry", "Ry", "Cx", "Cx", "NoiseMark", "Cx", "NoiseMark"]
    assert (ops[4].control, ops[4].target) == (0, 1)
    assert (ops[5].control, ops[5].target) == (2, 3)
    assert (ops[7].control, ops[7].target) == (1, 2)


def test_hea_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_hea(0)


@pytest.mark.parametrize("layers", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_hea_refuses_a_layer_count_that_is_no_integer(layers):
    """build_hea(2.0) failed inside range and build_hea(True) built one layer."""
    with pytest.raises(ValueError, match="layers must be an integer"):
        build_hea(layers)
    assert build_hea(np.int64(2)) == build_hea(2)


@pytest.mark.parametrize("call, error", [
    (lambda: Circuit(2, (Ry(0, 2),)), ValueError),
    (lambda: Circuit(2, (Ry(0, -1),)), ValueError),
    (lambda: Circuit(1, (Ry(1, 0),)), ValueError),
    (lambda: Circuit(1, (Ry(0, 0), "H")), TypeError),
    (lambda: evaluate(build_2q_circuit("a"), np.zeros(4)), ValueError),
    (lambda: evaluate(build_2q_circuit("a"), np.zeros((1, 3)), NoiseSpec.uniform("phase", 0.1, 2)), ValueError),
    (lambda: evaluate_pure(build_2q_circuit("a"), np.zeros(2)), ValueError),
], ids=["ry-qubit-too-high", "ry-qubit-negative", "param-index-out-of-range", "foreign-op",
        "evaluate-long-theta", "evaluate-2d-theta", "evaluate-pure-short-theta"])
def test_malformed_circuits_and_angle_vectors_are_refused(call, error):
    with pytest.raises(error):
        call()


def test_4q_vqe_builder_shape():
    c = build_4q_vqe()
    assert c.n_qubits == 4
    assert c.n_params == 12
    assert sum(isinstance(op, NoiseMark) for op in c.ops) == 9


def test_valley_demo_shape():
    c = build_valley_demo()
    assert (c.n_qubits, c.n_params) == (1, 2)
    kinds = [type(op).__name__ for op in c.ops]
    assert kinds == ["Ry", "NoiseMark", "Ry"]


@pytest.mark.parametrize(
    "circuit",
    [build_2q_circuit("a"), build_2q_circuit("c"), build_hea(1), build_valley_demo()],
    ids=["2q-a", "2q-c", "hea-1", "valley"],
)
def test_evaluate_pure_matches_dense_oracle(circuit, rng):
    params = rng.uniform(0.0, 2.0 * np.pi, circuit.n_params)
    psi = evaluate_pure(circuit, params)
    dim = 2 ** circuit.n_qubits
    want = dense_unitary(circuit, params) @ np.eye(dim, dtype=complex)[:, 0]
    assert np.allclose(psi, want, atol=1e-13)


def test_evaluate_noiseless_equals_density_path(rng):
    c = build_hea(2)
    params = rng.uniform(0.0, 2.0 * np.pi, c.n_params)
    rho_fast = evaluate(c, params, None)
    gamma_zero = NoiseSpec.uniform("phase", 0.0, 4)
    scales_zero = NoiseSpec(make_channel("amplitude", 0.3), (0.0,) * 4)
    assert np.allclose(rho_fast.data, evaluate(c, params, gamma_zero).data, atol=1e-14)
    assert np.allclose(rho_fast.data, evaluate(c, params, scales_zero).data, atol=1e-14)
    # the kernel's density path, which evaluate skips for trivial noise
    for spec in (gamma_zero, scales_zero):
        raw = _simulate(c, params[None], spec)[0]
        assert np.allclose(rho_fast.data, raw, atol=1e-12)


@pytest.mark.parametrize("spec", [NoiseSpec.uniform("phase", 0.0, 2), NoiseSpec.uniform("phase", 0.1, 2),
                                  NoiseSpec(make_channel("amplitude", 0.3), (0.0,) * 5)],
                         ids=["gamma-0", "gamma-0.1", "scales-0"])
def test_evaluate_refuses_a_noise_spec_of_the_wrong_width(spec):
    """A trivial spec takes the statevector path, after the same width check."""
    with pytest.raises(ValueError, match="noise spec covers"):
        evaluate(build_hea(2), np.zeros(8), spec)


def test_evaluate_noisy_matches_manual_channel_insertion(rng):
    from nvqa.channels import apply_product_channel

    c = build_2q_circuit("c")
    params = rng.uniform(0.0, 2.0 * np.pi, 4)
    spec = NoiseSpec.uniform("amplitude", 0.2, 2)
    got = evaluate(c, params, spec)

    from nvqa.qstate import apply_unitary, zero_state

    rho = zero_state(2)
    rho = apply_unitary(rho, ry_matrix(params[0]), (0,))
    rho = apply_unitary(rho, ry_matrix(params[1]), (1,))
    rho = apply_unitary(rho, CX_MATRIX, (0, 1))
    rho = apply_product_channel(rho, spec)
    rho = apply_unitary(rho, ry_matrix(params[2]), (0,))
    rho = apply_unitary(rho, ry_matrix(params[3]), (1,))
    assert np.allclose(got.data, rho.data, atol=1e-13)


def test_evaluate_returns_valid_state(rng):
    c = build_hea(2)
    params = rng.uniform(0.0, 2.0 * np.pi, c.n_params)
    spec = NoiseSpec.uniform("depolarising", 0.15, 4)
    evaluate(c, params, spec).validate()


def test_batch_paths_match_loops(rng):
    c = build_hea(2)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(5, c.n_params))
    batch = _simulate(c, thetas)
    for i in range(5):
        assert np.allclose(batch[i], evaluate_pure(c, thetas[i]), atol=1e-13)
    spec = NoiseSpec.uniform("phase", 0.03, 4)
    raw = _simulate(c, thetas, spec)
    for i in range(5):
        assert np.allclose(raw[i], evaluate(c, thetas[i], spec).data, atol=1e-13)


def test_batch_rejects_bad_shape(rng):
    c = build_hea(1)
    with pytest.raises(ValueError):
        _simulate(c, np.zeros((3, c.n_params + 1)))
    with pytest.raises(ValueError):
        _simulate(c, np.zeros(c.n_params), NoiseSpec.uniform("phase", 0.1, 4))


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize(
    "circuit",
    [build_2q_circuit("a"), build_2q_circuit("c"), build_hea(2), build_valley_demo()],
    ids=["2q-a", "2q-c", "hea-2", "valley"],
)
def test_simulate_pure_rows_match_dense_oracle(circuit, m, rng):
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(m, circuit.n_params))
    got = _simulate(circuit, thetas)
    assert got.shape == (m, 2 ** circuit.n_qubits) and got.dtype == np.float64
    for row, params in zip(got, thetas):
        assert np.abs(row - dense_unitary(circuit, params)[:, 0]).max() <= 1e-13


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize(
    "circuit, scales",
    [(build_valley_demo(), (0.5,)),
     (build_2q_circuit("c"), (0.0, 0.5)),
     (build_hea(1), (1.0, 0.0, 0.5, 0.8))],
    ids=["n1", "n2", "n4"],
)
def test_simulate_density_rows_match_tensor_kraus(circuit, scales, kind, rng):
    spec = NoiseSpec(make_channel(kind, 0.27), scales)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(3, circuit.n_params))
    got = _simulate(circuit, thetas, spec)
    dim = 2 ** circuit.n_qubits
    assert got.shape == (3, dim, dim) and got.dtype == np.float64
    for rho, params in zip(got, thetas):
        assert np.abs(rho - tensor_kraus_density(circuit, params, spec)).max() <= 1e-13


@pytest.mark.parametrize(
    "circuit",
    [build_2q_circuit("b"), build_hea(3), build_4q_vqe(), build_valley_demo()],
    ids=["2q-b", "hea-3", "4q-vqe", "valley"],
)
def test_serialization_round_trip(circuit):
    again = circuit_from_dict(circuit_to_dict(circuit))
    assert again == circuit
    assert circuit_from_json(circuit_to_json(circuit)) == circuit


def test_from_dict_rejects_malformed():
    """Every malformed dict raises ValueError: an unknown op, a missing key, a
    non-dict entry, a bool or non-integer field, and a gap in the Ry slots."""
    ry = {"ry": {"p": 0, "q": 0}}
    for d in ({"n_qubits": 1, "ops": [{"rz": {"p": 0, "q": 0}}]},
              {"n_qubits": 1, "ops": [{"ry": {"p": 0}}]},
              {"n_qubits": 1},
              {"ops": [ry]},
              {"n_qubits": 1, "ops": [{"ry": 3}]},
              {"n_qubits": 1, "ops": [5]},
              {"n_qubits": 1, "ops": [{"ry": {"p": 0, "q": "0"}}]},
              {"n_qubits": 1, "ops": [{"ry": {"p": True, "q": 0}}]},
              {"n_qubits": 2, "ops": [ry, {"cx": {"c": 0, "t": 1.0}}]},
              {"n_qubits": 1.0, "ops": [ry]},
              {"n_qubits": 1, "ops": [{"ry": {"p": 1, "q": 0}}]},
              [ry]):
        with pytest.raises(ValueError):
            circuit_from_dict(d)


def test_circuit_fields_keep_numpy_integers_as_ints():
    """numpy integers are accepted and stored as ints, so the circuit serialises."""
    c = Circuit(np.int64(2), (Ry(np.int64(0), np.int32(1)), Cx(np.int8(1), 0)))
    assert c == Circuit(2, (Ry(0, 1), Cx(1, 0)))
    assert circuit_from_json(circuit_to_json(c)) == c


@pytest.mark.parametrize("noise", [None, NoiseSpec.uniform("amplitude", 0.1, 4)], ids=["pure", "density"])
def test_as_density_matrix_reads_the_row_rank(noise, rng):
    """The row's rank alone tells the two apart: a statevector row becomes
    |psi><psi| taken in complex and a density row its symmetrised rho, bit
    for bit."""
    c = build_hea(2)
    row = _simulate(c, rng.uniform(0.0, 2.0 * np.pi, (1, c.n_params)), noise)[0]
    if noise is None:
        psi = row.astype(complex)
        want = np.outer(psi, psi.conj())
    else:
        want = 0.5 * (row + row.T)
    assert np.array_equal(_as_density_matrix(row).data, want)


@pytest.mark.parametrize("circuit", [build_2q_circuit("c"), build_hea(2), build_4q_vqe()],
                         ids=["2q-c", "hea-2", "4q-vqe"])
def test_rows_under_per_row_specs_keep_their_single_spec_bits(circuit, rng):
    """Rows under six specs in one call, in no particular order, equal each
    row run alone under its spec: states, expectations, and the adjoint's
    values and gradients; rows reduced against per-row observables equal
    their one-observable reductions. Identical fixed groups share one
    array per spec. The same holds with the rows sorted by spec (at 4 qubits
    the first 32-row chunk is one run of one spec) and all under one spec."""
    from nvqa.circuits import _ByRow, _reduce

    n = circuit.n_qubits
    specs = tuple(NoiseSpec.uniform(kind, g, n) for kind in CHANNEL_KINDS for g in (0.05, 0.3))
    for spec in specs:
        blocks = _spec_blocks(circuit, spec)
        assert all(b.shape == (2 ** n,) * 3 for b in blocks)
        assert len({id(b) for b in blocks}) == len({ops for ops, perm in circuit._groups if perm is not None})
    obs = np.stack([np.diag(rng.normal(size=2 ** n)), rng.normal(size=(2 ** n,) * 2)])
    obs[1] += obs[1].T
    theta = rng.uniform(0.0, 2.0 * np.pi, (45, circuit.n_params))
    which, obs_of = rng.integers(0, len(specs), len(theta)), rng.integers(0, 2, len(theta))
    ordered = np.sort(np.concatenate([np.zeros(32, int), rng.integers(1, len(specs), len(theta) - 32)]))
    for which in (which, ordered, np.full(len(theta), 3)):
        noise, per_obs = _ByRow(specs, which), _ByRow(obs, obs_of)
        states = _simulate(circuit, theta, noise)
        values = _expectations(circuit, theta, noise, per_obs)
        adj_values, adj_grads = _expectation_gradients(circuit, theta, noise, per_obs)
        for r, (t, k, o) in enumerate(zip(theta, which, obs_of)):
            np.testing.assert_array_equal(states[r], _simulate(circuit, t[None], specs[k])[0])
            assert values[r] == _expectations(circuit, t[None], specs[k], obs[o])[0]
            v, g = _expectation_gradients(circuit, t[None], specs[k], obs[o])
            assert adj_values[r] == v[0]
            np.testing.assert_array_equal(adj_grads[r], g[0])
        np.testing.assert_array_equal(_reduce(states, per_obs),
                                      np.where(obs_of == 0, _reduce(states, obs[0]), _reduce(states, obs[1])))
