"""Parameter degeneracy maps: construction, group structure and noise splits."""

import re
import warnings

import numpy as np
import pytest

from nvqa import circuits, degen
from nvqa.channels import NoiseSpec
from nvqa.circuits import (
    Circuit,
    Cx,
    Ry,
    build_2q_circuit,
    build_4q_vqe,
    build_hea,
    build_valley_demo,
    evaluate,
    evaluate_pure,
)
from nvqa.degen import DegeneracyMap, degeneracy_split, generate_degeneracy_maps
from nvqa.measures import fidelity
from nvqa.qstate import DensityMatrix, pure_state

TWO_PI = 2.0 * np.pi
# 4-qubit density rows per _simulate call in circuits._expectations
_BLOCK = circuits._CHUNK_FLOATS // 256


def split_reference(circuit, theta_star, maps, noise, target):
    """The per-map loop degeneracy_split replaced: one evaluate and one
    fidelity call per map."""
    return np.array([fidelity(target, evaluate(circuit, m.apply(theta_star), noise)) for m in maps])


def verify_reference(circuit, maps, n_points=3):
    """The per-map, per-point loop _verify_maps replaced; returns the first
    map that fails, or None."""
    rng = np.random.default_rng(0xD5)
    thetas = rng.uniform(0.0, TWO_PI, size=(n_points, circuit.n_params))
    ref = [evaluate_pure(circuit, t) for t in thetas]
    for m in maps:
        for t, psi in zip(thetas, ref):
            phi = evaluate_pure(circuit, m.apply(t))
            if abs(1.0 - abs(np.vdot(psi, phi)) ** 2) > 1e-10:
                return m
    return None


def letter_reference(circuit, cap=2 ** 16):
    """The map construction generate_degeneracy_maps replaced: Pauli words
    pushed as qubit -> letter dicts, generators converted to bit vectors for
    the GF(2) reduction, and every group element converted back one mask at a
    time. Returns the maps unchecked, in the same order."""

    def mult(a, b):
        if a == "I":
            return b
        if b == "I":
            return a
        if a == b:
            return "I"
        return ({"X", "Y", "Z"} - {a, b}).pop()

    def cx_conjugate(word, control, target):
        a = word.get(control, "I")
        b = word.get(target, "I")
        new_c = mult(a, "Z" if b in ("Y", "Z") else "I")
        new_t = mult("X" if a in ("X", "Y") else "I", b)
        out = dict(word)
        for q, letter in ((control, new_c), (target, new_t)):
            if letter == "I":
                out.pop(q, None)
            else:
                out[q] = letter
        return out

    def generator(ops, k, n_params):
        gate = ops[k]
        signs = [1] * n_params
        shifts = [0] * n_params
        shifts[gate.param_index] = 1
        word = {gate.qubit: "Y"}
        for op in reversed(ops[:k]):
            if isinstance(op, circuits.Cx):
                word = cx_conjugate(word, op.control, op.target)
                continue
            letter = word.get(op.qubit, "I")
            if letter == "I":
                continue
            p = op.param_index
            if letter == "Y":
                shifts[p] ^= 1
                del word[op.qubit]
            elif letter == "X":
                signs[p] = -signs[p]
                shifts[p] ^= 1
                word[op.qubit] = "Z"
            else:
                signs[p] = -signs[p]
        if any(letter not in ("I", "Z") for letter in word.values()):
            return None
        return DegeneracyMap(tuple(signs), tuple(shifts))

    def to_bits(m):
        return np.array([int(s == -1) for s in m.signs] + list(m.shifts), dtype=np.uint8)

    def from_bits(bits, n_params):
        return DegeneracyMap(tuple(1 - 2 * int(b) for b in bits[:n_params]),
                             tuple(int(b) for b in bits[n_params:]))

    ops = [op for op in circuit.ops if not isinstance(op, circuits.NoiseMark)]
    gens = [generator(ops, k, circuit.n_params) for k, op in enumerate(ops) if isinstance(op, circuits.Ry)]
    basis = degen._gf2_basis([to_bits(g) for g in gens if g is not None])
    rank = len(basis)
    if 2 ** rank > cap:
        rank = int(np.floor(np.log2(cap)))
    maps = []
    for mask in range(2 ** rank):
        bits = np.zeros(2 * circuit.n_params, dtype=np.uint8)
        for i in range(rank):
            if mask >> i & 1:
                bits ^= basis[i]
        maps.append(from_bits(bits, circuit.n_params))
    maps.sort(key=lambda m: (m.shifts, m.signs))
    return maps


@pytest.mark.parametrize(
    "circuit, count",
    [
        (build_valley_demo(), 2),
        (build_2q_circuit("a"), 2),
        (build_2q_circuit("b"), 2),
        (build_2q_circuit("c"), 4),
        # the first ansatz layer admits no shift, every later layer adds 4
        # independent generators: 2^(4(L-1)) maps in total
        (build_hea(1), 1),
        (build_hea(2), 16),
        (build_hea(4), 4096),
        (build_4q_vqe(), 256),
    ],
    ids=["valley", "2q-a", "2q-b", "2q-c", "hea-1", "hea-2", "hea-4", "4q-vqe"],
)
def test_map_counts(circuit, count):
    maps = generate_degeneracy_maps(circuit)
    assert len(maps) == count


def test_identity_map_is_first():
    maps = generate_degeneracy_maps(build_2q_circuit("c"))
    assert maps[0].is_identity
    assert sum(m.is_identity for m in maps) == 1


def test_maps_preserve_the_noiseless_state(rng):
    c = build_hea(2)
    maps = generate_degeneracy_maps(c)
    theta = rng.uniform(0.0, TWO_PI, c.n_params)
    psi = evaluate_pure(c, theta)
    for m in maps:
        phi = evaluate_pure(c, m.apply(theta))
        assert abs(abs(np.vdot(psi, phi)) - 1.0) < 1e-10


def test_maps_form_a_group_under_composition():
    maps = generate_degeneracy_maps(build_2q_circuit("c"))
    keys = {(m.signs, m.shifts) for m in maps}
    for a in maps:
        for b in maps:
            c = a.compose(b)
            assert (c.signs, c.shifts) in keys


def test_apply_wraps_angles(rng):
    maps = generate_degeneracy_maps(build_2q_circuit("a"))
    theta = rng.uniform(0.0, TWO_PI, 3)
    for m in maps:
        out = m.apply(theta)
        assert np.all(out >= 0.0) and np.all(out < TWO_PI)


_ORACLE_CASES = {
    "valley": (build_valley_demo(), {}),
    **{f"2q-{v}": (build_2q_circuit(v), {}) for v in "abc"},
    **{f"hea-{L}": (build_hea(L), {}) for L in (1, 2, 3, 4)},
    "4q-vqe": (build_4q_vqe(), {}),
    "hea-4-cap-16": (build_hea(4), {"cap": 16}),
    "hea-5-cap-256": (build_hea(5), {"cap": 256}),
}


@pytest.mark.parametrize("name", _ORACLE_CASES)
def test_maps_match_the_letter_reference(name):
    """The bit-form construction returns the letter-dict construction's maps,
    in its order, with plain int entries."""
    circuit, kwargs = _ORACLE_CASES[name]
    if "cap" in kwargs:
        with pytest.warns(RuntimeWarning, match="exceeds cap"):
            maps = generate_degeneracy_maps(circuit, **kwargs)
    else:
        maps = generate_degeneracy_maps(circuit)
    want = letter_reference(circuit, **kwargs)
    assert [(m.signs, m.shifts) for m in maps] == [(m.signs, m.shifts) for m in want]
    assert all(type(v) is int for m in maps for v in m.signs + m.shifts)


def test_cap_truncates_with_warning():
    with pytest.warns(RuntimeWarning):
        maps = generate_degeneracy_maps(build_hea(4), cap=16)
    assert len(maps) == 16


def test_split_is_flat_at_zero_noise(rng):
    c = build_hea(2)
    maps = generate_degeneracy_maps(c)
    theta = rng.uniform(0.0, TWO_PI, c.n_params)
    target = pure_state(evaluate_pure(c, theta))
    fids = degeneracy_split(c, theta, maps, None, target)
    assert fids.shape == (len(maps),)
    assert np.abs(fids - 1.0).max() < 1e-10


@pytest.mark.parametrize("kind, flat", [("phase", True), ("depolarising", True), ("amplitude", False)])
def test_split_by_channel_kind(kind, flat, rng):
    """Phase and depolarising noise treat all degenerate minima alike;
    amplitude damping separates them."""
    c = build_hea(2)
    maps = generate_degeneracy_maps(c)
    theta = rng.uniform(0.0, TWO_PI, c.n_params)
    target = pure_state(evaluate_pure(c, theta))
    spec = NoiseSpec.uniform(kind, 0.05, 4)
    fids = degeneracy_split(c, theta, maps, spec, target)
    spread = fids.max() - fids.min()
    if flat:
        assert spread < 1e-9
    else:
        assert spread > 1e-4


def test_degeneracy_map_validation():
    with pytest.raises(ValueError):
        DegeneracyMap(signs=(1, 2), shifts=(0, 0))
    with pytest.raises(ValueError):
        DegeneracyMap(signs=(1, -1), shifts=(0, 3))
    with pytest.raises(ValueError):
        DegeneracyMap(signs=(1,), shifts=(0, 1))


def _targets(rng):
    """A real Haar target and one with a random complex phase on every amplitude."""
    v = rng.standard_normal(16)
    v /= np.linalg.norm(v)
    return {"real": pure_state(v), "complex-phase": pure_state(v * np.exp(1j * rng.uniform(0.0, TWO_PI, 16)))}


@pytest.mark.parametrize("noise", [
    None,
    NoiseSpec.uniform("amplitude", 0.0, 4),
    NoiseSpec.uniform("phase", 0.05, 4),
    NoiseSpec.uniform("amplitude", 0.05, 4),
    NoiseSpec.uniform("depolarising", 0.05, 4),
], ids=["none", "gamma-0", "phase", "amplitude", "depolarising"])
def test_split_matches_the_per_map_loop(noise, rng):
    """Blocked splits equal fidelity(target, evaluate(...)) map by map, over
    several full blocks and a partial one."""
    c = build_hea(3)
    maps = generate_degeneracy_maps(c)[:2 * _BLOCK + 5]
    theta = rng.uniform(0.0, TWO_PI, c.n_params)
    for name, target in _targets(rng).items():
        fids = degeneracy_split(c, theta, maps, noise, target)
        ref = split_reference(c, theta, maps, noise, target)
        assert fids.shape == ref.shape
        assert np.abs(fids - ref).max() <= 1e-14, name


@pytest.mark.parametrize("noise", [
    None,
    NoiseSpec.uniform("phase", 0.05, 4),
    NoiseSpec.uniform("amplitude", 0.05, 4),
    NoiseSpec.uniform("depolarising", 0.05, 4),
], ids=["none", "phase", "amplitude", "depolarising"])
def test_split_does_not_depend_on_where_the_list_starts(noise, rng):
    """degeneracy_split over maps[k:] equals the whole list's values from k
    on, bit for bit, for offsets inside a chunk and at a chunk edge."""
    c = build_hea(3)
    maps = generate_degeneracy_maps(c)
    theta = rng.uniform(0.0, TWO_PI, c.n_params)
    target = _targets(rng)["complex-phase"]
    whole = degeneracy_split(c, theta, maps, noise, target)
    for k in (1, 5, 17, _BLOCK - 1, _BLOCK + 1):
        np.testing.assert_array_equal(degeneracy_split(c, theta, maps[k:], noise, target), whole[k:])


@pytest.mark.parametrize("noise", [None, NoiseSpec.uniform("amplitude", 0.05, 4)], ids=["none", "amplitude"])
def test_split_and_check_at_block_edges(noise, rng):
    """Map lists of length 1 and _BLOCK + 1 give the result of the whole list."""
    c = build_hea(3)
    maps = generate_degeneracy_maps(c)
    theta = rng.uniform(0.0, TWO_PI, c.n_params)
    target = _targets(rng)["real"]
    whole = degeneracy_split(c, theta, maps, noise, target)
    for n in (1, _BLOCK + 1):
        part = degeneracy_split(c, theta, maps[:n], noise, target)
        assert part.shape == (n,)
        np.testing.assert_array_equal(part, whole[:n])
        np.testing.assert_allclose(part, split_reference(c, theta, maps[:n], noise, target),
                                   rtol=0.0, atol=1e-14)
        degen._verify_maps(c, maps[:n])
    assert degeneracy_split(c, theta, [], noise, target).shape == (0,)


@pytest.mark.parametrize("offset", [3, _BLOCK - 1])
def test_check_names_a_corrupted_map_in_the_second_block(offset, monkeypatch):
    """A map that is no symmetry, placed in the second block, makes
    generate_degeneracy_maps raise, and the message names that map."""
    # the check runs 4-qubit statevector rows: make a chunk _BLOCK of them
    monkeypatch.setattr(circuits, "_CHUNK_FLOATS", 16 * _BLOCK)
    c = build_hea(3)
    good = generate_degeneracy_maps(c)
    victim = good[_BLOCK + offset]
    # flipping one first-layer sign alone is no symmetry of the circuit
    corrupted = DegeneracyMap((-victim.signs[0],) + victim.signs[1:], victim.shifts)
    monkeypatch.setattr(degen, "DegeneracyMap",
                        lambda signs, shifts: corrupted if DegeneracyMap(signs, shifts) == victim
                        else DegeneracyMap(signs, shifts))
    listed = sorted([corrupted if m == victim else m for m in good], key=lambda m: (m.shifts, m.signs))
    assert listed.index(corrupted) == _BLOCK + offset
    assert verify_reference(c, listed) == corrupted
    with pytest.raises(RuntimeError, match=re.escape(str(corrupted))):
        generate_degeneracy_maps(c)


def test_split_keeps_the_input_checks(rng):
    """The width and purity checks of measures.fidelity and the noise-width
    check of circuits.evaluate survive the batching."""
    c = build_hea(2)
    maps = generate_degeneracy_maps(c)
    theta = rng.uniform(0.0, TWO_PI, c.n_params)
    mixed = DensityMatrix(np.eye(16) / 16.0)
    with pytest.raises(ValueError, match="not pure"):
        degeneracy_split(c, theta, maps, None, mixed)
    narrow = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
    for noise in (None, NoiseSpec.uniform("amplitude", 0.1, 4)):
        with pytest.raises(ValueError, match="target acts on 2 qubits, circuit has 4"):
            degeneracy_split(c, theta, maps, noise, narrow)
    target = _targets(rng)["real"]
    with pytest.raises(ValueError, match="noise spec"):
        degeneracy_split(c, theta, maps, NoiseSpec.uniform("phase", 0.1, 2), target)


def test_split_refuses_a_zero_strength_spec_of_the_wrong_width(rng):
    """A spec of strength zero runs the statevector path, but its width is
    still checked."""
    c = build_hea(2)
    theta = rng.uniform(0.0, TWO_PI, c.n_params)
    with pytest.raises(ValueError, match="noise spec covers 2 qubits"):
        degeneracy_split(c, theta, generate_degeneracy_maps(c), NoiseSpec.uniform("phase", 0.0, 2),
                         _targets(rng)["real"])


def _random_circuit(gen) -> Circuit:
    """A random Ry/CX circuit of 1-4 qubits and up to 12 gates, possibly with no Ry."""
    n = int(gen.integers(1, 5))
    ops = []
    for _ in range(int(gen.integers(0, 13))):
        if n == 1 or gen.random() < 0.6:
            ops.append(Ry(sum(isinstance(op, Ry) for op in ops), int(gen.integers(n))))
        else:
            control, target = gen.choice(n, 2, replace=False)
            ops.append(Cx(int(control), int(target)))
    return Circuit(n, tuple(ops))


def test_span_shift_rows_are_distinct_and_ordered():
    """Each generator sets its own gate's shift bit and otherwise only bits of
    earlier gates, so no two maps of a group, or of a capped subgroup, share
    their shifts. generate_degeneracy_maps orders the maps by shifts alone,
    which therefore decides every tie."""
    gen = np.random.default_rng(18)
    cases = [(c, {}) for c, _ in _ORACLE_CASES.values()] + [(_random_circuit(gen), {}) for _ in range(300)]
    cases += [(build_hea(4), {"cap": 16}), (build_hea(5), {"cap": 256})]
    for circuit, kwargs in cases:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "degeneracy group", RuntimeWarning)
            shifts = [m.shifts for m in generate_degeneracy_maps(circuit, **kwargs)]
        assert len(set(shifts)) == len(shifts)
        assert shifts == sorted(shifts)


def test_a_circuit_without_parameters_has_the_identity_map_only():
    maps = generate_degeneracy_maps(Circuit(1, ()))
    assert maps == [DegeneracyMap((), ())]
    assert np.array_equal(maps[0].apply(np.zeros(0)), np.zeros(0))
    assert generate_degeneracy_maps(Circuit(2, (Cx(0, 1),))) == maps


@pytest.mark.parametrize("cap", [0, -1, True, 2.5, "8"])
def test_a_cap_below_one_is_refused(cap):
    """A bool or a fractional cap once ran as a cap, and a string one raised TypeError."""
    with pytest.raises(ValueError, match="cap must be (>= 1|an integer)"):
        generate_degeneracy_maps(build_hea(2), cap=cap)


def test_a_theta_of_the_wrong_length_is_refused(rng):
    c = build_hea(2)
    maps = generate_degeneracy_maps(c)
    target = pure_state(evaluate_pure(c, rng.uniform(0.0, TWO_PI, c.n_params)))
    for theta in ([0.3], np.zeros(9), np.zeros((1, 8))):
        with pytest.raises(ValueError, match="theta must have shape"):
            degeneracy_split(c, theta, maps[:3], NoiseSpec.uniform("amplitude", 0.1, 4), target)
        with pytest.raises(ValueError, match="theta must have shape"):
            maps[5].apply(theta)


def test_maps_of_another_width_are_refused(rng):
    c = build_hea(2)
    target = pure_state(evaluate_pure(c, rng.uniform(0.0, TWO_PI, c.n_params)))
    maps = generate_degeneracy_maps(build_2q_circuit("c"))  # 4 maps on 4 parameters, 16 entries
    with pytest.raises(ValueError, match="cannot reshape"):
        degeneracy_split(c, np.zeros(c.n_params), maps, None, target)


def test_compose_refuses_maps_of_different_lengths():
    with pytest.raises(ValueError, match="cannot compose"):
        DegeneracyMap((1, -1), (0, 1)).compose(DegeneracyMap((-1,), (1,)))
