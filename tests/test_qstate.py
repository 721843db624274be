"""Density matrix container, unitary application and partial trace, and the
package's one rule per input kind: counts, qubit indices and real numbers."""

import numpy as np
import pytest

from nvqa.channels import apply_channel_one_qubit, make_channel
from nvqa.circuits import Circuit, Cx, Ry, build_2q_circuit, build_hea, build_valley_demo
from nvqa.degen import generate_degeneracy_maps
from nvqa.harness import default_config
from nvqa.noisemodel import (ModelParams, estimate_alpha_beta, global_depol_infidelity,
                             linear_action_overlap_derivative, predict)
from nvqa.optimize import MinimizeOptions, energy_cost, multistart
from nvqa.pauli import SX, SZ, I2, PauliSum, vqe_hamiltonian_2q
from nvqa.randstates import RngStream, haar_orthogonals, product_rows, real_haar_rows
from nvqa.qstate import (
    DensityMatrix,
    MAX_QUBITS,
    apply_unitary,
    eigen_desc,
    expectation,
    partial_trace,
    pure_state,
    zero_state,
)
from conftest import random_mixed_state


def test_zero_state_is_projector():
    rho = zero_state(3)
    assert rho.data[0, 0] == 1.0
    assert np.count_nonzero(rho.data) == 1
    rho.validate()
    assert abs(rho.purity() - 1.0) < 1e-14


def test_pure_state_requires_normalized_vector(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    with pytest.raises(ValueError):
        pure_state(v)
    rho = pure_state(v / np.linalg.norm(v))
    rho.validate()
    assert rho.n_qubits == 2
    assert abs(rho.purity() - 1.0) < 1e-12


def test_pure_state_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        pure_state(np.ones(3) / np.sqrt(3.0))


@pytest.mark.parametrize("amplitudes", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0], []],
                         ids=["nan", "nan-second", "inf", "empty"])
def test_pure_state_refuses_non_finite_and_empty_vectors(amplitudes):
    with pytest.raises(ValueError):
        pure_state(amplitudes)


@pytest.mark.parametrize("n_qubits", [1, 2, MAX_QUBITS])
def test_density_matrix_reads_its_width_off_its_data(n_qubits):
    """A side of 2^n makes an n-qubit state, n an int."""
    rho = DensityMatrix(np.broadcast_to(0.0, (2 ** n_qubits,) * 2))
    assert rho.n_qubits == n_qubits and type(rho.n_qubits) is int and rho.dim == 2 ** n_qubits


def test_states_are_equal_only_to_themselves():
    a, b = zero_state(1), zero_state(1)
    assert a == a and a != b and a in [a] and b not in [a]
    assert len({a, b}) == 2


@pytest.mark.parametrize("call", [
    lambda: DensityMatrix(np.broadcast_to(0.0, (2 ** (MAX_QUBITS + 1),) * 2)),
    lambda: DensityMatrix(np.eye(4)[:, :2]),
    lambda: DensityMatrix(np.eye(3) / 3),
    lambda: DensityMatrix(np.eye(1)),
    lambda: DensityMatrix(np.zeros((0, 0))),
    lambda: DensityMatrix(np.ones(4) / 4),
    lambda: DensityMatrix(np.zeros((2, 2, 2))),
    lambda: partial_trace(zero_state(2), []),
    lambda: partial_trace(zero_state(2), [0, 0]),
    lambda: partial_trace(zero_state(2), [2]),
    lambda: partial_trace(zero_state(2), [-1]),
], ids=["too-wide", "not-square", "not-power-of-two", "one-by-one", "empty", "vector", "stack",
        "keep-none", "keep-repeated", "keep-too-high", "keep-negative"])
def test_malformed_states_and_keep_lists_are_refused(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("qubit", [1.7, 0.9, 1.0, True, np.float64(1.0), "1"],
                         ids=["1.7", "0.9", "1.0", "bool", "float64", "str"])
def test_non_integer_qubit_indices_are_refused(qubit):
    """int(q) once truncated a float index to a valid qubit, so a wrong state
    looked right: apply_unitary(zero_state(2), SX, [1.7]) flipped qubit 1 and
    partial_trace(zero_state(2), [0.9]) kept qubit 0."""
    with pytest.raises(ValueError, match="must be an integer"):
        apply_unitary(zero_state(2), SX, [qubit])
    with pytest.raises(ValueError, match="must be an integer"):
        partial_trace(zero_state(2), [qubit])
    assert apply_unitary(zero_state(2), SX, [np.int64(1)]).data[1, 1] == 1.0
    assert partial_trace(zero_state(2), (np.int64(0),)).data[0, 0] == 1.0


def test_data_is_read_only():
    rho = zero_state(1)
    with pytest.raises(ValueError):
        rho.data[0, 0] = 0.5


def test_qubit_count_bounds():
    with pytest.raises(ValueError):
        zero_state(0)
    with pytest.raises(ValueError):
        zero_state(MAX_QUBITS + 1)


def test_validate_flags_bad_trace():
    rho = DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError):
        rho.validate()


def test_symmetrized_repairs_hermiticity():
    data = np.array([[0.5, 0.1 + 1e-9j], [0.1, 0.5]], dtype=complex)
    rho = DensityMatrix(data).symmetrized()
    assert np.allclose(rho.data, rho.data.conj().T)


def test_apply_unitary_matches_kron_oracle(rng):
    rho = random_mixed_state(2, rng)
    out = apply_unitary(rho, SX, (0,))
    full = np.kron(SX, I2)
    assert np.allclose(out.data, full @ rho.data @ full.conj().T, atol=1e-13)

    out = apply_unitary(rho, SZ, (1,))
    full = np.kron(I2, SZ)
    assert np.allclose(out.data, full @ rho.data @ full.conj().T, atol=1e-13)


def test_apply_unitary_two_qubit_targets(rng):
    rho = random_mixed_state(3, rng)
    u = np.kron(SX, SZ)
    out = apply_unitary(rho, u, (0, 2))
    full = np.kron(SX, np.kron(I2, SZ))
    assert np.allclose(out.data, full @ rho.data @ full.conj().T, atol=1e-13)


def test_apply_unitary_rejects_nonunitary(rng):
    rho = zero_state(1)
    with pytest.raises(ValueError):
        apply_unitary(rho, np.array([[1.0, 0.0], [0.0, 0.5]]), (0,))


def test_apply_unitary_rejects_repeated_targets():
    rho = zero_state(2)
    with pytest.raises(ValueError):
        apply_unitary(rho, np.eye(4), (0, 0))


def test_partial_trace_of_product_state(rng):
    a = random_mixed_state(1, rng)
    b = random_mixed_state(1, rng)
    ab = DensityMatrix(np.kron(a.data, b.data))
    assert np.allclose(partial_trace(ab, (0,)).data, a.data, atol=1e-13)
    assert np.allclose(partial_trace(ab, (1,)).data, b.data, atol=1e-13)


def test_partial_trace_commutes_with_relabeling(rng):
    """Tracing out a qubit then swapping equals swapping then tracing."""
    rho = random_mixed_state(3, rng)
    swap = np.eye(4)[[0, 2, 1, 3]]
    left = partial_trace(apply_unitary(rho, swap, (0, 1)), (0, 1))
    right_kept = partial_trace(rho, (1, 0))
    # keeping (1, 0) preserves the requested order, which equals swap-then-keep
    assert np.allclose(left.data, right_kept.data, atol=1e-13)


def test_partial_trace_keep_order_is_respected(rng):
    rho = random_mixed_state(2, rng)
    fwd = partial_trace(rho, (0, 1))
    rev = partial_trace(rho, (1, 0))
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(rev.data, swap @ fwd.data @ swap.T, atol=1e-13)


def test_expectation_real_and_guarded():
    rho = zero_state(1)
    assert abs(expectation(rho, PauliSum(1, ((1.0, "Z"),))) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        expectation(rho, PauliSum(2, ((1.0, "ZZ"),)))


def test_eigen_desc_sorted(rng):
    rho = random_mixed_state(2, rng)
    vals = eigen_desc(rho.data)
    assert np.all(np.diff(vals) <= 1e-14)
    assert abs(vals.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        eigen_desc(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_purity_range(rng):
    for n in (1, 2, 3):
        rho = random_mixed_state(n, rng)
        p = rho.purity()
        assert 2.0 ** -n - 1e-12 <= p <= 1.0 + 1e-12



_PARAMS = ModelParams("phase", 2, 0.5, 0.1, 0.01, 0.01, 100)
_COST = energy_cost(build_2q_circuit("a"), vqe_hamiltonian_2q())
_GEN = np.random.default_rng(0)  # every call below is refused before it draws


@pytest.mark.parametrize("name, least, call", [
    ("layers", 1, build_hea),
    ("cap", 1, lambda v: generate_degeneracy_maps(build_valley_demo(), v)),
    ("d", 0, lambda v: global_depol_infidelity(0.1, v, 2)),
    ("d", 0, lambda v: predict(_PARAMS, 0.1, v)),
    ("n_samples", 2, lambda v: estimate_alpha_beta("phase", 1, v, _GEN)),
    ("max_iters", 0, lambda v: MinimizeOptions(max_iters=v)),
    ("n_starts", 1, lambda v: multistart(_COST, v, 0)),
    ("seed", 0, lambda v: multistart(_COST, 2, v)),
    ("seed", 0, RngStream),
    ("stream_id", 0, lambda v: RngStream(0, v)),
    ("dim", 1, lambda v: haar_orthogonals(v, _GEN, 1)),
    ("k", 1, lambda v: real_haar_rows(2, _GEN, v)),
    ("k", 1, lambda v: product_rows(4, _GEN, v)),
    ("n_starts_2q", 1, lambda v: default_config("vqe2q", n_starts_2q=v)),
    ("n_starts_4q", 1, lambda v: default_config("vqe4q", n_starts_4q=v)),
    ("n_targets", 1, lambda v: default_config("target_fidelity", n_targets=v)),
    ("n_samples", 2, lambda v: default_config("alpha_beta_table", n_samples=v)),
    ("layers", 1, lambda v: default_config("target_fidelity", layers=(2, v))),
    ("seed", 0, lambda v: default_config("vqe2q", seed=v)),
], ids=["build_hea", "degeneracy-cap", "global-depol-d", "predict-d", "alpha-beta-samples",
        "max_iters", "multistart-starts", "multistart-seed", "stream-seed", "stream-id", "haar-dim",
        "haar-rows-k", "product-rows-k", "config-starts-2q", "config-starts-4q", "config-targets",
        "config-samples", "config-layers", "config-seed"])
@pytest.mark.parametrize("bad", ["least-1", "bool", "float"])
def test_every_count_passes_one_rule(name, least, call, bad):
    """Each count, seed and layer count is an integer of at least its least
    value by one rule, qstate._as_int, and is refused with a ValueError
    naming its field: one below the least value, a bool (which Python
    makes an int) and a float of an integer value alike."""
    value, message = {
        "least-1": (least - 1, rf"^{name} must be >= {least}, got {least - 1}$"),
        "bool": (bool(least), rf"^{name} must be an integer, got {bool(least)}$"),
        "float": (float(least + 1), rf"^{name} must be an integer, got {float(least + 1)}$"),
    }[bad]
    with pytest.raises(ValueError, match=message):
        call(value)


def test_product_rows_name_the_count_they_were_given(rng):
    """product_rows draws k * n single-qubit columns, and a negative k was
    refused as that product: k=-4 for product_rows(4, rng, -1)."""
    with pytest.raises(ValueError, match=r"^k must be >= 1, got -1$"):
        product_rows(4, rng, -1)


_PHASE = make_channel("phase", 0.1)


@pytest.mark.parametrize("call, type_name, range_name", [
    (lambda q: apply_unitary(zero_state(2), SX, [q]), "target qubit", "target qubit"),
    (lambda q: partial_trace(zero_state(2), [q]), "kept qubit", "kept qubit"),
    (lambda q: apply_channel_one_qubit(zero_state(2), _PHASE, q), "qubit", "qubit"),
    (lambda q: Circuit(2, (Ry(0, q),)), "qubit", "Ry qubit"),
    (lambda q: Circuit(2, (Cx(q, 0),)), "control", "CX control"),
    (lambda q: Circuit(2, (Cx(0, q),)), "target", "CX target"),
], ids=["apply_unitary", "partial_trace", "channel-one-qubit", "circuit-ry", "circuit-cx-control",
        "circuit-cx-target"])
@pytest.mark.parametrize("qubit", [True, 1.0, "1", 2, -1], ids=["bool", "float", "str", "n", "negative"])
def test_every_qubit_index_passes_one_rule(call, type_name, range_name, qubit):
    """Each qubit index is an integer in [0, n) by one rule, qstate._as_index.
    apply_channel_one_qubit once raised TypeError from numpy or a comparison
    for True, 1.0 and "1", where apply_unitary and partial_trace refused
    them with a ValueError."""
    if isinstance(qubit, int) and not isinstance(qubit, bool):
        message = rf"^{range_name} {qubit} out of range for 2 qubits$"
    else:
        message = rf"^{type_name} must be an integer, got {qubit!r}$"
    with pytest.raises(ValueError, match=message):
        call(qubit)


@pytest.mark.parametrize("coeff", [True, "1.5", 1j, None, np.complex128(0.5)],
                         ids=["bool", "string", "complex", "none", "numpy-complex"])
def test_a_pauli_coefficient_passes_the_real_number_rule(coeff):
    """float() once turned True into 1.0 and "1.5" into 1.5, and raised a bare
    TypeError for 1j or None (numpy's complex is dropped to its real part
    with a ComplexWarning)."""
    with pytest.raises(ValueError, match=r"^coefficient of 'ZZ' must be a real number, got "):
        PauliSum(2, ((coeff, "ZZ"),))
    assert PauliSum(2, ((np.int64(2), "ZZ"),)).terms == ((2.0, "ZZ"),)


@pytest.mark.parametrize("eps, message", [
    (0, r"^eps must be in \(0, 1\), got 0.0$"), (0.0, r"^eps must be in \(0, 1\), got 0.0$"),
    (-1e-5, r"^eps must be in \(0, 1\), got -1e-05$"), (1.0, r"^eps must be in \(0, 1\), got 1.0$"),
    (float("nan"), r"^eps must be in \(0, 1\), got nan$"),
    (True, r"^eps must be a real number, got True$"), ("1e-5", r"^eps must be a real number, got '1e-5'$"),
], ids=["zero", "zero-float", "negative", "one", "nan", "bool", "string"])
def test_an_overlap_derivative_step_is_a_real_number_in_0_1(eps, message):
    """eps=0 returned NaN with a RuntimeWarning, and eps=True was refused as
    "gamma must be in (-1, 1], got -1", naming a gamma the caller never gave."""
    with pytest.raises(ValueError, match=message):
        linear_action_overlap_derivative("phase", zero_state(1), eps)
