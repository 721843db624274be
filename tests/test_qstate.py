"""Density matrix container, unitary application and partial trace."""

import numpy as np
import pytest

from nvqa.pauli import SX, SZ, I2, PauliSum
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
