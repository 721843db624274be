"""Pauli algebra and Hamiltonian construction."""

import numpy as np
import pytest

from nvqa.pauli import (
    I2,
    SX,
    SY,
    SZ,
    PauliSum,
    pauli_string_matrix,
    vqe_hamiltonian_2q,
    vqe_hamiltonian_4q,
)


def test_single_qubit_algebra():
    for p in (SX, SY, SZ):
        assert np.allclose(p @ p, I2)
        assert np.allclose(p, p.conj().T)
    assert np.allclose(SX @ SY, 1j * SZ)
    assert np.allclose(SY @ SZ, 1j * SX)
    assert np.allclose(SZ @ SX, 1j * SY)


def test_string_matrix_qubit_order():
    # qubit 0 is the leftmost letter, i.e. the most significant tensor factor
    assert np.allclose(pauli_string_matrix("ZI"), np.kron(SZ, I2))
    assert np.allclose(pauli_string_matrix("IZ"), np.kron(I2, SZ))
    assert np.allclose(pauli_string_matrix("XY"), np.kron(SX, SY))


def test_string_matrix_rejects_bad_letters():
    with pytest.raises(ValueError):
        pauli_string_matrix("ZQ")


def test_pauli_sum_matches_kron_oracle():
    h = PauliSum(2, ((0.5, "XX"), (-1.25, "ZI")))
    want = 0.5 * np.kron(SX, SX) - 1.25 * np.kron(SZ, I2)
    assert np.allclose(h.to_matrix(), want)


@pytest.mark.parametrize("coeff, word, match", [
    (1.0, "XQ", "invalid Pauli word"), (1.0, "xI", "invalid Pauli word"),
    (1.0, "Z1", "invalid Pauli word"), (1.0, "I ", "invalid Pauli word"),
    (float("nan"), "ZZ", "coefficient of 'ZZ' must be finite"),
    (float("inf"), "XI", "coefficient of 'XI' must be finite"),
    (-np.inf, "IX", "coefficient of 'IX' must be finite"),
], ids=["XQ", "xI", "Z1", "I ", "nan", "inf", "-inf"])
def test_pauli_sum_rejects_letters_outside_ixyz(coeff, word, match):
    """A NaN or infinite coefficient once passed, to come back as a NaN
    ground energy or as "params must be finite", blaming the angles."""
    with pytest.raises(ValueError, match=match):
        PauliSum(2, ((0.5, "ZZ"), (coeff, word)))


def test_pauli_sum_rejects_wrong_length():
    with pytest.raises(ValueError):
        PauliSum(2, ((1.0, "XXX"),))


@pytest.mark.parametrize("n_qubits, match", [
    (0, r"in \[1, 10\]"), (-1, r"in \[1, 10\]"), (True, "an integer"), (2.5, "an integer"),
], ids=["zero", "negative", "bool", "float"])
def test_pauli_sum_refuses_a_width_that_is_no_qubit_count(n_qubits, match):
    """PauliSum(0, ()) built a 1x1 observable and True built with n_qubits
    True; -1 and 2.5 built and then failed in to_matrix with a bare TypeError."""
    with pytest.raises(ValueError, match=match):
        PauliSum(n_qubits, ())
    width = PauliSum(np.int64(2), ((1.0, "ZZ"),)).n_qubits
    assert width == 2 and type(width) is int


@pytest.mark.parametrize(
    "ham, n",
    [(vqe_hamiltonian_2q(), 2), (vqe_hamiltonian_4q(), 4)],
)
def test_hamiltonians_are_real_symmetric(ham, n):
    m = ham.to_matrix()
    assert ham.n_qubits == n
    assert m.shape == (2 ** n, 2 ** n)
    assert np.allclose(m, m.conj().T)
    assert np.allclose(m.imag, 0.0)


def test_ground_energies_match_minus_sqrt5():
    for ham in (vqe_hamiltonian_2q(), vqe_hamiltonian_4q()):
        evals = np.linalg.eigvalsh(ham.to_matrix())
        assert abs(evals[0] - (-np.sqrt(5.0))) < 1e-12
        # unique ground state in both systems
        assert evals[1] - evals[0] > 0.5
