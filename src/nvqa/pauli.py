"""Pauli matrices, Pauli-word observables, and the benchmark Hamiltonians."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def pauli_string_matrix(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word such as ``"XIZ"``.

    Qubit 0 is the leftmost letter, i.e. the most significant bit of the
    computational-basis index.
    """
    if not word or any(c not in PAULI for c in word):
        raise ValueError(f"invalid Pauli word: {word!r}")
    return reduce(np.kron, (PAULI[c] for c in word))


@dataclass(frozen=True)
class PauliSum:
    """Hermitian observable given as a real-weighted sum of Pauli words.

    Parameters
    ----------
    n_qubits : int
        Number of qubits each word acts on.
    terms : tuple of (coefficient, word) pairs
        Coefficients must be real so the matrix form is Hermitian.
    """

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(c), str(w)) for c, w in self.terms))
        for coeff, word in self.terms:
            if not np.isfinite(coeff):
                raise ValueError(f"coefficient of {word!r} must be finite, got {coeff}")
            if len(word) != self.n_qubits:
                raise ValueError(f"word {word!r} does not act on {self.n_qubits} qubits")
            if any(c not in PAULI for c in word):
                raise ValueError(f"invalid Pauli word: {word!r}")

    def to_matrix(self) -> np.ndarray:
        dim = 2 ** self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, word in self.terms:
            out += coeff * pauli_string_matrix(word)
        return out


def vqe_hamiltonian_2q() -> PauliSum:
    """Two-qubit benchmark Hamiltonian Z0 Z1 + X0 + X1 (ground energy -sqrt(5))."""
    return PauliSum(2, ((1.0, "ZZ"), (1.0, "XI"), (1.0, "IX")))


def vqe_hamiltonian_4q() -> PauliSum:
    """Four-qubit benchmark Hamiltonian with two XY dimers coupled by Z0 Z2.

    H = Z0 Z2 + (X0 X1 + Y0 Y1 + X2 X3 + Y2 Y3) / 2, ground energy -sqrt(5).
    """
    return PauliSum(
        4,
        (
            (1.0, "ZIZI"),
            (0.5, "XXII"),
            (0.5, "YYII"),
            (0.5, "IIXX"),
            (0.5, "IIYY"),
        ),
    )
