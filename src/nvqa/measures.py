"""Solution-quality measures: energy, fidelity to a pure target, concurrence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import SY, PauliSum
from .qstate import DensityMatrix, _as_int, _require_width, expectation, partial_trace

_IMAG_TOL = 1e-8
_DEGENERACY_TOL = 1e-10
_SYY = np.kron(SY, SY)


@dataclass(frozen=True)
class QualityRecord:
    """Bundle of the three quality measures for one optimized state.

    energy is NaN when the run had no Hamiltonian in scope (fidelity-target
    objectives).
    """

    energy: float
    fidelity: float
    concurrence: float


def _require_pure(sigma: DensityMatrix) -> None:
    """Refuse a reference state whose purity is below 1 - 1e-8, or NaN."""
    if not sigma.purity() >= 1.0 - 1e-8:
        raise ValueError(f"reference state is not pure (purity {sigma.purity()})")


def energy(rho: DensityMatrix, hamiltonian: PauliSum) -> float:
    """Tr[H rho]."""
    return expectation(rho, hamiltonian)


def fidelity(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Tr[sigma rho] for a pure reference sigma.

    Raises if sigma is not pure (purity below 1 - 1e-8) or if the trace
    carries an imaginary residue above 1e-8.
    """
    _require_width("sigma acts on", sigma.n_qubits, "rho", rho.n_qubits)
    _require_pure(sigma)
    val = np.einsum("ij,ji->", sigma.data, rho.data)
    if abs(val.imag) > _IMAG_TOL:
        raise ValueError(f"fidelity has imaginary residue {val.imag}")
    return float(val.real)


def infidelity(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """1 - fidelity(sigma, rho)."""
    return 1.0 - fidelity(sigma, rho)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the descending square roots of the eigenvalues of
    rho (Y x Y) conj(rho) (Y x Y); small negative eigenvalues from roundoff
    are clipped through the absolute value before the square root.
    """
    _require_width("concurrence acts on", 2, "rho", rho.n_qubits)
    rho_tilde = _SYY @ rho.data.conj() @ _SYY
    evals = np.linalg.eigvals(rho.data @ rho_tilde)
    lam = np.sort(np.sqrt(np.abs(evals.real)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def max_pairwise_concurrence(rho: DensityMatrix) -> float:
    """Maximum concurrence over all two-qubit reduced states."""
    n = _as_int(rho.n_qubits, "n_qubits", 2)
    if n == 2:
        return concurrence(rho)
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, concurrence(partial_trace(rho, (i, j))))
    return best


@dataclass(frozen=True)
class GroundTruth:
    energy: float
    state: DensityMatrix
    degenerate: bool


def ground_truth(hamiltonian: PauliSum) -> GroundTruth:
    """Exact ground energy and ground state by dense diagonalization.

    The degenerate flag is set when the spectral gap above the ground energy
    is at most _DEGENERACY_TOL (1e-10); the returned state is then one
    representative of the degenerate subspace.
    """
    h = hamiltonian.to_matrix()
    evals, evecs = np.linalg.eigh(h)
    e0 = float(evals[0])
    degenerate = bool(evals.size > 1 and evals[1] - evals[0] <= _DEGENERACY_TOL)
    v = evecs[:, 0]
    state = DensityMatrix(np.outer(v, v.conj()))
    return GroundTruth(e0, state, degenerate)

