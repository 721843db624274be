"""Dense density-matrix states and the tensor algebra used across the package.

States on n qubits are stored as 2**n x 2**n complex matrices, n read off the
side. Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
the basis index, so for two qubits the basis ordering is |00>, |01>, |10>, |11|.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .pauli import PauliSum

MAX_QUBITS = 10

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
EIGVAL_TOL = 1e-10
PURITY_TOL = 1e-10


def _as_int(value, name: str, least: int | None = None) -> int:
    """value as an int, refused below least where least is given: the one count
    rule. Bools, which Python makes ints, and non-integers are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _require_ints(obj, *names: str, least: int | None = None) -> None:
    """Store the named fields as ints, by _as_int's rule."""
    for name in names:
        object.__setattr__(obj, name, _as_int(getattr(obj, name), name, least))


def _as_index(value, name: str, n: int) -> int:
    """value as a qubit index of an n-qubit register, by _as_int's rule: the one index rule."""
    q = _as_int(value, name)
    if not 0 <= q < n:
        raise ValueError(f"{name} {q} out of range for {n} qubits")
    return q


def _require_width(what: str, n: int, of: str, m: int) -> None:
    """Refuse what, on n qubits, against of, on m, unless n == m: the one width
    rule. what carries its verb, such as "noise spec covers" or "target acts on"."""
    if n != m:
        raise ValueError(f"{what} {n} qubits, {of} has {m}")


def _as_real(value, name: str) -> float:
    """value as a float; a bool, a string or anything not real is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _qubit_count(n_qubits) -> int:
    """n_qubits as an int in [1, MAX_QUBITS]; anything else is refused."""
    n = _as_int(n_qubits, "n_qubits")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    return n


def _require_unit_norms(rows: np.ndarray) -> None:
    """Refuse amplitude vectors, along the last axis, whose norm differs from
    1 by more than 1e-10."""
    with np.errstate(all="ignore"):  # an infinite amplitude makes a NaN norm
        nrm = np.ravel(np.linalg.norm(rows, axis=-1))
    bad = ~(np.abs(nrm - 1.0) <= 1e-10)  # a NaN norm fails too
    if bad.any():
        raise ValueError(f"vector norm {nrm[bad][0]} differs from 1")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Immutable n-qubit mixed state, equal only to itself.

    Its data, a square array of side 2^n with n in [1, MAX_QUBITS], fixes
    n_qubits; a read-only copy is kept. Validation of the physical invariants
    (Hermitian, unit trace, positive, purity range) is explicit via
    :meth:`validate` so hot loops stay cheap.
    """

    data: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self):
        shape = np.shape(self.data)
        side = shape[0] if len(shape) == 2 else 0
        if shape != (side, side) or side & (side - 1):
            raise ValueError(f"expected a square array of side 2^n, got shape {shape}")
        object.__setattr__(self, "n_qubits", _qubit_count(side.bit_length() - 1))
        arr = np.array(self.data, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.data, self.data).real)

    def symmetrized(self) -> "DensityMatrix":
        """Repair Hermiticity drift via (rho + rho^dagger) / 2."""
        return DensityMatrix(0.5 * (self.data + self.data.conj().T))

    def validate(self) -> None:
        """Raise ValueError if any physical invariant is violated."""
        rho = self.data
        if np.abs(rho - rho.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("state is not Hermitian within 1e-12")
        if abs(np.trace(rho) - 1.0) > TRACE_TOL:
            raise ValueError("trace differs from 1 by more than 1e-10")
        evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if evals.min() < -EIGVAL_TOL:
            raise ValueError("state has an eigenvalue below -1e-10")
        p = self.purity()
        if not (2.0 ** (-self.n_qubits) - PURITY_TOL <= p <= 1.0 + PURITY_TOL):
            raise ValueError(f"purity {p} outside [2^-n, 1]")


def zero_state(n_qubits: int) -> DensityMatrix:
    """The computational all-zeros state |0...0><0...0|."""
    dim = 2 ** _qubit_count(n_qubits)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(rho)


def pure_state(amplitudes: np.ndarray) -> DensityMatrix:
    """Density matrix |psi><psi| of a normalized state vector."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    _require_unit_norms(v)
    return DensityMatrix(np.outer(v, v.conj()))


def _contract(tensor: np.ndarray, op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract a 2^k x 2^k operator onto the given axes of a (2,)*m tensor."""
    k = len(axes)
    opt = op.reshape((2,) * (2 * k))
    out = np.tensordot(opt, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def _conjugate_raw(data: np.ndarray, op: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """U rho U^dagger on raw (dim, dim) data, U acting on the given qubits."""
    t = data.reshape((2,) * (2 * n))
    t = _contract(t, op, targets)
    t = _contract(t, op.conj(), tuple(n + q for q in targets))
    return t.reshape(data.shape[0], data.shape[0])


def apply_unitary(rho: DensityMatrix, u: np.ndarray, targets: list[int] | tuple[int, ...]) -> DensityMatrix:
    """Conjugate the state by a unitary acting on the listed qubits.

    Parameters
    ----------
    rho : DensityMatrix
    u : ndarray
        2^k x 2^k unitary, k = len(targets).
    targets : sequence of int
        Distinct integer qubit indices (a float or a bool is refused, not
        truncated); targets[0] is the first tensor factor of u.
    """
    targets = tuple(_as_index(q, "target qubit", rho.n_qubits) for q in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    u = np.asarray(u, dtype=complex)
    k = len(targets)
    if u.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {u.shape} does not match {k} target qubits")
    if np.abs(u @ u.conj().T - np.eye(2 ** k)).max() > 1e-12:
        raise ValueError("operator is not unitary within 1e-12")
    return DensityMatrix(_conjugate_raw(rho.data, u, targets, rho.n_qubits))


def partial_trace(rho: DensityMatrix, keep: list[int] | tuple[int, ...]) -> DensityMatrix:
    """Reduced state on the kept qubits, in the order they are listed; each
    must be an integer index (a float or a bool is refused, not truncated)."""
    n = rho.n_qubits
    keep = tuple(_as_index(q, "kept qubit", n) for q in keep)
    if len(keep) == 0:
        raise ValueError("must keep at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"invalid keep list for {n} qubits: {keep}")
    traced = tuple(q for q in range(n) if q not in keep)
    t = rho.data.reshape((2,) * (2 * n))
    perm = keep + tuple(n + q for q in keep) + traced + tuple(n + q for q in traced)
    t = t.transpose(perm)
    dk = 2 ** len(keep)
    dt = 2 ** len(traced)
    t = t.reshape(dk, dk, dt, dt)
    return DensityMatrix(np.einsum("ijkk->ij", t))


def expectation(rho: DensityMatrix, observable: PauliSum) -> float:
    """Tr[O rho] for a Hermitian Pauli-sum observable, returned as a real float."""
    _require_width("observable acts on", observable.n_qubits, "state", rho.n_qubits)
    val = np.einsum("ij,ji->", observable.to_matrix(), rho.data)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)


def eigen_desc(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in descending order."""
    m = np.asarray(m)
    if np.abs(m - m.conj().T).max() > 1e-10:
        raise ValueError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh(m)[::-1]
