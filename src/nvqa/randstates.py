"""Reproducible sampling of random real-amplitude pure states.

Orthogonal matrices are drawn by QR-decomposing standard-normal real
matrices and fixing the sign ambiguity so the factorization is unique
(Mezzadri, arXiv:math-ph/0609050); the first column of the orthogonal factor
is then a Haar-random real unit vector. Draws come as stacks: k matrices
take one (k, dim, dim) normal draw and one stacked QR, which leave the
stream and the bits of k draws made in turn. The single-draw functions are
the k = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, _as_int, _qubit_count, pure_state


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: (seed, stream_id) -> Generator."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_seed(self.seed))
        object.__setattr__(self, "stream_id", _as_seed(self.stream_id, "stream_id"))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        )


def _as_seed(value, name: str = "seed") -> int:
    """value as a non-negative int, by _as_int's rule: the one seed rule."""
    value = _as_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _child_seed(seed: int, *path: int) -> int:
    """The integer seed of the child stream at path under seed, one draw of its SeedSequence."""
    return int(np.random.SeedSequence(_as_seed(seed), spawn_key=path).generate_state(1)[0])


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)}")


def haar_orthogonals(dim: int, rng, k: int) -> np.ndarray:
    """k Haar-distributed orthogonal matrices, (k, dim, dim), via sign-fixed QR."""
    dim, k = _as_int(dim, "dim"), _as_int(k, "k")
    if dim < 1 or k < 1:
        raise ValueError(f"need dim >= 1 and k >= 1, got dim={dim}, k={k}")
    q, r = np.linalg.qr(_as_generator(rng).standard_normal((k, dim, dim)))
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d[d == 0.0] = 1.0
    return q * np.sign(d)[:, None, :]


def haar_orthogonal(dim: int, rng) -> np.ndarray:
    """One Haar-distributed orthogonal matrix."""
    return haar_orthogonals(dim, rng, 1)[0]


def real_haar_rows(n_qubits: int, rng, k: int) -> np.ndarray:
    """k real amplitude rows, (k, 2**n), each uniform on the unit sphere."""
    return haar_orthogonals(2 ** _qubit_count(n_qubits), rng, k)[:, :, 0]


def product_rows(n_qubits: int, rng, k: int) -> np.ndarray:
    """k rows, (k, 2**n), each a tensor product of n independent
    single-qubit real Haar vectors: reduce(np.kron, ...) over one draw of
    k*n 2x2 matrices, taken row by row."""
    n, k = _qubit_count(n_qubits), _as_int(k, "k")
    cols = haar_orthogonals(2, rng, k * n)[:, :, 0].reshape(k, n, 2)
    rows = cols[:, 0]
    for q in range(1, n):
        rows = (rows[:, :, None] * cols[:, q, None, :]).reshape(k, -1)
    return rows


def sample_real_haar_state(n_qubits: int, rng) -> DensityMatrix:
    """A pure state with real amplitudes, uniform on the unit sphere."""
    return pure_state(real_haar_rows(n_qubits, rng, 1)[0])


def sample_product_state(n_qubits: int, rng) -> DensityMatrix:
    """Tensor product of independent single-qubit real Haar states."""
    return pure_state(product_rows(n_qubits, rng, 1)[0])
