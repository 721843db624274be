"""Reproducible sampling of random real-amplitude pure states.

States are drawn by QR-decomposing a standard-normal real matrix and fixing
the sign ambiguity so the factorization is unique; the first column of the
orthogonal factor is then a Haar-random real unit vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .qstate import DensityMatrix, pure_state


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: (seed, stream_id) -> Generator."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        )


def _child_seed(seed: int, *path: int) -> int:
    """The integer seed of the child stream at path under seed, one draw of its SeedSequence."""
    return int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1)[0])


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)}")


def haar_orthogonal(dim: int, rng) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-fixed QR."""
    gen = _as_generator(rng)
    g = gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r).copy()
    d[d == 0.0] = 1.0
    return q * np.sign(d)


def sample_real_haar_state(n_qubits: int, rng) -> DensityMatrix:
    """A pure state with real amplitudes, uniform on the unit sphere."""
    v = haar_orthogonal(2 ** n_qubits, rng)[:, 0]
    return pure_state(v)


def sample_product_state(n_qubits: int, rng) -> DensityMatrix:
    """Tensor product of independent single-qubit real Haar states."""
    gen = _as_generator(rng)
    vecs = [haar_orthogonal(2, gen)[:, 0] for _ in range(n_qubits)]
    return pure_state(reduce(np.kron, vecs))
