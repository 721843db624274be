"""Shared fixtures and the acceptance report hook."""

import sys
from functools import reduce

import numpy as np
import pytest

from nvqa.qstate import DensityMatrix, pure_state
from nvqa.randstates import haar_orthogonal


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def haar_orthogonal_reference(dim: int, gen: np.random.Generator) -> np.ndarray:
    """The per-draw oracle for nvqa.randstates' stacked draws: one (dim, dim)
    normal draw, np.linalg.qr and the sign fix."""
    g = gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r).copy()
    d[d == 0.0] = 1.0
    return q * np.sign(d)


def real_haar_reference(n_qubits: int, gen: np.random.Generator) -> DensityMatrix:
    """One real Haar state from the per-draw oracle."""
    return pure_state(haar_orthogonal_reference(2 ** n_qubits, gen)[:, 0])


def product_reference(n_qubits: int, gen: np.random.Generator) -> DensityMatrix:
    """One product of single-qubit real Haar states from the per-draw oracle."""
    return pure_state(reduce(np.kron, [haar_orthogonal_reference(2, gen)[:, 0] for _ in range(n_qubits)]))


def random_mixed_state(n_qubits: int, rng, rank: int | None = None) -> DensityMatrix:
    """Random full- or fixed-rank density matrix via Haar basis and a simplex draw."""
    dim = 2 ** n_qubits
    r = dim if rank is None else rank
    q = haar_orthogonal(dim, rng)
    probs = rng.dirichlet(np.ones(r))
    lam = np.zeros(dim)
    lam[:r] = probs
    data = (q * lam) @ q.T
    return DensityMatrix(data.astype(complex))


@pytest.fixture
def make_mixed():
    return random_mixed_state


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
