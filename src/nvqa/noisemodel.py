"""Stochastic model of noise-induced infidelity.

For weak product noise acting d times in a circuit, the relative infidelity
of a non-reoptimized optimum grows linearly: its ensemble mean is
alpha * gamma * d and its spread is sqrt(beta) * gamma * d, where alpha and
beta are the mean and variance over targets rho_T of

    -d/dgamma Tr[rho_T Lambda_gamma(rho_T)]   at gamma = 0.

The derivative is taken by central differences, which needs the channel
slightly below gamma = 0. The 2x2 block form of the channels
(channels._apply_noise) is analytic in gamma and provides that extension to
(-1, 1], in agreement with channel_superop. The Monte Carlo draws its
samples in blocks of _BLOCK amplitude rows, one sampler call each, and
differentiates each block as one stack of |v><v|; the estimates equal those
of a per-sample loop bit for bit. Global depolarising noise admits
the exact closed form (1 - (1-gamma)^d) (1 - 2^-N) regardless of the circuit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import _apply_noise, _require_kind
from .qstate import DensityMatrix, _as_int, _qubit_count, _require_unit_norms
from .randstates import RngStream, _as_generator, product_rows, real_haar_rows

_BLOCK = 32


@dataclass(frozen=True)
class ModelParams:
    """Monte Carlo estimate of the linear-response coefficients."""

    kind: str
    n_qubits: int
    alpha: float
    beta: float
    stderr_alpha: float
    stderr_beta: float
    n_samples: int


def global_depol_infidelity(gamma: float, d: int, n_qubits: int,
                            first_order: bool = False) -> float:
    """Infidelity after d rounds of global depolarising noise.

    Exact: (1 - (1-gamma)^d) (1 - 2^-n). With first_order=True the
    linearization (1 - 2^-n) d gamma is returned instead.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if _as_int(d, "d") < 0:
        raise ValueError("d must be >= 0")
    n_qubits = _qubit_count(n_qubits)
    scale = 1.0 - 2.0 ** (-n_qubits)
    if first_order:
        return scale * d * gamma
    return (1.0 - (1.0 - gamma) ** d) * scale


def apply_global_depol(rho: DensityMatrix, gamma: float) -> DensityMatrix:
    """(1-gamma) rho + gamma I / 2^n."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    dim = rho.dim
    data = (1.0 - gamma) * rho.data + gamma / dim * np.eye(dim)
    return DensityMatrix(rho.n_qubits, data)


def _overlap_derivatives(kind: str, data: np.ndarray, n_qubits: int, eps: float = 1e-5) -> np.ndarray:
    """Central-difference d/dgamma Tr[rho Lambda_gamma(rho)] at gamma = 0 for
    each rho of a (k, 2^n, 2^n) stack."""
    hi = np.einsum("kij,kji->k", data, _apply_noise(data.copy(), kind, (eps,) * n_qubits)).real
    lo = np.einsum("kij,kji->k", data, _apply_noise(data.copy(), kind, (-eps,) * n_qubits)).real
    return (hi - lo) / (2.0 * eps)


def linear_action_overlap_derivative(kind: str, rho_t: DensityMatrix,
                                     eps: float = 1e-5) -> float:
    """Central-difference d/dgamma Tr[rho_T Lambda_gamma(rho_T)] at gamma = 0."""
    return float(_overlap_derivatives(kind, rho_t.data[None], rho_t.n_qubits, eps)[0])


def estimate_alpha_beta(kind: str, n_qubits: int, n_samples: int, rng,
                        sampler=real_haar_rows) -> ModelParams:
    """Monte Carlo alpha and beta over an ensemble of pure target states.

    Parameters
    ----------
    kind : channel kind
    n_qubits : int in [1, MAX_QUBITS]
    n_samples : int, at least 2
    rng : RngStream or numpy Generator
    sampler : callable (n_qubits, generator, k) -> (k, 2**n_qubits) array
        k amplitude rows of unit norm, drawn in order; called once per
        block of _BLOCK samples. Defaults to real Haar rows
        (randstates.real_haar_rows); randstates.product_rows draws product
        states.
    """
    _require_kind(kind)  # before any draw moves the caller's generator
    n_qubits = _qubit_count(n_qubits)
    n_samples = _as_int(n_samples, "n_samples")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    gen = _as_generator(rng)
    derivs = np.empty(n_samples)
    for start in range(0, n_samples, _BLOCK):
        k = min(_BLOCK, n_samples - start)
        v = np.asarray(sampler(n_qubits, gen, k), dtype=complex)
        if v.shape != (k, 2 ** n_qubits):
            raise ValueError(f"sampler rows have shape {v.shape}, expected {(k, 2 ** n_qubits)}")
        _require_unit_norms(v)
        derivs[start:start + k] = -_overlap_derivatives(kind, v[:, :, None] * v[:, None, :].conj(), n_qubits)
    alpha = float(derivs.mean())
    beta = float(derivs.var(ddof=1))
    centered = derivs - alpha
    m4 = float((centered ** 4).mean())
    stderr_alpha = float(np.sqrt(beta / n_samples))
    stderr_beta = float(np.sqrt(max(m4 - beta ** 2, 0.0) / n_samples))
    return ModelParams(kind, n_qubits, alpha, beta, stderr_alpha, stderr_beta, n_samples)


def predict(params: ModelParams, gamma: float, d: int) -> tuple[float, float]:
    """(mean, spread) of the predicted relative infidelity alpha*gamma*d.

    Valid in the weak-noise regime; a warning is raised when the predicted
    mean leaves it.
    """
    mean = params.alpha * gamma * d
    spread = float(np.sqrt(max(params.beta, 0.0)) * gamma * d)
    if mean > 0.5:
        warnings.warn(
            f"predicted mean infidelity {mean:.3g} is outside the linear regime",
            RuntimeWarning,
        )
    return mean, spread


def slope_through_origin(x, y) -> float:
    """Least-squares slope of y = s*x (no intercept)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("need a nonzero abscissa")
    return float(x @ y / denom)


def alpha_scaling_check(kind: str, qubit_counts, n_samples: int, seed: int = 0):
    """alpha estimated on product-state ensembles for several qubit counts.

    On product states alpha grows linearly with the qubit count, which makes
    the model's prediction cheap to extrapolate.
    """
    out = []
    for i, n in enumerate(qubit_counts):
        rng = RngStream(seed, stream_id=i)
        params = estimate_alpha_beta(kind, n, n_samples, rng, sampler=product_rows)
        out.append((params.n_qubits, params.alpha))
    return out
