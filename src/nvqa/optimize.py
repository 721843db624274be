"""Cost functions over circuit parameters and a BFGS minimizer.

Gradients use the exact parameter-shift rule, valid because every parameter
enters through a single Ry rotation and the noise channels do not depend on
the parameters. The minimizer is a dense inverse-Hessian BFGS with Armijo
backtracking, deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .channels import NoiseSpec
from .circuits import Circuit, _simulate, evaluate
from .measures import (
    QualityRecord,
    concurrence,
    ground_truth,
    max_pairwise_concurrence,
)
from .pauli import PauliSum
from .qstate import DensityMatrix

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CostFn:
    """Scalar cost of a parameter vector for one circuit under one noise spec.

    Exactly one of hamiltonian (energy objective) or target (infidelity
    objective, pure reference) is set.
    """

    circuit: Circuit
    noise: NoiseSpec | None = None
    hamiltonian: PauliSum | None = None
    target: DensityMatrix | None = None

    def __post_init__(self):
        if (self.hamiltonian is None) == (self.target is None):
            raise ValueError("set exactly one of hamiltonian or target")
        if self.target is not None and self.target.n_qubits != self.circuit.n_qubits:
            raise ValueError("target qubit count does not match circuit")
        if self.hamiltonian is not None and self.hamiltonian.n_qubits != self.circuit.n_qubits:
            raise ValueError("hamiltonian qubit count does not match circuit")

    @cached_property
    def _obs_matrix(self) -> np.ndarray:
        """Real part of the Hamiltonian or of the target density matrix.

        Circuit outputs are real symmetric and the imaginary part of a
        Hermitian matrix is antisymmetric, so it contributes nothing to
        Tr[O rho]: the real part gives the exact cost.
        """
        if self.hamiltonian is not None:
            return self.hamiltonian.to_matrix().real.copy()
        return self.target.data.real.copy()

    @cached_property
    def _reference_state(self) -> DensityMatrix:
        """Pure state the fidelity quality measure is taken against."""
        if self.target is not None:
            return self.target
        return ground_truth(self.hamiltonian).state

    @property
    def n_params(self) -> int:
        return self.circuit.n_params

    def value(self, params: np.ndarray) -> float:
        return float(self._costs(np.asarray(params, dtype=float)[None])[0])

    def values(self, params: np.ndarray) -> np.ndarray:
        """Costs for a whole (m, n_params) batch in a few vectorized passes."""
        return self._costs(params)

    def _costs(self, params: np.ndarray) -> np.ndarray:
        trivial = self.noise is None or self.noise.is_trivial
        state = _simulate(self.circuit, params, None if trivial else self.noise)
        obs = self._obs_matrix
        if state.ndim == 2:
            v = np.einsum("md,dc,mc->m", state, obs, state)
        else:
            # obs is symmetric, so Tr[obs rho] is the elementwise product summed
            v = state.reshape(len(state), -1) @ obs.ravel()
        if self.hamiltonian is not None:
            return v
        return 1.0 - v

    def state(self, params: np.ndarray) -> DensityMatrix:
        return evaluate(self.circuit, np.asarray(params, dtype=float), self.noise)

    def with_noise(self, noise: NoiseSpec | None) -> "CostFn":
        return replace(self, noise=noise)

    def noiseless(self) -> "CostFn":
        return self.with_noise(None)

    def quality(self, params: np.ndarray) -> QualityRecord:
        rho = self.state(params)
        if self.hamiltonian is not None:
            e = float(np.einsum("ij,ji->", self._obs_matrix, rho.data).real)
        else:
            e = float("nan")
        ref = self._reference_state
        f = float(np.einsum("ij,ji->", ref.data, rho.data).real)
        if rho.n_qubits == 1:
            c = 0.0
        elif rho.n_qubits == 2:
            c = concurrence(rho)
        else:
            c = max_pairwise_concurrence(rho)
        return QualityRecord(energy=e, fidelity=f, concurrence=c)


def energy_cost(circuit: Circuit, hamiltonian: PauliSum, noise: NoiseSpec | None = None) -> CostFn:
    return CostFn(circuit=circuit, noise=noise, hamiltonian=hamiltonian)


def infidelity_cost(circuit: Circuit, target: DensityMatrix, noise: NoiseSpec | None = None) -> CostFn:
    if target.purity() < 1.0 - 1e-8:
        raise ValueError("fidelity targets must be pure states")
    return CostFn(circuit=circuit, noise=noise, target=target)


def gradient(cf: CostFn, params: np.ndarray) -> np.ndarray:
    """Exact parameter-shift gradient: [C(t + pi/2) - C(t - pi/2)] / 2."""
    params = np.asarray(params, dtype=float)
    p = params.size
    batch = np.broadcast_to(params, (2 * p, p)).copy()
    idx = np.arange(p)
    batch[idx, idx] += 0.5 * np.pi
    batch[p + idx, idx] -= 0.5 * np.pi
    vals = cf.values(batch)
    return 0.5 * (vals[:p] - vals[p:])


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-8
    max_iters: int = 1000
    armijo_c: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 60
    cost_goal: float | None = None


@dataclass(frozen=True)
class OptResult:
    params: np.ndarray
    cost: float
    grad_norm: float
    iterations: int
    converged: bool
    quality: QualityRecord

    def __post_init__(self):
        p = np.asarray(self.params, dtype=float).copy()
        p.flags.writeable = False
        object.__setattr__(self, "params", p)


def _canonical(params: np.ndarray) -> np.ndarray:
    return np.mod(params, TWO_PI)


def _finish(cf: CostFn, params: np.ndarray, iterations: int, line_search_ok: bool,
            opts: MinimizeOptions) -> OptResult:
    params = _canonical(params)
    cost = cf.value(params)
    gnorm = float(np.linalg.norm(gradient(cf, params)))
    hit_goal = opts.cost_goal is not None and cost <= opts.cost_goal
    return OptResult(
        params=params,
        cost=cost,
        grad_norm=gnorm,
        iterations=iterations,
        converged=line_search_ok and (gnorm <= opts.grad_tol or hit_goal),
        quality=cf.quality(params),
    )


def minimize(cf: CostFn, theta0: np.ndarray, opts: MinimizeOptions | None = None) -> OptResult:
    """BFGS with Armijo backtracking from a single start.

    Stops when the gradient 2-norm drops to grad_tol, when the cost reaches
    an optional cost_goal, or after max_iters accepted steps. A line search
    that exhausts its backtracks returns the best point seen with
    converged=False. Angles in the result are reduced to [0, 2*pi).
    """
    opts = opts or MinimizeOptions()
    x = np.asarray(theta0, dtype=float).copy()
    if x.shape != (cf.n_params,):
        raise ValueError(f"expected {cf.n_params} parameters, got shape {x.shape}")
    f = cf.value(x)
    if opts.cost_goal is not None and f <= opts.cost_goal:
        return _finish(cf, x, 0, True, opts)
    g = gradient(cf, x)
    h = np.eye(x.size)
    first_update = True
    for it in range(opts.max_iters):
        gnorm = np.linalg.norm(g)
        if gnorm <= opts.grad_tol:
            return _finish(cf, x, it, True, opts)
        p = -h @ g
        slope = float(g @ p)
        if slope >= 0.0:
            h = np.eye(x.size)
            first_update = True
            p = -g
            slope = -float(g @ g)
        alpha = 1.0
        for _ in range(opts.max_backtracks):
            x_new = x + alpha * p
            f_new = cf.value(x_new)
            if f_new <= f + opts.armijo_c * alpha * slope:
                break
            alpha *= opts.shrink
        else:
            return _finish(cf, x, it, False, opts)
        if opts.cost_goal is not None and f_new <= opts.cost_goal:
            return _finish(cf, x_new, it + 1, True, opts)
        g_new = gradient(cf, x_new)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-14 * np.linalg.norm(s) * np.linalg.norm(y):
            if first_update:
                h = (sy / float(y @ y)) * np.eye(x.size)
                first_update = False
            hy = h @ y
            rho_ = 1.0 / sy
            h = h - rho_ * (np.outer(s, hy) + np.outer(hy, s)) \
                + rho_ * rho_ * (sy + float(y @ hy)) * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
    return _finish(cf, x, opts.max_iters, True, opts)


def _state_overlap(a: DensityMatrix, b: DensityMatrix) -> float:
    """Normalized Hilbert-Schmidt overlap; equals fidelity for pure states."""
    num = np.einsum("ij,ji->", a.data, b.data).real
    den = np.sqrt(a.purity() * b.purity())
    return float(num / den)


def _dedup(cf: CostFn, results: list[OptResult], cost_tol: float = 1e-6,
           overlap_tol: float = 1e-6) -> list[OptResult]:
    ordered = sorted(results, key=lambda r: r.cost)
    reps: list[OptResult] = []
    states: list[DensityMatrix] = []
    for r in ordered:
        rho = cf.state(r.params)
        dup = any(
            abs(r.cost - rep.cost) <= cost_tol and _state_overlap(rho, st) >= 1.0 - overlap_tol
            for rep, st in zip(reps, states)
        )
        if not dup:
            reps.append(r)
            states.append(rho)
    return reps


def multistart(cf: CostFn, n_starts: int, seed: int,
               opts: MinimizeOptions | None = None) -> list[OptResult]:
    """Minimize from n_starts uniform random starts in [0, 2*pi)^P.

    Results are deduplicated: two minima merge when their costs differ by at
    most 1e-6 and their output states overlap within 1e-6. The survivors are
    returned sorted by cost.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, TWO_PI, size=(n_starts, cf.n_params))
    results = [minimize(cf, s, opts) for s in starts]
    return _dedup(cf, results)


def sweep_gamma(make_cost: Callable[[float], CostFn], gammas, mode: str = "track",
                n_starts: int = 100, seed: int = 0,
                opts: MinimizeOptions | None = None) -> list[list[OptResult]]:
    """Minima of the cost along a gamma grid.

    mode "track" multistarts at the first gamma and warm-starts every later
    point from the previous point's minima, exposing how branches continue
    or disappear. mode "restart" runs an independent multistart per gamma.
    """
    gammas = [float(g) for g in gammas]
    if mode not in ("track", "restart"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    out: list[list[OptResult]] = []
    for i, g in enumerate(gammas):
        cf = make_cost(g)
        if mode == "restart" or i == 0:
            child_seed = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0]
            out.append(multistart(cf, n_starts, int(child_seed), opts))
        else:
            warm = [minimize(cf, r.params, opts) for r in out[-1]]
            out.append(_dedup(cf, warm))
    return out


def reoptimize_from(cf: CostFn, theta_star: np.ndarray,
                    opts: MinimizeOptions | None = None) -> tuple[OptResult, OptResult]:
    """Evaluate-then-reoptimize a noisy cost from a noiseless optimum.

    Returns (non_reopt, reopt). non_reopt freezes theta_star and just
    evaluates the noisy cost there; reopt continues minimizing under noise,
    so reopt.cost <= non_reopt.cost up to line-search roundoff.
    """
    opts = opts or MinimizeOptions()
    theta_star = _canonical(np.asarray(theta_star, dtype=float))
    gnorm = float(np.linalg.norm(gradient(cf, theta_star)))
    non_reopt = OptResult(
        params=theta_star,
        cost=cf.value(theta_star),
        grad_norm=gnorm,
        iterations=0,
        converged=gnorm <= opts.grad_tol,
        quality=cf.quality(theta_star),
    )
    reopt = minimize(cf, theta_star, opts)
    if reopt.cost > non_reopt.cost:
        reopt = non_reopt
    return non_reopt, reopt


def reoptimize_pair(cf: CostFn, n_starts: int = 10, seed: int = 0,
                    opts: MinimizeOptions | None = None) -> tuple[OptResult, OptResult]:
    """Noiseless optimum of cf, evaluated and then reoptimized under noise."""
    base = multistart(cf.noiseless(), n_starts, seed, opts)[0]
    return reoptimize_from(cf, base.params, opts)
