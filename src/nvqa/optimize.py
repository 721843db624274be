"""Cost functions over circuit parameters and a BFGS minimizer.

The public gradient is the exact parameter-shift rule, valid because every
parameter enters through a single Ry rotation and the noise channels do not
depend on the parameters. The minimizer is a dense inverse-Hessian BFGS with
Armijo backtracking, deterministic for fixed inputs. Once a backtracked step
is too short for the cost to resolve its decrease, it is judged instead by
the approximate Wolfe test of Hager and Zhang (SIAM J. Optim. 16, 2005);
a step that fails it ends the run unconverged.

Independent starts advance in lockstep, and every point a run tries, start
or trial, asks for its cost and gradient in one request. A round answers
all pending requests with one CostFn._values_and_gradients call: each
point's row with its 2P shift rows, or on density rows of at least
_ADJOINT_QUBITS qubits one reverse-mode pass (circuits._expectation_gradients,
after Jones and Gacon, arXiv:2009.02823) that also returns the cost. Each
result is bit for bit that of the same run made alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .channels import NoiseSpec
from .circuits import (Circuit, _as_density_matrix, _expectation_gradients, _expectations, _reduce,
                       _row_noise, _simulate, evaluate)
from .measures import QualityRecord, ground_truth, max_pairwise_concurrence
from .pauli import PauliSum
from .qstate import DensityMatrix

TWO_PI = 2.0 * np.pi

# Roundoff fallback of the line search. A decrease of at most
# _ROUNDOFF_ULPS * eps * max(1, |f|) is below what two cost evaluations can
# tell apart; such a step is accepted on the approximate Wolfe test with
# Hager-Zhang's sigma and delta.
_ROUNDOFF_ULPS = 16.0
_WOLFE_SIGMA = 0.9
_WOLFE_DELTA = 0.1

# Stopping test and Armijo backtracking of every run.
_GRAD_TOL = 1e-8
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60

# Two minima are one when their costs and their output states agree this closely.
_DEDUP_TOL = 1e-6

# Density rows on at least this many qubits take the loop's gradients by the
# adjoint method, the rest by the 2P shift rows. One gradient, one BLAS thread:
# HEA L=4 amplitude 261 us adjoint, 1,274 us shift; 2q variant c depolarising
# 95 us either way, and vqe2q_sweep read level with every density row on the
# adjoint, so narrower rows keep the shift rows and their results' bits.
_ADJOINT_QUBITS = 4


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
        if self.noise is not None and self.noise.n_qubits != self.circuit.n_qubits:
            raise ValueError("noise spec qubit count does not match circuit")

    @cached_property
    def _obs_matrix(self) -> np.ndarray:
        """Real part of the Hamiltonian or of the target density matrix, which
        gives the exact value on circuit outputs (see circuits._expectations)."""
        if self.hamiltonian is not None:
            return self.hamiltonian.to_matrix().real.copy()
        return self.target.data.real.copy()

    @cached_property
    def _reference_matrix(self) -> np.ndarray:
        """Real part of the pure state the fidelity quality measure is taken
        against: the target, or the Hamiltonian's ground state."""
        if self.target is not None:
            return self._obs_matrix
        return ground_truth(self.hamiltonian).state.data.real.copy()

    @property
    def n_params(self) -> int:
        return self.circuit.n_params

    def value(self, params: np.ndarray) -> float:
        return float(self._costs(np.asarray(params, dtype=float)[None])[0])

    def values(self, params: np.ndarray) -> np.ndarray:
        """Costs for a whole (m, n_params) batch in a few vectorized passes."""
        return self._costs(params)

    def _costs(self, params: np.ndarray) -> np.ndarray:
        v = _expectations(self.circuit, params, self.noise, self._obs_matrix)
        return v if self.hamiltonian is not None else 1.0 - v

    def _values_and_gradients(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Costs, with the bits of values, and gradients at every row of an
        (m, n_params) array, from one kernel call. Density rows of at least
        _ADJOINT_QUBITS qubits take one forward and one reverse pass; every
        other row is costed with its 2P shift rows, with gradient's bits."""
        if self.circuit.n_qubits >= _ADJOINT_QUBITS and _row_noise(self.circuit, self.noise) is not None:
            v, g = _expectation_gradients(self.circuit, params, self.noise, self._obs_matrix)
            return (v, g) if self.hamiltonian is not None else (1.0 - v, -g)
        rows = np.concatenate([np.vstack([x, _shift_rows(x)]) for x in params])
        vals = self.values(rows).reshape(len(params), -1)
        return vals[:, 0], _shift_gradient(vals[:, 1:])

    def state(self, params: np.ndarray) -> DensityMatrix:
        return evaluate(self.circuit, np.asarray(params, dtype=float), self.noise)

    def with_noise(self, noise: NoiseSpec | None) -> "CostFn":
        return replace(self, noise=noise)

    def noiseless(self) -> "CostFn":
        return self.with_noise(None)

    def quality(self, params: np.ndarray) -> QualityRecord:
        """All three measures from one output row. Energy and fidelity reduce it
        as the cost does, so value(params) is the energy, or 1 - fidelity, bit
        for bit; concurrence reads it as the state evaluate returns."""
        noise = _row_noise(self.circuit, self.noise)
        row = _simulate(self.circuit, np.asarray(params, dtype=float)[None], noise)
        e = float(_reduce(row, noise, self._obs_matrix)[0]) if self.hamiltonian is not None else float("nan")
        f = float(_reduce(row, noise, self._reference_matrix)[0])
        n = self.circuit.n_qubits
        c = max_pairwise_concurrence(_as_density_matrix(n, row[0], noise)) if n > 1 else 0.0
        return QualityRecord(energy=e, fidelity=f, concurrence=c)


def energy_cost(circuit: Circuit, hamiltonian: PauliSum, noise: NoiseSpec | None = None) -> CostFn:
    return CostFn(circuit=circuit, noise=noise, hamiltonian=hamiltonian)


def infidelity_cost(circuit: Circuit, target: DensityMatrix, noise: NoiseSpec | None = None) -> CostFn:
    if target.purity() < 1.0 - 1e-8:
        raise ValueError("fidelity targets must be pure states")
    return CostFn(circuit=circuit, noise=noise, target=target)


def _shift_rows(params: np.ndarray) -> np.ndarray:
    """The 2P parameter-shift rows of params: +pi/2, then -pi/2, on each angle."""
    p = params.size
    batch = np.broadcast_to(params, (2 * p, p)).copy()
    idx = np.arange(p)
    batch[idx, idx] += 0.5 * np.pi
    batch[p + idx, idx] -= 0.5 * np.pi
    return batch


def _shift_gradient(vals: np.ndarray) -> np.ndarray:
    """Gradients from the shift-row costs on the last axis (+pi/2 half first)."""
    p = vals.shape[-1] // 2
    return 0.5 * (vals[..., :p] - vals[..., p:])


def gradient(cf: CostFn, params: np.ndarray) -> np.ndarray:
    """Exact parameter-shift gradient: [C(t + pi/2) - C(t - pi/2)] / 2."""
    return _shift_gradient(cf.values(_shift_rows(np.asarray(params, dtype=float))))


@dataclass(frozen=True)
class MinimizeOptions:
    max_iters: int = 1000
    cost_goal: float | None = None

    def __post_init__(self):
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 0:
            raise ValueError(f"max_iters must be an int >= 0, got {self.max_iters!r}")
        if self.cost_goal is not None and not np.isfinite(self.cost_goal):
            raise ValueError(f"cost_goal must be None or finite, got {self.cost_goal!r}")


@dataclass(frozen=True)
class OptResult:
    """End point of one BFGS run of cost_fn. Its quality is computed on first
    read and kept, so the results deduplication drops never evaluate one."""

    params: np.ndarray
    cost: float
    grad_norm: float
    iterations: int
    converged: bool
    cost_fn: CostFn = field(repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.params, dtype=float).copy()
        p.flags.writeable = False
        object.__setattr__(self, "params", p)

    @cached_property
    def quality(self) -> QualityRecord:
        return self.cost_fn.quality(self.params)


def _canonical(params: np.ndarray) -> np.ndarray:
    return np.mod(params, TWO_PI)


def _finish(cf: CostFn, x: np.ndarray, f: float, g: np.ndarray, iterations: int,
            line_search_ok: bool, opts: MinimizeOptions) -> OptResult:
    """Result of a run that stops at the iterate x, whose cost f and gradient g
    the loop already holds; params are x reduced to [0, 2*pi). Evaluates nothing."""
    gnorm = float(np.linalg.norm(g))
    hit_goal = opts.cost_goal is not None and f <= opts.cost_goal
    return OptResult(
        params=_canonical(x),
        cost=f,
        grad_norm=gnorm,
        iterations=iterations,
        converged=line_search_ok and (gnorm <= _GRAD_TOL or hit_goal),
        cost_fn=cf,
    )


def _bfgs(x: np.ndarray, opts: MinimizeOptions):
    """One BFGS run from x, as a generator. It yields every point it tries,
    the start and each trial point, and is sent back that point's (cost,
    gradient). A rejected trial's gradient goes unused. It returns (x, f, g,
    iterations, line_search_ok)."""
    f, g = yield x
    h = np.eye(x.size)
    first_update = True
    for it in range(opts.max_iters):
        if np.linalg.norm(g) <= _GRAD_TOL or (opts.cost_goal is not None and f <= opts.cost_goal):
            return x, f, g, it, True
        p = -h @ g
        slope = float(g @ p)
        if slope >= 0.0:
            h = np.eye(x.size)
            first_update = True
            p = -g
            slope = -float(g @ g)
        alpha = 1.0
        eps_f = _ROUNDOFF_ULPS * np.finfo(float).eps * max(1.0, abs(f))
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + alpha * p
            f_new, g_new = yield x_new
            if f_new <= f + _ARMIJO_C * alpha * slope:
                break
            if -alpha * slope <= eps_f:
                # the cost cannot resolve this decrease: judge the step by
                # the slope at the trial point instead of crawling on
                dslope = float(g_new @ p)
                if (f_new <= f + eps_f
                        and _WOLFE_SIGMA * slope <= dslope <= (2.0 * _WOLFE_DELTA - 1.0) * slope):
                    break
                return x, f, g, it, False
            alpha *= _SHRINK
        else:
            return x, f, g, it, False
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
    return x, f, g, opts.max_iters, True


def _minimize_rows(cf: CostFn, starts: np.ndarray, opts: MinimizeOptions | None = None) -> list[OptResult]:
    """One independent BFGS run from each row of an (S, n_params) array, in lockstep.

    Each round answers every pending run's point with one
    cf._values_and_gradients call over all of them. Rows do not depend on
    their batch, so each result is a serial run's.
    """
    opts = opts or MinimizeOptions()
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != cf.n_params:
        raise ValueError(f"expected shape (S, {cf.n_params}), got {starts.shape}")
    runs = [_bfgs(x, opts) for x in starts]
    pending = {i: run.send(None) for i, run in enumerate(runs)}
    results: list[OptResult | None] = [None] * len(runs)
    while pending:
        costs, grads = cf._values_and_gradients(np.array(list(pending.values())))
        for i, f, g in zip(list(pending), costs, grads):
            try:
                pending[i] = runs[i].send((float(f), g))
            except StopIteration as stop:
                del pending[i]
                results[i] = _finish(cf, *stop.value, opts)
    return results


def minimize(cf: CostFn, theta0: np.ndarray, opts: MinimizeOptions | None = None) -> OptResult:
    """BFGS with Armijo backtracking from a single start.

    opts sets max_iters and an optional cost_goal. The run stops when the
    gradient 2-norm drops to 1e-8, when the cost reaches cost_goal, or after
    max_iters accepted steps. Steps backtrack from alpha = 1, halving up to
    60 times, until f_new <= f + 1e-4*alpha*slope (Armijo). A step that fails
    Armijo while its predicted decrease alpha*|slope| is within the cost's
    roundoff (16 ulps of max(1, |f|)) is judged by the gradient at the trial
    point: it is accepted if the cost rose by at most that roundoff and
    0.9*slope <= g_new.p <= -0.8*slope (approximate Wolfe). A step that fails
    this test, like a search that exhausts its backtracks, ends the run at
    the current iterate with converged=False; so converged=False means a
    failed line search, or max_iters short of the gradient tolerance and goal.

    Every point the run tries, the start and each trial point, takes its cost
    and gradient from one kernel call, the shift rule's or on density rows of
    at least four qubits the adjoint method's. The result's cost and
    grad_norm are those the stopping test read at the final iterate; its
    params are that iterate's angles reduced to [0, 2*pi). This is the
    one-start case of _minimize_rows.
    """
    return _minimize_rows(cf, np.asarray(theta0, dtype=float)[None], opts)[0]


def _dedup(cf: CostFn, results: list[OptResult]) -> list[OptResult]:
    """Results in cost order, less each one whose cost is within 1e-6 of a kept
    one's and whose output state has normalised Hilbert-Schmidt overlap
    Tr[a b] / sqrt(Tr[a^2] Tr[b^2]) >= 1 - 1e-6 with it. One kernel call gives
    all output rows; scaled to unit norm, the overlap is their dot product,
    squared for statevectors."""
    ordered = sorted(results, key=lambda r: r.cost)
    noise = _row_noise(cf.circuit, cf.noise)
    rows = _simulate(cf.circuit, np.array([r.params for r in ordered]), noise).reshape(len(ordered), -1)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    keep: list[int] = []
    for i, r in enumerate(ordered):
        near = [k for k in keep if abs(r.cost - ordered[k].cost) <= _DEDUP_TOL]
        overlap = rows[near] @ rows[i]
        if noise is None:
            overlap = overlap ** 2
        if not np.any(overlap >= 1.0 - _DEDUP_TOL):
            keep.append(i)
    return [ordered[k] for k in keep]


def multistart(cf: CostFn, n_starts: int, seed: int) -> list[OptResult]:
    """Minimize from n_starts uniform random starts in [0, 2*pi)^P.

    The starts run in lockstep, each with the result of a serial minimize
    run. Results are deduplicated: two minima merge when their costs differ
    by at most 1e-6 and their output states overlap within 1e-6. The
    survivors are returned sorted by cost.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, TWO_PI, size=(n_starts, cf.n_params))
    return _dedup(cf, _minimize_rows(cf, starts))


def sweep_gamma(make_cost: Callable[[float], CostFn], gammas, mode: str = "track",
                n_starts: int = 100, seed: int = 0) -> list[list[OptResult]]:
    """Minima of the cost along a gamma grid.

    mode "track" multistarts at the first gamma and warm-starts every later
    point from the previous point's minima, exposing how branches continue
    or disappear. mode "restart" runs an independent multistart per gamma.
    The warm starts of one point run in lockstep, each with the result of a
    serial minimize run from that start.
    """
    gammas = [float(g) for g in gammas]
    if mode not in ("track", "restart"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    out: list[list[OptResult]] = []
    for i, g in enumerate(gammas):
        cf = make_cost(g)
        if mode == "restart" or i == 0:
            child_seed = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0]
            out.append(multistart(cf, n_starts, int(child_seed)))
        else:
            warm = _minimize_rows(cf, np.array([r.params for r in out[-1]]))
            out.append(_dedup(cf, warm))
    return out


def reoptimize_from(cf: CostFn, theta_star: np.ndarray) -> tuple[OptResult, OptResult]:
    """Evaluate-then-reoptimize a noisy cost from a noiseless optimum.

    Returns (non_reopt, reopt). non_reopt freezes theta_star: a zero-iteration
    run, holding the noisy cost and gradient there. reopt continues minimizing
    under noise, so reopt.cost <= non_reopt.cost up to line-search roundoff.
    """
    theta_star = _canonical(np.asarray(theta_star, dtype=float))
    non_reopt = minimize(cf, theta_star, MinimizeOptions(max_iters=0))
    reopt = minimize(cf, theta_star)
    if reopt.cost > non_reopt.cost:
        reopt = non_reopt
    return non_reopt, reopt


def reoptimize_pair(cf: CostFn, n_starts: int = 10, seed: int = 0) -> tuple[OptResult, OptResult]:
    """Noiseless optimum of cf, evaluated and then reoptimized under noise."""
    base = multistart(cf.noiseless(), n_starts, seed)[0]
    return reoptimize_from(cf, base.params)
