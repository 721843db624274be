"""Cost functions over circuit parameters and a BFGS minimizer.

The public gradient is the exact parameter-shift rule, valid because every
parameter enters through a single Ry rotation and the noise channels do not
depend on the parameters. The minimizer is a dense inverse-Hessian BFGS with
Armijo backtracking, deterministic for fixed inputs. Once a backtracked step
is too short for the cost to resolve its decrease, it is judged instead by
the approximate Wolfe test of Hager and Zhang (SIAM J. Optim. 16, 2005);
a step that fails it ends the run unconverged.

Independent starts advance in lockstep as one stacked state: each run
still going is a row of the iterate, gradient, direction and inverse-Hessian
arrays. The runs of one lockstep call share a circuit, and each has its own
CostFn, so one call can hold every (channel kind, gamma) cell of a sweep.
Every point a run tries, start or trial, is costed once, and a round costs
all runs' points at once: each point's row with its 2P shift rows, or on
density rows of at least _ADJOINT_QUBITS qubits one reverse-mode pass
(circuits._expectation_gradients, after Jones and Gacon, arXiv:2009.02823)
that also returns the cost. The runs' points take one _Stack call per
round, whether they share one CostFn or not. It makes at most one kernel
call per row kind, pure, density shift or density adjoint, and passes that
call one spec and one observable where its rows share them, otherwise each
row's own (circuits._ByRow); a cell's deduplication and quality reads
reuse the blocks the circuit keeps for its spec (circuits._spec_blocks). Each
run takes its line-search decisions alone, and the runs that accept a step
update together, in stacked products with the bits of their 1-D forms. So each
result is bit for bit that of the same run made alone, and it is built
where the run stops, from the values the loop read there. multistart,
sweep_gamma and the harness's sweeps (_sweeps) run the cells of each circuit
through one such call and then deduplicate each cell on its own;
reoptimize_from's cells (_reoptimized) take one frozen call and one live.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .channels import NoiseSpec
from .circuits import (Circuit, _ByRow, _as_density_matrix, _check_width, _expectation_gradients, _expectations,
                       _reduce, _require_finite, _row_noise, _simulate, evaluate)
from .measures import QualityRecord, _require_pure, ground_truth, max_pairwise_concurrence
from .pauli import PauliSum
from .qstate import DensityMatrix, _as_int, _require_ints
from .randstates import _as_seed, _child_seed

TWO_PI = 2.0 * np.pi

# Roundoff fallback of the line search. A decrease of at most
# _ROUNDOFF_ULPS * eps * max(1, |f|) is below what two cost evaluations can
# tell apart; such a step is accepted on the approximate Wolfe test with
# Hager-Zhang's sigma and delta.
_ROUNDOFF_ULPS = 16.0
_WOLFE_SIGMA = 0.9
_WOLFE_DELTA = 0.1
_ROUNDOFF = _ROUNDOFF_ULPS * float(np.finfo(float).eps)

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
    objective) is set; a target whose purity is below 1 - 1e-8 is refused.
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
        _check_width(self.circuit, self.noise)
        if self.target is not None:
            _require_pure(self.target)

    @cached_property
    def _obs_matrix(self) -> np.ndarray:
        """Real part of the Hamiltonian, shared by value (_hamiltonian_matrices), or of the target, kept per
        cost function (a target compares by identity, so a shared cache would keep it alive): exact on outputs."""
        if self.hamiltonian is not None:
            return _hamiltonian_matrices(self.hamiltonian)[0]
        return self.target.data.real.copy()

    @property
    def n_params(self) -> int:
        return self.circuit.n_params

    @cached_property
    def _takes_adjoint(self) -> bool:
        """The loop's gradient rule: adjoint on density rows of at least _ADJOINT_QUBITS qubits."""
        return self.circuit.n_qubits >= _ADJOINT_QUBITS and _row_noise(self.circuit, self.noise) is not None

    def value(self, params: np.ndarray) -> float:
        return float(self.values(np.asarray(params, dtype=float)[None])[0])

    def values(self, params: np.ndarray) -> np.ndarray:
        """Costs for a whole (m, n_params) batch in a few vectorized passes."""
        v = _expectations(self.circuit, params, self.noise, self._obs_matrix)
        return v if self.hamiltonian is not None else 1.0 - v

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
        e = float(_reduce(row, self._obs_matrix)[0]) if self.hamiltonian is not None else float("nan")
        ref = self._obs_matrix if self.target is not None else _hamiltonian_matrices(self.hamiltonian)[1]
        f = float(_reduce(row, ref)[0])
        c = max_pairwise_concurrence(_as_density_matrix(row[0])) if self.circuit.n_qubits > 1 else 0.0
        return QualityRecord(energy=e, fidelity=f, concurrence=c)


@cache
def _hamiltonian_matrices(hamiltonian: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Read-only real parts of a Hamiltonian's matrix and ground-state projector, derived once per value."""
    obs, ground = hamiltonian.to_matrix().real.copy(), ground_truth(hamiltonian).state.data.real.copy()
    obs.flags.writeable = ground.flags.writeable = False
    return obs, ground


def energy_cost(circuit: Circuit, hamiltonian: PauliSum, noise: NoiseSpec | None = None) -> CostFn:
    return CostFn(circuit=circuit, noise=noise, hamiltonian=hamiltonian)


def infidelity_cost(circuit: Circuit, target: DensityMatrix, noise: NoiseSpec | None = None) -> CostFn:
    return CostFn(circuit=circuit, noise=noise, target=target)


def _shift_rows(params: np.ndarray) -> np.ndarray:
    """Each row of an (S, P) array followed by its 2P parameter-shift rows,
    +pi/2 and then -pi/2 on each angle, as one (S * (2P + 1), P) array."""
    p = params.shape[1]
    rows = np.repeat(params[:, None], 2 * p + 1, axis=1)
    idx = np.arange(p)
    rows[:, 1 + idx, idx] += 0.5 * np.pi
    rows[:, 1 + p + idx, idx] -= 0.5 * np.pi
    return rows.reshape(len(params) * (2 * p + 1), p)


def _shift_gradient(vals: np.ndarray) -> np.ndarray:
    """Gradients from the shift-row costs on the last axis (+pi/2 half first)."""
    p = vals.shape[-1] // 2
    return 0.5 * (vals[..., :p] - vals[..., p:])


def gradient(cf: CostFn, params: np.ndarray) -> np.ndarray:
    """Exact parameter-shift gradient: [C(t + pi/2) - C(t - pi/2)] / 2."""
    return _shift_gradient(cf.values(_shift_rows(np.asarray(params, dtype=float)[None])[1:]))


@dataclass(frozen=True)
class MinimizeOptions:
    max_iters: int = 1000
    cost_goal: float | None = None

    def __post_init__(self):
        _require_ints(self, "max_iters")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters!r}")
        # a bool is no goal, though Python compares True as 1.0; nor is a complex or a string
        goal = self.cost_goal
        if goal is not None and (isinstance(goal, bool) or not isinstance(goal, numbers.Real)
                                 or not math.isfinite(goal)):
            raise ValueError(f"cost_goal must be None or a finite real number, got {goal!r}")


@dataclass(frozen=True, eq=False)
class OptResult:
    """End point of one BFGS run of cost_fn, equal only to itself. Its quality
    is computed on first read and kept, so the results deduplication drops
    never evaluate one."""

    params: np.ndarray
    cost: float
    grad_norm: float
    iterations: int
    converged: bool
    cost_fn: CostFn = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.params, dtype=float).copy()
        p.flags.writeable = False
        object.__setattr__(self, "params", p)

    @cached_property
    def quality(self) -> QualityRecord:
        return self.cost_fn.quality(self.params)


def _canonical(params: np.ndarray) -> np.ndarray:
    return np.mod(params, TWO_PI)


def _distinct(items) -> tuple[list, np.ndarray]:
    """The distinct items in first-seen order, and each item's index among
    them. The order is never a hash order, so it does not depend on
    PYTHONHASHSEED."""
    first: dict = {}
    index = [first.setdefault(item, len(first)) for item in items]
    return list(first), np.array(index, dtype=int)


def _per_row(stack, of: np.ndarray, cells: np.ndarray, repeats: int = 1):
    """The noise or observable argument of one kernel call over the rows of
    cells, repeats rows per cell, cell c's rows under entry of[c] of stack:
    the one entry where stack holds one, else a circuits._ByRow."""
    return stack[0] if len(stack) == 1 else _ByRow(stack, np.repeat(of[cells], repeats))


class _Stack:
    """The distinct cost functions of one lockstep call, all on one circuit.
    A call costs rows of any of them, row r under cfs[which[r]], with at most
    one kernel call per row kind: pure rows (no spec, or a zero-strength one),
    density shift rows, density adjoint rows (CostFn._takes_adjoint). It
    passes the spec and the observable by one rule (_per_row), so a one-cell
    call runs as its cost function alone, and runs each spec's rows together.
    A row keeps the bits of its cf.values and of the shift rule or adjoint."""

    def __init__(self, cfs: list[CostFn]):
        self.circuit = cfs[0].circuit
        if any(cf.circuit != self.circuit for cf in cfs):
            raise ValueError("the runs of one lockstep call must share one circuit")
        noise = [_row_noise(self.circuit, cf.noise) for cf in cfs]
        specs, index = _distinct(spec for spec in noise if spec is not None)
        self.specs, self.spec_of = tuple(specs), np.full(len(cfs), -1)
        self.spec_of[[spec is not None for spec in noise]] = index
        _, self.obs_of = _distinct(cf.target if cf.hamiltonian is None else cf.hamiltonian for cf in cfs)
        self.obs = np.stack([cfs[i]._obs_matrix for i in np.unique(self.obs_of, return_index=True)[1]])
        self.infidelity = np.array([cf.target is not None for cf in cfs])
        # row kinds: 0 pure rows, 1 density shift rows, 2 density adjoint rows
        kind = [(spec is not None) + cf._takes_adjoint for spec, cf in zip(noise, cfs)]
        self.kind, self.kinds = np.array(kind), sorted(set(kind))

    def __call__(self, which: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self.kinds) == 1 and len(self.specs) <= 1:  # one kernel call over the rows as they are
            return self._costed(self.kinds[0], which, params)
        costs, grads = np.empty(len(params)), np.empty(params.shape)
        kinds = self.kind[which]
        for kind in self.kinds:
            rows = np.flatnonzero(kinds == kind)
            if kind and len(self.specs) > 1:  # rows in spec order, so that each spec's rows run as one
                rows = rows[np.argsort(self.spec_of[which[rows]], kind="stable")]
            if len(rows):
                costs[rows], grads[rows] = self._costed(kind, which[rows], params[rows])
        return costs, grads

    def _costed(self, kind: int, cells: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Costs and gradients of rows of one kind, row r under cfs[cells[r]]."""
        flip = self.infidelity[cells]
        if kind == 2:
            v, g = _expectation_gradients(self.circuit, params, _per_row(self.specs, self.spec_of, cells),
                                          _per_row(self.obs, self.obs_of, cells))
            np.subtract(1.0, v, out=v, where=flip)
            np.negative(g, out=g, where=flip[:, None])
            return v, g
        k = 2 * self.circuit.n_params + 1  # each row and its shift rows
        noise = _per_row(self.specs, self.spec_of, cells, k) if kind else None
        v = _expectations(self.circuit, _shift_rows(params), noise,
                          _per_row(self.obs, self.obs_of, cells, k)).reshape(len(cells), k)
        np.subtract(1.0, v, out=v, where=flip[:, None])
        return v[:, 0], _shift_gradient(v[:, 1:])


def _minimize_rows(cf, starts: np.ndarray, opts: MinimizeOptions | None = None) -> list[OptResult]:
    """One independent BFGS run from each row of an (S, n_params) array, in lockstep.

    cf is one CostFn for every run, or a list of one per run, all on one
    circuit. The runs still going are the rows of stacked arrays: iterates,
    gradients, directions, inverse Hessians and their cells (which). Their
    cost, slope, step length and counts are Python scalars, one list entry
    per row. Each round costs every run's trial point at once, with one call
    of the runs' _Stack, at most one kernel call per row kind. It takes each
    run's line-search decision on its scalars, and updates the runs that
    accepted a step as one stack. Every stacked product has the bits of its
    1-D form, and rows do not depend on their batch or on the other rows'
    cost functions, so each result is a serial run's. A start holding a NaN
    or an infinity is refused before any kernel call.
    """
    opts = opts or MinimizeOptions()
    starts = _require_finite(starts, "starts")
    per_run = isinstance(cf, (list, tuple))
    cells, which = _distinct(cf) if per_run else ([cf], None)
    if not cells:
        raise ValueError("expected one cost function per start, got none")
    n_params = cells[0].n_params
    if starts.ndim != 2 or starts.shape[1] != n_params:
        raise ValueError(f"expected shape (S, {n_params}), got {starts.shape}")
    n, dim = starts.shape
    if per_run and len(cf) != n:
        raise ValueError(f"expected one cost function per start, got {len(cf)} for {n} starts")
    runs, which = (list(cf), which) if per_run else ([cf] * n, np.zeros(n, dtype=int))
    stack = _Stack(cells)
    eye = np.eye(dim)
    x, h, p = starts.copy(), np.repeat(eye[None], n, axis=0), np.empty_like(starts)
    ids, results = list(range(n)), [None] * n
    costs, g = stack(which, x)
    f, it, first = costs.tolist(), [0] * n, [True] * n
    slope, alpha, tries = [0.0] * n, [1.0] * n, [0] * n
    acc, sel = list(range(n)), slice(None)  # the rows at a new iterate

    def stop(r, grad_norm, converged):  # run r's result at its iterate, from what the loop read there
        results[ids[r]] = OptResult(params=_canonical(x[r]), cost=f[r], grad_norm=grad_norm,
                                    iterations=it[r], converged=converged, cost_fn=runs[ids[r]])

    while True:
        if acc:  # the stop test, then the next direction
            ga = g[sel]
            gg = np.vecdot(ga, ga)
            pa = np.matvec(-h[sel], ga)
            for k, (r, gg_k, slope_k) in enumerate(zip(acc, gg.tolist(), np.vecdot(ga, pa).tolist())):
                grad_norm = math.sqrt(gg_k)
                converged = grad_norm <= _GRAD_TOL or (opts.cost_goal is not None and f[r] <= opts.cost_goal)
                if converged or it[r] == opts.max_iters:
                    stop(r, grad_norm, converged)
                    continue
                if slope_k >= 0.0:
                    h[r], first[r], pa[k], slope_k = eye, True, -ga[k], -gg_k
                slope[r], alpha[r], tries[r] = slope_k, 1.0, 0
            p[sel] = pa
        if results.count(None) < len(ids):
            live = [r for r, i in enumerate(ids) if results[i] is None]
            x, g, h, p, which = x[live], g[live], h[live], p[live], which[live]
            ids, f, it, first, slope, alpha, tries = (
                [v[r] for r in live] for v in (ids, f, it, first, slope, alpha, tries))
        if not ids:
            return results
        trial = x + np.array(alpha)[:, None] * p
        costs, grads = stack(which, trial)
        acc = []
        for r, f_new in enumerate(costs.tolist()):
            if not f_new <= f[r] + _ARMIJO_C * alpha[r] * slope[r]:
                roundoff = _ROUNDOFF * max(1.0, abs(f[r]))
                if not -alpha[r] * slope[r] <= roundoff:
                    alpha[r] *= _SHRINK
                    tries[r] += 1
                    if tries[r] == _MAX_BACKTRACKS:
                        stop(r, math.sqrt(g[r] @ g[r]), False)
                    continue
                # the cost cannot resolve this decrease: judge the step by
                # the slope at the trial point instead of crawling on
                dslope = float(grads[r] @ p[r])
                if not (f_new <= f[r] + roundoff
                        and _WOLFE_SIGMA * slope[r] <= dslope <= (2.0 * _WOLFE_DELTA - 1.0) * slope[r]):
                    stop(r, math.sqrt(g[r] @ g[r]), False)
                    continue
            acc.append(r)
            f[r], it[r] = f_new, it[r] + 1
        if not acc:
            continue
        # the BFGS update of the rows that accepted a step
        if len(acc) == len(ids):
            sel, s, y, x, g = slice(None), trial - x, grads - g, trial, grads
        else:
            sel = np.array(acc)
            s, y = trial[sel] - x[sel], grads[sel] - g[sel]
            x[sel], g[sel] = trial[sel], grads[sel]
        sy_a = np.vecdot(s, y)
        sy, yy, ss = sy_a.tolist(), np.vecdot(y, y).tolist(), np.vecdot(s, s).tolist()
        upd = [k for k in range(len(acc)) if sy[k] > 1e-14 * math.sqrt(ss[k]) * math.sqrt(yy[k])]
        for k in upd:
            if first[acc[k]]:
                h[acc[k]], first[acc[k]] = (sy[k] / yy[k]) * eye, False
        usel = sel
        if len(upd) < len(acc):
            usel, s, y, sy_a = np.array(acc)[upd], s[upd], y[upd], sy_a[upd]
        hu = h[usel]
        hy = np.matvec(hu, y)
        rho = 1.0 / sy_a
        shy = s[:, :, None] * hy[:, None, :]
        h[usel] = (hu - rho[:, None, None] * (shy + shy.transpose(0, 2, 1))
                   + (rho * rho * (sy_a + np.vecdot(y, hy)))[:, None, None] * (s[:, :, None] * s[:, None, :]))


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
    and gradient from one call of a one-cell _Stack: one kernel call under
    cf's own spec and observable, the shift rule's or on density rows of at
    least four qubits the adjoint method's. The result's cost, grad_norm
    and converged flag are the values the loop read where the run stopped,
    at the final iterate; nothing is evaluated or decided again. Its params
    are that iterate's angles reduced to [0, 2*pi). This is the one-start
    case of _minimize_rows: a stack one row high.
    """
    return _minimize_rows(cf, np.asarray(theta0, dtype=float)[None], opts)[0]


def _dedup(cf: CostFn, results: list[OptResult]) -> list[OptResult]:
    """Results in cost order, less each one whose cost is within 1e-6 of a kept
    one's and whose output state has normalised Hilbert-Schmidt overlap
    Tr[a b] / sqrt(Tr[a^2] Tr[b^2]) >= 1 - 1e-6 with it. One kernel call gives
    all output rows; scaled to unit norm, the overlap is their dot product,
    squared for statevectors."""
    ordered = sorted(results, key=lambda r: r.cost)
    states = _simulate(cf.circuit, np.array([r.params for r in ordered]), _row_noise(cf.circuit, cf.noise))
    rows = states.reshape(len(ordered), -1)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    keep: list[int] = []
    for i, r in enumerate(ordered):
        near = [k for k in keep if abs(r.cost - ordered[k].cost) <= _DEDUP_TOL]
        overlap = rows[near] @ rows[i]
        if states.ndim == 2:  # statevector rows
            overlap = overlap ** 2
        if not np.any(overlap >= 1.0 - _DEDUP_TOL):
            keep.append(i)
    return [ordered[k] for k in keep]


def _uniform_starts(cf: CostFn, n_starts: int, seed: int) -> np.ndarray:
    """n_starts uniform random starts in [0, 2*pi)^P, drawn from seed."""
    if _as_int(n_starts, "n_starts") < 1:
        raise ValueError("n_starts must be >= 1")
    return np.random.default_rng(_as_seed(seed)).uniform(0.0, TWO_PI, size=(n_starts, cf.n_params))


def _cell_minima(cfs: list[CostFn], starts: list[np.ndarray]) -> list[list[OptResult]]:
    """The minima of each cell, cell c run from the rows of starts[c] under
    cfs[c]: the runs of every cell on one circuit in one lockstep call, the
    circuits in first-seen order, then each cell's results deduplicated on
    their own (_dedup)."""
    minima: list = [None] * len(cfs)
    circuits, circuit_of = _distinct(cf.circuit for cf in cfs)
    for c in range(len(circuits)):
        cells = np.flatnonzero(circuit_of == c).tolist()
        runs = iter(_minimize_rows([cfs[i] for i in cells for _ in starts[i]],
                                   np.concatenate([starts[i] for i in cells])))
        for i in cells:
            minima[i] = _dedup(cfs[i], [next(runs) for _ in starts[i]])
    return minima


def multistart(cf: CostFn, n_starts: int, seed: int) -> list[OptResult]:
    """Minimize from n_starts uniform random starts in [0, 2*pi)^P.

    The starts run in lockstep, each with the result of a serial minimize
    run. Results are deduplicated: two minima merge when their costs differ
    by at most 1e-6 and their output states overlap within 1e-6. The
    survivors are returned sorted by cost.
    """
    return _cell_minima([cf], [_uniform_starts(cf, n_starts, seed)])[0]


def sweep_gamma(make_cost: Callable[[float], CostFn], gammas, mode: str = "track",
                n_starts: int = 100, seed: int = 0) -> list[list[OptResult]]:
    """Minima of the cost along a gamma grid.

    mode "track" multistarts at the first gamma and warm-starts every later
    point from the previous point's minima, exposing how branches continue
    or disappear. mode "restart" runs an independent multistart per gamma,
    the one at gamma index i from the child seed (seed, i). Every run has the
    result of a serial minimize run from its start. This is the one-family
    case of _sweeps: one row of costs, make_cost(g) for each g in gammas.
    """
    return _sweeps([[make_cost(g) for g in gammas]], mode, n_starts, [seed])[0]


def _sweeps(costs: list[list[CostFn]], mode: str, n_starts: int, seeds: list[int]) -> list[list[list[OptResult]]]:
    """sweep_gamma for several cost families on one circuit: costs[f][i] is
    family f's cost at gamma index i, and family f sweeps from seeds[f]. The
    (family, gamma) cells share lockstep calls: in restart mode all of them
    run as one stack, and in track mode each gamma step runs every family's
    cell as one, one call per distinct circuit among the cells
    (_cell_minima). Each cell is deduplicated on its own, and the results
    come back in the grid's shape."""
    if mode not in ("track", "restart"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if mode == "restart":
        cells = iter(_cell_minima([cf for family in costs for cf in family],
                                  [_uniform_starts(cf, n_starts, _child_seed(seed, i))
                                   for family, seed in zip(costs, seeds) for i, cf in enumerate(family)]))
        return [[next(cells) for _ in family] for family in costs]
    out: list[list[list[OptResult]]] = [[] for _ in costs]
    for i, column in enumerate(zip(*costs)):
        starts = [_uniform_starts(cf, n_starts, _child_seed(seed, 0)) if i == 0
                  else np.array([r.params for r in sweep[-1]]) for cf, seed, sweep in zip(column, seeds, out)]
        for sweep, minima in zip(out, _cell_minima(list(column), starts)):
            sweep.append(minima)
    return out


def reoptimize_from(cf: CostFn, theta_star: np.ndarray) -> tuple[OptResult, OptResult]:
    """Evaluate-then-reoptimize a noisy cost from a noiseless optimum.

    Returns (non_reopt, reopt). non_reopt freezes theta_star: a zero-iteration
    run, holding the noisy cost and gradient there. reopt continues minimizing
    under noise, and is non_reopt itself where that run ends at a higher cost,
    so reopt.cost <= non_reopt.cost holds exactly. This is the one-cell case
    of _reoptimized.
    """
    return _reoptimized([cf], np.asarray(theta_star, dtype=float)[None])[0]


def _reoptimized(cfs: list[CostFn], thetas: np.ndarray) -> list[tuple[OptResult, OptResult]]:
    """reoptimize_from for every cell, cell c under cfs[c] from row c of
    thetas, all on one circuit: one frozen lockstep call (max_iters=0) and
    one live call over all cells, each result that of the cell's own run."""
    thetas = _canonical(_require_finite(thetas, "theta_star"))
    frozen = _minimize_rows(cfs, thetas, MinimizeOptions(max_iters=0))
    return [(non_reopt, non_reopt if reopt.cost > non_reopt.cost else reopt)
            for non_reopt, reopt in zip(frozen, _minimize_rows(cfs, thetas))]


def reoptimize_pair(cf: CostFn, n_starts: int = 10, seed: int = 0) -> tuple[OptResult, OptResult]:
    """Noiseless optimum of cf, evaluated and then reoptimized under noise."""
    base = multistart(cf.noiseless(), n_starts, seed)[0]
    return reoptimize_from(cf, base.params)
