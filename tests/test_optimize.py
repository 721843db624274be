"""Cost functions, parameter-shift gradients and the BFGS minimizer."""

import numpy as np
import pytest

from nvqa.channels import NoiseSpec, make_channel
from nvqa.circuits import (build_2q_circuit, build_4q_vqe, build_hea, build_valley_demo, evaluate,
                           evaluate_pure)
from nvqa.degen import DegeneracyMap, degeneracy_split, generate_degeneracy_maps
from nvqa.measures import ground_truth
from nvqa.qstate import DensityMatrix
from nvqa import optimize
from nvqa.optimize import (
    CostFn,
    MinimizeOptions,
    OptResult,
    _ARMIJO_C,
    _GRAD_TOL,
    _MAX_BACKTRACKS,
    _ROUNDOFF_ULPS,
    _SHRINK,
    _WOLFE_DELTA,
    _WOLFE_SIGMA,
    _minimize_rows,
    energy_cost,
    gradient,
    infidelity_cost,
    minimize,
    multistart,
    reoptimize_from,
    reoptimize_pair,
    sweep_gamma,
)
from nvqa.pauli import vqe_hamiltonian_2q, vqe_hamiltonian_4q
from nvqa.randstates import RngStream, sample_real_haar_state

H2 = vqe_hamiltonian_2q()


def fd_gradient(cf: CostFn, params: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.empty_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += eps
        dn = params.copy()
        dn[i] -= eps
        g[i] = (cf.value(up) - cf.value(dn)) / (2.0 * eps)
    return g


def test_costfn_requires_exactly_one_objective():
    c = build_2q_circuit("a")
    with pytest.raises(ValueError):
        CostFn(circuit=c)
    with pytest.raises(ValueError):
        CostFn(circuit=c, hamiltonian=H2, target=ground_truth(H2).state)


def test_costfn_checks_qubit_counts():
    c = build_2q_circuit("a")
    with pytest.raises(ValueError):
        CostFn(circuit=c, hamiltonian=vqe_hamiltonian_4q())
    with pytest.raises(ValueError):
        CostFn(circuit=build_hea(1), target=ground_truth(H2).state)
    with pytest.raises(ValueError, match="noise spec"):
        energy_cost(build_hea(1), vqe_hamiltonian_4q(), NoiseSpec.uniform("phase", 0.1, 2))


def test_costfn_refuses_a_mixed_target():
    """A mixed reference would be costed as 1 - Tr[target rho] and reported as
    a fidelity it is not; every CostFn refuses it, not only infidelity_cost."""
    mixed = DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError, match="not pure"):
        CostFn(build_2q_circuit("a"), target=mixed)
    with pytest.raises(ValueError, match="not pure"):
        infidelity_cost(build_2q_circuit("a"), mixed)


@pytest.mark.parametrize("circuit", [build_2q_circuit("c"), build_hea(2)], ids=["2q-c", "hea-2"])
@pytest.mark.parametrize("gamma", [None, 0.0, 0.1])
def test_takes_adjoint_names_the_gradient_the_loop_takes(circuit, gamma, monkeypatch):
    """The loop's rule, one predicate: the adjoint method on density rows of
    at least four qubits, the shift rows everywhere else."""
    n = circuit.n_qubits
    noise = None if gamma is None else NoiseSpec.uniform("amplitude", gamma, n)
    cf = energy_cost(circuit, H2 if n == 2 else vqe_hamiltonian_4q(), noise)
    log = ValuesLog(monkeypatch)
    loop_costs(cf, np.zeros((2, cf.n_params)))
    assert cf._takes_adjoint == (n >= 4 and gamma == 0.1)
    assert (log.adjoint_sizes, log.values_sizes) == (([2], []) if cf._takes_adjoint
                                                     else ([], [2 * (2 * cf.n_params + 1)]))


def test_energy_value_matches_quality(rng):
    cf = energy_cost(build_2q_circuit("c"), H2, NoiseSpec.uniform("phase", 0.2, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, 4)
    assert abs(cf.value(theta) - cf.quality(theta).energy) < 1e-12


def test_an_energy_cost_is_costed_and_minimized_without_diagonalising_its_hamiltonian(monkeypatch):
    """The ground projector is derived on the first quality read, once per
    Hamiltonian value: costing, gradients and a minimize run make no
    ground_truth call, and two quality reads make one."""
    calls = []
    optimize._hamiltonian_matrix.cache_clear()
    optimize._ground_projector.cache_clear()
    monkeypatch.setattr(optimize, "ground_truth", lambda h: calls.append(h) or ground_truth(h))
    cf = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("amplitude", 0.1, 2))
    x0 = np.linspace(0.1, 0.8, cf.n_params)
    cf.values(x0[None])
    gradient(cf, x0)
    result = minimize(cf, x0)
    assert calls == []
    assert result.quality == cf.quality(result.params)
    assert calls == [H2]


def test_infidelity_value_matches_quality(rng):
    target = ground_truth(H2).state
    cf = infidelity_cost(build_2q_circuit("c"), target)
    theta = rng.uniform(0.0, 2.0 * np.pi, 4)
    assert abs(cf.value(theta) - (1.0 - cf.quality(theta).fidelity)) < 1e-12


def test_infidelity_cost_rejects_mixed_target(rng):
    from conftest import random_mixed_state

    with pytest.raises(ValueError):
        infidelity_cost(build_2q_circuit("a"), random_mixed_state(2, rng))


def test_values_batch_equals_value_loop(rng):
    cf = energy_cost(build_hea(2), _h4(), NoiseSpec.uniform("amplitude", 0.05, 4))
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(6, 8))
    batch = cf.values(thetas)
    for i in range(6):
        assert abs(batch[i] - cf.value(thetas[i])) < 1e-12


@pytest.mark.parametrize("noise", [None, ("amplitude", 0.0), ("phase", 0.05), ("amplitude", 0.05),
                                   ("depolarising", 0.05), ("depolarising", 0.05, (1.0, 0.1))],
                         ids=["none", "gamma-0", "phase", "amplitude", "depolarising", "unequal"])
@pytest.mark.parametrize("circuit", [build_2q_circuit(v) for v in "abc"] + [build_hea(l) for l in (2, 4, 6)]
                         + [build_4q_vqe()],
                         ids=["2q-a", "2q-b", "2q-c", "hea-2", "hea-4", "hea-6", "4q-vqe"])
def test_values_rows_equal_value_bit_for_bit(circuit, noise, rng):
    """A row's cost does not depend on its batch: cf.values over the first m
    rows, and over m rows from the second on, equals cf.value row by row,
    bit for bit, up to batches that span several kernel chunks. The unequal
    spec scales gamma per qubit by (1, 0.1), as vqe_unequal does, repeated
    over four qubits."""
    from nvqa.qstate import pure_state

    n = circuit.n_qubits
    v = rng.standard_normal(2 ** n)
    if noise is None:
        spec = None
    else:
        scales = np.resize(noise[2], n) if len(noise) > 2 else np.ones(n)
        spec = NoiseSpec(make_channel(noise[0], noise[1]), tuple(scales))
    cf = infidelity_cost(circuit, pure_state(v / np.linalg.norm(v)), spec)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(961, circuit.n_params))
    single = np.array([cf.value(p) for p in thetas])
    for m in (1, 2, 7, 32, 961):
        np.testing.assert_array_equal(cf.values(thetas[:m]), single[:m])
        np.testing.assert_array_equal(cf.values(thetas[1:m + 1]), single[1:m + 1])


@pytest.mark.parametrize("noise", [None, NoiseSpec.uniform("amplitude", 0.2, 2)],
                         ids=["noiseless", "amplitude"])
def test_real_part_costs_are_exact_for_complex_observables(noise, rng):
    """Costs keep only Re(H) and Re(target); on the circuit's real states
    that must equal the full complex expectation and fidelity."""
    from nvqa.measures import fidelity
    from nvqa.pauli import PauliSum
    from nvqa.qstate import expectation, pure_state

    c = build_2q_circuit("c")
    h = PauliSum(2, ((0.7, "XY"), (-0.4, "YZ"), (1.0, "ZZ")))
    amps = rng.normal(size=4) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 4))
    target = pure_state(amps / np.linalg.norm(amps))
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(3, c.n_params))
    shift = 0.5 * np.pi * np.eye(c.n_params)
    for cf, ref in ((energy_cost(c, h, noise), lambda rho: expectation(rho, h)),
                    (infidelity_cost(c, target, noise), lambda rho: 1.0 - fidelity(target, rho))):
        want = [ref(cf.state(p)) for p in thetas]
        assert np.allclose(cf.values(thetas), want, rtol=0.0, atol=1e-12)
        for p, w in zip(thetas, want):
            assert abs(cf.value(p) - w) <= 1e-12
            shifted = [0.5 * (ref(cf.state(p + d)) - ref(cf.state(p - d))) for d in shift]
            assert np.allclose(gradient(cf, p), shifted, rtol=0.0, atol=1e-12)


def _h4():
    return vqe_hamiltonian_4q()


@pytest.mark.parametrize("kind, gamma", [(None, 0.0), ("phase", 0.1), ("depolarising", 0.3)])
def test_gradient_matches_finite_differences(kind, gamma, rng):
    c = build_2q_circuit("c")
    spec = None if kind is None else NoiseSpec.uniform(kind, gamma, 2)
    cf = energy_cost(c, H2, spec)
    theta = rng.uniform(0.0, 2.0 * np.pi, 4)
    assert np.abs(gradient(cf, theta) - fd_gradient(cf, theta)).max() < 1e-6


def test_gradient_of_infidelity_objective(rng):
    target = sample_real_haar_state(2, rng)
    cf = infidelity_cost(build_2q_circuit("c"), target, NoiseSpec.uniform("amplitude", 0.2, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, 4)
    assert np.abs(gradient(cf, theta) - fd_gradient(cf, theta)).max() < 1e-6


def test_minimize_reaches_known_ground_state():
    cf = energy_cost(build_2q_circuit("a"), H2)
    res = minimize(cf, np.array([0.5, 1.2, 2.5]))
    assert res.converged
    assert res.grad_norm <= 1e-8
    assert abs(res.cost - (-np.sqrt(5.0))) < 1e-9
    assert np.all(res.params >= 0.0) and np.all(res.params < 2.0 * np.pi)


def loop_costs(cf: CostFn, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The loop's costs and gradients at every row of an (m, n_params) array:
    one call of a _Stack that holds cf once, every row under it; _minimize_rows
    gives its _Stack one entry per run instead."""
    return optimize._Stack([cf])(np.zeros(len(params), dtype=int), params)


class ValuesLog:
    """Every kernel request of a one-start run, in order. A request is one row
    of an optimize._Stack call and wants that point's cost and gradient;
    values_sizes and adjoint_sizes list the rows of the _expectations and
    _expectation_gradients calls that answer them."""

    def __init__(self, monkeypatch):
        self.points: list[np.ndarray] = []
        self.values_sizes: list[int] = []
        self.adjoint_sizes: list[int] = []
        values, call, adjoint = optimize._expectations, optimize._Stack.__call__, optimize._expectation_gradients

        def logged_values(circuit, params, *args):
            self.values_sizes.append(len(params))
            return values(circuit, params, *args)

        def logged_call(stack, which, params):
            self.points += [np.array(x, dtype=float) for x in params]
            return call(stack, which, params)

        def logged_adjoint(circuit, params, *args):
            self.adjoint_sizes.append(len(params))
            return adjoint(circuit, params, *args)

        monkeypatch.setattr(optimize, "_expectations", logged_values)
        monkeypatch.setattr(optimize._Stack, "__call__", logged_call)
        monkeypatch.setattr(optimize, "_expectation_gradients", logged_adjoint)


def costed_points(monkeypatch, cf: CostFn, theta0: np.ndarray, opts: MinimizeOptions | None = None):
    """The points serial_reference costs, in order: the start and every trial
    point it tries, each once."""
    seen: list[np.ndarray] = []
    value = CostFn.value

    def logged(self, params):
        seen.append(np.array(params, dtype=float))
        return value(self, params)

    with monkeypatch.context() as m:
        m.setattr(CostFn, "value", logged)
        serial_reference(cf, theta0, opts)
    return seen


def assert_one_request_per_point(log: ValuesLog, tried: list[np.ndarray], res: OptResult):
    """A converged run asks for cost and gradient once at every point it
    tries, the start and each trial point alike (1 + trial points), and at no
    point twice; the last request is at the final iterate."""
    assert res.converged
    assert len(log.points) == len(tried)
    assert all(np.array_equal(x, t) for x, t in zip(log.points, tried))
    assert len({x.tobytes() for x in log.points}) == len(log.points)
    assert np.array_equal(np.mod(log.points[-1], 2.0 * np.pi), res.params)


@pytest.mark.parametrize("noise, opts", [
    (None, None),
    (NoiseSpec.uniform("depolarising", 0.2, 2), None),
    (None, MinimizeOptions(cost_goal=-2.2)),
    (None, MinimizeOptions(cost_goal=10.0)),
], ids=["noiseless", "depolarising", "step-reaches-goal", "start-meets-goal"])
def test_minimize_finishes_from_the_loops_cost_and_gradient(noise, opts, monkeypatch):
    """One cost-and-gradient request at the start and at each trial point,
    each answered by one _expectations call over its row and 2P shift rows: the
    result reuses the cost and gradient of the final iterate instead of
    evaluating them again at the reduced angles."""
    cf = energy_cost(build_2q_circuit("a"), H2, noise)
    theta0 = np.array([0.5, 1.2, 2.5])
    tried = costed_points(monkeypatch, cf, theta0, opts)
    log = ValuesLog(monkeypatch)
    res = minimize(cf, theta0, opts)
    assert log.values_sizes == [2 * cf.n_params + 1] * len(log.points) and log.adjoint_sizes == []
    assert_one_request_per_point(log, tried, res)
    monkeypatch.undo()
    assert abs(res.grad_norm - np.linalg.norm(gradient(cf, res.params))) < 1e-12
    assert abs(res.cost - cf.value(res.params)) < 1e-12


def loop_gradient(cf: CostFn, x: np.ndarray) -> np.ndarray:
    """The gradient the BFGS loop takes at x: the adjoint one for density rows
    on at least four qubits, the parameter-shift rule's bits otherwise
    (test_values_and_gradients_are_values_and_gradient_bit_for_bit).
    test_adjoint_gradients_match_the_parameter_shift_rule pins the first to
    the second."""
    return loop_costs(cf, x[None])[1][0]


def result_reference(cf: CostFn, x: np.ndarray, f: float, g: np.ndarray, iterations: int,
                     line_search_ok: bool, opts: MinimizeOptions) -> OptResult:
    """The result of a reference run that stops at x with cost f and gradient
    g, its converged flag derived afresh from the gradient's norm, the goal
    test and whether the line search held. The loop decides where it stops,
    and every result of it must equal this one."""
    grad_norm = float(np.linalg.norm(g))
    hit_goal = opts.cost_goal is not None and f <= opts.cost_goal
    return OptResult(params=np.mod(x, 2.0 * np.pi), cost=f, grad_norm=grad_norm, iterations=iterations,
                     converged=line_search_ok and (grad_norm <= _GRAD_TOL or hit_goal), cost_fn=cf)


def serial_reference(cf: CostFn, theta0: np.ndarray, opts: MinimizeOptions | None = None,
                     events: list | None = None):
    """The one-start BFGS loop that minimize ran before starts advanced in
    lockstep, costing one point or one gradient per call. Every row of
    _minimize_rows must match it bit for bit. events, if given, collects
    "reset" at each reset to steepest descent and "backtracks" at each line
    search that runs out of backtracks."""
    opts = opts or MinimizeOptions()
    x = np.asarray(theta0, dtype=float).copy()
    f = cf.value(x)
    g = loop_gradient(cf, x)
    h = np.eye(x.size)
    first_update = True
    for it in range(opts.max_iters):
        if np.linalg.norm(g) <= _GRAD_TOL or (opts.cost_goal is not None and f <= opts.cost_goal):
            return result_reference(cf, x, f, g, it, True, opts)
        p = -h @ g
        slope = float(g @ p)
        if slope >= 0.0:
            h = np.eye(x.size)
            first_update = True
            p = -g
            slope = -float(g @ g)
            if events is not None:
                events.append("reset")
        alpha = 1.0
        g_new = None
        eps_f = _ROUNDOFF_ULPS * np.finfo(float).eps * max(1.0, abs(f))
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + alpha * p
            f_new = cf.value(x_new)
            if f_new <= f + _ARMIJO_C * alpha * slope:
                break
            if -alpha * slope <= eps_f:
                g_new = loop_gradient(cf, x_new)
                dslope = float(g_new @ p)
                if (f_new <= f + eps_f
                        and _WOLFE_SIGMA * slope <= dslope <= (2.0 * _WOLFE_DELTA - 1.0) * slope):
                    break
                return result_reference(cf, x, f, g, it, False, opts)
            alpha *= _SHRINK
        else:
            if events is not None:
                events.append("backtracks")
            return result_reference(cf, x, f, g, it, False, opts)
        if g_new is None:
            g_new = loop_gradient(cf, x_new)
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
    return result_reference(cf, x, f, g, opts.max_iters, True, opts)


def assert_same_run(got: OptResult, want: OptResult):
    assert np.array_equal(got.params, want.params)
    assert got.cost == want.cost
    assert got.grad_norm == want.grad_norm
    assert got.iterations == want.iterations
    assert got.converged == want.converged


def assert_rows_match_serial(cf: CostFn, starts: np.ndarray, opts: MinimizeOptions | None = None):
    got = _minimize_rows(cf, starts, opts)
    assert len(got) == len(starts)
    for res, theta0 in zip(got, starts):
        assert_same_run(res, serial_reference(cf, theta0, opts))
    return got


@pytest.mark.parametrize("n_starts", [1, 3, 30])
@pytest.mark.parametrize("kind", [None, "phase", "amplitude", "depolarising"])
def test_minimize_rows_match_serial_runs(kind, n_starts):
    """Lockstep rows stop at different iterations and each equals the serial
    run from its start, bit for bit."""
    for variant in "ac":
        c = build_2q_circuit(variant)
        spec = None if kind is None else NoiseSpec.uniform(kind, 0.2, 2)
        starts = np.random.default_rng(n_starts).uniform(0.0, 2.0 * np.pi, (n_starts, c.n_params))
        got = assert_rows_match_serial(energy_cost(c, H2, spec), starts)
        if n_starts == 30:
            assert len({r.iterations for r in got}) > 1


@pytest.mark.parametrize("kind", [None, "phase", "amplitude", "depolarising"])
def test_minimize_rows_match_serial_runs_on_four_qubits(kind, monkeypatch, rng):
    """Pure rows take the shift rows; density rows, of an infidelity and an
    energy cost, the adjoint gradient."""
    c = build_hea(2)
    spec = None if kind is None else NoiseSpec.uniform(kind, 0.05, 4)
    cf = infidelity_cost(c, sample_real_haar_state(4, rng), spec)
    starts = rng.uniform(0.0, 2.0 * np.pi, (3, c.n_params))
    with monkeypatch.context() as m:
        log = ValuesLog(m)
        got = _minimize_rows(cf, starts)
    assert (log.adjoint_sizes != [], log.values_sizes != []) == (kind is not None, kind is None)
    for res, theta0 in zip(got, starts):
        assert_same_run(res, serial_reference(cf, theta0))
    assert len({r.iterations for r in got}) > 1
    if kind is not None:
        cf = energy_cost(build_4q_vqe(), _h4(), spec)
        got = assert_rows_match_serial(cf, rng.uniform(0.0, 2.0 * np.pi, (3, cf.n_params)))
        assert len({r.iterations for r in got}) > 1


class SkewCost:
    """A stand-in cost for the loop and the oracle: the cost 0.5 |x|^2 paired
    with the "gradient" M x of a nearly skew M drawn from seed, and three
    starts. The secant pairs are nearly orthogonal, so roundoff can leave the
    inverse Hessian indefinite, and many line searches run out of
    backtracks. SkewStack stands in for optimize._Stack over it."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.n_params = int(rng.integers(2, 9))
        k = rng.normal(size=(self.n_params, self.n_params))
        self.m = k - k.T + 10.0 ** rng.uniform(-16, -12) * np.eye(self.n_params)
        self.starts = rng.normal(size=(3, self.n_params))

    def value(self, x):
        return float(self.costed(np.asarray(x)[None])[0][0])

    def costed(self, x):
        """Row by row, so that a row's bits do not depend on its batch."""
        return 0.5 * np.vecdot(x, x), np.array([self.m @ r for r in x]).reshape(x.shape)


class SkewStack:
    """optimize._Stack for the runs of one SkewCost."""

    def __init__(self, cfs):
        self.cf = cfs[0]

    def __call__(self, which, params):
        return self.cf.costed(params)


@pytest.mark.parametrize("seed", [102, 149])
def test_minimize_rows_keep_the_reset_and_the_backtrack_limit(seed, monkeypatch):
    """Rows whose serial runs reset to steepest descent, and rows that run out
    of backtracks, match those runs in lockstep. No CostFn case in the tests
    reaches either branch; seeds 102 and 149 are two of the five seeds below
    300 whose runs reset."""
    monkeypatch.setattr(optimize, "_Stack", SkewStack)
    cf = SkewCost(seed)
    opts = MinimizeOptions(max_iters=100)
    events: list[str] = []
    for res, theta0 in zip(_minimize_rows(cf, cf.starts, opts), cf.starts):
        assert_same_run(res, serial_reference(cf, theta0, opts, events))
    assert "reset" in events and "backtracks" in events


def test_minimize_rows_match_serial_runs_fifteen_wide_on_sixteen_parameters(monkeypatch, rng):
    """The widest lockstep chunk of optimize_to_target: 15 starts of the
    4-layer HEA (P = 16) with its options. Every row equals its serial run,
    and the runs stop in different rounds, so the stack shrinks round by
    round, not only at the end."""
    cf = infidelity_cost(build_hea(4), sample_real_haar_state(4, rng))
    starts = rng.uniform(0.0, 2.0 * np.pi, (15, cf.n_params))
    opts = MinimizeOptions(max_iters=400, cost_goal=1e-8)
    sizes: list[int] = []
    call = optimize._Stack.__call__
    with monkeypatch.context() as m:
        m.setattr(optimize._Stack, "__call__", lambda stack, which, x: sizes.append(len(x)) or call(stack, which, x))
        got = _minimize_rows(cf, starts, opts)
    for res, theta0 in zip(got, starts):
        assert_same_run(res, serial_reference(cf, theta0, opts))
    assert len(set(sizes)) > 3
    assert len({r.iterations for r in got}) > 3


@pytest.mark.parametrize("n_params", [3, 4, 8, 12, 16, 24])
def test_stacked_products_have_the_bits_of_their_1d_forms(n_params):
    """The rules _minimize_rows rests on, for S in {1, 2, 5, 8, 30} rows:
    np.vecdot rows equal a_i @ b_i, and their square roots np.linalg.norm;
    np.matvec rows equal h_i @ v_i; a broadcast outer product equals
    np.outer(a_i, b_i), and its transpose np.outer(b_i, a_i). A numpy that
    sums in another order fails here instead of silently moving results."""
    rng = np.random.default_rng(n_params)
    for s in (1, 2, 5, 8, 30):
        a, b = rng.normal(size=(2, s, n_params)) * 10.0 ** rng.uniform(-6.0, 2.0, (2, s, n_params))
        h = rng.normal(size=(s, n_params, n_params))
        dots, norms, hv = np.vecdot(a, b), np.sqrt(np.vecdot(a, a)), np.matvec(-h, b)
        outer = a[:, :, None] * b[:, None, :]
        for i in range(s):
            assert dots[i] == a[i] @ b[i] and norms[i] == np.linalg.norm(a[i])
            assert np.array_equal(hv[i], -h[i] @ b[i])
            assert np.array_equal(outer[i], np.outer(a[i], b[i]))
            assert np.array_equal(outer[i].T, np.outer(b[i], a[i]))


@pytest.mark.parametrize("variant, noise, seed, shape", [
    ("c", None, 2129014521, (8, 4)),
    ("a", NoiseSpec.uniform("amplitude", 0.3, 2), 2, (8, 3)),
    ("a", NoiseSpec.uniform("depolarising", 0.3, 2), 84, (8, 3)),
], ids=["c-noiseless", "a-amplitude", "a-depolarising"])
def test_minimize_rows_keep_the_roundoff_fallback(variant, noise, seed, shape):
    """The draws of the roundoff-floor starts, run in lockstep: rows that
    take the roundoff fallback match their serial runs like the others.
    armijo_reference names the rows that reach the floor, and each draw
    must have at least one."""
    cf = energy_cost(build_2q_circuit(variant), H2, noise)
    starts = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, shape)
    assert any(armijo_reference(cf, x, MinimizeOptions()) is None for x in starts)
    assert all(r.converged for r in assert_rows_match_serial(cf, starts))


def test_minimize_rows_match_serial_runs_whose_line_search_fails():
    """Starts 1e-8 from a minimum along its steepest curvature: the first step
    overshoots by less than the cost's roundoff, so the fallback judges it by
    the slope, and for some starts rejects it, ending the run unconverged."""
    cf = energy_cost(build_2q_circuit("a"), H2)
    m = minimize(cf, np.full(3, 0.7)).params
    hess = np.array([gradient(cf, m + d) - gradient(cf, m - d) for d in 0.5 * np.pi * np.eye(3)]) / 2
    lam, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    starts = m + np.outer(np.linspace(1.5, 6.5, 11) * 1e-8 / lam[-1], vecs[:, -1])
    got = assert_rows_match_serial(cf, starts)
    assert any(not r.converged and r.iterations == 0 and r.grad_norm > 1e-8 for r in got)
    assert any(r.converged for r in got)


def test_minimize_rows_match_serial_runs_at_the_cap_and_the_goal():
    """A start that already meets cost_goal, rows stopped by max_iters and
    rows that reach the goal mid-run, all in one lockstep call."""
    cf = energy_cost(build_2q_circuit("c"), H2)
    at_goal = minimize(cf, np.array([0.5, 1.2, 2.5, 0.3])).params
    starts = np.vstack([np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (12, 4)), at_goal])
    opts = MinimizeOptions(max_iters=6, cost_goal=-2.2)
    got = assert_rows_match_serial(cf, starts, opts)
    assert got[-1].iterations == 0 and got[-1].converged
    assert any(r.iterations == 6 and not r.converged for r in got)
    assert any(0 < r.iterations < 6 and r.converged for r in got)


@pytest.mark.parametrize("gamma", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["phase", "amplitude", "depolarising"])
def test_four_qubit_density_runs_take_adjoint_gradients(kind, gamma, monkeypatch, rng):
    """A 4-qubit density run asks each point it tries in one single-row
    adjoint call and never reaches _expectations; at strength zero its rows are
    statevectors and it keeps the shift rows."""
    cf = infidelity_cost(build_hea(2), sample_real_haar_state(4, rng), NoiseSpec.uniform(kind, gamma, 4))
    theta0 = rng.uniform(0.0, 2.0 * np.pi, cf.n_params)
    tried = costed_points(monkeypatch, cf, theta0)
    log = ValuesLog(monkeypatch)
    res = minimize(cf, theta0)
    assert_one_request_per_point(log, tried, res)
    if gamma == 0.0:
        assert log.values_sizes == [2 * cf.n_params + 1] * len(log.points) and log.adjoint_sizes == []
    else:
        assert log.values_sizes == []
        assert log.adjoint_sizes == [1] * len(log.points)


class RoundLog:
    """The kernel calls of a _minimize_rows call, split into rounds: a round
    opens with its optimize._Stack call and holds the calls that one makes.
    It also counts the rows each round costs."""

    def __init__(self, monkeypatch):
        self.events: list[str] = []
        self.rows = 0
        values, call, adjoint = optimize._expectations, optimize._Stack.__call__, optimize._expectation_gradients

        def logged(name, fn):
            def call(*args):
                self.events.append(name)
                return fn(*args)
            return call

        def logged_call(stack, which, params):
            self.rows += len(params)
            return logged("stack", call)(stack, which, params)

        monkeypatch.setattr(optimize, "_expectations", logged("values", values))
        monkeypatch.setattr(optimize._Stack, "__call__", logged_call)
        monkeypatch.setattr(optimize, "_expectation_gradients", logged("adjoint", adjoint))

    def rounds(self) -> list[list[str]]:
        out: list[list[str]] = []
        for event in self.events:
            if event == "stack" or not out:
                out.append([])
            out[-1].append(event)
        return out


@pytest.mark.parametrize("case", ["pure", "2q-density", "4q-density"])
def test_minimize_rows_make_one_kernel_call_per_round(case, monkeypatch, rng):
    """Every round costs all running runs' points with one _Stack call, which
    makes one _expectations call or, on 4-qubit density rows, one adjoint
    call. Between them the rounds cost each point the serial runs cost,
    once."""
    if case == "4q-density":
        spec = NoiseSpec.uniform("amplitude", 0.05, 4)
        cf = infidelity_cost(build_hea(2), sample_real_haar_state(4, rng), spec)
    else:
        spec = NoiseSpec.uniform("depolarising", 0.2, 2) if case == "2q-density" else None
        cf = energy_cost(build_2q_circuit("c"), H2, spec)
    starts = rng.uniform(0.0, 2.0 * np.pi, (6, cf.n_params))
    tried = sum(len(costed_points(monkeypatch, cf, x)) for x in starts)
    log = RoundLog(monkeypatch)
    got = _minimize_rows(cf, starts)
    rounds = log.rounds()
    assert len(rounds) >= max(r.iterations for r in got) + 1
    assert all(r == ["stack", "adjoint" if case == "4q-density" else "values"] for r in rounds)
    assert log.rows == tried


@pytest.mark.parametrize("case", ["pure", "2q-density", "4q-density"])
def test_values_and_gradients_are_values_and_gradient_bit_for_bit(case, rng):
    """The loop's costing, a one-cell _Stack call: costs equal cf.values bit
    for bit, for a row alone and in 2- and 33-row batches, and so do the
    gradients; shift-row gradients equal the public gradient bit for bit,
    adjoint ones to 1e-12."""
    if case == "4q-density":
        spec = NoiseSpec.uniform("amplitude", 0.05, 4)
        cf = infidelity_cost(build_hea(2), sample_real_haar_state(4, rng), spec)
    elif case == "2q-density":
        cf = energy_cost(build_2q_circuit("c"), H2, NoiseSpec.uniform("depolarising", 0.2, 2))
    else:
        cf = infidelity_cost(build_hea(2), sample_real_haar_state(4, rng))
    thetas = rng.uniform(0.0, 2.0 * np.pi, (34, cf.n_params))
    costs, grads = map(np.concatenate, zip(*(loop_costs(cf, t[None]) for t in thetas)))
    np.testing.assert_array_equal(costs, cf.values(thetas))
    for lo, hi in ((0, 2), (0, 33), (1, 34)):
        got_costs, got_grads = loop_costs(cf, thetas[lo:hi])
        np.testing.assert_array_equal(got_costs, costs[lo:hi])
        np.testing.assert_array_equal(got_grads, grads[lo:hi])
    want = np.array([gradient(cf, t) for t in thetas])
    if case == "4q-density":
        np.testing.assert_allclose(grads, want, rtol=0.0, atol=1e-12)
    else:
        np.testing.assert_array_equal(grads, want)


@pytest.mark.parametrize("case", ["pure", "2q-density", "4q-density"])
def test_values_and_gradients_of_an_empty_batch_are_empty(case):
    """Empty arrays for pure rows and for density rows of either gradient method."""
    if case == "4q-density":
        cf = energy_cost(build_4q_vqe(), vqe_hamiltonian_4q(), NoiseSpec.uniform("phase", 0.1, 4))
    else:
        noise = NoiseSpec.uniform("phase", 0.1, 2) if case == "2q-density" else None
        cf = energy_cost(build_2q_circuit("c"), H2, noise)
    costs, grads = loop_costs(cf, np.empty((0, cf.n_params)))
    assert costs.shape == (0,) and grads.shape == (0, cf.n_params)


@pytest.mark.parametrize("n, kind", [(2, None), (2, "amplitude"), (4, "phase")],
                         ids=["2q-pure", "2q-amplitude", "4q-phase-adjoint"])
def test_a_parameter_free_circuit_has_an_empty_gradient_and_stops_at_its_start(n, kind):
    """A circuit with no Ry gate has P = 0: its gradient is empty, minimize
    stops at its start after no step, converged with grad_norm 0, and
    multistart returns that one minimum. Its output |0...0> is orthogonal to
    the target |1...1> under these channels, so every cost is 1."""
    from nvqa.circuits import NOISE, Circuit, Cx
    from nvqa.qstate import pure_state

    target = np.zeros(2 ** n)
    target[-1] = 1.0
    cf = infidelity_cost(Circuit(n, (Cx(0, 1), NOISE)), pure_state(target),
                         None if kind is None else NoiseSpec.uniform(kind, 0.3, n))
    assert cf._takes_adjoint == (n == 4)
    assert gradient(cf, np.zeros(0)).shape == (0,)
    res = minimize(cf, np.zeros(0))
    assert res.params.shape == (0,)
    assert (res.cost, res.grad_norm, res.iterations, res.converged) == (1.0, 0.0, 0, True)
    [only] = multistart(cf, 3, 0)
    assert (only.cost, only.iterations, only.converged) == (1.0, 0, True)


@pytest.mark.parametrize("case", ["pure", "2q-density", "4q-density"])
def test_a_one_cell_stack_passes_the_kernel_its_own_spec_and_observable(case, monkeypatch, rng):
    """A one-cell _Stack call runs its rows as its cost function alone: its
    one kernel call takes the cell's own spec and observable matrix, never a
    _ByRow. Beside a second cell, the entry the two differ in is per row
    (the spec of density rows, the observable of pure rows), the rows of
    each spec together, still in one kernel call, and each row keeps its
    one-cell bits."""
    from nvqa.circuits import _ByRow

    if case == "4q-density":
        cf = infidelity_cost(build_hea(2), sample_real_haar_state(4, rng), NoiseSpec.uniform("amplitude", 0.05, 4))
    else:
        cf = energy_cost(build_2q_circuit("c"), H2, NoiseSpec.uniform("depolarising", 0.2, 2) if case == "2q-density"
                         else None)
    n = cf.circuit.n_qubits
    other = (infidelity_cost(cf.circuit, sample_real_haar_state(n, rng)) if case == "pure"
             else cf.with_noise(NoiseSpec.uniform("phase", 0.1, n)))
    calls = []

    def logged(name, fn):
        def call(circuit, params, noise, obs):
            calls.append((name, noise, obs))
            return fn(circuit, params, noise, obs)
        return call

    monkeypatch.setattr(optimize, "_expectations", logged("values", optimize._expectations))
    monkeypatch.setattr(optimize, "_expectation_gradients", logged("adjoint", optimize._expectation_gradients))
    theta = rng.uniform(0.0, 2.0 * np.pi, (3, cf.n_params))
    alone = loop_costs(cf, theta)
    [(name, noise, obs)] = calls
    assert name == ("adjoint" if case == "4q-density" else "values")
    assert noise is cf.noise and not isinstance(obs, _ByRow)
    assert np.array_equal(obs, cf._obs_matrix)
    calls.clear()
    got = optimize._Stack([cf, other])(np.array([0, 1, 0]), theta)
    [(both, noise, obs)] = calls
    assert both == name
    rows = 1 if case == "4q-density" else 2 * cf.n_params + 1
    if case == "pure":
        assert noise is None and isinstance(obs, _ByRow)
        assert np.array_equal(obs.index, np.repeat([0, 1, 0], rows))
    else:
        assert isinstance(noise, _ByRow) and noise.stack == (cf.noise, other.noise)
        assert np.array_equal(noise.index, np.repeat([0, 0, 1], rows))  # in spec order
        assert not isinstance(obs, _ByRow)
    for a, b, c in zip(got, alone, loop_costs(other, theta)):
        assert np.array_equal(a[[0, 2]], b[[0, 2]]) and np.array_equal(a[1], c[1])


def test_non_finite_starts_are_refused_before_any_kernel_request(monkeypatch):
    """A NaN or infinite start raises, rather than running to a nan cost that
    reads like a failed line search."""
    cf = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("amplitude", 0.1, 2))

    def refuse(*_):
        raise AssertionError("kernel request for a non-finite start")

    monkeypatch.setattr(optimize._Stack, "__call__", refuse)
    for bad in (np.nan, np.inf, -np.inf):
        start = np.array([0.5, bad, 2.5])
        with pytest.raises(ValueError, match="finite"):
            minimize(cf, start)
        with pytest.raises(ValueError, match="finite"):
            _minimize_rows(cf, np.array([[0.1, 0.2, 0.3], start]))
    with pytest.raises(ValueError, match="finite"):
        reoptimize_from(cf, np.array([0.5, np.nan, 2.5]))


C2A, AMP2 = build_2q_circuit("a"), NoiseSpec.uniform("amplitude", 0.1, 2)
# each entry that takes caller angles, called with a 3-angle vector, and the
# name its error gives them
NON_FINITE_ENTRIES = {
    "evaluate": (lambda x: evaluate(C2A, x, AMP2), "params"),
    "evaluate_pure": (lambda x: evaluate_pure(C2A, x), "params"),
    "value": (lambda x: energy_cost(C2A, H2).value(x), "params"),
    "values": (lambda x: energy_cost(C2A, H2, AMP2).values(np.array([[0.1, 0.2, 0.3], x])), "params"),
    "quality": (lambda x: energy_cost(C2A, H2, AMP2).quality(x), "params"),
    "gradient": (lambda x: gradient(energy_cost(C2A, H2), x), "params"),
    "adjoint": (lambda x: loop_costs(infidelity_cost(build_hea(1), sample_real_haar_state(4, RngStream(0)),
                                                     NoiseSpec.uniform("amplitude", 0.1, 4)),
                                     np.append(x, 1.0)[None]), "params"),
    "dedup": (lambda x: optimize._dedup(energy_cost(C2A, H2), [OptResult(x, 0.0, 0.0, 0, True, None)]),
              "params"),
    "reoptimize_from": (lambda x: reoptimize_from(energy_cost(C2A, H2, AMP2), x), "theta_star"),
    "degeneracy_split": (lambda x: degeneracy_split(C2A, x, generate_degeneracy_maps(C2A), AMP2,
                                                    ground_truth(H2).state), "theta"),
    "DegeneracyMap.apply": (lambda x: DegeneracyMap((1, -1, 1), (0, 1, 0)).apply(x), "theta"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", list(NON_FINITE_ENTRIES))
def test_non_finite_angles_are_refused_at_every_entry(entry, bad):
    """A NaN or infinite angle raises ValueError naming the argument. It used
    to give NaN states, costs or fidelities, or on an infinity numpy's
    RuntimeWarning from the cosine or np.mod; reoptimize_from refused a NaN
    only as its inner run's start."""
    call, name = NON_FINITE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(np.array([0.5, bad, 2.5]))


def test_minimize_rows_refuse_a_wrong_shape():
    cf = energy_cost(build_2q_circuit("a"), H2)
    assert _minimize_rows(cf, np.zeros((0, 3))) == []
    for bad in (np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(ValueError):
            _minimize_rows(cf, bad)


def armijo_reference(cf: CostFn, theta0: np.ndarray, opts: MinimizeOptions):
    """The Armijo-only BFGS loop that minimize runs until a step fails
    Armijo with a decrease below roundoff (16 ulps of max(1, |f|)).

    Returns None for a run that reaches such a step, where minimize takes
    its roundoff fallback instead; every other run must match minimize bit
    for bit.
    """
    x = np.asarray(theta0, dtype=float).copy()
    f = cf.value(x)
    if opts.cost_goal is not None and f <= opts.cost_goal:
        return result_reference(cf, x, f, loop_gradient(cf, x), 0, True, opts)
    g = loop_gradient(cf, x)
    h = np.eye(x.size)
    first_update = True
    for it in range(opts.max_iters):
        if np.linalg.norm(g) <= _GRAD_TOL:
            return result_reference(cf, x, f, g, it, True, opts)
        p = -h @ g
        slope = float(g @ p)
        if slope >= 0.0:
            h = np.eye(x.size)
            first_update = True
            p = -g
            slope = -float(g @ g)
        eps_f = 16.0 * np.finfo(float).eps * max(1.0, abs(f))
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + alpha * p
            f_new = cf.value(x_new)
            if f_new <= f + _ARMIJO_C * alpha * slope:
                break
            if -alpha * slope <= eps_f:
                return None
            alpha *= _SHRINK
        else:
            return result_reference(cf, x, f, g, it, False, opts)
        if opts.cost_goal is not None and f_new <= opts.cost_goal:
            return result_reference(cf, x_new, f_new, loop_gradient(cf, x_new), it + 1, True, opts)
        g_new = loop_gradient(cf, x_new)
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
    return result_reference(cf, x, f, g, opts.max_iters, True, opts)


@pytest.mark.parametrize("kind", [None, "phase", "amplitude", "depolarising"])
def test_minimize_matches_armijo_reference_off_the_roundoff_floor(kind):
    """Runs that never meet an unresolvable failed Armijo step keep the
    plain Armijo trajectory exactly: same params, cost and iterations."""
    opts = MinimizeOptions(max_iters=200)
    compared = 0
    for variant, seed in (("a", 11), ("b", 12), ("c", 13)):
        c = build_2q_circuit(variant)
        spec = None if kind is None else NoiseSpec.uniform(kind, 0.2, 2)
        cf = energy_cost(c, H2, spec)
        starts = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (4, c.n_params))
        for theta0 in starts:
            want = armijo_reference(cf, theta0, opts)
            if want is None:
                continue
            got = minimize(cf, theta0, opts)
            assert np.array_equal(got.params, want.params)
            assert got.cost == want.cost
            assert got.iterations == want.iterations
            assert got.converged == want.converged
            compared += 1
    assert compared >= 6


@pytest.mark.parametrize("variant, noise, seed, shape, row", [
    ("c", None, 2129014521, (8, 4), 7),
    ("a", NoiseSpec.uniform("amplitude", 0.3, 2), 2, (8, 3), 3),
    ("a", NoiseSpec.uniform("depolarising", 0.3, 2), 84, (8, 3), 5),
], ids=["c-noiseless", "a-amplitude", "a-depolarising"])
def test_minimize_does_not_stall_on_the_roundoff_floor(variant, noise, seed, shape, row,
                                                       monkeypatch):
    """Starts that meet a failed Armijo step below the cost's roundoff. Plain
    Armijo backtracking, which shrinks such a step until it passes, crawled
    through all 1,000 iterations on the noiseless and depolarising starts
    (33,682 and 31,724 costed points, a gradient counted as 2P) and stopped
    unconverged at grad norm 2e-8 and 1e-8; on the amplitude start it
    recovered after 16 iterations."""
    cf = energy_cost(build_2q_circuit(variant), H2, noise)
    theta0 = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, shape)[row]
    assert armijo_reference(cf, theta0, MinimizeOptions()) is None
    tried = costed_points(monkeypatch, cf, theta0)
    log = ValuesLog(monkeypatch)
    res = minimize(cf, theta0)
    assert res.grad_norm <= 1e-8
    assert log.values_sizes == [2 * cf.n_params + 1] * len(log.points)
    assert_one_request_per_point(log, tried, res)
    assert len(log.points) < 200


@pytest.mark.parametrize("bad", [
    dict(max_iters=-1), dict(max_iters=True), dict(max_iters=False), dict(max_iters=2.0),
    dict(cost_goal=float("nan")), dict(cost_goal=float("inf")), dict(cost_goal=-np.inf),
    dict(cost_goal=True), dict(cost_goal=np.True_), dict(cost_goal=1j), dict(cost_goal=np.complex128(0.5)),
    dict(cost_goal="x"), dict(cost_goal="0.5"),
], ids=["negative", "true", "false", "float", "nan-goal", "inf-goal", "minus-inf-goal",
        "true-goal", "numpy-true-goal", "complex-goal", "numpy-complex-goal", "string-goal",
        "numeric-string-goal"])
def test_minimize_options_refuse_values_that_read_as_results(bad):
    """max_iters=-1 or True came back as iterations=-1 or True, a NaN
    cost_goal was silently ignored, a cost_goal of True read as 1.0, a
    complex goal failed mid-run on its first comparison, and a string goal
    raised numpy's TypeError."""
    with pytest.raises(ValueError):
        MinimizeOptions(**bad)
    iters = MinimizeOptions(max_iters=np.int64(3), cost_goal=np.float64(-1.0)).max_iters
    assert iters == 3 and type(iters) is int
    assert MinimizeOptions(max_iters=0, cost_goal=None).max_iters == 0


@pytest.mark.parametrize("n_starts", [2.5, True, np.float64(3.0), 0, -1],
                         ids=["float", "bool", "numpy-float", "zero", "negative"])
def test_start_counts_are_refused_unless_positive_integers(n_starts):
    """A float or bool count failed in numpy with a TypeError, or ran one start."""
    cf = energy_cost(build_2q_circuit("a"), H2)
    for call in (lambda: multistart(cf, n_starts, 0),
                 lambda: sweep_gamma(lambda g: cf, [0.0], n_starts=n_starts),
                 lambda: reoptimize_pair(cf, n_starts=n_starts)):
        with pytest.raises(ValueError, match="n_starts"):
            call()


def test_results_equal_only_themselves_and_cost_functions_hash():
    """Results compare by identity; cost functions compare and hash by their
    circuit, noise spec and objective."""
    spec = NoiseSpec.uniform("phase", 0.1, 2)
    cf = energy_cost(build_2q_circuit("a"), H2, spec)
    twin = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("phase", 0.1, 2))
    assert cf == twin and hash(cf) == hash(twin)
    assert cf != energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("phase", 0.2, 2))
    a, b = minimize(cf, np.zeros(3)), minimize(cf, np.zeros(3))
    assert a == a and a != b and a in [a] and b not in [a] and len({a, b}) == 2
    target = sample_real_haar_state(2, RngStream(0))
    icf = infidelity_cost(build_2q_circuit("a"), target)
    assert hash(icf) == hash(infidelity_cost(build_2q_circuit("a"), target))


def test_minimize_result_is_frozen():
    cf = energy_cost(build_2q_circuit("a"), H2)
    res = minimize(cf, np.zeros(3))
    assert isinstance(res, OptResult)
    with pytest.raises(ValueError):
        res.params[0] = 1.0


def test_minimize_respects_iteration_cap():
    cf = energy_cost(build_2q_circuit("a"), H2)
    res = minimize(cf, np.array([0.5, 1.2, 2.5]), MinimizeOptions(max_iters=2))
    assert res.iterations <= 2


def test_minimize_cost_agrees_with_value_at_params():
    cf = energy_cost(build_2q_circuit("b"), H2, NoiseSpec.uniform("phase", 0.25, 2))
    res = minimize(cf, np.array([1.0, 2.0, 3.0]))
    assert abs(cf.value(res.params) - res.cost) < 1e-12


def test_multistart_dedup_collapses_the_valley():
    from nvqa.pauli import PauliSum

    cf = energy_cost(build_valley_demo(), PauliSum(1, ((0.5, "Z"), (0.5, "I"))))
    res = multistart(cf, n_starts=24, seed=3)
    # at gamma=0 every minimum prepares the same state, so one survivor
    assert len(res) == 1
    assert res[0].cost < 1e-9
    assert all(a.cost <= b.cost for a, b in zip(res, res[1:]))


def test_multistart_finds_separate_minima_under_amplitude_damping():
    cf = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("amplitude", 0.3, 2))
    res = multistart(cf, n_starts=60, seed=5)
    assert len(res) == 2
    assert res[0].cost < res[1].cost - 1e-3


def test_multistart_is_deterministic():
    cf = energy_cost(build_2q_circuit("c"), H2, NoiseSpec.uniform("phase", 0.2, 2))
    a = multistart(cf, n_starts=12, seed=7)
    b = multistart(cf, n_starts=12, seed=7)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.params, rb.params)
        assert ra.cost == rb.cost


def test_sweep_gamma_track_and_restart():
    def make_cost(g: float):
        spec = NoiseSpec.uniform("phase", g, 2) if g > 0 else None
        return energy_cost(build_2q_circuit("a"), H2, spec)

    gammas = (0.0, 0.2, 0.4)
    for mode in ("track", "restart"):
        sweeps = sweep_gamma(make_cost, gammas, mode=mode, n_starts=10, seed=1)
        assert len(sweeps) == 3
        costs = [s[0].cost for s in sweeps]
        # noise only raises the reachable minimum of this problem
        assert costs == sorted(costs)
    with pytest.raises(ValueError):
        sweep_gamma(make_cost, gammas, mode="jump")


def record_dedup_inputs(monkeypatch) -> list[list[OptResult]]:
    """Patch optimize._dedup to keep every result list it is given."""
    import nvqa.optimize as optimize

    seen, dedup = [], optimize._dedup

    def recorded(cf, results):
        seen.append(list(results))
        return dedup(cf, results)

    monkeypatch.setattr(optimize, "_dedup", recorded)
    return seen


def test_multistart_equals_serial_runs(monkeypatch):
    cf = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("amplitude", 0.3, 2))
    seen = record_dedup_inputs(monkeypatch)
    res = multistart(cf, n_starts=20, seed=5)
    starts = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (20, cf.n_params))
    [runs] = seen
    assert len(runs) == len(starts)
    for got, theta0 in zip(runs, starts):
        assert_same_run(got, serial_reference(cf, theta0))
    assert len(res) == 2


@pytest.mark.parametrize("gamma", [True, "0.1"], ids=["bool", "str"])
def test_sweep_gamma_hands_each_gamma_to_the_cost_as_given(gamma):
    """float() once turned True into 1.0 and "0.1" into 0.1 before the cost
    saw them; the channel's strength rule now refuses both, and any other
    gamma reaches the cost as it was given."""
    def cost_at(g):
        return energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("phase", g, 2))

    with pytest.raises(ValueError, match="gamma must be a real number"):
        sweep_gamma(cost_at, [gamma], n_starts=1)
    seen = []
    sweep_gamma(lambda g: seen.append(g) or cost_at(g), iter([0, np.float32(0.5)]), n_starts=1)
    assert [type(g) for g in seen] == [int, np.float32]


def test_sweep_gamma_track_equals_serial_runs(monkeypatch):
    """The first point's multistart and every later point's warm starts
    equal serial runs from the same starts."""
    def make_cost(g: float):
        return energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("amplitude", g, 2))

    gammas = (0.3, 0.35, 0.4)
    seen = record_dedup_inputs(monkeypatch)
    sweeps = sweep_gamma(make_cost, gammas, mode="track", n_starts=16, seed=2)
    seed0 = int(np.random.SeedSequence(2, spawn_key=(0,)).generate_state(1)[0])
    starts = np.random.default_rng(seed0).uniform(0.0, 2.0 * np.pi, (16, 3))
    assert len(seen) == len(gammas)
    for i, (g, runs) in enumerate(zip(gammas, seen)):
        if i > 0:
            starts = [r.params for r in sweeps[i - 1]]
        assert len(runs) == len(starts)
        for got, theta0 in zip(runs, starts):
            assert_same_run(got, serial_reference(make_cost(g), theta0))
    assert all(len(s) == 2 for s in sweeps)


def test_reoptimize_from_never_loses_to_frozen_params(rng):
    target = sample_real_haar_state(4, rng)
    cf = infidelity_cost(build_hea(2), target, NoiseSpec.uniform("amplitude", 0.05, 4))
    base = multistart(cf.noiseless(), n_starts=6, seed=2)[0]
    non_reopt, reopt = reoptimize_from(cf, base.params)
    assert non_reopt.iterations == 0
    assert non_reopt.cost == cf.value(base.params)
    assert non_reopt.grad_norm == float(np.linalg.norm(loop_gradient(cf, base.params)))
    assert non_reopt.converged == (non_reopt.grad_norm <= 1e-8)
    assert reopt.cost <= non_reopt.cost + 1e-9


def frozen_reference(cf: CostFn, theta_star: np.ndarray) -> OptResult:
    """The frozen result reoptimize_from built before it was a zero-iteration
    minimize run: one cf.value and one gradient at the reduced angles."""
    theta_star = np.mod(np.asarray(theta_star, dtype=float), 2.0 * np.pi)
    return result_reference(cf, theta_star, cf.value(theta_star), loop_gradient(cf, theta_star), 0, True,
                            MinimizeOptions())


@pytest.mark.parametrize("kind", ["phase", "amplitude", "depolarising"])
@pytest.mark.parametrize("circuit", [build_2q_circuit("a"), build_2q_circuit("c"), build_hea(2)],
                         ids=["2q-a", "2q-c", "hea-2"])
def test_reoptimize_from_freezes_like_the_value_and_gradient_it_replaced(circuit, kind, rng):
    """The zero-iteration run equals the separate cf.value + gradient
    construction field for field, also from angles outside [0, 2*pi)."""
    n = circuit.n_qubits
    cf = infidelity_cost(circuit, sample_real_haar_state(n, rng), NoiseSpec.uniform(kind, 0.1, n))
    for theta_star in rng.uniform(-2.0 * np.pi, 4.0 * np.pi, (3, circuit.n_params)):
        non_reopt, _ = reoptimize_from(cf, theta_star)
        want = frozen_reference(cf, theta_star)
        assert_same_run(non_reopt, want)
        assert non_reopt.cost_fn is cf
        got_q, want_q = non_reopt.quality, want.quality
        assert (got_q.fidelity, got_q.concurrence) == (want_q.fidelity, want_q.concurrence)


@pytest.mark.parametrize("layers, floor_seed", [(2, 2), (4, 6)])
def test_reoptimized_cells_equal_their_own_reoptimize_from(layers, floor_seed, rng):
    """One frozen and one live lockstep call over cells of two targets, three
    kinds and two gammas give each cell the pair reoptimize_from gives it
    alone, from angles in and outside [0, 2*pi). The last cell starts at an
    exact optimum under amplitude damping of 1e-8, where the live run ends
    above the frozen cost by roundoff, so its reopt is the frozen result."""
    from nvqa.qstate import pure_state

    circuit = build_hea(layers)
    thetas = [rng.uniform(-2.0 * np.pi, 4.0 * np.pi, circuit.n_params) for _ in range(2)]
    # each target a noiseless optimum a little off its start, so reoptimization moves
    targets = [pure_state(evaluate_pure(circuit, t + 0.05)) for t in thetas]
    thetas.append(np.random.default_rng(floor_seed).uniform(0.0, 2.0 * np.pi, circuit.n_params))
    targets.append(pure_state(evaluate_pure(circuit, thetas[-1])))
    cells = [(t, kind, g) for t in range(2) for kind in ("phase", "amplitude", "depolarising")
             for g in (1e-3, 1e-2)] + [(2, "amplitude", 1e-8)]
    cfs = [infidelity_cost(circuit, targets[t], NoiseSpec.uniform(kind, g, 4)) for t, kind, g in cells]
    got = optimize._reoptimized(cfs, np.array([thetas[t] for t, _, _ in cells]))
    assert len(got) == len(cells) and got[-1][1] is got[-1][0]
    for cf, (t, _, _), pair in zip(cfs, cells, got):
        for a, b in zip(pair, reoptimize_from(cf, thetas[t])):
            assert a.params.tobytes() == b.params.tobytes() and a.cost_fn is cf
            assert (a.cost, a.grad_norm, a.iterations, a.converged) == \
                (b.cost, b.grad_norm, b.iterations, b.converged)
        assert pair[0].iterations == 0 and pair[1].cost <= pair[0].cost


@pytest.mark.parametrize("kind", [None, "phase", "amplitude", "depolarising"])
@pytest.mark.parametrize("circuit", [build_2q_circuit("a"), build_2q_circuit("c"), build_hea(2),
                                     build_4q_vqe()], ids=["2q-a", "2q-c", "hea-2", "4q-vqe"])
def test_quality_energy_and_fidelity_are_the_cost_bit_for_bit(circuit, kind, monkeypatch, rng):
    """quality reduces the params row as the cost does: an energy cost's value
    is its energy, and an infidelity cost's value is 1 - fidelity, bit for
    bit. The energy cost's fidelity is taken against the ground state. One
    kernel call gives all three measures, and the concurrence is that of
    the state evaluate returns, bit for bit."""
    import nvqa.optimize as optimize
    from nvqa.measures import fidelity, max_pairwise_concurrence

    n = circuit.n_qubits
    spec = None if kind is None else NoiseSpec.uniform(kind, 0.1, n)
    h = H2 if n == 2 else _h4()
    ecf = energy_cost(circuit, h, spec)
    icf = infidelity_cost(circuit, sample_real_haar_state(n, rng), spec)
    ground = ground_truth(h).state
    calls, simulate = [], optimize._simulate
    for p in rng.uniform(0.0, 2.0 * np.pi, (3, circuit.n_params)):
        monkeypatch.setattr(optimize, "_simulate", lambda *a: calls.append(a) or simulate(*a))
        q = ecf.quality(p)
        monkeypatch.undo()
        assert len(calls) == 1
        calls.clear()
        assert q.concurrence == max_pairwise_concurrence(ecf.state(p))
        assert q.energy == ecf.value(p)
        assert abs(q.fidelity - fidelity(ground, ecf.state(p))) < 1e-12
        assert 1.0 - icf.quality(p).fidelity == icf.value(p)
        assert np.isnan(icf.quality(p).energy)


def test_runs_evaluate_no_quality(monkeypatch, rng):
    """Lockstep runs, multistart, tracked sweeps, restarts and reoptimization
    return results without evaluating the quality of any of them."""
    from nvqa.harness import optimize_to_target

    def refused(cf, params):
        raise AssertionError("quality evaluated")

    monkeypatch.setattr(CostFn, "quality", refused)
    cf = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("amplitude", 0.3, 2))
    _minimize_rows(cf, rng.uniform(0.0, 2.0 * np.pi, (4, cf.n_params)))
    best = multistart(cf, n_starts=8, seed=0)[0]
    sweep_gamma(lambda g: energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("phase", g, 2)),
                (0.1, 0.2), mode="track", n_starts=6, seed=1)
    reoptimize_from(cf, best.params)
    optimize_to_target(build_hea(2), sample_real_haar_state(4, rng), seed=3)


def test_result_quality_is_computed_on_first_read(monkeypatch, rng):
    """A result evaluates its quality through its cost function when first
    read, and keeps it."""
    cf = energy_cost(build_2q_circuit("c"), H2, NoiseSpec.uniform("depolarising", 0.2, 2))
    [res] = _minimize_rows(cf, rng.uniform(0.0, 2.0 * np.pi, (1, cf.n_params)))
    read, quality = [], CostFn.quality

    def counted(c, params):
        read.append(c)
        return quality(c, params)

    monkeypatch.setattr(CostFn, "quality", counted)
    first = res.quality
    assert read == [cf]
    assert res.quality is first
    assert read == [cf]
    assert first == cf.quality(res.params)
    assert "cost_fn" not in repr(res)


def state_overlap_reference(a, b) -> float:
    """Normalized Hilbert-Schmidt overlap Tr[a b] / sqrt(Tr[a^2] Tr[b^2])."""
    num = np.einsum("ij,ji->", a.data, b.data).real
    return float(num / np.sqrt(a.purity() * b.purity()))


def dedup_reference(cf: CostFn, results: list[OptResult]) -> list[OptResult]:
    """_dedup as it was before one kernel call gave every output state: each
    result's DensityMatrix from cf.state, compared with every survivor's."""
    reps, states = [], []
    for r in sorted(results, key=lambda r: r.cost):
        rho = cf.state(r.params)
        if not any(abs(r.cost - rep.cost) <= 1e-6 and state_overlap_reference(rho, st) >= 1.0 - 1e-6
                   for rep, st in zip(reps, states)):
            reps.append(r)
            states.append(rho)
    return reps


DEDUP_NOISE = [None, ("phase", 0.0), ("phase", 0.2), ("amplitude", 0.3), ("depolarising", 0.2)]
DEDUP_IDS = ["none", "trivial", "phase", "amplitude", "depolarising"]


def _spec(noise, n):
    return None if noise is None else NoiseSpec.uniform(noise[0], noise[1], n)


@pytest.mark.parametrize("noise", DEDUP_NOISE, ids=DEDUP_IDS)
def test_multistart_keeps_the_reference_representatives(noise, monkeypatch):
    """The one-call dedup keeps the representatives the per-state comparison
    kept, in the same order. ZZ has two degenerate ground states, so minima
    of one cost stay apart on their states alone."""
    from nvqa.pauli import PauliSum

    seen = record_dedup_inputs(monkeypatch)
    cases = [(energy_cost(build_2q_circuit(v), h, _spec(noise, 2)), 24)
             for v in "ac" for h in (H2, PauliSum(2, ((1.0, "ZZ"),)))]
    cases.append((energy_cost(build_hea(2), _h4(), _spec(noise, 4)), 8))
    merged = tied = False
    for cf, n_starts in cases:
        got = multistart(cf, n_starts=n_starts, seed=4)
        assert [id(r) for r in got] == [id(r) for r in dedup_reference(cf, seen[-1])]
        merged |= len(got) < n_starts
        tied |= any(abs(a.cost - b.cost) <= 1e-6 for a, b in zip(got, got[1:]))
    assert merged and tied


@pytest.mark.parametrize("noise", DEDUP_NOISE, ids=DEDUP_IDS)
def test_tracked_sweep_keeps_the_reference_representatives(noise, monkeypatch):
    seen = record_dedup_inputs(monkeypatch)

    def make_cost(g: float):
        spec = None if noise is None else NoiseSpec.uniform(noise[0], noise[1] + g, 2)
        return energy_cost(build_2q_circuit("a"), H2, spec)

    gammas = (0.0, 0.05, 0.1)
    sweeps = sweep_gamma(make_cost, gammas, mode="track", n_starts=16, seed=2)
    assert len(seen) == len(gammas)
    for g, runs, got in zip(gammas, seen, sweeps):
        assert [id(r) for r in got] == [id(r) for r in dedup_reference(make_cost(g), runs)]


def test_reoptimize_pair_runs_end_to_end():
    cf = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("phase", 0.1, 2))
    non_reopt, reopt = reoptimize_pair(cf, n_starts=8, seed=0)
    assert non_reopt.iterations == 0
    assert reopt.converged
    assert reopt.cost <= non_reopt.cost + 1e-9


def mixed_cells(n_qubits: int, rng) -> list[CostFn]:
    """The cost functions of one mixed stack on one circuit: energies with no
    spec, a zero-strength spec and each kind at two strengths, and an
    infidelity under amplitude noise. At 2 qubits every row takes the shift
    rule; at 4 the density rows take the adjoint and the pure rows the shift
    rule."""
    circuit, h = (build_2q_circuit("c"), H2) if n_qubits == 2 else (build_hea(2), _h4())
    specs = [None, NoiseSpec.uniform("phase", 0.0, n_qubits)]
    specs += [NoiseSpec.uniform(kind, g, n_qubits) for kind in ("phase", "amplitude", "depolarising")
              for g in (0.05, 0.2)]
    cells = [energy_cost(circuit, h, spec) for spec in specs]
    return cells + [infidelity_cost(circuit, sample_real_haar_state(n_qubits, rng), specs[4])]


def assert_same_bits(got: OptResult, want: OptResult):
    """One run's result equals another's: params bytes, cost, grad_norm,
    iterations, converged and cost function."""
    assert got.params.tobytes() == want.params.tobytes()
    assert (got.cost, got.grad_norm, got.iterations, got.converged) == \
        (want.cost, want.grad_norm, want.iterations, want.converged)
    assert got.cost_fn is want.cost_fn


@pytest.mark.parametrize("n_qubits", [2, 4])
def test_a_mixed_stack_equals_its_one_cell_runs(n_qubits, monkeypatch, rng):
    """Runs under different specs and observables share one lockstep call,
    and each equals its own one-cell _minimize_rows run bit for bit."""
    cells = mixed_cells(n_qubits, rng)
    runs = [cf for cf in cells for _ in range(2)]
    starts = rng.uniform(0.0, 2.0 * np.pi, (len(runs), cells[0].n_params))
    with monkeypatch.context() as m:
        log = ValuesLog(m)
        got = _minimize_rows(runs, starts)
    assert log.values_sizes != []  # the pure rows take the shift rule
    assert (log.adjoint_sizes != []) == (n_qubits == 4)
    for res, cf, theta0 in zip(got, runs, starts):
        assert_same_bits(res, _minimize_rows(cf, theta0[None])[0])
    assert len({r.iterations for r in got}) > 3


@pytest.mark.parametrize("n_qubits", [2, 4])
def test_a_mixed_stack_makes_one_kernel_call_per_row_kind_per_round(n_qubits, monkeypatch, rng):
    """Each round costs all running runs with one _Stack call, which makes one
    _simulate call per row kind among them (pure rows, density rows); each
    density spec's blocks are composed once for the whole lockstep call."""
    import nvqa.circuits as circuits

    cells = mixed_cells(n_qubits, rng)
    runs = [cf for cf in cells for _ in range(3)]
    starts = rng.uniform(0.0, 2.0 * np.pi, (len(runs), cells[0].n_params))
    rounds, composed = [], []
    simulate, compose, call = circuits._simulate, circuits._pattern_blocks, optimize._Stack.__call__

    def logged_call(stack, which, params):
        rounds.append([len(set(stack.kind[which].tolist())) > 1, 0])
        return call(stack, which, params)

    def logged_simulate(*args):
        rounds[-1][1] += 1
        return simulate(*args)

    with monkeypatch.context() as m:
        m.setattr(optimize._Stack, "__call__", logged_call)
        m.setattr(circuits, "_simulate", logged_simulate)
        m.setattr(circuits, "_pattern_blocks", lambda n, ops, kind, gammas: composed.append((kind, gammas))
                  or compose(n, ops, kind, gammas))
        got = _minimize_rows(runs, starts)
    assert len(rounds) >= max(r.iterations for r in got) + 1
    assert all(calls == 1 + both for both, calls in rounds)
    assert {both for both, _ in rounds} == {True, False}
    # both circuits have one distinct fixed group
    assert composed == [(spec.channel.kind, spec._gammas) for spec in dict.fromkeys(cf.noise for cf in cells[2:])]


def test_a_stack_under_one_spec_keeps_the_shared_blocks(monkeypatch, rng):
    """Pure rows beside the rows of one density spec: the spec's blocks are
    composed once for the whole lockstep call, and each run keeps its bits."""
    import nvqa.circuits as circuits

    cells = mixed_cells(4, rng)
    cells = [cells[0], cells[1], cells[4], cells[-1]]  # one density spec, two observables
    runs = [cf for cf in cells for _ in range(2)]
    starts = rng.uniform(0.0, 2.0 * np.pi, (len(runs), cells[0].n_params))
    composed, compose = [], circuits._pattern_blocks

    with monkeypatch.context() as m:
        m.setattr(circuits, "_pattern_blocks", lambda *a: composed.append(a[2:]) or compose(*a))
        got = _minimize_rows(runs, starts)
    spec = cells[2].noise
    assert composed == [(spec.channel.kind, spec._gammas)]  # build_hea(2) has one distinct fixed group
    for res, cf, theta0 in zip(got, runs, starts):
        assert_same_bits(res, _minimize_rows(cf, theta0[None])[0])


@pytest.mark.parametrize("variants", ["ab", "ac"], ids=["same-width", "other-width"])
def test_a_restart_sweep_whose_circuit_changes_with_gamma_runs_each_cell(variants):
    """A restart sweep may change its circuit along the gamma grid, even its
    parameter count: each circuit's cells run as their own lockstep call,
    and cell i equals multistart from the child seed (seed, i)."""
    from nvqa.randstates import _child_seed

    gammas = (0.0, 0.1, 0.2, 0.3)

    def make_cost(g):
        variant = variants[0] if g < 0.15 else variants[1]
        return energy_cost(build_2q_circuit(variant), H2, NoiseSpec.uniform("amplitude", g, 2))

    got = sweep_gamma(make_cost, gammas, mode="restart", n_starts=5, seed=9)
    assert len(got) == len(gammas)
    for i, (g, minima) in enumerate(zip(gammas, got)):
        want = multistart(make_cost(g), 5, _child_seed(9, i))
        assert [(a.params.tobytes(), a.cost, a.iterations) for a in minima] == \
            [(b.params.tobytes(), b.cost, b.iterations) for b in want]


def test_a_restart_sweep_composes_each_spec_once(monkeypatch):
    """A restart sweep's lockstep call composes each distinct density spec's
    blocks once, and the deduplications and quality reads after it read
    them again: one _pattern_blocks call per density spec and distinct fixed
    group."""
    import nvqa.circuits as circuits

    circuit = build_2q_circuit("c")
    kinds, gammas = ("phase", "amplitude", "depolarising"), (0.0, 0.1, 0.3)

    def family(kind):
        return lambda g: energy_cost(circuit, H2, NoiseSpec.uniform(kind, g, 2))

    composed, compose = [], circuits._pattern_blocks
    with monkeypatch.context() as m:
        m.setattr(circuits, "_pattern_blocks", lambda *a: composed.append(a[2:]) or compose(*a))
        sweeps = optimize._sweeps([[family(k)(g) for g in gammas] for k in kinds], "restart", 4, [1, 2, 3])
        qualities = [r.quality for sweep in sweeps for minima in sweep for r in minima]
    n_fixed = len({ops for ops, perm in circuit._groups if perm is not None})
    assert qualities and n_fixed == 1
    assert sorted(composed) == sorted((k, (g, g)) for k in kinds for g in gammas if g)


def test_minimize_rows_refuse_cost_functions_that_do_not_fit():
    """One cost function per start, all on one circuit."""
    a, c = energy_cost(build_2q_circuit("a"), H2), energy_cost(build_2q_circuit("b"), H2)
    starts = np.zeros((2, 3))
    with pytest.raises(ValueError, match="one circuit"):
        _minimize_rows([a, c], starts)
    with pytest.raises(ValueError, match="one cost function per start"):
        _minimize_rows([a, a, a], starts)
    with pytest.raises(ValueError, match="one cost function per start"):
        _minimize_rows([], np.zeros((0, 3)))


def test_a_lockstep_call_never_hashes_a_cost_function(monkeypatch, rng):
    """_Stack alone resolves a lockstep call's cost functions, by their specs
    and observables. With CostFn.__hash__ raising, one _minimize_rows call
    over repeated and distinct cost functions, a multistart and a two-family
    restart sweep still give every run its serial result."""
    from nvqa.randstates import _child_seed

    cells = mixed_cells(2, rng)
    runs = [cells[0]] + [cf for cf in cells for _ in range(2)]
    starts = rng.uniform(0.0, 2.0 * np.pi, (len(runs), cells[0].n_params))
    valley = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("amplitude", 0.3, 2))
    families = [[energy_cost(build_2q_circuit("c"), H2, NoiseSpec.uniform(kind, g, 2)) for g in (0.0, 0.1)]
                for kind in ("phase", "depolarising")]

    def refuse(cf):
        raise AssertionError("a lockstep call hashed a cost function")

    seen = record_dedup_inputs(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(CostFn, "__hash__", refuse)
        with pytest.raises(AssertionError, match="hashed a cost function"):
            hash(valley)
        got = _minimize_rows(runs, starts)
        multistart(valley, n_starts=6, seed=5)
        optimize._sweeps(families, "restart", 3, [11, 12])
    for res, cf, theta0 in zip(got, runs, starts):
        assert res.cost_fn is cf
        assert_same_run(res, serial_reference(cf, theta0))
    cell_starts = [optimize._uniform_starts(valley, 6, 5)]
    cell_starts += [optimize._uniform_starts(cf, 3, _child_seed(seed, i))
                    for family, seed in zip(families, (11, 12)) for i, cf in enumerate(family)]
    cell_costs = [valley] + [cf for family in families for cf in family]
    assert [len(results) for results in seen] == [len(theta) for theta in cell_starts]
    for results, cf, theta in zip(seen, cell_costs, cell_starts):
        for res, theta0 in zip(results, theta):
            assert res.cost_fn is cf
            assert_same_run(res, serial_reference(cf, theta0))


@pytest.mark.parametrize("mode", ["restart", "track"])
def test_sweeps_of_several_families_equal_their_separate_sweeps(mode, monkeypatch):
    """One stack for every cell (restart) or every gamma step (track) gives
    each family the results of its own sweep_gamma, and restart cell i those
    of multistart from the child seed (seed, i)."""
    from nvqa.randstates import _child_seed

    def family(kind):
        return lambda g: energy_cost(build_2q_circuit("c"), H2, NoiseSpec.uniform(kind, g, 2))

    kinds, gammas, seeds = ("phase", "amplitude", "depolarising"), (0.0, 0.1, 0.3), (11, 12, 13)
    stacked = []
    with monkeypatch.context() as m:
        m.setattr(optimize, "_minimize_rows", lambda cf, *a: stacked.append(len(cf)) or _minimize_rows(cf, *a))
        got = optimize._sweeps([[family(k)(g) for g in gammas] for k in kinds], mode, 6, list(seeds))
    assert len(stacked) == (1 if mode == "restart" else len(gammas))
    for kind, seed, sweep in zip(kinds, seeds, got):
        want = sweep_gamma(family(kind), gammas, mode=mode, n_starts=6, seed=seed)
        assert [len(minima) for minima in sweep] == [len(minima) for minima in want]
        for minima, ref in zip(sweep, want):
            for a, b in zip(minima, ref):
                assert a.params.tobytes() == b.params.tobytes() and a.cost_fn == b.cost_fn
                assert (a.cost, a.grad_norm, a.iterations, a.converged) == \
                    (b.cost, b.grad_norm, b.iterations, b.converged)
        if mode == "restart":
            for i, (g, minima) in enumerate(zip(gammas, sweep)):
                ref = multistart(family(kind)(g), 6, _child_seed(seed, i))
                assert [a.params.tobytes() for a in minima] == [b.params.tobytes() for b in ref]
