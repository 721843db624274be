"""Cost functions, parameter-shift gradients and the BFGS minimizer."""

import numpy as np
import pytest

from nvqa.channels import NoiseSpec
from nvqa.circuits import build_2q_circuit, build_hea, build_valley_demo
from nvqa.measures import ground_truth
from nvqa.optimize import (
    CostFn,
    MinimizeOptions,
    OptResult,
    energy_cost,
    gradient,
    infidelity_cost,
    minimize,
    multistart,
    reoptimize_from,
    reoptimize_pair,
    sweep_gamma,
)
from nvqa.pauli import vqe_hamiltonian_2q
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
    from nvqa.pauli import vqe_hamiltonian_4q

    c = build_2q_circuit("a")
    with pytest.raises(ValueError):
        CostFn(circuit=c, hamiltonian=vqe_hamiltonian_4q())
    with pytest.raises(ValueError):
        CostFn(circuit=build_hea(1), target=ground_truth(H2).state)


def test_energy_value_matches_quality(rng):
    cf = energy_cost(build_2q_circuit("c"), H2, NoiseSpec.uniform("phase", 0.2, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, 4)
    assert abs(cf.value(theta) - cf.quality(theta).energy) < 1e-12


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
    from nvqa.pauli import vqe_hamiltonian_4q

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


def test_reoptimize_from_never_loses_to_frozen_params(rng):
    target = sample_real_haar_state(4, rng)
    cf = infidelity_cost(build_hea(2), target, NoiseSpec.uniform("amplitude", 0.05, 4))
    base = multistart(cf.noiseless(), n_starts=6, seed=2)[0]
    non_reopt, reopt = reoptimize_from(cf, base.params)
    assert non_reopt.iterations == 0
    assert abs(non_reopt.cost - cf.value(base.params)) < 1e-12
    assert reopt.cost <= non_reopt.cost + 1e-9


def test_reoptimize_pair_runs_end_to_end():
    cf = energy_cost(build_2q_circuit("a"), H2, NoiseSpec.uniform("phase", 0.1, 2))
    non_reopt, reopt = reoptimize_pair(cf, n_starts=8, seed=0)
    assert non_reopt.iterations == 0
    assert reopt.converged
    assert reopt.cost <= non_reopt.cost + 1e-9
