"""Stochastic linear noise model: derivatives, coefficients, predictions."""

import numpy as np
import pytest

from conftest import product_reference, real_haar_reference
from nvqa.channels import CHANNEL_KINDS, NoiseSpec, _apply_noise, make_channel
from nvqa.circuits import build_hea, evaluate, evaluate_pure
from nvqa.noisemodel import (
    _BLOCK,
    _overlap_derivatives,
    ModelParams,
    alpha_scaling_check,
    apply_global_depol,
    estimate_alpha_beta,
    global_depol_infidelity,
    linear_action_overlap_derivative,
    predict,
    slope_through_origin,
)
from nvqa.qstate import MAX_QUBITS, pure_state, zero_state
from nvqa.randstates import RngStream, product_rows, real_haar_rows, sample_real_haar_state

# exact first-moment coefficients for real Haar states on 4 qubits,
# from E[<A>^2] = 2 Tr[A^2] / (D (D + 2)) with D = 16
ALPHA_TRUE = {
    "phase": 8.0 / 9.0,
    "amplitude": 17.0 / 9.0,
    "depolarising": 25.0 / 9.0,
}


def overlap_derivative_reference(kind, rho, eps=1e-5):
    """The one-state central difference that the stacked derivative replaced."""
    def overlap(gamma):
        data = _apply_noise(np.array(rho.data), kind, (gamma,) * rho.n_qubits)
        return float(np.einsum("ij,ji->", rho.data, data).real)
    hi = overlap(eps)
    lo = overlap(-eps)
    return (hi - lo) / (2.0 * eps)


def alpha_beta_reference(kind, n_qubits, n_samples, gen, sampler=real_haar_reference):
    """The per-sample loop estimate_alpha_beta replaced, over per-draw oracle
    states."""
    derivs = np.empty(n_samples)
    for i in range(n_samples):
        derivs[i] = -overlap_derivative_reference(kind, sampler(n_qubits, gen))
    alpha = float(derivs.mean())
    beta = float(derivs.var(ddof=1))
    m4 = float(((derivs - alpha) ** 4).mean())
    return ModelParams(kind, n_qubits, alpha, beta, float(np.sqrt(beta / n_samples)),
                       float(np.sqrt(max(m4 - beta ** 2, 0.0) / n_samples)), n_samples)


def test_global_depol_closed_form_matches_simulation(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 12))
        g = float(rng.uniform(0.0, 0.6))
        rho = sample_real_haar_state(n, rng)
        out = rho
        for _ in range(d):
            out = apply_global_depol(out, g)
        measured = 1.0 - np.einsum("ij,ji->", rho.data, out.data).real
        closed = global_depol_infidelity(g, d, n)
        assert abs(measured - closed) <= 1e-12


def test_global_depol_first_order_limit():
    g, d, n = 1e-6, 5, 3
    full = global_depol_infidelity(g, d, n)
    lin = global_depol_infidelity(g, d, n, first_order=True)
    assert abs(lin - g * d * (1.0 - 2.0 ** -n)) < 1e-18
    # the neglected term is O((gamma d)^2)
    assert abs(full - lin) < lin * g * d


def test_overlap_derivative_closed_forms():
    """The raw d/dgamma overlap derivative on states with exact values."""
    # |0...0> is a fixed point of both phase and amplitude damping
    ket0 = zero_state(4)
    assert abs(linear_action_overlap_derivative("phase", ket0)) < 1e-9
    assert abs(linear_action_overlap_derivative("amplitude", ket0)) < 1e-9
    # depolarising mixes each qubit of a basis state at rate 1/2
    assert abs(linear_action_overlap_derivative("depolarising", ket0) + 2.0) < 1e-9
    # |1111> decays with unit rate per qubit under amplitude damping
    ones = np.zeros(16)
    ones[-1] = 1.0
    rho = pure_state(ones)
    assert abs(linear_action_overlap_derivative("amplitude", rho) + 4.0) < 1e-9


def test_overlap_derivative_eps_robustness(rng):
    rho = sample_real_haar_state(3, rng)
    vals = [
        linear_action_overlap_derivative("amplitude", rho, eps=e)
        for e in (1e-4, 1e-5, 1e-6)
    ]
    ref = vals[1]
    assert max(abs(v - ref) for v in vals) / abs(ref) < 1e-4


def test_estimate_alpha_beta_deterministic():
    a = estimate_alpha_beta("phase", 4, 200, RngStream(3, 1))
    b = estimate_alpha_beta("phase", 4, 200, RngStream(3, 1))
    assert a == b
    assert isinstance(a, ModelParams)
    assert a.n_samples == 200 and a.n_qubits == 4
    assert a.stderr_alpha > 0.0 and a.beta >= 0.0


@pytest.mark.parametrize("kind", sorted(ALPHA_TRUE))
def test_alpha_matches_exact_moments(kind):
    est = estimate_alpha_beta(kind, 4, 2000, RngStream(0, 7))
    assert abs(est.alpha - ALPHA_TRUE[kind]) < 4.0 * est.stderr_alpha


def test_alpha_scaling_check_grows_with_qubits():
    table = alpha_scaling_check("phase", (2, 3), n_samples=100, seed=1)
    assert [n for n, _ in table] == [2, 3]
    alphas = [a for _, a in table]
    assert all(a > 0.0 for a in alphas)
    assert alphas[1] > alphas[0]


def test_predict_is_linear_in_gamma_and_d():
    params = ModelParams("phase", 4, 0.9, 0.01, 0.0, 0.0, 1000)
    mean1, std1 = predict(params, 1e-4, 8)
    mean2, std2 = predict(params, 2e-4, 8)
    mean3, std3 = predict(params, 1e-4, 16)
    assert abs(mean2 - 2.0 * mean1) < 1e-18
    assert abs(mean3 - 2.0 * mean1) < 1e-18
    assert abs(std2 - 2.0 * std1) < 1e-18
    assert abs(std3 - 2.0 * std1) < 1e-18


def test_predict_warns_when_extrapolating():
    params = ModelParams("phase", 4, 0.9, 0.01, 0.0, 0.0, 1000)
    with pytest.warns(RuntimeWarning):
        predict(params, 0.2, 8)


def test_slope_through_origin_exact():
    x = np.array([1.0, 2.0, 3.0])
    assert abs(slope_through_origin(x, 3.0 * x) - 3.0) < 1e-14


def test_model_tracks_a_real_circuit_at_low_noise(rng):
    """One-point sanity check of the alpha*gamma*d prediction at L=4."""
    c = build_hea(4)
    theta = rng.uniform(0.0, 2.0 * np.pi, c.n_params)
    target = pure_state(evaluate_pure(c, theta))
    g = 1e-4
    rho = evaluate(c, theta, NoiseSpec.uniform("phase", g, 4))
    drop = 1.0 - np.einsum("ij,ji->", target.data, rho.data).real
    pred = ALPHA_TRUE["phase"] * g * 8
    # a circuit state is not Haar-typical, so only the scale has to agree
    assert 0.2 * pred < drop < 2.0 * pred


@pytest.mark.parametrize("kind", sorted(ALPHA_TRUE))
def test_estimate_alpha_beta_matches_the_per_sample_loop(kind):
    """Stacked draws and derivatives give bit-identical alpha and beta, for
    both samplers and a sample count that leaves a partial last stack."""
    n = 2 * _BLOCK + 7
    assert estimate_alpha_beta(kind, 4, n, RngStream(5, 3)) == alpha_beta_reference(
        kind, 4, n, RngStream(5, 3).generator())
    assert estimate_alpha_beta(kind, 3, n, RngStream(6, 1), sampler=product_rows) == \
        alpha_beta_reference(kind, 3, n, RngStream(6, 1).generator(), product_reference)


@pytest.mark.parametrize("kind", sorted(ALPHA_TRUE))
def test_overlap_derivative_matches_the_one_state_reference(kind, rng):
    for n in (1, 2, 4):
        rho = sample_real_haar_state(n, rng)
        for eps in (1e-5, 1e-3):
            assert linear_action_overlap_derivative(kind, rho, eps=eps) == \
                overlap_derivative_reference(kind, rho, eps)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("dtype", (float, complex))
def test_overlap_derivatives_keep_their_bits_in_any_layout(kind, dtype, rng):
    """A C-ordered stack and its copy with the sample axis innermost give the
    same bits, on real and on complex rows."""
    for n, k in ((1, 3), (2, 5), (4, _BLOCK)):
        v = rng.standard_normal((k, 2 ** n)).astype(dtype)
        if dtype is complex:
            v += 1j * rng.standard_normal(v.shape)
        stack = v[:, :, None] * v[:, None, :].conj()
        inner = np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert inner.strides[0] == stack.itemsize and np.array_equal(inner, stack)
        want = _overlap_derivatives(kind, stack, n)
        assert want.tobytes() == _overlap_derivatives(kind, inner, n).tobytes()


def test_alpha_scaling_check_matches_the_per_sample_product_loop():
    got = alpha_scaling_check("amplitude", (1, 2, 4), 40, seed=2)
    assert got == [(n, alpha_beta_reference("amplitude", n, 40, RngStream(2, i).generator(),
                                            product_reference).alpha)
                   for i, n in enumerate((1, 2, 4))]


def never_drawn(n_qubits, gen, k):
    raise AssertionError("a refused count reached the sampler")


@pytest.mark.parametrize("call", [
    lambda: estimate_alpha_beta("phase", True, 40, RngStream(0), sampler=never_drawn),
    lambda: estimate_alpha_beta("phase", 0, 40, RngStream(0), sampler=never_drawn),
    lambda: estimate_alpha_beta("phase", MAX_QUBITS + 1, 40, RngStream(0), sampler=never_drawn),
    lambda: estimate_alpha_beta("phase", 2, 40.0, RngStream(0), sampler=never_drawn),
    lambda: alpha_scaling_check("phase", [0], 40),
    lambda: global_depol_infidelity(0.1, 1.5, 2),
    lambda: global_depol_infidelity(0.1, 2, 0),
    lambda: global_depol_infidelity(0.1, -1, 2),
    lambda: estimate_alpha_beta("phase", 2, 1, RngStream(0), sampler=never_drawn),
    lambda: NoiseSpec.uniform("phase", 0.1, -1),
    lambda: NoiseSpec.uniform("phase", 0.1, 2.5),
    lambda: NoiseSpec(make_channel("phase", 0.1), ()),
], ids=["bool-qubits", "0-qubits", "too-wide", "float-samples", "scaling-0-qubits",
        "depol-float-d", "depol-0-qubits", "depol-negative-d", "one-sample",
        "spec-negative-qubits", "spec-float-qubits", "spec-no-qubits"])
def test_bad_counts_are_refused(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: global_depol_infidelity(-0.1, 2, 2),
    lambda: global_depol_infidelity(1.1, 2, 2),
    lambda: apply_global_depol(zero_state(2), -0.1),
    lambda: apply_global_depol(zero_state(2), 1.1),
    lambda: slope_through_origin([0.0, 0.0], [1.0, 2.0]),
    lambda: slope_through_origin([], []),
], ids=["depol-gamma-below-0", "depol-gamma-above-1", "global-gamma-below-0",
        "global-gamma-above-1", "zero-abscissa", "no-abscissa"])
def test_values_outside_the_model_are_refused(call):
    with pytest.raises(ValueError):
        call()


def test_an_unknown_kind_is_refused_before_any_draw():
    """The kind is checked first, so a refused call leaves the caller's
    generator where it was."""
    gen = np.random.default_rng(3)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match="unknown channel kind 'bogus'"):
        estimate_alpha_beta("bogus", 2, 40, gen)
    assert gen.bit_generator.state == before


def basis_rows(n_qubits, gen, k):
    return np.eye(2 ** n_qubits)[gen.integers(0, 2 ** n_qubits, k)]


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("sampler, given", [
    (basis_rows, lambda n, gen, k: basis_rows(n, gen, k).astype(int)),
    (basis_rows, lambda n, gen, k: basis_rows(n, gen, k).astype(np.float32)),
    (real_haar_rows, lambda n, gen, k: 1j * real_haar_rows(n, gen, k)),
    (lambda n, gen, k: np.full((k, 2), np.sqrt(0.5)), lambda n, gen, k: np.tile([1.0, 1j], (k, 1)) / np.sqrt(2)),
], ids=["int", "float32", "global-phase", "plus-i"])
def test_sampler_rows_of_any_dtype_give_the_estimate_of_the_same_state(kind, sampler, given):
    """Rows are taken in double precision, real rows stay real, and complex
    rows get |v><v| through the conjugate: |+i> is damped as |+> is, where
    v v^T would flip the sign of alpha."""
    want = estimate_alpha_beta(kind, 1, 40, RngStream(0), sampler=sampler)
    assert estimate_alpha_beta(kind, 1, 40, RngStream(0), sampler=given) == want


@pytest.mark.parametrize("rows", [
    lambda n, gen, k: real_haar_rows(n, gen, k)[:, :-1],
    lambda n, gen, k: real_haar_rows(n, gen, k)[:1],
    lambda n, gen, k: real_haar_rows(n + 1, gen, k),
    lambda n, gen, k: 1.001 * real_haar_rows(n, gen, k),
    lambda n, gen, k: np.full((k, 2 ** n), np.nan),
], ids=["short-rows", "too-few-rows", "too-wide-rows", "not-unit", "nan"])
def test_a_samplers_bad_rows_are_refused(rows):
    with pytest.raises(ValueError):
        estimate_alpha_beta("phase", 2, 40, RngStream(0), sampler=rows)
