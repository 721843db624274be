"""Self-contained invariant checks, runnable in seconds via `nvqa verify`."""

from __future__ import annotations

import numpy as np

from .channels import (
    CHANNEL_KINDS,
    NoiseSpec,
    apply_channel_one_qubit,
    apply_product_channel,
    make_channel,
    ptm_from_channel,
)
from .circuits import (CX_MATRIX, Cx, Ry, _ByRow, _expectation_gradients, _expectations, _simulate,
                       build_2q_circuit, build_4q_vqe, build_hea, evaluate, ry_matrix)
from .noisemodel import apply_global_depol, global_depol_infidelity
from .optimize import _Stack, energy_cost, gradient, infidelity_cost
from .pauli import vqe_hamiltonian_2q, vqe_hamiltonian_4q
from .qstate import DensityMatrix, pure_state
from .randstates import sample_real_haar_state


def _random_mixed(n_qubits: int, gen) -> DensityMatrix:
    dim = 2 ** n_qubits
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def _haar_unitary(dim: int, gen) -> np.ndarray:
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def check_kraus_completeness() -> float:
    worst = 0.0
    for kind in CHANNEL_KINDS:
        for g in np.linspace(0.0, 1.0, 101):
            worst = max(worst, make_channel(kind, g).completeness_defect())
    return worst


def check_fixed_points() -> float:
    gen = np.random.default_rng(11)
    worst = 0.0
    for kind in CHANNEL_KINDS:
        ch = make_channel(kind, 1.0)
        for _ in range(5):
            rho = _random_mixed(1, gen)
            out = apply_channel_one_qubit(rho, ch, 0)
            if kind == "amplitude":
                want = np.array([[1.0, 0.0], [0.0, 0.0]])
            elif kind == "phase":
                want = np.diag(np.diag(rho.data))
            else:
                want = 0.5 * np.eye(2)
            worst = max(worst, float(np.abs(out.data - want).max()))
            again = apply_channel_one_qubit(out, ch, 0)
            worst = max(worst, float(np.abs(again.data - out.data).max()))
    return worst


def check_product_vs_tensor_kraus() -> float:
    gen = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        rho = _random_mixed(2, gen)
        kind = CHANNEL_KINDS[int(gen.integers(3))]
        gamma = float(gen.uniform(0.0, 1.0))
        spec = NoiseSpec.uniform(kind, gamma, 2)
        got = apply_product_channel(rho, spec).data
        kraus = make_channel(kind, gamma).kraus
        want = np.zeros_like(got)
        for e1 in kraus:
            for e2 in kraus:
                k = np.kron(e1, e2)
                want += k @ rho.data @ k.conj().T
        worst = max(worst, float(np.abs(got - want).max()))
    return worst


def check_ptm_closed_forms() -> float:
    worst = 0.0
    for g in np.linspace(0.0, 1.0, 21):
        s = np.sqrt(1.0 - g)
        forms = {
            "phase": np.diag([1.0, s, s, 1.0]),
            "depolarising": np.diag([1.0, 1.0 - g, 1.0 - g, 1.0 - g]),
            "amplitude": np.array(
                [[1, 0, 0, 0], [0, s, 0, 0], [0, 0, s, 0], [g, 0, 0, 1.0 - g]]
            ),
        }
        for kind, want in forms.items():
            got = ptm_from_channel(make_channel(kind, g))
            worst = max(worst, float(np.abs(got - want).max()))
    return worst


def check_gradient() -> float:
    gen = np.random.default_rng(13)
    h = vqe_hamiltonian_2q()
    worst = 0.0
    for _ in range(6):
        circuit = build_2q_circuit("c")
        kind = CHANNEL_KINDS[int(gen.integers(3))]
        gamma = float(gen.choice([0.0, 0.1, 0.5]))
        noise = NoiseSpec.uniform(kind, gamma, 2) if gamma > 0 else None
        cf = energy_cost(circuit, h, noise)
        theta = gen.uniform(0.0, 2.0 * np.pi, circuit.n_params)
        g_ps = gradient(cf, theta)
        eps = 1e-6
        for i in range(theta.size):
            tp = theta.copy()
            tp[i] += eps
            tm = theta.copy()
            tm[i] -= eps
            fd = (cf.value(tp) - cf.value(tm)) / (2.0 * eps)
            worst = max(worst, abs(fd - g_ps[i]))
    return worst


def check_loop_costs_and_gradients() -> float:
    """The BFGS loop's costing, a one-cell optimize._Stack call, noiseless and
    under each kind: costs equal cf.values exactly, and gradients equal the
    parameter-shift rule exactly on shift rows and to the defect on the rows
    where the loop takes the adjoint (CostFn._takes_adjoint)."""
    gen = np.random.default_rng(16)
    worst = 0.0
    for circuit, h in ((build_2q_circuit("c"), vqe_hamiltonian_2q()), (build_hea(2), vqe_hamiltonian_4q()),
                       (build_4q_vqe(), vqe_hamiltonian_4q())):
        n = circuit.n_qubits
        for noise in (None,) + tuple(NoiseSpec.uniform(kind, 0.1, n) for kind in CHANNEL_KINDS):
            for cf in (energy_cost(circuit, h, noise),
                       infidelity_cost(circuit, sample_real_haar_state(n, gen), noise)):
                theta = gen.uniform(0.0, 2.0 * np.pi, (2, circuit.n_params))
                want = np.array([gradient(cf, t) for t in theta])
                costs, grads = _Stack([cf])(np.zeros(len(theta), dtype=int), theta)
                if (not np.array_equal(costs, cf.values(theta))
                        or not cf._takes_adjoint and not np.array_equal(grads, want)):
                    raise AssertionError("loop costs or shift-row gradients differ from values and gradient")
                worst = max(worst, float(np.abs(grads - want).max()))
    return worst


def check_per_row_specs() -> float:
    """Rows under different specs in one call against each row's single-spec
    call, at 2 and 4 qubits: _expectations and _expectation_gradients under
    all three kinds at two strengths, and the loop's stacked costs and
    gradients (optimize._Stack) with a zero-strength spec, no spec and an
    infidelity's observable added, against each row's cf.values and its
    shift-rule gradient or one-spec adjoint, signed as the cost. Every row
    must keep its bits; the defect is the largest difference."""
    gen = np.random.default_rng(18)
    worst = 0.0
    for circuit, h in ((build_2q_circuit("c"), vqe_hamiltonian_2q()), (build_4q_vqe(), vqe_hamiltonian_4q())):
        n = circuit.n_qubits
        specs = [NoiseSpec.uniform(kind, g, n) for kind in CHANNEL_KINDS for g in (0.05, 0.2)]
        obs = h.to_matrix().real
        theta = gen.uniform(0.0, 2.0 * np.pi, (40, circuit.n_params))
        which = gen.integers(0, len(specs), 40)
        rows = _ByRow(tuple(specs), which)
        got = (_expectations(circuit, theta, rows, obs), *_expectation_gradients(circuit, theta, rows, obs))
        want = [np.concatenate(w) for w in zip(*(
            (_expectations(circuit, t[None], specs[k], obs), *_expectation_gradients(circuit, t[None], specs[k], obs))
            for t, k in zip(theta, which)))]
        cfs = [energy_cost(circuit, h, spec) for spec in specs + [NoiseSpec.uniform("phase", 0.0, n), None]]
        cfs.append(infidelity_cost(circuit, sample_real_haar_state(n, gen), specs[0]))
        which = gen.integers(0, len(cfs), 40)
        got += _Stack(cfs)(which, theta)
        cells = [(cfs[k], t) for t, k in zip(theta, which)]
        want += [np.concatenate([cf.values(t[None]) for cf, t in cells]),
                 np.array([gradient(cf, t) if not cf._takes_adjoint else (1.0 if cf.target is None else -1.0)
                           * _expectation_gradients(circuit, t[None], cf.noise, cf._obs_matrix)[1][0]
                           for cf, t in cells])]
        for a, b in zip(got, want):
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


def _dense_statevector(circuit, theta: np.ndarray) -> np.ndarray:
    """The circuit's output statevector as a product of dense Kronecker
    gates: ry_matrix on its qubit, CX_MATRIX on a pair (q, q + 1)."""
    n = circuit.n_qubits
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    for op in circuit.ops:
        if isinstance(op, Ry):
            gate, first, width = ry_matrix(theta[op.param_index]), op.qubit, 1
        elif isinstance(op, Cx):
            if op.target != op.control + 1:
                raise ValueError(f"the dense product takes CX(q, q + 1) only, got {op}")
            gate, first, width = CX_MATRIX, op.control, 2
        else:
            continue
        psi = np.kron(np.kron(np.eye(2 ** first), gate), np.eye(2 ** (n - first - width))) @ psi
    return psi


def check_statevector_rows() -> float:
    """Statevector rows of _simulate against the dense product for the first
    20 rows of a 600-row batch; every row of the batch must equal that row alone."""
    gen = np.random.default_rng(17)
    worst = 0.0
    for circuit in (build_hea(2), build_4q_vqe(), build_2q_circuit("c")):
        theta = gen.uniform(0.0, 2.0 * np.pi, (600, circuit.n_params))
        rows = _simulate(circuit, theta)
        if not all(np.array_equal(row, _simulate(circuit, t[None])[0]) for row, t in zip(rows, theta)):
            raise AssertionError("a statevector row differs from the same row run alone")
        for row, t in zip(rows[:20], theta):
            worst = max(worst, float(np.abs(row - _dense_statevector(circuit, t)).max()))
    return worst


def check_global_depol() -> float:
    gen = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        n = int(gen.integers(1, 5))
        d = int(gen.integers(1, 7))
        gamma = float(gen.uniform(0.0, 0.5))
        dim = 2 ** n
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        rho = pure_state(psi)
        ideal = psi
        for _ in range(d):
            u = _haar_unitary(dim, gen)
            rho = DensityMatrix(u @ rho.data @ u.conj().T)
            rho = apply_global_depol(rho, gamma)
            ideal = u @ ideal
        fid = float(np.vdot(ideal, rho.data @ ideal).real)
        want = global_depol_infidelity(gamma, d, n)
        worst = max(worst, abs((1.0 - fid) - want))
    return worst


def check_state_invariants() -> float:
    gen = np.random.default_rng(15)
    circuit = build_hea(2)
    worst = 0.0
    for kind in CHANNEL_KINDS:
        for gamma in (0.0, 0.3, 1.0):
            noise = NoiseSpec.uniform(kind, gamma, 4)
            theta = gen.uniform(0.0, 2.0 * np.pi, circuit.n_params)
            rho = evaluate(circuit, theta, noise)
            rho.validate()
            worst = max(worst, abs(np.trace(rho.data).real - 1.0))
    return worst


CHECKS = (
    ("kraus completeness on a 101-point gamma grid", check_kraus_completeness, 1e-12),
    ("gamma=1 fixed points and idempotence", check_fixed_points, 1e-12),
    ("product channel vs tensor-product Kraus", check_product_vs_tensor_kraus, 1e-12),
    ("PTM closed forms", check_ptm_closed_forms, 1e-12),
    ("parameter-shift gradient vs finite differences", check_gradient, 1e-6),
    ("loop cost and gradient vs values and parameter shift", check_loop_costs_and_gradients, 1e-12),
    ("statevector rows vs dense Ry/CX product", check_statevector_rows, 1e-12),
    ("per-row specs vs single-spec calls, bit for bit", check_per_row_specs, 0.0),
    ("global depolarising closed form vs simulation", check_global_depol, 1e-12),
    ("state invariants after noisy circuits", check_state_invariants, 1e-10),
)


def run_verification(out=print) -> bool:
    """Run every invariant check; prints one line each, True when all pass."""
    ok = True
    for name, fn, tol in CHECKS:
        try:
            defect = fn()
            passed = defect <= tol
        except Exception as exc:  # a failing check must not stop the rest
            out(f"FAIL {name}: raised {exc!r}")
            ok = False
            continue
        status = "ok  " if passed else "FAIL"
        out(f"{status} {name}: defect {defect:.3g} (tol {tol:g})")
        ok = ok and passed
    return ok
