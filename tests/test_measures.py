"""Energy, fidelity, concurrence and exact ground states."""

import numpy as np
import pytest

from nvqa.measures import (
    GroundTruth,
    concurrence,
    energy,
    fidelity,
    ground_truth,
    infidelity,
    max_pairwise_concurrence,
)
from nvqa.circuits import build_hea
from nvqa.degen import degeneracy_split, generate_degeneracy_maps
from nvqa.optimize import infidelity_cost
from nvqa.pauli import vqe_hamiltonian_2q, vqe_hamiltonian_4q
from nvqa.qstate import DensityMatrix, pure_state, zero_state
from conftest import random_mixed_state


def bell_state() -> DensityMatrix:
    return pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def werner(p: float) -> DensityMatrix:
    data = p * bell_state().data + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(data.astype(complex))


def test_energy_of_ground_state_is_minimum():
    ham = vqe_hamiltonian_2q()
    gt = ground_truth(ham)
    assert abs(energy(gt.state, ham) - gt.energy) < 1e-12
    assert abs(gt.energy - (-np.sqrt(5.0))) < 1e-12
    assert gt.degenerate is False


def test_fidelity_pure_pure_overlap(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    w = rng.normal(size=4)
    w /= np.linalg.norm(w)
    f = fidelity(pure_state(v), pure_state(w))
    assert abs(f - np.dot(v, w) ** 2) < 1e-12
    assert abs(fidelity(pure_state(v), pure_state(v)) - 1.0) < 1e-14


def test_fidelity_mixed_vs_pure(rng):
    rho = random_mixed_state(2, rng)
    sigma = bell_state()
    want = np.einsum("ij,ji->", sigma.data, rho.data).real
    assert abs(fidelity(sigma, rho) - want) < 1e-13
    assert abs(infidelity(sigma, rho) - (1.0 - want)) < 1e-13


def test_fidelity_requires_a_pure_reference(rng):
    rho = random_mixed_state(2, rng)
    sig = random_mixed_state(2, rng)
    with pytest.raises(ValueError):
        fidelity(sig, rho)


@pytest.mark.parametrize("entry", ["fidelity", "degeneracy_split", "infidelity_cost"])
def test_a_nan_reference_is_refused_as_not_pure(entry):
    """A NaN purity passed the check, as NaN < 1 - 1e-8 is False: fidelity and
    degeneracy_split returned NaN, and infidelity_cost failed at its first
    trial point with "params must be finite"."""
    nan = DensityMatrix(np.full((16, 16), np.nan))
    circuit = build_hea(1)
    calls = {
        "fidelity": lambda: fidelity(nan, zero_state(4)),
        "degeneracy_split": lambda: degeneracy_split(circuit, np.zeros(4), generate_degeneracy_maps(circuit),
                                                     None, nan),
        "infidelity_cost": lambda: infidelity_cost(circuit, nan),
    }
    with pytest.raises(ValueError, match="not pure"):
        calls[entry]()


@pytest.mark.parametrize("call", [
    lambda: fidelity(zero_state(1), zero_state(2)),
    lambda: concurrence(zero_state(1)),
    lambda: concurrence(zero_state(3)),
    lambda: max_pairwise_concurrence(zero_state(1)),
], ids=["fidelity-widths", "concurrence-1q", "concurrence-3q", "pairwise-1q"])
def test_measures_refuse_states_of_the_wrong_width(call):
    with pytest.raises(ValueError):
        call()


def test_concurrence_of_bell_and_product_states():
    assert abs(concurrence(bell_state()) - 1.0) < 1e-7
    assert concurrence(zero_state(2)) < 1e-7


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
def test_concurrence_of_werner_states(p):
    # closed form for Werner states: max(0, (3p - 1) / 2)
    want = max(0.0, (3.0 * p - 1.0) / 2.0)
    assert abs(concurrence(werner(p)) - want) < 1e-8


def test_concurrence_clips_to_zero(rng):
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    assert concurrence(rho) == 0.0


def test_max_pairwise_concurrence_picks_the_entangled_pair():
    psi = np.kron(
        np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 0.0, 0.0, 0.0])
    )
    rho = pure_state(psi)
    assert abs(max_pairwise_concurrence(rho) - 1.0) < 1e-8


def test_ground_state_concurrences_match_closed_forms():
    # rank-1 states carry an O(1e-8) noise floor from square roots of
    # near-zero eigenvalues, so the tolerance is looser than for Werner states
    gt2 = ground_truth(vqe_hamiltonian_2q())
    assert abs(concurrence(gt2.state) - 1.0 / np.sqrt(5.0)) < 1e-6
    gt4 = ground_truth(vqe_hamiltonian_4q())
    assert abs(gt4.energy - (-np.sqrt(5.0))) < 1e-12
    assert abs(max_pairwise_concurrence(gt4.state) - 2.0 / np.sqrt(5.0)) < 1e-6


def test_ground_truth_returns_pure_state():
    gt = ground_truth(vqe_hamiltonian_4q())
    assert isinstance(gt, GroundTruth)
    gt.state.validate()
    assert abs(gt.state.purity() - 1.0) < 1e-12
