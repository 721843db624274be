"""Seeded random state sampling."""

import numpy as np

from nvqa.measures import concurrence
from nvqa.randstates import (
    RngStream,
    _child_seed,
    haar_orthogonal,
    sample_product_state,
    sample_real_haar_state,
)


def test_child_seed_is_one_draw_of_the_spawned_seed_sequence():
    """The one derivation of child seeds: one-element paths (sweep_gamma's
    gamma index, the harness's target index) and the harness's
    (layer index, target index) path."""
    for seed, path in ((0, (0,)), (2, (1,)), (7, (3,)), (7, (0, 0)), (7, (1, 4))):
        got = _child_seed(seed, *path)
        assert type(got) is int
        assert got == int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1)[0])
    assert _child_seed(7, 1, 4) != _child_seed(7, 4, 1)


def test_haar_orthogonal_is_orthogonal(rng):
    for dim in (2, 4, 16):
        q = haar_orthogonal(dim, rng)
        assert np.allclose(q @ q.T, np.eye(dim), atol=1e-12)


def test_haar_orthogonal_deterministic_per_seed():
    a = haar_orthogonal(8, np.random.default_rng(42))
    b = haar_orthogonal(8, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_real_haar_state_is_pure_and_real(rng):
    rho = sample_real_haar_state(3, rng)
    rho.validate()
    assert abs(rho.purity() - 1.0) < 1e-12
    assert np.abs(rho.data.imag).max() == 0.0


def test_real_haar_second_moment():
    """E[<Z>^2] = 1/2 for single-qubit real Haar states.

    For the uniform distribution on the real unit circle the Bloch angle is
    uniform, giving E[cos^2] = 1/2 exactly.
    """
    rng = RngStream(99, 0).generator()
    z = np.array([1.0, -1.0])
    vals = []
    for _ in range(4000):
        rho = sample_real_haar_state(1, rng)
        vals.append(float(np.real(np.diag(rho.data) @ z)))
    second = np.mean(np.square(vals))
    # Var[cos^2] = 1/8, so 4000 samples give a standard error near 0.0056
    assert abs(second - 0.5) < 0.025


def test_product_state_has_no_entanglement(rng):
    rho = sample_product_state(2, rng)
    rho.validate()
    assert abs(rho.purity() - 1.0) < 1e-12
    assert concurrence(rho) < 1e-7


def test_rng_stream_reproducibility():
    a = RngStream(7, 3).generator().uniform(size=5)
    b = RngStream(7, 3).generator().uniform(size=5)
    c = RngStream(7, 4).generator().uniform(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_streams_are_independent_of_creation_order():
    first = RngStream(11, 0).generator().uniform(size=3)
    RngStream(11, 1).generator().uniform(size=100)
    again = RngStream(11, 0).generator().uniform(size=3)
    assert np.array_equal(first, again)
