"""Seeded random state sampling."""

from functools import reduce

import numpy as np
import pytest

from conftest import haar_orthogonal_reference, product_reference, real_haar_reference
from nvqa.measures import concurrence
from nvqa.qstate import MAX_QUBITS
from nvqa.randstates import (
    RngStream,
    _child_seed,
    haar_orthogonal,
    haar_orthogonals,
    product_rows,
    real_haar_rows,
    sample_product_state,
    sample_real_haar_state,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_position(a: np.random.Generator, b: np.random.Generator) -> None:
    assert same_bits(a.standard_normal(4), b.standard_normal(4))


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


@pytest.mark.parametrize("dim", (2, 4, 8, 16))
@pytest.mark.parametrize("k", (1, 2, 31, 32, 33))
def test_stacked_draws_equal_k_per_draw_oracle_draws(k, dim):
    """One (k, dim, dim) normal draw and one stacked QR give the bits of k
    draws in turn, and leave the stream where they would."""
    seed = 1000 * k + dim
    a, b, c = (np.random.default_rng(seed) for _ in range(3))
    want = np.array([haar_orthogonal_reference(dim, b) for _ in range(k)])
    assert same_bits(haar_orthogonals(dim, a, k), want)
    assert same_bits(real_haar_rows(dim.bit_length() - 1, c, k), want[:, :, 0])
    tail = b.standard_normal(4)
    assert same_bits(a.standard_normal(4), tail) and same_bits(c.standard_normal(4), tail)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_product_rows_equal_the_kron_of_per_draw_columns(n):
    for k in (1, 5, 33):
        a, b = np.random.default_rng(n + k), np.random.default_rng(n + k)
        want = [reduce(np.kron, [haar_orthogonal_reference(2, b)[:, 0] for _ in range(n)])
                for _ in range(k)]
        assert same_bits(product_rows(n, a, k), np.array(want))
        assert_same_position(a, b)


def test_single_draws_are_the_stacked_k1_case():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    for i in range(24):
        n = 1 + i % 4
        assert same_bits(haar_orthogonal(n + 1, a), haar_orthogonal_reference(n + 1, b))
        draw, oracle = ((sample_real_haar_state, real_haar_reference) if i % 3
                        else (sample_product_state, product_reference))
        assert same_bits(draw(n, a).data, oracle(n, b).data)
    assert_same_position(a, b)


@pytest.mark.parametrize("call", [
    lambda g: haar_orthogonal(0, g),
    lambda g: haar_orthogonal(2.0, g),
    lambda g: haar_orthogonals(2, g, 0),
    lambda g: sample_product_state(0, g),
    lambda g: sample_real_haar_state(True, g),
    lambda g: real_haar_rows(MAX_QUBITS + 1, g, 1),
    lambda g: product_rows(2, g, 1.0),
], ids=["dim-0", "dim-float", "k-0", "product-0-qubits", "haar-bool-qubits",
        "haar-too-wide", "product-float-k"])
def test_bad_counts_are_refused_before_any_draw(call):
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    with pytest.raises(ValueError):
        call(a)
    assert_same_position(a, b)
