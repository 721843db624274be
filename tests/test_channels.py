"""Kraus channels, superoperators and the product noise model."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvqa

from nvqa.channels import (
    CHANNEL_KINDS,
    KrausChannel,
    NoiseSpec,
    apply_channel_one_qubit,
    apply_product_channel,
    channel_superop,
    make_channel,
    ptm_from_channel,
    _apply_noise,
)
from nvqa.harness import default_config
from nvqa.noisemodel import ModelParams, apply_global_depol, global_depol_infidelity, predict
from nvqa.pauli import I2, SX, SY, SZ
from nvqa.qstate import DensityMatrix, zero_state
from conftest import random_mixed_state

GAMMAS = np.linspace(0.0, 1.0, 101)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_kraus_completeness_on_grid(kind):
    worst = max(make_channel(kind, float(g)).completeness_defect() for g in GAMMAS)
    assert worst <= 1e-12


def test_make_channel_guards():
    with pytest.raises(ValueError):
        make_channel("phase", -0.1)
    with pytest.raises(ValueError):
        make_channel("phase", 1.1)
    with pytest.raises(ValueError):
        make_channel("bitflip", 0.1)


def kraus_reference(kind: str, gamma: float) -> tuple:
    """The Kraus operators written out as make_channel built them when they
    were passed to KrausChannel beside its kind and gamma."""
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    s = np.sqrt(1.0 - gamma)
    if kind == "phase":
        return (np.diag([1.0, s]).astype(complex), np.sqrt(gamma) * p1)
    if kind == "amplitude":
        return (np.diag([1.0, s]).astype(complex), np.sqrt(gamma) * lower)
    return (np.sqrt(1.0 - 0.75 * gamma) * I2, np.sqrt(0.25 * gamma) * SX,
            np.sqrt(0.25 * gamma) * SY, np.sqrt(0.25 * gamma) * SZ)


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.37, 1.0])
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_kraus_operators_are_derived_bit_for_bit(kind, gamma):
    """The derived operators keep the bits of the ones once passed in, and a
    channel built directly is make_channel's: the one-qubit Kraus path and
    the block path agree on |+>, where a phase channel given (I,) as its
    operators read coherence 0.5 against the block path's 0.354."""
    ch = make_channel(kind, gamma)
    want = kraus_reference(kind, gamma)
    assert len(ch.kraus) == len(want) and ch.kraus is ch.kraus
    for got, ref in zip(ch.kraus, want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert KrausChannel(kind, gamma) == ch and hash(KrausChannel(kind, gamma)) == hash(ch)
    plus = DensityMatrix(np.full((2, 2), 0.5))
    one = apply_channel_one_qubit(plus, ch, 0).data
    block = apply_product_channel(plus, NoiseSpec(ch, (1.0,))).data
    assert np.abs(one - block).max() <= 1e-15


def test_every_entry_refuses_an_unknown_kind_alike():
    """The channel builders, the block update and an experiment config share
    one kind check and its message; a channel built directly once took any
    kind and strength."""
    calls = (lambda: make_channel("bitflip", 0.1), lambda: channel_superop("bitflip", 0.1),
             lambda: KrausChannel("bitflip", 7.0), lambda: _apply_noise(np.eye(2), "bitflip", (0.1,)),
             lambda: default_config("valley_demo", kinds=("bitflip",)))
    for call in calls:
        with pytest.raises(ValueError, match=r"^unknown channel kind 'bitflip', expected one of \("):
            call()


def test_specs_compare_and_hash_by_kind_strength_and_scales():
    """Channels compare by kind and gamma, the Kraus operators being derived
    from them, so specs and the cost functions holding them compare and hash."""
    a, b = NoiseSpec.uniform("phase", 0.1, 2), NoiseSpec.uniform("phase", 0.1, 2)
    assert a == b and a in [b] and hash(a) == hash(b) and len({a, b}) == 1
    assert make_channel("amplitude", 0.3) == make_channel("amplitude", 0.3)
    for other in (NoiseSpec.uniform("amplitude", 0.1, 2), NoiseSpec.uniform("phase", 0.2, 2),
                  NoiseSpec.uniform("phase", 0.1, 3), NoiseSpec(make_channel("phase", 0.1), (1.0, 0.5))):
        assert a != other and other not in [a]


_STRENGTH = r"must be a real number in \[0, 1\], got "
_PARAMS = ModelParams("phase", 2, 0.5, 0.1, 0.01, 0.01, 100)


@pytest.mark.parametrize("call, message", [
    (lambda: make_channel("phase", True), "gamma " + _STRENGTH + "True"),
    (lambda: make_channel("phase", np.True_), "gamma " + _STRENGTH + "np.True_"),
    (lambda: make_channel("phase", "0.5"), "gamma " + _STRENGTH + "'0.5'"),
    (lambda: make_channel("phase", float("nan")), "gamma " + _STRENGTH + "nan"),
    (lambda: NoiseSpec.uniform("phase", True, 2), "gamma " + _STRENGTH),
    (lambda: NoiseSpec(make_channel("phase", 0.1), (True, 1.0)), "per_qubit_scale entry " + _STRENGTH),
    (lambda: NoiseSpec(make_channel("phase", 0.1), (1.0, "1")), "per_qubit_scale entry " + _STRENGTH),
    (lambda: global_depol_infidelity(True, 2, 2), "gamma " + _STRENGTH),
    (lambda: apply_global_depol(zero_state(2), True), "gamma " + _STRENGTH),
    (lambda: predict(_PARAMS, True, 2), "gamma " + _STRENGTH),
    (lambda: predict(_PARAMS, -0.1, 2), "gamma " + _STRENGTH),
    (lambda: predict(_PARAMS, 0.1, -1), "d must be >= 0"),
    (lambda: predict(_PARAMS, 0.1, 2.5), "d must be an integer"),
    (lambda: predict(_PARAMS, 0.1, True), "d must be an integer"),
    (lambda: default_config("valley_demo", gamma_grid=(np.True_,)), "gamma_grid " + _STRENGTH),
    (lambda: default_config("valley_demo", gamma_grid=("0.5",)), "gamma_grid " + _STRENGTH),
    (lambda: KrausChannel("phase", 1.5), "gamma " + _STRENGTH + "1.5"),
    (lambda: KrausChannel("amplitude", True), "gamma " + _STRENGTH + "True"),
], ids=["bool", "numpy-bool", "string", "nan", "uniform-bool", "bool-scale", "string-scale",
        "depol-bool", "global-depol-bool", "predict-bool", "predict-negative",
        "predict-negative-d", "predict-fractional-d", "predict-bool-d", "config-numpy-bool",
        "config-string", "channel-too-strong", "channel-bool"])
def test_every_strength_passes_one_rule(call, message):
    """Each gamma and per-qubit scale is a real number in [0, 1] by one rule:
    a bool, which Python compares as 0 or 1, and a string are refused, where
    several of these built gamma = 1 or 0.5, or returned a number. predict's
    noise-site count d is a count >= 0."""
    with pytest.raises(ValueError, match=message):
        call()


def test_a_strength_keeps_the_value_of_a_real_number():
    gamma = make_channel("phase", 1).gamma
    assert gamma == 1.0 and type(gamma) is float
    assert make_channel("phase", np.float32(0.5)).gamma == 0.5
    assert NoiseSpec(make_channel("phase", 0.1), (np.int64(1), 0.25)).per_qubit_scale == (1.0, 0.25)


@pytest.mark.parametrize("call", [
    lambda: apply_channel_one_qubit(zero_state(2), make_channel("phase", 0.1), 2),
    lambda: apply_channel_one_qubit(zero_state(2), make_channel("phase", 0.1), -1),
    lambda: apply_product_channel(zero_state(2), NoiseSpec.uniform("phase", 0.1, 3)),
    lambda: apply_product_channel(zero_state(2), NoiseSpec.uniform("phase", 0.1, 1)),
], ids=["qubit-too-high", "qubit-negative", "spec-too-wide", "spec-too-narrow"])
def test_a_channel_is_refused_on_qubits_the_state_lacks(call):
    with pytest.raises(ValueError):
        call()


def test_gamma_zero_is_identity(rng):
    rho = random_mixed_state(1, rng)
    for kind in CHANNEL_KINDS:
        out = apply_channel_one_qubit(rho, make_channel(kind, 0.0), 0)
        assert np.allclose(out.data, rho.data, atol=1e-15)


def test_full_strength_fixed_points(rng):
    rho = random_mixed_state(1, rng)
    # phase damping at gamma=1 kills off-diagonals and keeps populations
    out = apply_channel_one_qubit(rho, make_channel("phase", 1.0), 0)
    assert np.allclose(out.data, np.diag(np.diag(rho.data)), atol=1e-15)
    # amplitude damping at gamma=1 sends everything to |0>
    out = apply_channel_one_qubit(rho, make_channel("amplitude", 1.0), 0)
    assert np.allclose(out.data, zero_state(1).data, atol=1e-15)
    # depolarising at gamma=1 gives the maximally mixed state
    out = apply_channel_one_qubit(rho, make_channel("depolarising", 1.0), 0)
    assert np.allclose(out.data, np.eye(2) / 2.0, atol=1e-15)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_superop_matches_kraus_sum(kind):
    for g in (0.0, 0.05, 0.3, 0.77, 1.0):
        ch = make_channel(kind, g)
        sup = channel_superop(kind, g)
        want = sum(np.kron(e, e.conj()) for e in ch.kraus)
        assert np.allclose(sup, want, atol=1e-14)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_superop_analytic_below_zero(kind):
    """The superoperator extends analytically to small negative gamma."""
    eps = 1e-5
    plus = channel_superop(kind, eps)
    minus = channel_superop(kind, -eps)
    mid = channel_superop(kind, 0.0)
    # central second difference stays O(eps^2), so the extension is smooth
    assert np.abs(plus + minus - 2.0 * mid).max() < 1e-8
    with pytest.raises(ValueError):
        channel_superop(kind, -1.5)


@pytest.mark.parametrize("gamma", ["0.5", True, None, 0.5j], ids=["str", "bool", "none", "complex"])
def test_superop_refuses_a_strength_that_is_not_a_real_number(gamma):
    """float() once turned "0.5" and True into the superoperators of 0.5 and
    1.0. The type is checked before the (-1, 1] range, which stays wider than
    a channel's [0, 1] for the central differences."""
    with pytest.raises(ValueError, match="gamma must be a real number"):
        channel_superop("phase", gamma)
    np.testing.assert_array_equal(channel_superop("phase", np.float32(0.5)), channel_superop("phase", 0.5))
    np.testing.assert_array_equal(channel_superop("amplitude", 1), channel_superop("amplitude", 1.0))


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_block_update_matches_superop(kind, rng):
    """The 2x2 block update equals channel_superop on complex mixed states,
    for a batch of states and through the analytic extension below zero."""
    for g in (-1e-5, 0.0, 1e-5, 0.3, 1.0):
        gin = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        states = gin @ gin.conj().transpose(0, 2, 1)
        states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
        got = _apply_noise(states.copy(), kind, (g, 0.5 * g))
        s0 = channel_superop(kind, g).reshape(2, 2, 2, 2)
        s1 = channel_superop(kind, 0.5 * g).reshape(2, 2, 2, 2)
        for rho, out in zip(states, got):
            t = np.einsum("abcd,cxdy->axby", s0, rho.reshape(2, 2, 2, 2))
            t = np.einsum("abcd,xcyd->xayb", s1, t)
            assert np.abs(out - t.reshape(4, 4)).max() <= 1e-14
    with pytest.raises(ValueError):
        _apply_noise(np.eye(2) / 2.0, kind, (-1.0,))
    with pytest.raises(ValueError):
        _apply_noise(np.eye(2) / 2.0, kind, (1.5,))
    with pytest.raises(ValueError):
        _apply_noise(np.eye(2) / 2.0, "bitflip", (0.1,))


def test_apply_channel_matches_explicit_kron(rng):
    rho = random_mixed_state(2, rng)
    ch = make_channel("amplitude", 0.23)
    for qubit in (0, 1):
        out = apply_channel_one_qubit(rho, ch, qubit)
        want = np.zeros_like(rho.data)
        for e in ch.kraus:
            full = np.kron(e, I2) if qubit == 0 else np.kron(I2, e)
            want += full @ rho.data @ full.conj().T
        assert np.allclose(out.data, want, atol=1e-14)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_product_channel_vs_tensor_kraus_oracle(kind, rng):
    """Sequential per-qubit application equals the composed Kraus picture."""
    ch = make_channel(kind, 0.31)
    spec = NoiseSpec(ch, (1.0, 1.0))
    for _ in range(50):
        rho = random_mixed_state(2, rng)
        out = apply_product_channel(rho, spec)
        want = np.zeros_like(rho.data)
        for e0 in ch.kraus:
            for e1 in ch.kraus:
                full = np.kron(e0, e1)
                want += full @ rho.data @ full.conj().T
        assert np.abs(out.data - want).max() <= 1e-12


def test_per_qubit_scaling(rng):
    rho = random_mixed_state(2, rng)
    ch = make_channel("phase", 0.4)
    spec = NoiseSpec(ch, (1.0, 0.0))
    out = apply_product_channel(rho, spec)
    want = apply_channel_one_qubit(rho, ch, 0)
    assert np.allclose(out.data, want.data, atol=1e-14)

    half = NoiseSpec(ch, (1.0, 0.5))
    out = apply_product_channel(rho, half)
    step = apply_channel_one_qubit(rho, ch, 0)
    want = apply_channel_one_qubit(step, make_channel("phase", 0.2), 1)
    assert np.allclose(out.data, want.data, atol=1e-14)


@pytest.mark.parametrize("channel", ["phase", None, ("phase", 0.1), make_channel("phase", 0.1).kraus[0]],
                         ids=["kind", "none", "tuple", "kraus-operator"])
def test_a_spec_refuses_a_channel_that_is_not_a_kraus_channel(channel):
    """A spec is refused where it is built, not at its first use deep in is_trivial."""
    with pytest.raises(ValueError, match="channel must be a KrausChannel"):
        NoiseSpec(channel, (1.0, 1.0))


def test_a_spec_keeps_its_dataclass_hash_and_a_pickled_copy_hashes_afresh(tmp_path):
    """A spec keeps hash((channel, per_qubit_scale)), the hash its dataclass
    fields give. A pickled copy is restored field by field and hashed afresh,
    so a process with another hash seed hashes it like its own equal spec."""
    a = NoiseSpec.uniform("phase", 0.1, 2)
    assert hash(a) == hash((a.channel, a.per_qubit_scale)) == hash(NoiseSpec(make_channel("phase", 0.1), (1.0, 1.0)))
    path = tmp_path / "spec.pickle"
    path.write_bytes(pickle.dumps(a))
    code = ("import pickle, sys; from nvqa.channels import NoiseSpec; "
            "a = pickle.loads(open(sys.argv[1], 'rb').read()); b = NoiseSpec.uniform('phase', 0.1, 2); "
            "sys.exit(0 if a == b and hash(a) == hash(b) and len({a, b}) == 1 else 1)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(nvqa.__file__).parents[1]),
                                                                      os.environ.get("PYTHONPATH")])))
    for seed in ("1", "2"):
        subprocess.run([sys.executable, "-c", code, str(path)], env=dict(env, PYTHONHASHSEED=seed),
                       check=True, timeout=120)


def test_noise_spec_validation_and_trivial():
    ch = make_channel("phase", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec(ch, (1.0, 2.0))
    assert NoiseSpec(ch, (0.0, 0.0)).is_trivial
    assert NoiseSpec.uniform("phase", 0.0, 2).is_trivial
    assert not NoiseSpec.uniform("phase", 0.1, 2).is_trivial
    assert NoiseSpec.uniform("depolarising", 0.3, 4).n_qubits == 4


@pytest.mark.parametrize("g", [0.0, 0.1, 0.5, 1.0])
def test_ptm_closed_forms(g):
    s = np.sqrt(1.0 - g)
    assert np.allclose(
        ptm_from_channel(make_channel("phase", g)), np.diag([1.0, s, s, 1.0]), atol=1e-12
    )
    assert np.allclose(
        ptm_from_channel(make_channel("depolarising", g)),
        np.diag([1.0, 1.0 - g, 1.0 - g, 1.0 - g]),
        atol=1e-12,
    )
    want = np.diag([1.0, s, s, 1.0 - g])
    want[3, 0] = g
    assert np.allclose(ptm_from_channel(make_channel("amplitude", g)), want, atol=1e-12)


def test_ptm_contraction_matches_bloch_action(rng):
    """The PTM acts on Bloch vectors exactly as the channel acts on states."""
    ch = make_channel("amplitude", 0.37)
    r = ptm_from_channel(ch)
    rho = random_mixed_state(1, rng)
    paulis = (I2, SX, SY, SZ)
    bloch_in = np.array([np.trace(p @ rho.data).real for p in paulis])
    out = apply_channel_one_qubit(rho, ch, 0)
    bloch_out = np.array([np.trace(p @ out.data).real for p in paulis])
    assert np.allclose(r @ bloch_in, bloch_out, atol=1e-12)
