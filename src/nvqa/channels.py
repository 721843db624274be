"""Single-qubit Kraus noise channels and their product application.

Three channel kinds are supported, each parameterized by a strength
gamma in [0, 1]:

- ``phase``:        diag(1, sqrt(1-gamma)) and diag(0, sqrt(gamma))
- ``amplitude``:    diag(1, sqrt(1-gamma)) and sqrt(gamma) |0><1|
- ``depolarising``: sqrt(1-3g/4) I and sqrt(g/4) {X, Y, Z}

A channel is its kind and strength; its Kraus operators are derived. A
product channel applies the same single-qubit channel to every qubit in
sequence, optionally rescaling gamma per qubit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import I2, SX, SY, SZ
from .qstate import DensityMatrix, _as_index, _as_real, _contract, _qubit_count, _require_width

CHANNEL_KINDS = ("phase", "amplitude", "depolarising")

_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _require_kind(kind: str) -> None:
    """Refuse a channel kind outside CHANNEL_KINDS."""
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}, expected one of {CHANNEL_KINDS}")


def _as_strength(value, name: str) -> float:
    """value as a float in [0, 1]; a bool, a string or anything not real is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
        raise ValueError(f"{name} must be a real number in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class KrausChannel:
    """A single-qubit channel, compared and hashed by its kind and its gamma in
    [0, 1]; its 2x2 Kraus operators are derived from the two on first read."""

    kind: str
    gamma: float

    def __post_init__(self):
        _require_kind(self.kind)
        object.__setattr__(self, "gamma", _as_strength(self.gamma, "gamma"))

    @cached_property
    def kraus(self) -> tuple[np.ndarray, ...]:
        """The operators of the module docstring's table for this kind and gamma."""
        g = self.gamma
        if self.kind == "depolarising":
            return (np.sqrt(1.0 - 0.75 * g) * I2, *(np.sqrt(0.25 * g) * p for p in (SX, SY, SZ)))
        jump = _P1 if self.kind == "phase" else _LOWER
        return (np.diag([1.0, np.sqrt(1.0 - g)]).astype(complex), np.sqrt(g) * jump)

    def completeness_defect(self) -> float:
        """Max-abs deviation of sum_k E_k^dagger E_k from the identity."""
        acc = sum(e.conj().T @ e for e in self.kraus)
        return float(np.abs(acc - I2).max())


def make_channel(kind: str, gamma: float) -> KrausChannel:
    """The channel of a kind in CHANNEL_KINDS and a strength gamma in [0, 1];
    gamma = 0 is the identity channel."""
    return KrausChannel(kind, gamma)


def channel_superop(kind: str, gamma: float) -> np.ndarray:
    """4x4 superoperator of a single-qubit channel on vectorized 2x2 states.

    The matrix acts on row-major vec(rho) and equals sum_k E_k (x) conj(E_k)
    for gamma in [0, 1]. Unlike the Kraus form it is analytic in gamma and is
    accepted for gamma in (-1, 1], which central finite differences around
    gamma = 0 rely on. A bool, a string or anything not real is refused.
    """
    _require_kind(kind)
    gamma = _as_real(gamma, "gamma")
    if not -1.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (-1, 1], got {gamma}")
    if kind == "depolarising":
        s = np.kron(SX, SX.conj()) + np.kron(SY, SY.conj()) + np.kron(SZ, SZ.conj())
        return (1.0 - 0.75 * gamma) * np.eye(4, dtype=complex) + 0.25 * gamma * s
    d = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    base = np.kron(d, d.conj())
    jump = _P1 if kind == "phase" else _LOWER
    return base + gamma * np.kron(jump, jump.conj())


def _apply_noise(data: np.ndarray, kind: str, gammas) -> np.ndarray:
    """Apply the channel of strength gammas[q] to each qubit q of (..., 2^n, 2^n) data.

    Each density matrix is split into 2x2 blocks [[A, B], [C, D]] by the
    noisy qubit's row and column bit, and the channel becomes a block update:

    - phase:        B, C *= sqrt(1-g)
    - amplitude:    A += g D, D *= 1-g, B, C *= sqrt(1-g)
    - depolarising: A, D <- (1-g/2) A + (g/2) D, (g/2) A + (1-g/2) D; B, C *= 1-g

    The coefficients are analytic in g and agree with channel_superop on
    (-1, 1]. data may be real or complex, in any memory layout: the reshape
    only splits the last two axes, so it is always a view. data must be
    writable; it is updated in place and returned.
    """
    _require_kind(kind)
    dim = 2 ** len(gammas)
    lead = data.shape[:-2]
    for q, g in enumerate(gammas):
        if not -1.0 < g <= 1.0:
            raise ValueError(f"gamma must be in (-1, 1], got {g}")
        if g == 0.0:
            continue
        a = 2 ** q
        b = dim // (2 * a)
        t = data.reshape(lead + (a, 2, b, a, 2, b))
        blk_a, blk_b = t[..., 0, :, :, 0, :], t[..., 0, :, :, 1, :]
        blk_c, blk_d = t[..., 1, :, :, 0, :], t[..., 1, :, :, 1, :]
        if kind == "depolarising":
            shift = 0.5 * g * (blk_d - blk_a)
            blk_a += shift
            blk_d -= shift
            off = 1.0 - g
        else:
            if kind == "amplitude":
                blk_a += g * blk_d
                blk_d *= 1.0 - g
            off = np.sqrt(1.0 - g)
        blk_b *= off
        blk_c *= off
    return data


def apply_channel_one_qubit(rho: DensityMatrix, ch: KrausChannel, qubit: int) -> DensityMatrix:
    """sum_k E_k rho E_k^dagger with the channel acting on one qubit, as its
    superoperator sum_k E_k (x) conj(E_k) contracted with the qubit's axes."""
    n = rho.n_qubits
    qubit = _as_index(qubit, "qubit", n)
    sup = sum(np.kron(e, e.conj()) for e in ch.kraus)
    t = _contract(rho.data.reshape((2,) * (2 * n)), sup, (qubit, n + qubit))
    return DensityMatrix(t.reshape(rho.data.shape))


@dataclass(frozen=True)
class NoiseSpec:
    """A product channel: one channel kind applied to every qubit.

    per_qubit_scale rescales gamma qubit by qubit (entries in [0, 1]), so a
    scale of 0 switches noise off on that qubit. A spec is compared, hashed
    and pickled by its channel and scales, as any frozen dataclass.
    """

    channel: KrausChannel
    per_qubit_scale: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.channel, KrausChannel):
            raise ValueError(f"channel must be a KrausChannel, got {self.channel!r}")
        object.__setattr__(self, "per_qubit_scale", tuple(
            _as_strength(s, "per_qubit_scale entry") for s in self.per_qubit_scale))
        _qubit_count(len(self.per_qubit_scale))

    @classmethod
    def uniform(cls, kind: str, gamma: float, n_qubits: int) -> "NoiseSpec":
        return cls(make_channel(kind, gamma), (1.0,) * _qubit_count(n_qubits))

    @property
    def n_qubits(self) -> int:
        return len(self.per_qubit_scale)

    @property
    def is_trivial(self) -> bool:
        return self.channel.gamma == 0.0 or all(s == 0.0 for s in self.per_qubit_scale)

    @cached_property
    def _gammas(self) -> tuple[float, ...]:
        return tuple(self.channel.gamma * s for s in self.per_qubit_scale)


def apply_product_channel(rho: DensityMatrix, spec: NoiseSpec) -> DensityMatrix:
    """Apply the product channel qubit by qubit with per-qubit scaled gamma."""
    _require_width("noise spec covers", spec.n_qubits, "state", rho.n_qubits)
    return DensityMatrix(_apply_noise(np.array(rho.data), spec.channel.kind, spec._gammas))


def ptm_from_channel(ch: KrausChannel) -> np.ndarray:
    """Pauli transfer matrix R_ij = Tr[sigma_i Lambda(sigma_j)] / 2 (4x4 real)."""
    paulis = (I2, SX, SY, SZ)
    r = np.empty((4, 4), dtype=float)
    for j, pj in enumerate(paulis):
        image = sum(e @ pj @ e.conj().T for e in ch.kraus)
        for i, pi in enumerate(paulis):
            val = 0.5 * np.trace(pi @ image)
            if abs(val.imag) > 1e-12:
                raise ValueError("PTM entry has imaginary residue")
            r[i, j] = val.real
    return r
