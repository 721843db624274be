"""Exact parameter degeneracies of Ry/CX circuits.

For each Ry gate the candidate move "shift this angle by pi" inserts a Y on
that gate's qubit (Ry(t + pi) = Ry(t) (-i Y)). The Y is pushed backwards
through the circuit as a Pauli word in binary symplectic form, phases
dropped: one x bit and one z bit per qubit, X = (1, 0), Z = (0, 1),
Y = (1, 1). A CX(c -> t) conjugates it as x[t] ^= x[c], z[c] ^= z[t]. At
every Ry(t) on the word's qubits, with parameter p, one rewrite applies:

    letter  rewrite                        sign bit of p  shift bit of p  new letter
    Y       Y Ry(t) = i Ry(t + pi)         ^= 0           ^= 1            I
    X       X Ry(t) = Ry(pi - t) Z         ^= 1           ^= 1            Z
    Z       Z Ry(t) = Ry(-t) Z             ^= 1           ^= 0            Z

that is: sign bit ^= x ^ z, shift bit ^= x, then z ^= x and x = 0.

A candidate survives when no x bit is left: the leftover word has only I
and Z letters, which act trivially on |0...0>. Each survivor is a bit
vector (sign bits, shift bits) and the angle map

    theta -> signs * theta + pi * shifts,   signs = (-1)^(sign bits),

and the set of all such maps is closed under composition: XOR of the bit
vectors, an elementary abelian 2-group. The full group is enumerated as
the GF(2) span of the independent generators, and every returned map is
checked numerically on random angles at zero noise. The check and the
noise splits reduce the map images through circuits._expectations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import NoiseSpec
from .circuits import Circuit, Cx, NoiseMark, Ry, _expectations, _simulate
from .measures import _require_pure
from .qstate import DensityMatrix, _as_int, _require_finite, _require_width

_VERIFY_TOL = 1e-10
_VERIFY_POINTS = 3


@dataclass(frozen=True)
class DegeneracyMap:
    """Angle map theta -> signs * theta + pi * shifts, shifts in {0, 1}."""

    signs: tuple[int, ...]
    shifts: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != len(self.shifts):
            raise ValueError("signs and shifts must have equal length")
        if not {*self.signs} <= {-1, 1}:
            raise ValueError("signs must be +1 or -1")
        if not {*self.shifts} <= {0, 1}:
            raise ValueError("shifts must be 0 or 1 (multiples of pi)")

    @property
    def n_params(self) -> int:
        return len(self.signs)

    @property
    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and all(b == 0 for b in self.shifts)

    def apply(self, theta: np.ndarray) -> np.ndarray:
        return _images(np.array(self.signs), np.array(self.shifts, dtype=bool), theta)

    def compose(self, other: "DegeneracyMap") -> "DegeneracyMap":
        """The map sending theta to self.apply(other.apply(theta))."""
        if other.n_params != self.n_params:
            raise ValueError(f"cannot compose maps of {self.n_params} and {other.n_params} parameters")
        signs = tuple(a * b for a, b in zip(self.signs, other.signs))
        shifts = tuple((a + b) % 2 for a, b in zip(self.shifts, other.shifts))
        return DegeneracyMap(signs, shifts)


def _candidate_generator(ops: list, k: int, n_qubits: int, n_params: int) -> np.ndarray | None:
    """Push a pi shift of gate k backwards; its (sign bits, shift bits), or None
    when the word does not close."""
    gate = ops[k]
    x = [0] * n_qubits
    z = [0] * n_qubits
    x[gate.qubit] = z[gate.qubit] = 1
    bits = np.zeros((2, n_params), dtype=np.uint8)
    bits[1, gate.param_index] = 1
    for op in reversed(ops[:k]):
        if isinstance(op, Cx):
            x[op.target] ^= x[op.control]
            z[op.control] ^= z[op.target]
        else:
            q, p = op.qubit, op.param_index
            bits[0, p] ^= x[q] ^ z[q]
            bits[1, p] ^= x[q]
            z[q] ^= x[q]
            x[q] = 0
    return None if any(x) else bits.ravel()


def _gf2_basis(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Row-reduce bit vectors over GF(2); returns an independent basis."""
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    for row in rows:
        r = row.copy()
        for b, p in zip(basis, pivots):
            if r[p]:
                r ^= b
        nz = np.nonzero(r)[0]
        if nz.size:
            basis.append(r)
            pivots.append(int(nz[0]))
    return basis


def generate_degeneracy_maps(circuit: Circuit, cap: int = 2 ** 16) -> list[DegeneracyMap]:
    """All degeneracy maps of a circuit, identity included.

    The group is the GF(2) span of the per-gate generators. When its size
    exceeds cap, only the subgroup spanned by the first generators is
    enumerated and a warning is issued. Each map is verified on
    _VERIFY_POINTS random angle vectors at zero noise. The maps are in the
    order of their shift bits, the first parameter's most significant.
    """
    cap = _as_int(cap, "cap", 1)
    ops = [op for op in circuit.ops if not isinstance(op, NoiseMark)]
    n = circuit.n_params
    gens = [_candidate_generator(ops, k, circuit.n_qubits, n)
            for k, op in enumerate(ops) if isinstance(op, Ry)]
    basis = _gf2_basis([g for g in gens if g is not None])
    rank = len(basis)
    if 2 ** rank > cap:
        keep = int(np.floor(np.log2(cap)))
        warnings.warn(
            f"degeneracy group of size 2^{rank} exceeds cap {cap}; "
            f"enumerating the subgroup of the first {keep} generators",
            RuntimeWarning,
        )
        basis = basis[:keep]
        rank = keep
    # row `mask` is the XOR of the basis rows its bits select: uint8 sums wrap
    # mod 256, which keeps their parity
    masks = (np.arange(2 ** rank)[:, None] >> np.arange(rank) & 1).astype(np.uint8)
    span = masks @ np.array(basis, dtype=np.uint8).reshape(rank, 2 * n) & 1
    if rank:  # one map needs no order, and lexsort refuses the empty key list of n = 0
        # lexsort's last key is primary; no two maps of a span share their shifts
        span = span[np.lexsort(span[:, n:][:, ::-1].T)]
    signs = 1 - 2 * span[:, :n].astype(np.int8)
    maps = [DegeneracyMap(tuple(s.tolist()), tuple(b.tolist())) for s, b in zip(signs, span[:, n:])]
    _verify_maps(circuit, maps)
    return maps


def _map_arrays(maps: list[DegeneracyMap], n_params: int) -> tuple[np.ndarray, np.ndarray]:
    """The maps' signs (int8) and shifts (bool) as (len(maps), n_params) arrays;
    maps of another width fail the reshape."""
    signs = np.array([m.signs for m in maps], dtype=np.int8).reshape(len(maps), n_params)
    return signs, np.array([m.shifts for m in maps], dtype=bool).reshape(signs.shape)


def _images(signs: np.ndarray, shifts: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The images of a finite theta under the maps of _map_arrays, as rows in map order, built in place."""
    theta = _require_finite(theta, "theta")
    if theta.shape != signs.shape[-1:]:
        raise ValueError(f"theta must have shape ({signs.shape[-1]},), got {theta.shape}")
    out = np.multiply(signs, theta)
    np.add(out, np.pi, out=out, where=shifts)
    return np.mod(out, 2.0 * np.pi, out=out)


def _verify_maps(circuit: Circuit, maps: list[DegeneracyMap]) -> None:
    """Raise naming the first map that changes the noiseless state at a check point."""
    rng = np.random.default_rng(0xD5)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(_VERIFY_POINTS, circuit.n_params))
    arrays = _map_arrays(maps, circuit.n_params)
    # |<psi|phi>|^2 as Tr[|psi><psi| phi phi^T] over the images of each point
    fids = [_expectations(circuit, _images(*arrays, t), None, np.outer(psi, psi))
            for t, psi in zip(thetas, _simulate(circuit, thetas))]
    bad = (np.abs(1.0 - np.array(fids)) > _VERIFY_TOL).any(axis=0)
    if bad.any():
        raise RuntimeError(f"degeneracy map failed verification: {maps[bad.argmax()]}")


def degeneracy_split(circuit: Circuit, theta_star: np.ndarray,
                     maps: list[DegeneracyMap], noise: NoiseSpec | None,
                     target: DensityMatrix) -> np.ndarray:
    """Fidelity Tr[target rho] at every degenerate image of theta_star.

    At zero noise all entries agree; noise that does not commute with the
    inserted Pauli words (amplitude damping) spreads them apart.
    """
    _require_width("target acts on", target.n_qubits, "circuit", circuit.n_qubits)
    _require_pure(target)
    images = _images(*_map_arrays(maps, circuit.n_params), theta_star)
    return _expectations(circuit, images, noise, target.data)
