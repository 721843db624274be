"""Exact parameter degeneracies of Ry/CX circuits.

For each Ry gate the candidate move "shift this angle by pi" inserts a Y on
that gate's qubit (Ry(t + pi) = Ry(t) (-i Y)). The Y is pushed backwards
through the circuit: CX gates conjugate Pauli words, and at every Ry on the
same qubit the word is rewritten with one of

    Y Ry(t) = i Ry(t + pi)          (absorb, word drops to identity)
    X Ry(t) = Ry(pi - t) Z          (convert, sign flip plus pi shift)
    Z Ry(t) = Ry(-t) Z              (pass, sign flip)

A candidate survives when the leftover word contains only I and Z letters,
which act trivially on |0...0>. Each survivor yields an angle map

    theta -> signs * theta + pi * shifts

with signs in {-1, +1} and shifts in {0, 1}, and the set of all such maps is
closed under composition: componentwise products of signs and XOR of shifts,
an elementary abelian 2-group. The full group is enumerated from the
independent generators, and every returned map is checked numerically on
random angles at zero noise. The check and the noise splits reduce the map
images through circuits._expectations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import NoiseSpec
from .circuits import Circuit, Cx, NoiseMark, Ry, _expectations, _simulate
from .qstate import DensityMatrix

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
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        if any(b not in (0, 1) for b in self.shifts):
            raise ValueError("shifts must be 0 or 1 (multiples of pi)")

    @property
    def n_params(self) -> int:
        return len(self.signs)

    @property
    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and all(b == 0 for b in self.shifts)

    def apply(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.mod(np.array(self.signs) * theta + np.pi * np.array(self.shifts), 2.0 * np.pi)

    def compose(self, other: "DegeneracyMap") -> "DegeneracyMap":
        """The map sending theta to self.apply(other.apply(theta))."""
        signs = tuple(a * b for a, b in zip(self.signs, other.signs))
        shifts = tuple((a + b) % 2 for a, b in zip(self.shifts, other.shifts))
        return DegeneracyMap(signs, shifts)


def _pauli_mult(a: str, b: str) -> str:
    """Product of two Pauli letters up to a phase."""
    if a == "I":
        return b
    if b == "I":
        return a
    if a == b:
        return "I"
    return ({"X", "Y", "Z"} - {a, b}).pop()


def _cx_conjugate(word: dict[int, str], control: int, target: int) -> dict[int, str]:
    """Conjugate a Pauli word (qubit -> letter) by a CX, phases dropped."""
    a = word.get(control, "I")
    b = word.get(target, "I")
    new_c = _pauli_mult(a, "Z" if b in ("Y", "Z") else "I")
    new_t = _pauli_mult("X" if a in ("X", "Y") else "I", b)
    out = dict(word)
    for q, letter in ((control, new_c), (target, new_t)):
        if letter == "I":
            out.pop(q, None)
        else:
            out[q] = letter
    return out


def _candidate_generator(ops: list, k: int, n_params: int) -> DegeneracyMap | None:
    """Push a pi shift of gate k backwards; None when the word does not close."""
    gate = ops[k]
    signs = [1] * n_params
    shifts = [0] * n_params
    shifts[gate.param_index] = 1
    word: dict[int, str] = {gate.qubit: "Y"}
    for op in reversed(ops[:k]):
        if isinstance(op, Cx):
            word = _cx_conjugate(word, op.control, op.target)
            continue
        letter = word.get(op.qubit, "I")
        if letter == "I":
            continue
        p = op.param_index
        if letter == "Y":
            shifts[p] ^= 1
            del word[op.qubit]
        elif letter == "X":
            signs[p] = -signs[p]
            shifts[p] ^= 1
            word[op.qubit] = "Z"
        else:
            signs[p] = -signs[p]
    if any(letter not in ("I", "Z") for letter in word.values()):
        return None
    return DegeneracyMap(tuple(signs), tuple(shifts))


def _to_bits(m: DegeneracyMap) -> np.ndarray:
    return np.array([int(s == -1) for s in m.signs] + list(m.shifts), dtype=np.uint8)


def _from_bits(bits: np.ndarray, n_params: int) -> DegeneracyMap:
    signs = tuple(1 - 2 * int(b) for b in bits[:n_params])
    shifts = tuple(int(b) for b in bits[n_params:])
    return DegeneracyMap(signs, shifts)


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
    _VERIFY_POINTS random angle vectors at zero noise.
    """
    ops = [op for op in circuit.ops if not isinstance(op, NoiseMark)]
    gens = []
    for k, op in enumerate(ops):
        if isinstance(op, Ry):
            cand = _candidate_generator(ops, k, circuit.n_params)
            if cand is not None:
                gens.append(cand)
    basis = _gf2_basis([_to_bits(g) for g in gens])
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
    width = 2 * circuit.n_params
    maps = []
    for mask in range(2 ** rank):
        bits = np.zeros(width, dtype=np.uint8)
        for i in range(rank):
            if mask >> i & 1:
                bits ^= basis[i]
        maps.append(_from_bits(bits, circuit.n_params))
    maps.sort(key=lambda m: (m.shifts, m.signs))
    _verify_maps(circuit, maps)
    return maps


def _images(maps: list[DegeneracyMap], theta: np.ndarray) -> np.ndarray:
    """m.apply(theta) for every map m, as rows in map order, built in place."""
    out = np.multiply(np.array([m.signs for m in maps], dtype=np.int8).reshape(-1, len(theta)), theta)
    np.add(out, np.pi, out=out, where=np.array([m.shifts for m in maps], dtype=bool).reshape(out.shape))
    return np.mod(out, 2.0 * np.pi, out=out)


def _verify_maps(circuit: Circuit, maps: list[DegeneracyMap]) -> None:
    """Raise naming the first map that changes the noiseless state at a check point."""
    rng = np.random.default_rng(0xD5)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(_VERIFY_POINTS, circuit.n_params))
    # |<psi|phi>|^2 as Tr[|psi><psi| phi phi^T] over the images of each point
    fids = [_expectations(circuit, _images(maps, t), None, np.outer(psi, psi))
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
    if target.purity() < 1.0 - 1e-8:
        raise ValueError(f"reference state is not pure (purity {target.purity()})")
    return _expectations(circuit, _images(maps, np.asarray(theta_star, dtype=float)), noise, target.data)
