"""Parameterized Ry/CX circuits with explicit noise insertion points.

A circuit is a flat list of operations: Ry rotations referencing a parameter
slot, CX gates, and NOISE markers. Every evaluation runs through one batched
kernel, _simulate, over the circuit's ops compiled once into groups: runs of
Ry gates on distinct qubits, and the CX gates and noise marks between them.
Statevector rows apply each Ry and one gather per fixed group. Density rows
apply each rotation group as one U rho U^T and each fixed group, with the
product noise channel at its markers, as one product with blocks composed
once per noise spec; _expectations alone reduces the rows to Tr[O rho].
The blocks grow as 8^n floats, so noisy evaluation stops at
MAX_DENSITY_QUBITS qubits; noiseless evaluation runs up to MAX_QUBITS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .channels import NoiseSpec, _apply_noise
from .qstate import DensityMatrix, MAX_QUBITS

_CHUNK_FLOATS = 2 ** 13  # output-state floats per _simulate call in _expectations
# widest circuit with density rows: a spec's blocks take dim^4 work to compose and
# dim^3 floats to keep per fixed group (a two-layer brickwork circuit composes in
# 3 ms at 4 qubits, 27 ms at 5, 0.55 s at 6 and 9 s at 7)
MAX_DENSITY_QUBITS = 6


@dataclass(frozen=True)
class Ry:
    param_index: int
    qubit: int


@dataclass(frozen=True)
class Cx:
    control: int
    target: int


@dataclass(frozen=True)
class NoiseMark:
    pass


NOISE = NoiseMark()

CircuitOp = Union[Ry, Cx, NoiseMark]

CX_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def ry_matrix(theta: float) -> np.ndarray:
    """Rotation about Y: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class Circuit:
    """An n-qubit op list over n_params parameter slots.

    Every parameter slot must be used by exactly one Ry gate, so circuits and
    parameter vectors stay in one-to-one correspondence.
    """

    n_qubits: int
    ops: tuple[CircuitOp, ...]
    n_params: int

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        object.__setattr__(self, "ops", tuple(self.ops))
        seen = []
        for op in self.ops:
            if isinstance(op, Ry):
                if not 0 <= op.qubit < self.n_qubits:
                    raise ValueError(f"Ry qubit {op.qubit} out of range")
                if not 0 <= op.param_index < self.n_params:
                    raise ValueError(f"parameter index {op.param_index} out of range")
                seen.append(op.param_index)
            elif isinstance(op, Cx):
                if op.control == op.target:
                    raise ValueError("CX control and target must differ")
                if not (0 <= op.control < self.n_qubits and 0 <= op.target < self.n_qubits):
                    raise ValueError(f"CX qubits ({op.control}, {op.target}) out of range")
            elif not isinstance(op, NoiseMark):
                raise TypeError(f"unsupported op {op!r}")
        if sorted(seen) != list(range(self.n_params)):
            raise ValueError("each parameter slot must be used by exactly one Ry gate")

    @property
    def noise_mark_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, NoiseMark))

    @cached_property
    def _groups(self) -> tuple[tuple, ...]:
        """The ops compiled for _simulate, built on first evaluation.

        One (ops, perm) pair per group. Consecutive Ry gates on distinct
        qubits form a rotation group (rys, None): rys lists (param_index,
        qubit, a, b) in op order, where the qubit's bit splits a basis index
        as (a, 2, b). The CX gates and noise marks between two rotation groups
        form a fixed group (ops, perm), perm being the basis gather of its CX
        gates composed.
        """
        runs: list[list[CircuitOp]] = []
        for op in self.ops:
            rot = isinstance(op, Ry)
            if (runs and isinstance(runs[-1][0], Ry) == rot
                    and not (rot and op.qubit in {r.qubit for r in runs[-1]})):
                runs[-1].append(op)
            else:
                runs.append([op])
        dim = 2 ** self.n_qubits
        groups = []
        for run in runs:
            if isinstance(run[0], Ry):
                groups.append((tuple((r.param_index, r.qubit, 2 ** r.qubit, dim // 2 ** (r.qubit + 1))
                                     for r in run), None))
            else:
                perm = np.arange(dim)
                for op in run:
                    if isinstance(op, Cx):
                        perm = perm[_cx_perm(self.n_qubits, op)]
                groups.append((tuple(run), perm))
        return tuple(groups)

    @cached_property
    def _rotation_entries(self) -> tuple[np.ndarray, ...]:
        """For each rotation group, entries[q, i, j] indexes the (c, -s, s, c)
        table of _simulate at the entry (i_q, j_q) of qubit q's rotation, the
        identity where the group leaves q alone. Density rows alone read them.
        """
        n, dim = self.n_qubits, 2 ** self.n_qubits
        bits = np.arange(dim) >> np.arange(n - 1, -1, -1)[:, None] & 1  # bits[q, i]: qubit q of i
        out = []
        for rys, perm in self._groups:
            if perm is None:
                slots = np.full(n, self.n_params)
                for p, q, _, _ in rys:
                    slots[q] = p
                out.append(4 * slots[:, None, None] + 2 * bits[:, :, None] + bits[:, None, :])
        return tuple(out)

    @cached_property
    def _channel_cache(self) -> dict:
        """The fixed-group blocks of the last (kind, gammas), filled by _channel_blocks."""
        return {}


def build_2q_circuit(variant: str) -> Circuit:
    """Two-qubit ansatz: Ry pair, CX(0->1), noise point, final Ry layer.

    Variant "a" rotates qubit 1 after the CX, "b" rotates qubit 0, and "c"
    rotates both (four parameters in total).
    """
    head = (Ry(0, 0), Ry(1, 1), Cx(0, 1), NOISE)
    if variant == "a":
        return Circuit(2, head + (Ry(2, 1),), 3)
    if variant == "b":
        return Circuit(2, head + (Ry(2, 0),), 3)
    if variant == "c":
        return Circuit(2, head + (Ry(2, 0), Ry(3, 1)), 4)
    raise ValueError(f"unknown variant {variant!r}, expected 'a', 'b' or 'c'")


def build_hea(layers: int, n_qubits: int = 4) -> Circuit:
    """Hardware-efficient ansatz on four qubits.

    Each layer is an Ry on every qubit, the parallel pair CX(0->1), CX(2->3)
    followed by a noise point, then CX(1->2) followed by a second noise
    point. L layers use 4L parameters and 2L noise points.
    """
    if n_qubits != 4:
        raise ValueError("the hardware-efficient ansatz is defined on 4 qubits")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    ops: list[CircuitOp] = []
    for l in range(layers):
        ops += [Ry(4 * l + q, q) for q in range(4)]
        ops += [Cx(0, 1), Cx(2, 3), NOISE, Cx(1, 2), NOISE]
    return Circuit(4, tuple(ops), 4 * layers)


def build_4q_vqe() -> Circuit:
    """Four-qubit ansatz used for the 4-qubit Hamiltonian: three entangling
    layers with a noise point after every CX (12 parameters, 9 noise points).

    Two such layers cannot represent the ground state of the benchmark
    Hamiltonian; three reach the exact -sqrt(5) ground energy at zero noise,
    which the acceptance suite checks.
    """
    ops: list[CircuitOp] = []
    for l in range(3):
        ops += [Ry(4 * l + q, q) for q in range(4)]
        ops += [Cx(0, 1), NOISE, Cx(2, 3), NOISE, Cx(1, 2), NOISE]
    return Circuit(4, tuple(ops), 12)


def build_valley_demo() -> Circuit:
    """Single qubit, Ry(theta0), noise point, Ry(theta1).

    At zero noise the cost Tr[rho |0><0|] has a flat valley along
    theta0 + theta1 = pi; noise in the middle breaks the valley into
    isolated minima.
    """
    return Circuit(1, (Ry(0, 0), NOISE, Ry(1, 0)), 2)


def _simulate(circuit: Circuit, params: np.ndarray, noise: NoiseSpec | None = None) -> np.ndarray:
    """Output states for every row of an (m, n_params) parameter array.

    Returns real statevectors of shape (m, 2^n) when noise is None (noise
    marks are skipped) and real density matrices of shape (m, 2^n, 2^n)
    otherwise. Ry, CX and all three channels map real states to real states,
    so float64 arithmetic is exact here.

    Both paths walk the circuit's groups (Circuit._groups). A statevector
    takes each Ry of a rotation group in op order and one gather per fixed
    group. A density row takes a rotation group as one rho <- U rho U^T, U
    the Kronecker product of the group's rotations, and a fixed group as one
    product with its precomposed blocks (_channel_blocks). Every product is
    a stacked per-row matmul, so no BLAS call spans rows and a row's bits do
    not depend on its batch. Density rows are refused above
    MAX_DENSITY_QUBITS qubits.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != circuit.n_params:
        raise ValueError(f"expected shape (m, {circuit.n_params}), got {params.shape}")
    _check_width(circuit, noise)
    m, n_params = params.shape
    dim = 2 ** circuit.n_qubits
    cos, sin = np.cos(0.5 * params), np.sin(0.5 * params)
    if noise is None:
        state = np.zeros((m, dim))
        state[:, 0] = 1.0
        cos, sin = cos[:, :, None, None], sin[:, :, None, None]
        for ops, perm in circuit._groups:
            if perm is None:
                for p, _, a, b in ops:
                    state = _rotate(state, cos[:, p], sin[:, p], a, b)
            else:
                state = state[:, perm]
        return state
    if circuit.n_qubits > MAX_DENSITY_QUBITS:
        raise ValueError(f"noisy circuits run on at most {MAX_DENSITY_QUBITS} qubits, "
                         f"circuit has {circuit.n_qubits}")
    # each row's (c, -s, s, c) for every slot, and the identity in the extra slot n_params
    table = np.empty((m, n_params + 1, 2, 2))
    table[:, :n_params, 0, 0] = table[:, :n_params, 1, 1] = cos
    table[:, :n_params, 1, 0] = sin
    table[:, :n_params, 0, 1] = -sin
    table[:, n_params] = np.eye(2)
    table = table.reshape(m, -1)
    rotations = iter(circuit._rotation_entries)
    blocks = iter(_channel_blocks(circuit, noise))
    rho = np.zeros((m, dim, dim))
    rho[:, 0, 0] = 1.0
    for _, perm in circuit._groups:
        if perm is None:
            f = table[:, next(rotations)]
            u = f[:, 0]
            for q in range(1, circuit.n_qubits):
                u = u * f[:, q]  # the Kronecker product of the rotations, qubit 0 first
            rho = u @ rho @ u.transpose(0, 2, 1)
        else:
            src, blk, back = next(blocks)
            rho = (blk @ rho.reshape(m, -1)[:, src, None]).reshape(m, -1)[:, back]
    return rho


def _cx_perm(n_qubits: int, op: Cx) -> np.ndarray:
    """The basis gather of one CX: state[..., perm] applies it."""
    idx = np.arange(2 ** n_qubits)
    cbit = (idx >> (n_qubits - 1 - op.control)) & 1
    return np.where(cbit == 1, idx ^ (1 << (n_qubits - 1 - op.target)), idx)


def _channel_blocks(circuit: Circuit, noise: NoiseSpec) -> tuple[tuple, ...]:
    """(src, blocks, back) for each fixed group of the circuit under the spec.

    Every channel keeps the coherence pattern y = i ^ j of an entry rho[i, j],
    and a CX maps patterns linearly: output pattern y is fed by input pattern
    perm[y] alone. So a fixed group's map splits into one dim x dim block per
    pattern. rho.reshape(m, -1)[:, src] lists the entries (k, k ^ perm[y]) in
    (y, k) order, blocks[y] maps them to the entries (i, i ^ y), and back
    gathers the (y, i) result into row-major order. Identical groups are
    composed once, and a circuit keeps the blocks of its last (kind, gammas)
    only, which bounds their memory: every study runs one spec at a time, so
    a longer cache would save only the recompose when a study comes back to
    a spec (2.6 ms for HEA L=4).
    """
    key = (noise.channel.kind, noise._gammas)
    cache = circuit._channel_cache
    if key not in cache:
        cache.clear()
        n = circuit.n_qubits
        idx = np.arange(2 ** n)
        back = (idx[:, None] ^ idx) * 2 ** n + idx[:, None]
        composed: dict[tuple, tuple] = {}
        for ops, perm in circuit._groups:
            if perm is not None and ops not in composed:
                blocks = np.stack([_pattern_block(n, ops, x, y, *key) for y, x in enumerate(perm)])
                composed[ops] = (idx * 2 ** n + (idx ^ perm[:, None]), blocks, back)
        cache[key] = tuple(composed[ops] for ops, perm in circuit._groups if perm is not None)
    return cache[key]


def _pattern_block(n_qubits: int, ops: tuple, x: int, y: int, kind: str, gammas) -> np.ndarray:
    """Block [i, k]: the coefficient of rho[k, k ^ x] in entry (i, i ^ y) after ops.

    Built from the 2^n basis matrices |k><k ^ x| of one input pattern, run
    through the group's gathers and channels.
    """
    idx = np.arange(2 ** n_qubits)
    t = np.zeros((idx.size,) * 3)
    t[idx, idx, idx ^ x] = 1.0
    for op in ops:
        if isinstance(op, Cx):
            perm = _cx_perm(n_qubits, op)
            t = t[:, perm][:, :, perm]
        else:
            t = _apply_noise(t, kind, gammas)
    return t[:, idx, idx ^ y].T


def _check_width(circuit: Circuit, noise: NoiseSpec | None) -> None:
    """Refuse a spec of the wrong width, trivial or not."""
    if noise is not None and noise.n_qubits != circuit.n_qubits:
        raise ValueError(f"noise spec covers {noise.n_qubits} qubits, circuit has {circuit.n_qubits}")


def _rotate(state: np.ndarray, c: np.ndarray, s: np.ndarray, outer: int, inner: int) -> np.ndarray:
    """Ry on the axis of length 2 when each row of state is viewed as (outer, 2, inner)."""
    t = state.reshape(len(c), outer, 2, inner)
    x0, x1 = t[:, :, 0], t[:, :, 1]
    out = np.empty_like(t)
    out[:, :, 0] = c * x0 - s * x1
    out[:, :, 1] = s * x0 + c * x1
    return out.reshape(state.shape)


def _expectations(circuit: Circuit, params: np.ndarray, noise: NoiseSpec | None,
                  obs: np.ndarray) -> np.ndarray:
    """Tr[Re(obs) rho] for the output state rho of every row of an (m, n_params) array.

    Circuit outputs are real symmetric and Im(obs) is antisymmetric, so Re(obs)
    gives the exact trace. None or a zero-strength spec runs the statevector
    path. Rows run in memory-bounded chunks and each is reduced in a fixed
    order, so a row's value is the same bits in any batch.
    """
    params = np.asarray(params, dtype=float)
    _check_width(circuit, noise)
    pure = noise is None or noise.is_trivial
    rows = max(1, _CHUNK_FLOATS // 2 ** (circuit.n_qubits * (1 if pure else 2)))
    out = np.empty(len(params))
    for start in range(0, len(params), rows):
        state = _simulate(circuit, params[start:start + rows], None if pure else noise)
        if pure:
            out[start:start + rows] = np.einsum("md,dc,mc->m", state, np.real(obs), state)
        else:
            # Tr[O rho] = sum(O * rho) for symmetric O; the C-ordered copy fixes each row's order
            flat = np.ascontiguousarray(state).reshape(len(state), -1)
            out[start:start + rows] = np.einsum("mk,k->m", flat, np.real(obs).ravel())
    return out


def evaluate_pure(circuit: Circuit, params: np.ndarray) -> np.ndarray:
    """Statevector after the circuit (noise marks ignored), length 2^n."""
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ValueError(f"expected {circuit.n_params} parameters, got shape {params.shape}")
    return _simulate(circuit, params[None])[0].astype(complex)


def evaluate(circuit: Circuit, params: np.ndarray, noise: NoiseSpec | None = None) -> DensityMatrix:
    """Run the circuit on |0...0> and return the output state.

    Parameters
    ----------
    circuit : Circuit
    params : array of shape (n_params,)
    noise : NoiseSpec or None
        Product channel applied at every NOISE mark. None, or a spec of
        strength zero, evaluates the circuit noiselessly.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.n_params,):
        raise ValueError(f"expected {circuit.n_params} parameters, got shape {params.shape}")
    _check_width(circuit, noise)
    if noise is None or noise.is_trivial:
        psi = evaluate_pure(circuit, params)
        return DensityMatrix(circuit.n_qubits, np.outer(psi, psi.conj()))
    rho = _simulate(circuit, params[None], noise)[0]
    return DensityMatrix(circuit.n_qubits, 0.5 * (rho + rho.T))


def circuit_to_dict(circuit: Circuit) -> dict:
    ops = []
    for op in circuit.ops:
        if isinstance(op, Ry):
            ops.append({"ry": {"p": op.param_index, "q": op.qubit}})
        elif isinstance(op, Cx):
            ops.append({"cx": {"c": op.control, "t": op.target}})
        else:
            ops.append("noise")
    return {"n_qubits": circuit.n_qubits, "ops": ops, "n_params": circuit.n_params}


def circuit_from_dict(d: dict) -> Circuit:
    ops: list[CircuitOp] = []
    for entry in d["ops"]:
        if entry == "noise":
            ops.append(NOISE)
        elif "ry" in entry:
            ops.append(Ry(entry["ry"]["p"], entry["ry"]["q"]))
        elif "cx" in entry:
            ops.append(Cx(entry["cx"]["c"], entry["cx"]["t"]))
        else:
            raise ValueError(f"unknown op entry {entry!r}")
    return Circuit(d["n_qubits"], tuple(ops), d["n_params"])


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), separators=(",", ":"))


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))
