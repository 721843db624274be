"""Parameterized Ry/CX circuits with explicit noise insertion points.

A circuit is a flat list of operations: Ry rotations referencing a parameter
slot, CX gates, and NOISE markers; its parameter count is its number of Ry
gates. Every evaluation runs through one batched kernel, _simulate, over the
circuit's ops compiled once into groups: runs of Ry gates on distinct qubits,
each with its qubit's flip arrays, and the CX gates and noise marks between
them. Statevector rows run with the batch innermost, each Ry two products on
contiguous rows and each fixed group one gather. Density rows, from gathers
built on the first of them, take each rotation group as one U rho U^T and each
fixed group, noise included, as one product with blocks composed once per
spec. _expectations reduces rows to Tr[O rho], and _expectation_gradients adds
d Tr[O rho] / d theta of density rows (forward pass, then each group's adjoint
in reverse); both walk rows in one chunk walk, _chunks, with any m, 0 included.

The rows of one call may differ in spec and in observable (_ByRow). A spec's
blocks, dim^3 = 8^n floats per distinct fixed group (32 KiB at 4 qubits, 2 MiB
at 6, so noisy evaluation stops at MAX_DENSITY_QUBITS qubits and noiseless at
MAX_QUBITS), come from _spec_blocks, which composes them on the spec's first
use and keeps them on the circuit (Circuit._blocks). A call resolves its blocks
once (_row_blocks), its reverse pass too. Rows of one spec take a fixed group
as one product with its blocks, and each row keeps a single-spec call's bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .channels import NoiseSpec, _apply_noise
from .qstate import DensityMatrix, _as_int, _qubit_count, _require_ints

_CHUNK_FLOATS = 2 ** 13  # output-state floats per chunk of _chunks, read at each call
# widest circuit with density rows: a spec's blocks take dim^3 floats per fixed group
# (a two-layer brickwork circuit composes in 0.5 ms at 4 qubits, 12 ms at 6, 0.11 s at 7,
# one BLAS thread)
MAX_DENSITY_QUBITS = 6


@dataclass(frozen=True)
class Ry:
    param_index: int
    qubit: int

    def __post_init__(self):
        _require_ints(self, "param_index", "qubit")


@dataclass(frozen=True)
class Cx:
    control: int
    target: int

    def __post_init__(self):
        _require_ints(self, "control", "target")


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
    """An n-qubit op list; n_params, its number of Ry gates, is derived.

    The Ry gates must use the parameter slots 0..n_params-1, one slot each,
    so circuits and parameter vectors stay in one-to-one correspondence.
    """

    n_qubits: int
    ops: tuple[CircuitOp, ...]
    n_params: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _qubit_count(self.n_qubits))
        object.__setattr__(self, "ops", tuple(self.ops))
        slots = []
        for op in self.ops:
            if isinstance(op, Ry):
                if not 0 <= op.qubit < self.n_qubits:
                    raise ValueError(f"Ry qubit {op.qubit} out of range")
                slots.append(op.param_index)
            elif isinstance(op, Cx):
                if op.control == op.target:
                    raise ValueError("CX control and target must differ")
                if not (0 <= op.control < self.n_qubits and 0 <= op.target < self.n_qubits):
                    raise ValueError(f"CX qubits ({op.control}, {op.target}) out of range")
            elif not isinstance(op, NoiseMark):
                raise TypeError(f"unsupported op {op!r}")
        if sorted(slots) != list(range(len(slots))):
            raise ValueError(f"the Ry gates must use the slots 0..{len(slots) - 1} once each, got {slots}")
        object.__setattr__(self, "n_params", len(slots))

    @cached_property
    def _groups(self) -> tuple[tuple, ...]:
        """The ops compiled for _simulate, built on first evaluation.

        One (ops, perm) pair per group. Consecutive Ry gates on distinct
        qubits form a rotation group (rys, None): rys lists (param_index,
        qubit, partner, sign) per Ry in op order, partner[i] = i ^ w and
        sign[i] -1 where bit w of i is clear, +1 where set, w = dim // 2^(q+1)
        the qubit's bit weight; every Ry on one qubit shares these arrays. The
        CX gates and noise marks between two rotation groups form a fixed
        group (ops, perm), perm the basis gather of its CX gates composed.
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
        idx = np.arange(dim)
        flips = [(idx ^ w, np.where(idx & w, 1.0, -1.0)) for w in dim >> np.arange(1, self.n_qubits + 1)]
        groups = []
        for run in runs:
            if isinstance(run[0], Ry):
                groups.append((tuple((r.param_index, r.qubit, *flips[r.qubit]) for r in run), None))
            else:
                perm = np.arange(dim)
                for op in run:
                    if isinstance(op, Cx):
                        perm = perm[_cx_perm(self.n_qubits, op)]
                groups.append((tuple(run), perm))
        return tuple(groups)

    @cached_property
    def _density_plan(self) -> tuple[tuple, ...]:
        """Density rows' gathers, one entry per group, built on the first density row.

        A rotation group gets (entries, slots, trace_entries, signs):
        entries[q, i, j] indexes _simulate's (c, -s, s, c) table at the entry
        (i_q, j_q) of qubit q's rotation, the identity where the group leaves
        q alone; for _expectation_gradients, per Ry, its slot and the flat
        entries (partner[i], i) of rho lambda whose sum signed by sign is
        Tr[2 K_q rho lambda]. A fixed group gets (src, back, back_inv,
        src_inv): src lists the flat entries (k, k ^ perm[y]) in (y, k) order
        for its blocks (_spec_blocks), back gathers their product into
        row-major order, and the transpose takes the inverse gathers back_inv
        and src_inv; identical groups share one entry.
        """
        n, dim = self.n_qubits, 2 ** self.n_qubits
        idx = np.arange(dim)
        bits = idx >> np.arange(n - 1, -1, -1)[:, None] & 1  # bits[q, i]: qubit q of i
        back = (idx[:, None] ^ idx) * dim + idx[:, None]
        back_inv = np.argsort(back.ravel()).reshape(back.shape)
        srcs = {ops: idx * dim + (idx ^ perm[:, None]) for ops, perm in self._groups if perm is not None}
        fixed = {ops: (src, back, back_inv, np.argsort(src.ravel()).reshape(src.shape))
                 for ops, src in srcs.items()}
        plan = []
        for ops, perm in self._groups:
            if perm is None:
                ps, qs, partners, signs = zip(*ops)
                slots = np.full(n, self.n_params)
                slots[list(qs)] = ps
                plan.append((4 * slots[:, None, None] + 2 * bits[:, :, None] + bits[:, None, :], np.array(ps),
                             np.array(partners) * dim + idx, np.array(signs)))
            else:
                plan.append(fixed[ops])
        return tuple(plan)

    @cached_property
    def _blocks(self) -> dict:
        """{spec: blocks}: every spec's fixed-group blocks (_spec_blocks), kept for the circuit's life."""
        return {}


def build_2q_circuit(variant: str) -> Circuit:
    """Two-qubit ansatz: Ry pair, CX(0->1), noise point, final Ry layer.

    Variant "a" rotates qubit 1 after the CX, "b" rotates qubit 0, and "c"
    rotates both (four parameters in total).
    """
    head = (Ry(0, 0), Ry(1, 1), Cx(0, 1), NOISE)
    if variant == "a":
        return Circuit(2, head + (Ry(2, 1),))
    if variant == "b":
        return Circuit(2, head + (Ry(2, 0),))
    if variant == "c":
        return Circuit(2, head + (Ry(2, 0), Ry(3, 1)))
    raise ValueError(f"unknown variant {variant!r}, expected 'a', 'b' or 'c'")


def build_hea(layers: int) -> Circuit:
    """Hardware-efficient ansatz on four qubits.

    Each layer is an Ry on every qubit, the parallel pair CX(0->1), CX(2->3)
    followed by a noise point, then CX(1->2) followed by a second noise
    point. L layers use 4L parameters and 2L noise points.
    """
    layers = _as_int(layers, "layers")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    ops: list[CircuitOp] = []
    for l in range(layers):
        ops += [Ry(4 * l + q, q) for q in range(4)]
        ops += [Cx(0, 1), Cx(2, 3), NOISE, Cx(1, 2), NOISE]
    return Circuit(4, tuple(ops))


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
    return Circuit(4, tuple(ops))


def build_valley_demo() -> Circuit:
    """Single qubit, Ry(theta0), noise point, Ry(theta1).

    At zero noise the cost Tr[rho |0><0|] has a flat valley along
    theta0 + theta1 = pi; noise in the middle breaks the valley into
    isolated minima.
    """
    return Circuit(1, (Ry(0, 0), NOISE, Ry(1, 0)))


def _simulate(circuit: Circuit, params: np.ndarray, noise: "NoiseSpec | _ByRow | None" = None,
              tape: list | None = None) -> np.ndarray:
    """Output states for every row of an (m, n_params) parameter array.

    Returns real statevectors of shape (m, 2^n) when noise is None (noise
    marks are skipped) and real density matrices of shape (m, 2^n, 2^n)
    otherwise. Ry, CX and all three channels map real states to real states,
    so float64 arithmetic is exact here.

    Both paths walk the circuit's groups (Circuit._groups). Statevectors are
    held as one (2^n, m) array, the batch innermost, and returned C-ordered as
    (m, 2^n). Each Ry, in op order, is psi <- cos_p psi + sin_p sign *
    psi[partner] with its own partner and sign: amplitudes x0, x1 whose bit
    of the Ry's qubit is clear, set become cos * x0 - sin * x1 and cos * x1 +
    sin * x0. A fixed group is one gather of its basis indices. Density rows
    read Circuit._density_plan beside the groups: a rotation group is one
    rho <- U rho U^T, U the Kronecker product of the group's rotations, and a
    fixed group one product with its blocks (_row_blocks): the spec's, shared
    by every row, or under per-row specs (_ByRow) one product per run of rows
    under one spec, with that spec's blocks, each composed once per circuit.
    Every product is a stacked per-row matmul, so no BLAS call spans rows and
    a row's bits depend neither on its batch nor on the specs of the other
    rows. Density rows are refused above MAX_DENSITY_QUBITS qubits. A tape
    list, given with density rows, takes the input of each group's adjoint in
    _expectation_gradients: (rho, U) before a rotation group, (blocks, runs)
    at a fixed group. A NaN or infinite angle is refused. m = 0 gives no rows.
    """
    params = _require_finite(params)
    if params.ndim != 2 or params.shape[1] != circuit.n_params:
        raise ValueError(f"expected shape (m, {circuit.n_params}), got {params.shape}")
    _check_width(circuit, noise)
    m, n_params = params.shape
    dim = 2 ** circuit.n_qubits
    cos, sin = np.cos(0.5 * params), np.sin(0.5 * params)
    if noise is None:
        # one basis index per row of state, the batch innermost
        cos, sin = cos.T.copy(), sin.T.copy()
        state = np.zeros((dim, m))
        state[0] = 1.0
        for ops, perm in circuit._groups:
            if perm is None:
                for p, _, partner, sign in ops:
                    flip = state[partner]
                    flip *= sign[:, None] * sin[p]
                    state *= cos[p]
                    state += flip
            else:
                state = state[perm]
        return np.ascontiguousarray(state.T)
    if circuit.n_qubits > MAX_DENSITY_QUBITS:
        raise ValueError(f"noisy circuits run on at most {MAX_DENSITY_QUBITS} qubits, "
                         f"circuit has {circuit.n_qubits}")
    # each row's (c, -s, s, c) for every slot, and the identity in the extra slot n_params
    table = np.empty((m, n_params + 1, 2, 2))
    table[:, :n_params, 0, 0] = table[:, :n_params, 1, 1] = cos
    table[:, :n_params, 1, 0] = sin
    table[:, :n_params, 0, 1] = -sin
    table[:, n_params] = np.eye(2)
    table = table.reshape(m, 4 * (n_params + 1))
    stacks, runs = _row_blocks(circuit, noise)
    blocks = iter(stacks)
    rho = np.zeros((m, dim, dim))
    rho[:, 0, 0] = 1.0
    for (_, perm), plan in zip(circuit._groups, circuit._density_plan):
        if perm is None:
            f = table[:, plan[0]]
            u = f[:, 0]
            for q in range(1, circuit.n_qubits):
                u = u * f[:, q]  # the Kronecker product of the rotations, qubit 0 first
            if tape is not None:
                tape.append((rho, u))
            rho = u @ rho @ u.transpose(0, 2, 1)
        else:
            blk = next(blocks)
            if tape is not None:
                tape.append((blk, runs))
            rho = _fixed(rho, plan[0], blk, plan[1], runs)  # plan: src, back, back_inv, src_inv
    return rho


def _fixed(rho: np.ndarray, src: np.ndarray, blk: "np.ndarray | tuple", back: np.ndarray,
           runs: list | None) -> np.ndarray:
    """One fixed group on (m, dim, dim) rows: gather by src, one block product
    per coherence pattern, gather back. blk and runs take _row_blocks' two forms:
    one spec's (dim, dim, dim) blocks for every row and None, or a _ByRow's
    per-spec blocks and its runs (lo, hi, k), each one product with blk[k]."""
    m, size = len(rho), rho.shape[-1] ** 2
    flat = rho.reshape(m, size)[:, src, None]
    out = blk @ flat if runs is None else np.concatenate([flat[:0], *(blk[k] @ flat[lo:hi] for lo, hi, k in runs)])
    return out.reshape(m, size)[:, back]


def _expectation_gradients(circuit: Circuit, params: np.ndarray, noise: "NoiseSpec | _ByRow",
                           obs: "np.ndarray | _ByRow") -> tuple[np.ndarray, np.ndarray]:
    """Tr[Re(obs) rho], shape (m,), and its gradient, shape (m, n_params),
    for the density output of every row of an (m, n_params) array.

    The forward pass is _simulate's, whose tape holds each group's input;
    _reduce takes the value from its final rho, with _expectations' bits.
    lambda = Re(obs) then walks the groups and Circuit._density_plan in
    reverse, popping the tape: back through a fixed group's blocks, each
    transposed as a view, and inverse gathers, and through a rotation group
    as lambda <- U^T lambda U.
    With dU/dtheta = U K_q, K_q = [[0, -1], [1, 0]] / 2 on the Ry's qubit q,
    dC/dtheta = Tr[2 K_q rho lambda'], lambda' the updated lambda. Rows run in
    _expectations' chunks (_chunks), so a row has the same bits in any batch
    (m = 0 too). noise and obs may each be one per row (_ByRow), each row's bits.
    """
    params = np.asarray(params, dtype=float)
    if noise is None:
        raise ValueError("adjoint gradients run density rows: pass a NoiseSpec")
    vals, out = np.empty(len(params)), np.empty(params.shape)
    for sl, chunk, row_noise, row_obs in _chunks(circuit, params, noise, obs):
        tape: list = []
        vals[sl] = _reduce(_simulate(circuit, chunk, row_noise, tape), row_obs)
        lam = (np.real(row_obs.stack)[row_obs.index] if isinstance(row_obs, _ByRow)
               else np.repeat(np.real(row_obs)[None], len(chunk), axis=0))
        for (_, perm), plan in zip(reversed(circuit._groups), reversed(circuit._density_plan)):
            if perm is None:
                rho, u = tape.pop()
                lam = u.transpose(0, 2, 1) @ lam @ u
                _, slots, entries, signs = plan
                # the gather leaves rows innermost; the C-ordered copy fixes each row's order
                prod = np.ascontiguousarray((rho @ lam).reshape(len(chunk), lam.shape[-1] ** 2)[:, entries])
                out[sl, slots] = np.einsum("mki,ki->mk", prod, signs)
            else:
                blk, runs = tape.pop()  # each block transposed, between back_inv and src_inv
                lam = _fixed(lam, plan[2], blk.mT if runs is None else tuple(b.mT for b in blk), plan[3], runs)
    return vals, out


def _cx_perm(n_qubits: int, op: Cx) -> np.ndarray:
    """The basis gather of one CX: state[..., perm] applies it."""
    idx = np.arange(2 ** n_qubits)
    cbit = (idx >> (n_qubits - 1 - op.control)) & 1
    return np.where(cbit == 1, idx ^ (1 << (n_qubits - 1 - op.target)), idx)


def _spec_blocks(circuit: Circuit, spec: NoiseSpec) -> tuple[np.ndarray, ...]:
    """The blocks of each fixed group under spec, one (dim, dim, dim) array
    per group.

    Every channel keeps the coherence pattern y = i ^ j of an entry rho[i, j],
    and a CX maps patterns linearly: output pattern y is fed by input pattern
    perm[y] alone. So a fixed group's map splits into one dim x dim block per
    pattern, all read off one (dim, dim, dim) compose (_pattern_blocks).
    blocks[y] maps the entries (k, k ^ perm[y]), which the group's src
    gathers (Circuit._density_plan), to the entries (i, i ^ y). Identical
    groups are composed once and share one array. A spec's blocks are
    composed on its first use and kept in Circuit._blocks, so a circuit
    composes each spec once.
    """
    blocks = circuit._blocks.get(spec)
    if blocks is None:
        fixed = [ops for ops, perm in circuit._groups if perm is not None]
        composed = {ops: _pattern_blocks(circuit.n_qubits, ops, spec.channel.kind, spec._gammas)
                    for ops in dict.fromkeys(fixed)}
        blocks = circuit._blocks[spec] = tuple(composed[ops] for ops in fixed)
    return blocks


class _ByRow:
    """A per-row choice for the rows of one kernel call: row r takes entry
    index[r] of stack. As the noise of density rows, stack is a tuple of
    NoiseSpecs, and row r runs under spec index[r]; as an observable, it is
    an (n_obs, dim, dim) array of real matrices, and row r is reduced against
    matrix index[r]. An empty stack, which no row could choose from, is refused."""

    def __init__(self, stack, index: np.ndarray):
        if not len(stack):
            raise ValueError("a per-row choice needs at least one entry to choose from")
        self.stack, self.index = stack, index


def _row_blocks(circuit: Circuit, noise: "NoiseSpec | _ByRow") -> tuple[tuple, list | None]:
    """Each fixed group's blocks for density rows (_spec_blocks), with the
    row runs _fixed reads them by, found once per call. A spec gives its
    blocks and None; a _ByRow gives each group's per-spec blocks, in its
    spec order, and each run (lo, hi, k) of rows under spec k, one run or
    many, none for no rows."""
    if not isinstance(noise, _ByRow):
        return _spec_blocks(circuit, noise), None
    index = noise.index
    cut = [0, *(np.flatnonzero(index[1:] != index[:-1]) + 1).tolist(), len(index)]
    runs = [(lo, hi, index[lo]) for lo, hi in zip(cut, cut[1:]) if lo < hi]  # lo == hi only for no rows
    return tuple(zip(*(_spec_blocks(circuit, spec) for spec in noise.stack))), runs


def _pattern_blocks(n_qubits: int, ops: tuple, kind: str, gammas) -> np.ndarray:
    """blocks[y, i, k]: the coefficient of rho[k, k ^ x] in the entry (i, i ^ y)
    after ops, x the input pattern feeding y. The ops run, gathers and
    _apply_noise alike, on the stack t[k] = |k><all|: every op keeps coherence
    patterns apart, so entry (i, i ^ y) of t[k] is fed by the input entry
    (k, k ^ x) alone."""
    idx = np.arange(2 ** n_qubits)
    t = np.zeros((idx.size,) * 3)
    t[idx, idx] = 1.0
    for op in ops:
        if isinstance(op, Cx):
            perm = _cx_perm(n_qubits, op)
            t = t[:, perm][:, :, perm]
        else:
            t = _apply_noise(t, kind, gammas)
    return np.ascontiguousarray(t[:, idx, idx ^ idx[:, None]].transpose(1, 2, 0))


def _require_finite(params, name: str = "params") -> np.ndarray:
    """params as a float array, refusing a NaN or an infinity."""
    params = np.asarray(params, dtype=float)
    if not np.isfinite(params).all():
        raise ValueError(f"{name} must be finite")
    return params


def _check_width(circuit: Circuit, noise: "NoiseSpec | _ByRow | None") -> None:
    """Refuse a spec of the wrong width, trivial or not, one spec or per-row specs."""
    for spec in noise.stack if isinstance(noise, _ByRow) else () if noise is None else (noise,):
        if spec.n_qubits != circuit.n_qubits:
            raise ValueError(f"noise spec covers {spec.n_qubits} qubits, circuit has {circuit.n_qubits}")


def _row_noise(circuit: Circuit, noise: "NoiseSpec | _ByRow | None") -> "NoiseSpec | _ByRow | None":
    """The spec to run rows under: None (statevector rows) for no noise or
    strength zero. Per-row specs (_ByRow) run density rows."""
    _check_width(circuit, noise)
    return None if noise is None or isinstance(noise, NoiseSpec) and noise.is_trivial else noise


def _expectations(circuit: Circuit, params: np.ndarray, noise: "NoiseSpec | _ByRow | None",
                  obs: "np.ndarray | _ByRow") -> np.ndarray:
    """Tr[Re(obs) rho] for the output state rho of every row of an (m, n_params) array.

    Circuit outputs are real symmetric and Im(obs) is antisymmetric, so Re(obs)
    gives the exact trace. None or a zero-strength spec runs the statevector
    path. Rows run in memory-bounded chunks (_chunks) and each is reduced in
    a fixed order, so a row's value is the same bits in any batch, and m = 0
    is a batch too. noise and obs may each be one per row (_ByRow), each row's bits.
    """
    params = np.asarray(params, dtype=float)
    out = np.empty(len(params))
    for sl, chunk, row_noise, row_obs in _chunks(circuit, params, _row_noise(circuit, noise), obs):
        out[sl] = _reduce(_simulate(circuit, chunk, row_noise), row_obs)
    return out


def _chunks(circuit: Circuit, params: np.ndarray, noise: "NoiseSpec | _ByRow | None", obs):
    """(rows, params, noise, obs) per chunk of at most _CHUNK_FLOATS state floats and one row or more,
    rows a slice and a _ByRow taken to them; m = 0 is one empty chunk, checked and run like any other."""
    rows = max(1, _CHUNK_FLOATS // 2 ** (circuit.n_qubits * (1 if noise is None else 2)))
    for start in range(0, len(params) or 1, rows):
        sl = slice(start, start + rows)
        yield sl, params[sl], *(_ByRow(a.stack, a.index[sl]) if isinstance(a, _ByRow) else a for a in (noise, obs))


def _reduce(state: np.ndarray, obs: "np.ndarray | _ByRow") -> np.ndarray:
    """Tr[Re(obs) rho] for each output row of one _simulate call, statevectors
    (m, 2^n) or density matrices (m, 2^n, 2^n), in a fixed order per row.
    Under a _ByRow the rows of each observable are reduced together."""
    if isinstance(obs, _ByRow):
        out = np.empty(len(state))
        for k in dict.fromkeys(obs.index.tolist()):
            rows = np.flatnonzero(obs.index == k)
            out[rows] = _reduce(state[rows], obs.stack[k])
        return out
    if state.ndim == 2:
        return np.einsum("md,dc,mc->m", state, np.real(obs), state)
    # Tr[O rho] = sum(O * rho) for symmetric O; the C-ordered copy fixes each row's order
    flat = np.ascontiguousarray(state).reshape(len(state), state.shape[-1] ** 2)
    return np.einsum("mk,k->m", flat, np.real(obs).ravel())


def _as_density_matrix(state: np.ndarray) -> DensityMatrix:
    """The DensityMatrix of one output row of _simulate, a statevector or a density matrix."""
    if state.ndim == 1:
        psi = state.astype(complex)
        return DensityMatrix(np.outer(psi, psi.conj()))
    return DensityMatrix(0.5 * (state + state.T))


def evaluate_pure(circuit: Circuit, params: np.ndarray) -> np.ndarray:
    """Statevector after the circuit (noise marks ignored), length 2^n."""
    return _simulate(circuit, np.asarray(params, dtype=float)[None])[0].astype(complex)


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
    noise = _row_noise(circuit, noise)
    return _as_density_matrix(_simulate(circuit, np.asarray(params, dtype=float)[None], noise)[0])


def circuit_to_dict(circuit: Circuit) -> dict:
    """{"n_qubits": n, "ops": [...]}, each op {"ry": {"p", "q"}}, {"cx": {"c", "t"}} or "noise"."""
    ops = []
    for op in circuit.ops:
        if isinstance(op, Ry):
            ops.append({"ry": {"p": op.param_index, "q": op.qubit}})
        elif isinstance(op, Cx):
            ops.append({"cx": {"c": op.control, "t": op.target}})
        else:
            ops.append("noise")
    return {"n_qubits": circuit.n_qubits, "ops": ops}


def circuit_from_dict(d: dict) -> Circuit:
    """The circuit circuit_to_dict wrote; every malformed input raises ValueError.
    An "n_params" key, which older files hold, is ignored: the ops fix it."""
    try:
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
        return Circuit(d["n_qubits"], tuple(ops))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit: {exc!r}") from exc


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), separators=(",", ":"))


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))
