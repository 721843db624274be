"""Parameterized Ry/CX circuits with explicit noise insertion points.

A circuit is a flat list of operations: Ry rotations referencing a parameter
slot, CX gates, and NOISE markers. Every evaluation runs through one batched
kernel, _simulate, over the circuit's ops compiled once into steps. It
applies the product noise channel at every marker; with no noise it runs on a
statevector and the density matrix is only formed at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .channels import NoiseSpec, _apply_noise
from .qstate import DensityMatrix, MAX_QUBITS


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
    def _steps(self) -> tuple[tuple, ...]:
        """The ops compiled for _simulate, built on first evaluation.

        ("ry", param_index, a, b) rotates the qubit whose bit splits a basis
        index as (a, 2, b); ("cx", perm) permutes the basis; ("noise",) marks
        a noise point.
        """
        n = self.n_qubits
        idx = np.arange(2 ** n)
        steps = []
        for op in self.ops:
            if isinstance(op, Ry):
                a = 2 ** op.qubit
                steps.append(("ry", op.param_index, a, 2 ** n // (2 * a)))
            elif isinstance(op, Cx):
                cbit = (idx >> (n - 1 - op.control)) & 1
                steps.append(("cx", np.where(cbit == 1, idx ^ (1 << (n - 1 - op.target)), idx)))
            else:
                steps.append(("noise",))
        return tuple(steps)


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
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != circuit.n_params:
        raise ValueError(f"expected shape (m, {circuit.n_params}), got {params.shape}")
    m = params.shape[0]
    dim = 2 ** circuit.n_qubits
    density = noise is not None
    cols = dim if density else 1
    state = np.zeros((m, dim, dim) if density else (m, dim))
    state.reshape(m, -1)[:, 0] = 1.0
    cos = np.cos(0.5 * params)[:, :, None, None]
    sin = np.sin(0.5 * params)[:, :, None, None]
    for step in circuit._steps:
        if step[0] == "ry":
            _, p, a, b = step
            c, s = cos[:, p], sin[:, p]
            state = _rotate(state, c, s, a, b * cols)  # rows, or a statevector's only axis
            if density:
                state = _rotate(state, c, s, dim * a, b)
        elif step[0] == "cx":
            state = state[..., step[1]]
            if density:
                state = state[:, step[1]]
        elif density:
            state = _apply_noise(state, noise.channel.kind, noise._gammas)
    return state


def _rotate(state: np.ndarray, c: np.ndarray, s: np.ndarray, outer: int, inner: int) -> np.ndarray:
    """Ry on the axis of length 2 when each row of state is viewed as (outer, 2, inner)."""
    t = state.reshape(len(c), outer, 2, inner)
    x0, x1 = t[:, :, 0], t[:, :, 1]
    out = np.empty_like(t)
    out[:, :, 0] = c * x0 - s * x1
    out[:, :, 1] = s * x0 + c * x1
    return out.reshape(state.shape)


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
    if noise is not None and noise.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"noise spec covers {noise.n_qubits} qubits, circuit has {circuit.n_qubits}"
        )
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
