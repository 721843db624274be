"""Benchmark inputs and the dense reference that checks nvqa's outputs.

Everything here uses numpy alone, so a change to nvqa can change neither the
inputs a workload receives nor the numbers its outputs are checked against.
The reference is deliberately naive: every gate is a full 2^n x 2^n matrix
built with kron, and every noise point is an explicit Kraus sum on each
qubit in turn. Qubit 0 is the most significant bit of the basis index, as in
nvqa.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

N_QUBITS = 4
DIM = 2 ** N_QUBITS

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1j], [1j, 0.0]])
_Z = np.diag([1.0, -1.0])


def seeded_generator(seed: int, stream: int) -> np.random.Generator:
    """The generator nvqa.randstates.RngStream(seed, stream) hands out."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def haar_real_vectors(gen: np.random.Generator, count: int, dim: int = DIM) -> list[np.ndarray]:
    """Real Haar unit vectors: first column of a sign-fixed QR of a normal matrix."""
    out = []
    for _ in range(count):
        q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
        d = np.diag(r).copy()
        d[d == 0.0] = 1.0
        out.append((q * np.sign(d))[:, 0])
    return out


def hea_ops(layers: int) -> list[tuple]:
    """The 4-qubit hardware-efficient ansatz as ("ry", param, qubit),
    ("cx", control, target) and ("noise",) entries."""
    ops: list[tuple] = []
    for layer in range(layers):
        ops += [("ry", 4 * layer + q, q) for q in range(4)]
        ops += [("cx", 0, 1), ("cx", 2, 3), ("noise",), ("cx", 1, 2), ("noise",)]
    return ops


def _on_qubit(m: np.ndarray, qubit: int, n: int = N_QUBITS) -> np.ndarray:
    return reduce(np.kron, [m if q == qubit else _I2 for q in range(n)])


def _ry(theta: float, qubit: int) -> np.ndarray:
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return _on_qubit(np.array([[c, -s], [s, c]]), qubit)


def _cx(control: int, target: int, n: int = N_QUBITS) -> np.ndarray:
    idx = np.arange(2 ** n)
    flip = (idx >> (n - 1 - control)) & 1
    perm = np.where(flip == 1, idx ^ (1 << (n - 1 - target)), idx)
    m = np.zeros((2 ** n, 2 ** n))
    m[perm, idx] = 1.0
    return m


def kraus(kind: str, gamma: float) -> list[np.ndarray]:
    """Single-qubit Kraus operators of the three channel kinds."""
    s = np.sqrt(1.0 - gamma)
    if kind == "phase":
        return [np.diag([1.0, s]), np.diag([0.0, np.sqrt(gamma)])]
    if kind == "amplitude":
        return [np.diag([1.0, s]), np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])]
    if kind == "depolarising":
        return [np.sqrt(1.0 - 0.75 * gamma) * _I2] + [np.sqrt(0.25 * gamma) * p for p in (_X, _Y, _Z)]
    raise ValueError(f"unknown channel kind {kind!r}")


def statevector(ops: list[tuple], theta: np.ndarray) -> np.ndarray:
    """Noiseless output state; noise points are skipped."""
    psi = np.zeros(DIM)
    psi[0] = 1.0
    for op in ops:
        if op[0] == "ry":
            psi = _ry(theta[op[1]], op[2]) @ psi
        elif op[0] == "cx":
            psi = _cx(op[1], op[2]) @ psi
    return psi


def density(ops: list[tuple], theta: np.ndarray, kind: str, gamma: float) -> np.ndarray:
    """Output density matrix with the channel on every qubit at each noise point."""
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[0, 0] = 1.0
    full = [[_on_qubit(e, q) for e in kraus(kind, gamma)] for q in range(N_QUBITS)]
    for op in ops:
        if op[0] == "noise":
            for ks in full:
                rho = sum(e @ rho @ e.conj().T for e in ks)
        else:
            u = _ry(theta[op[1]], op[2]) if op[0] == "ry" else _cx(op[1], op[2])
            rho = u @ rho @ u.T
    return rho


def infidelity(target: np.ndarray, ops: list[tuple], theta: np.ndarray,
               kind: str | None = None, gamma: float = 0.0) -> float:
    """1 - <t|rho|t> for a real unit target vector t."""
    if kind is None:
        return float(1.0 - np.dot(target, statevector(ops, theta)) ** 2)
    return float(1.0 - (target @ density(ops, theta, kind, gamma) @ target).real)


def degenerate_image(signs, shifts, theta: np.ndarray) -> np.ndarray:
    """theta -> signs * theta + pi * shifts, reduced to [0, 2 pi)."""
    return np.mod(np.asarray(signs) * theta + np.pi * np.asarray(shifts), 2.0 * np.pi)
