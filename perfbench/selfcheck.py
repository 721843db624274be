"""Check the benchmark's inputs and reference against nvqa, once per commit.

    python3 perfbench/selfcheck.py

1. The Haar targets the benchmark draws with numpy alone equal
   nvqa.randstates.sample_real_haar_state's output on the criterion-6
   stream, RngStream(11, 0), bit for bit.
2. The reference circuit layout equals nvqa's build_hea, and the dense
   kron/Kraus reference agrees with nvqa's evaluators to 1e-12 at random
   angles, noiseless and under each channel kind.

Exits 1 on the first mismatch. The benchmark itself does not depend on this
check passing: its inputs never come from nvqa.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nvqa.channels import NoiseSpec  # noqa: E402
from nvqa.circuits import Cx, Ry, build_hea, evaluate, evaluate_pure  # noqa: E402
from nvqa.randstates import RngStream, sample_real_haar_state  # noqa: E402

import oracle  # noqa: E402

TOL = 1e-12


def main() -> int:
    ours = oracle.haar_real_vectors(oracle.seeded_generator(11, 0), 100)
    gen = RngStream(11, 0).generator()
    for i, v in enumerate(ours):
        vc = v.astype(complex)
        if not np.array_equal(sample_real_haar_state(4, gen).data, np.outer(vc, vc.conj())):
            print(f"FAIL Haar target {i} differs from nvqa.randstates")
            return 1
    print("PASS 100 criterion-6 Haar targets equal nvqa.randstates bit for bit")

    rng = np.random.default_rng(0)
    for layers in (2, 4, 6):
        circuit = build_hea(layers)
        layout = [("ry", op.param_index, op.qubit) if isinstance(op, Ry)
                  else ("cx", op.control, op.target) if isinstance(op, Cx) else ("noise",)
                  for op in circuit.ops]
        ops = oracle.hea_ops(layers)
        if layout != ops:
            print(f"FAIL reference layout differs from build_hea({layers})")
            return 1
        theta = rng.uniform(0.0, 2.0 * np.pi, circuit.n_params)
        worst = np.abs(oracle.statevector(ops, theta) - evaluate_pure(circuit, theta)).max()
        for kind in ("phase", "amplitude", "depolarising"):
            gamma = rng.uniform(0.0, 0.3)
            rho = evaluate(circuit, theta, NoiseSpec.uniform(kind, gamma, 4)).data
            worst = max(worst, np.abs(oracle.density(ops, theta, kind, gamma) - rho).max())
        if worst > TOL:
            print(f"FAIL reference differs from nvqa at L={layers} by {worst:.1e}")
            return 1
        print(f"PASS reference matches nvqa at L={layers}: max |difference| {worst:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
