"""nvqa benchmark runner.

    python3 perfbench/run.py --workload fit_noiseless --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; nvqa is imported from src/. One
process, one BLAS thread, closed loop: the workload's study runs as one pass,
and passes repeat (at least two) until --seconds have elapsed. With
--trace 0 the end-to-end metrics are reported. wall_s is the median pass
time. setup_s is the median time of `import nvqa` in a fresh interpreter
plus the median of seven in-process input and cost constructions. The
import is probed twice before, between and after the passes, because the
host's speed changes from second to second and a burst of probes at the
start would sample a different stretch of it than the passes do. With
--trace 1 untraced and traced passes alternate, two of each; the per-layer
metrics come from the traced passes, and trace.overhead_s is the median of
traced minus untraced wall time over adjacent pairs. Every pass is checked against the dense
reference in oracle.py. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Run records and
spans are written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported anywhere in this process

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
PROBES_PER_GAP = 2
MIN_PASSES = 2
TRACED_PASSES = 2
IMPORT_PROBE = ("import time, numpy\n"
                "t = time.perf_counter()\n"
                "import nvqa\n"
                "print(time.perf_counter() - t)\n")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "solved_frac": "ratio",
         "fail_frac": "ratio"}


def _layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off the end of its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if "us" in last.split("_"):
        return "us"
    if last.endswith(("_frac", "_per_iter", "_per_target")):
        return "ratio"
    if last.endswith("_bytes"):
        return "B"
    return "count"


def import_seconds() -> float:
    """Time of `import nvqa` in a fresh interpreter that has numpy loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def run_record(workload: str, seed: int, np) -> dict:
    """Machine, toolchain and source facts the measurement was taken under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unknown: {exc}"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "nvqa").glob("*.py")),
    }


def run_pass(work, inputs, workdir: Path):
    """One timed pass of the study, then its correctness check (untimed)."""
    t0, c0 = time.perf_counter(), time.process_time()
    outputs = work.run(inputs, workdir)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, work.check(inputs, outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nvqa" / "__init__.py").is_file():
        print(f"error: no nvqa sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import tracing
    import workloads

    work = workloads.WORKLOADS.get(args.workload)
    if work is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = run_record(args.workload, args.seed, np)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = work.setup(args.seed)
        builds.append(time.perf_counter() - t0)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    items, walls, cpus, imports = [], [], [], []
    try:
        if args.trace == 0:
            start = time.perf_counter()
            while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                imports += [import_seconds() for _ in range(PROBES_PER_GAP)]
                wall, cpu, checked = run_pass(work, inputs, workdir)
                walls.append(wall)
                cpus.append(cpu)
                items += checked
            imports += [import_seconds() for _ in range(PROBES_PER_GAP)]
            repeat_ok = True
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(imports) + statistics.median(builds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "solved_frac": sum(i.solved for i in items) / len(items),
            }
            fail_frac = sum(not i.ok for i in items) / len(items)
            shown = dict(metrics, fail_frac=fail_frac)
            units = UNITS
        else:
            traced_walls, per_pass = [], []
            tracer = tracing.Tracer()
            for run in range(1, TRACED_PASSES + 1):
                wall, cpu, checked = run_pass(work, inputs, workdir)
                walls.append(wall)
                cpus.append(cpu)
                items += checked
                tracer.run = run
                with tracer:
                    t_wall, _, checked = run_pass(work, inputs, workdir)
                traced_walls.append(t_wall)
                items += checked
                per_pass.append(tracing.layer_metrics(tracer.spans, run))
            repeat_ok = all(p[k] == per_pass[0][k] for p in per_pass for k in tracing.DETERMINISTIC)
            metrics = {k: (per_pass[0][k] if isinstance(per_pass[0][k], int)
                           else statistics.median(p[k] for p in per_pass)) for k in per_pass[0]}
            metrics["proc.cpu_s"] = statistics.median(cpus)
            metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, walls))
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run", "note"],
                                              "spans": tracer.spans}))
            shown = metrics
            units = {k: _layer_unit(k) for k in metrics}
            record["traced_wall_s"] = traced_walls
            record["counts_repeat"] = repeat_ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not i.ok for i in items)
    record.update(pass_wall_s=walls, pass_cpu_s=cpus, setup_import_s=imports, setup_build_s=builds,
                  items=[[i.name, i.ok, i.solved, i.detail] for i in items], metrics=shown)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for key in ("nproc", "python", "numpy", "blas", "git_sha", "src_lines"):
        print(f"# {key}: {record[key]}")
    print(f"# threads: {record['threads']}")
    print(f"# untraced passes: wall {', '.join(f'{w:.3f}' for w in walls)} s")
    for i in items:
        if not i.ok:
            print(f"# FAILED {i.name}: {i.detail}")
    if not repeat_ok:
        print("# FAILED deterministic counts differ between traced passes")
    for name, value in shown.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and repeat_ok,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
