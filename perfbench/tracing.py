"""Spans around nvqa's public functions, for the benchmark's traced run.

Tracer rebinds each traced name in every nvqa module that holds it, so a
call from inside the package is recorded as well as one from the benchmark.
Private callees (_evaluate_raw, _evaluate_raw_batch, _contract, ...) stay
inside their caller's span. Spans are kept in memory as
[name, start, end, parent index, run id, note] and written out by the caller.
A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

from nvqa import circuits, degen, harness, measures, noisemodel, optimize, randstates


def _bfgs_note(args, kwargs, out):
    opts = kwargs.get("opts", args[2] if len(args) > 2 else None) or optimize.MinimizeOptions()
    return out.iterations, int(out.iterations >= opts.max_iters)


def _multistart_note(args, kwargs, out):
    return kwargs.get("n_starts", args[1] if len(args) > 1 else 0), len(out)


# (owner, attribute, span name, note(args, kwargs, result) -> recorded value)
TARGETS = (
    (optimize, "minimize", "optimize.bfgs", _bfgs_note),
    (optimize.CostFn, "value", "optimize.value", None),
    (optimize.CostFn, "values", "optimize.batch", lambda a, k, out: len(out)),
    (optimize, "gradient", "optimize.gradient", None),
    (optimize, "multistart", "optimize.multistart", _multistart_note),
    (optimize, "reoptimize_from", "optimize.reopt", None),
    (optimize.CostFn, "quality", "optimize.quality", None),
    (harness, "optimize_to_target", "harness.fit", None),
    (harness, "run_experiment", "harness.run", None),
    (harness.ResultRecord, "write", "harness.write", lambda a, k, out: Path(out[0]).stat().st_size),
    (circuits, "evaluate", "circuits.evaluate", None),
    (circuits, "evaluate_pure", "circuits.pure", None),
    (measures, "concurrence", "measures.concurrence", None),
    (measures, "fidelity", "measures.fidelity", None),
    (degen, "generate_degeneracy_maps", "degen.maps", lambda a, k, out: len(out)),
    (degen, "degeneracy_split", "degen.split", lambda a, k, out: len(out)),
    (noisemodel, "estimate_alpha_beta", "noisemodel.estimate", lambda a, k, out: out.n_samples),
    (noisemodel, "linear_action_overlap_derivative", "noisemodel.derivative", None),
    (randstates, "sample_real_haar_state", "randstates.sample", None),
)

# counts that must repeat exactly between two traced passes of one input
DETERMINISTIC = ("optimize.value_calls", "optimize.batch_rows", "optimize.bfgs_iters",
                 "degen.maps", "noisemodel.samples")


class Tracer:
    """Context manager that installs the spans on entry and removes them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        holders = [m for n, m in sys.modules.items() if n == "nvqa" or n.startswith("nvqa.")]
        for owner, attr, name, note in TARGETS:
            orig = vars(owner)[attr]
            traced = self._wrap(name, orig, note)
            for holder in [owner] + holders:
                if vars(holder).get(attr) is orig:
                    self._patches.append((holder, attr, orig))
                    setattr(holder, attr, traced)
        return self

    def __exit__(self, *exc):
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()
        return False


def layer_metrics(spans: list[list], run: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer that did not run reads 0."""
    child = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    notes = defaultdict(list)
    starts_in_fit = 0
    for i, s in enumerate(spans):
        if s[4] != run:
            continue
        name = s[0]
        calls[name] += 1
        incl_s[name] += s[2] - s[1]
        self_s[name] += s[2] - s[1] - child[i]
        if s[5] is not None:
            notes[name].append(s[5])
        if name == "optimize.bfgs" and s[3] >= 0 and spans[s[3]][0] == "harness.fit":
            starts_in_fit += 1

    def ratio(a, b):
        return a / b if b else 0.0

    bfgs_iters = sum(n[0] for n in notes["optimize.bfgs"])
    batch_rows = sum(notes["optimize.batch"])
    ms_starts = sum(n[0] for n in notes["optimize.multistart"])
    ms_found = sum(n[1] for n in notes["optimize.multistart"])
    split_maps = sum(notes["degen.split"])
    samples = sum(notes["noisemodel.estimate"])
    return {
        "optimize.bfgs_runs": calls["optimize.bfgs"],
        "optimize.bfgs_iters": bfgs_iters,
        "optimize.bfgs_maxiter_runs": sum(n[1] for n in notes["optimize.bfgs"]),
        "optimize.value_calls": calls["optimize.value"],
        "optimize.evals_per_iter": ratio(calls["optimize.value"], bfgs_iters),
        "optimize.value_s": self_s["optimize.value"],
        "optimize.batch_calls": calls["optimize.batch"],
        "optimize.batch_rows": batch_rows,
        "optimize.batch_s": self_s["optimize.batch"],
        "optimize.row_us": 1e6 * ratio(self_s["optimize.batch"], batch_rows),
        "optimize.gradient_calls": calls["optimize.gradient"],
        "optimize.gradient_s": self_s["optimize.gradient"],
        "optimize.bfgs_self_s": self_s["optimize.bfgs"],
        "optimize.multistart_calls": calls["optimize.multistart"],
        "optimize.distinct_frac": ratio(ms_found, ms_starts),
        "optimize.multistart_self_s": self_s["optimize.multistart"],
        "optimize.reopt_calls": calls["optimize.reopt"],
        "optimize.reopt_s": self_s["optimize.reopt"],
        "optimize.quality_calls": calls["optimize.quality"],
        "optimize.quality_s": self_s["optimize.quality"],
        "harness.fit_calls": calls["harness.fit"],
        "harness.fit_starts_per_target": ratio(starts_in_fit, calls["harness.fit"]),
        "harness.fit_s": self_s["harness.fit"],
        "harness.run_s": self_s["harness.run"],
        "harness.write_s": self_s["harness.write"],
        "harness.csv_bytes": sum(notes["harness.write"]),
        "circuits.evaluate_calls": calls["circuits.evaluate"],
        "circuits.evaluate_s": self_s["circuits.evaluate"],
        "circuits.pure_calls": calls["circuits.pure"],
        "circuits.pure_s": self_s["circuits.pure"],
        "measures.concurrence_calls": calls["measures.concurrence"],
        "measures.concurrence_s": self_s["measures.concurrence"],
        "measures.fidelity_calls": calls["measures.fidelity"],
        "measures.fidelity_s": self_s["measures.fidelity"],
        "degen.maps": sum(notes["degen.maps"]),
        "degen.maps_s": self_s["degen.maps"],
        "degen.split_s": self_s["degen.split"],
        "degen.split_us_per_map": 1e6 * ratio(self_s["degen.split"], split_maps),
        "noisemodel.samples": samples,
        "noisemodel.estimate_s": self_s["noisemodel.estimate"],
        "noisemodel.derivative_s": self_s["noisemodel.derivative"],
        "noisemodel.us_per_sample": 1e6 * ratio(incl_s["noisemodel.estimate"], samples),
        "randstates.samples": calls["randstates.sample"],
        "randstates.sample_s": self_s["randstates.sample"],
    }
