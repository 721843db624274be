"""Experiment harness: canned studies, deterministic CSV output, resume.

Every experiment takes one ExperimentConfig, which holds only the study's
inputs, and runs deterministically from its seed. Its study runner returns
the CSV columns and rows; run_experiment alone times the runner and builds
the ResultRecord. That writes, to the out_dir given (default results/), the
CSV of plain rows plus a JSON sidecar holding the config (a valid `nvqa run
--config` file), its hash, the package version, the row count, the
wall-clock time and the CSV's sha256. Reruns with an unchanged config are
skipped unless forced or the CSV no longer matches its recorded hash; the
CSV bytes for a given config are reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channels import CHANNEL_KINDS, NoiseSpec, _as_strength, _require_kind, make_channel
from .circuits import (
    Circuit,
    build_2q_circuit,
    build_4q_vqe,
    build_hea,
    build_valley_demo,
    _expectations,
)
from .degen import generate_degeneracy_maps, degeneracy_split
from .noisemodel import estimate_alpha_beta
from .optimize import (
    MinimizeOptions,
    OptResult,
    energy_cost,
    infidelity_cost,
    minimize,
    reoptimize_from,
    _minimize_rows,
    _sweeps,
)
from .pauli import PauliSum, vqe_hamiltonian_2q, vqe_hamiltonian_4q
from .qstate import _as_int, _require_ints
from .randstates import RngStream, _child_seed, sample_real_haar_state


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    kinds: tuple[str, ...] = CHANNEL_KINDS
    gamma_grid: tuple[float, ...] = ()
    layers: tuple[int, ...] = (4,)
    variants: tuple[str, ...] = ("a", "b", "c")
    n_targets: int = 100
    n_samples: int = 10000
    seed: int = 7
    n_starts_2q: int = 100
    n_starts_4q: int = 300
    mode: str = "restart"

    def __post_init__(self):
        _require_ints(self, "seed", "n_starts_2q", "n_starts_4q", "n_targets", "n_samples")
        for name in ("kinds", "variants", "layers", "gamma_grid"):
            grid = getattr(self, name)
            if isinstance(grid, str):  # would be split into its characters
                raise ValueError(f"{name} must be a list, got the string {grid!r}")
            object.__setattr__(self, name, tuple(grid))  # so the checks below drain no iterator
        object.__setattr__(self, "layers", tuple(_as_int(l, "layers") for l in self.layers))
        object.__setattr__(self, "gamma_grid", tuple(_as_strength(g, "gamma_grid") for g in self.gamma_grid))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}"
            )
        for k in self.kinds:
            _require_kind(k)
        if self.mode not in ("track", "restart"):
            raise ValueError(f"mode must be 'track' or 'restart', got {self.mode!r}")
        if self.n_targets < 1 or self.n_samples < 2:
            raise ValueError("n_targets must be >= 1 and n_samples >= 2")
        if self.n_starts_2q < 1 or self.n_starts_4q < 1:
            raise ValueError("n_starts_2q and n_starts_4q must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (self.kinds and self.layers and self.variants):
            raise ValueError("kinds, layers and variants must not be empty")
        if min(self.layers) < 1:
            raise ValueError("layer counts must be >= 1")
        for v in self.variants:
            build_2q_circuit(v)  # raises on an unknown variant
        if not self.gamma_grid and self.experiment != "alpha_beta_table":
            raise ValueError(f"{self.experiment} needs a non-empty gamma_grid")
        for name in EXPERIMENTS[self.experiment].get("single", ()):  # more would go unread
            if len(getattr(self, name)) != 1:
                raise ValueError(f"{self.experiment} runs one entry of {name}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """The registry defaults for an experiment, with keyword overrides."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; known: {sorted(EXPERIMENTS)}")
    base = dict(EXPERIMENTS[experiment]["defaults"])
    base.update(overrides)
    return ExperimentConfig(experiment=experiment, **base)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@dataclass
class ResultRecord:
    """A study's CSV columns and rows, timed, and the config (naming the files) that made them."""

    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[tuple]
    elapsed_seconds: float

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match columns")
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def sidecar(self) -> dict:
        return {
            "experiment": self.config.experiment,
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash(),
            "version": __version__,
            "n_rows": len(self.rows),
            "elapsed_seconds": self.elapsed_seconds,
            "csv_sha256": hashlib.sha256(self.csv_text().encode()).hexdigest(),
        }

    def write(self, out_dir: str | Path | None = None) -> tuple[Path, Path]:
        """Write the CSV, then the sidecar, each through a temp file and a rename."""
        csv_path, json_path = _output_paths(self.config, out_dir)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        _replace_file(csv_path, self.csv_text())
        _replace_file(json_path, json.dumps(self.sidecar(), indent=2, sort_keys=True) + "\n")
        return csv_path, json_path


def _output_paths(config: ExperimentConfig, out_dir: str | Path | None) -> tuple[Path, Path]:
    """CSV and sidecar paths of an experiment in out_dir (default results/)."""
    out = Path("results" if out_dir is None else out_dir)
    return out / f"{config.experiment}.csv", out / f"{config.experiment}.json"


def _replace_file(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode())
    os.replace(tmp, path)


def is_complete(config: ExperimentConfig, out_dir: str | Path | None = None) -> bool:
    """True when this exact config already produced output in out_dir and the
    CSV still has the sha256 recorded in the sidecar."""
    csv_path, json_path = _output_paths(config, out_dir)
    try:
        side = json.loads(json_path.read_text())
        csv_bytes = csv_path.read_bytes()
    except (OSError, json.JSONDecodeError):
        return False
    return (isinstance(side, dict)
            and side.get("config_hash") == config.config_hash()
            and side.get("csv_sha256") == hashlib.sha256(csv_bytes).hexdigest())


_Table = tuple[tuple[str, ...], list[tuple]]  # what a study runner returns: CSV columns, rows

_MINIMA_COLS = ("kind", "gamma", "minimum_index", "cost", "energy", "fidelity", "concurrence",
                "grad_norm", "converged")


def _sweep_rows(config: ExperimentConfig, prefix: tuple, circuit: Circuit, h: PauliSum,
                scales: tuple[float, ...], n_starts: int, seed_path: tuple[int, ...]) -> list[tuple]:
    """Energy minima along config.gamma_grid for one circuit under each kind of
    config.kinds, as rows prefix + _MINIMA_COLS. Kind ki sweeps from the child
    seed of seed_path + (ki,), and all kinds' sweeps share lockstep calls
    (optimize._sweeps): one for every (kind, gamma) cell in restart mode, one
    per gamma step in track mode. Rows run kind by kind, then gamma by gamma."""
    def cost_at(kind):
        return lambda g: energy_cost(circuit, h, NoiseSpec(make_channel(kind, g), scales))

    sweeps = _sweeps([cost_at(kind) for kind in config.kinds], config.gamma_grid, config.mode, n_starts,
                     [_child_seed(config.seed, *seed_path, ki) for ki in range(len(config.kinds))])
    rows = []
    for kind, per_gamma in zip(config.kinds, sweeps):
        for g, minima in zip(config.gamma_grid, per_gamma):
            for idx, r in enumerate(minima):
                q = r.quality
                rows.append(prefix + (kind, g, idx, r.cost, q.energy, q.fidelity, q.concurrence,
                                      r.grad_norm, int(r.converged)))
    return rows


def run_vqe2q(config: ExperimentConfig) -> _Table:
    """Two-qubit VQE for each ansatz variant, channel kind, and gamma."""
    h = vqe_hamiltonian_2q()
    rows = [row for vi, variant in enumerate(config.variants)
            for row in _sweep_rows(config, (variant,), build_2q_circuit(variant), h, (1.0, 1.0),
                                   config.n_starts_2q, (vi,))]
    return ("variant",) + _MINIMA_COLS, rows


def run_vqe4q(config: ExperimentConfig) -> _Table:
    """Four-qubit VQE across channel kinds and gammas."""
    return _MINIMA_COLS, _sweep_rows(config, (), build_4q_vqe(), vqe_hamiltonian_4q(), (1.0,) * 4,
                                     config.n_starts_4q, ())


def run_vqe_unequal(config: ExperimentConfig) -> _Table:
    """Two-qubit VQE with noise applied unequally to the two qubits."""
    h = vqe_hamiltonian_2q()
    circuit = build_2q_circuit("c")
    rows = [row for si, scales in enumerate(((1.0, 0.1), (0.1, 1.0)))
            for row in _sweep_rows(config, scales, circuit, h, scales, config.n_starts_2q, (si,))]
    return ("scale_q0", "scale_q1") + _MINIMA_COLS, rows


_INFIDELITY_GOAL = 1e-6
_MAX_STARTS = 30


def optimize_to_target(circuit: Circuit, target, seed: int) -> OptResult:
    """Noiseless fidelity optimization with adaptive restarts.

    Runs random starts until the best infidelity reaches 1e-6 or 30 starts
    are spent; returns the best result either way. Each start is a minimize
    run with max_iters=400 and cost_goal=1e-8: it stops early once it is two
    orders of magnitude inside the goal, which keeps fully-expressive
    circuits cheap without touching the result grid.

    The starts run in lockstep chunks of 1, 2, 4, 8, ... in start order, and
    each chunk is scanned start by start, so the result is that of the serial
    restart loop; starts after the one that reaches the goal are discarded.
    """
    cf = infidelity_cost(circuit, target)
    opts = MinimizeOptions(max_iters=400, cost_goal=_INFIDELITY_GOAL * 1e-2)
    rng = RngStream(seed, 0).generator()
    best: OptResult | None = None
    done, chunk = 0, 1
    while done < _MAX_STARTS:
        n = min(chunk, _MAX_STARTS - done)
        for cand in _minimize_rows(cf, rng.uniform(0.0, 2.0 * np.pi, (n, circuit.n_params)), opts):
            if best is None or cand.cost < best.cost:
                best = cand
            if best.cost <= _INFIDELITY_GOAL:
                return best
        done, chunk = done + n, 2 * chunk
    return best


def run_target_fidelity(config: ExperimentConfig) -> _Table:
    """Noiseless optimum per target, then noisy evaluation and reoptimization.

    For every layer count and random pure target the ansatz is first
    optimized without noise; that optimum is reused across channel kinds and
    gammas, once frozen (reopt = 0) and once reoptimized (reopt = 1).
    """
    rows = []
    for li, layers in enumerate(config.layers):
        circuit = build_hea(layers)
        for t in range(config.n_targets):
            target = sample_real_haar_state(4, RngStream(config.seed, stream_id=t))
            base = optimize_to_target(circuit, target, _child_seed(config.seed, li, t))
            residual = base.cost
            for kind in config.kinds:
                for g in config.gamma_grid:
                    cf = infidelity_cost(circuit, target, NoiseSpec.uniform(kind, g, 4))
                    non_reopt, reopt = reoptimize_from(cf, base.params)
                    for flag, r in ((0, non_reopt), (1, reopt)):
                        q = r.quality
                        rows.append((kind, layers, g, t, flag, residual, r.cost,
                                     q.fidelity, q.concurrence, int(r.converged)))
    return ("kind", "layers", "gamma", "target_index", "reopt", "residual_id",
            "infidelity", "fidelity", "concurrence", "converged"), rows


def run_degeneracy_hist(config: ExperimentConfig) -> _Table:
    """Fidelity of every degenerate optimum image under each channel kind."""
    layers = config.layers[0]
    gamma = config.gamma_grid[0]
    circuit = build_hea(layers)
    target = sample_real_haar_state(4, RngStream(config.seed, stream_id=0))
    base = optimize_to_target(circuit, target, _child_seed(config.seed, 0))
    maps = generate_degeneracy_maps(circuit)
    rows = []
    for kind in config.kinds:
        noise = NoiseSpec.uniform(kind, gamma, 4)
        fids = degeneracy_split(circuit, base.params, maps, noise, target)
        rows.extend((kind, gamma, i, f) for i, f in enumerate(fids))
    return ("kind", "gamma", "map_index", "fidelity"), rows


def _wrapped_jump(a: np.ndarray, b: np.ndarray) -> float:
    d = np.mod(a - b + np.pi, 2.0 * np.pi) - np.pi
    return float(np.abs(d).max())


def run_transition_scan(config: ExperimentConfig) -> _Table:
    """Warm-started gamma scan tracking one optimum per target.

    Records noisy and noiseless quality at the tracked optimum plus four
    indicative angles; sudden angle jumps mark the transition where the
    noisy optimum decouples from the noiseless one.
    """
    layers = config.layers[0]
    kind = config.kinds[0]
    circuit = build_hea(layers)
    rows = []
    for t in range(config.n_targets):
        target = sample_real_haar_state(4, RngStream(config.seed, stream_id=t))
        base = optimize_to_target(circuit, target, _child_seed(config.seed, t))
        prev = base
        history = []
        for g in config.gamma_grid:
            cf = infidelity_cost(circuit, target, NoiseSpec.uniform(kind, g, 4))
            res = minimize(cf, prev.params)
            clean = infidelity_cost(circuit, target).quality(res.params)
            jump = _wrapped_jump(res.params, prev.params) if history else 0.0
            history.append((g, res, clean, jump))
            prev = res
        jumps = np.array([h[3] for h in history[1:]])
        positive = jumps[jumps > 1e-12]
        cut = 10.0 * float(np.median(positive)) if positive.size else np.inf
        for g, res, clean, jump in history:
            q = res.quality
            flagged = int(jump > cut and jump > 1e-6)
            rows.append((t, kind, layers, g, q.fidelity, q.concurrence,
                         clean.fidelity, clean.concurrence,
                         res.params[0], res.params[1], res.params[2], res.params[3],
                         jump, flagged))
    return ("target_index", "kind", "layers", "gamma",
            "fidelity_noisy", "concurrence_noisy", "fidelity_clean",
            "concurrence_clean", "theta0", "theta1", "theta2", "theta3",
            "jump", "flagged"), rows


def run_alpha_beta_table(config: ExperimentConfig) -> _Table:
    """Monte Carlo alpha/beta for each channel kind on 4-qubit Haar states."""
    rows = []
    for kind in config.kinds:
        params = estimate_alpha_beta(kind, 4, config.n_samples,
                                     RngStream(config.seed, stream_id=0))
        rows.append((kind, params.n_qubits, params.n_samples, params.alpha,
                     params.beta, params.stderr_alpha, params.stderr_beta))
    return ("kind", "n_qubits", "n_samples", "alpha", "beta",
            "stderr_alpha", "stderr_beta"), rows


def run_valley_demo(config: ExperimentConfig) -> _Table:
    """Cost surface of the one-qubit two-rotation circuit on a 101^2 grid, one batch per gamma."""
    circuit = build_valley_demo()
    kind = config.kinds[0]
    grid = np.linspace(0.0, 2.0 * np.pi, 101)
    pairs = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    rows = []
    for g in config.gamma_grid:
        costs = _expectations(circuit, pairs, NoiseSpec.uniform(kind, g, 1), np.diag([1.0, 0.0]))
        rows += [(kind, g, k // 101, k % 101, t0, t1, c)
                 for k, ((t0, t1), c) in enumerate(zip(pairs, costs))]
    return ("kind", "gamma", "i", "j", "theta0", "theta1", "cost"), rows


EXPERIMENTS = {
    "vqe2q": {
        "runner": run_vqe2q,
        "help": "two-qubit VQE across ansatz variants, channels, gammas",
        "defaults": dict(gamma_grid=tuple(np.linspace(0.0, 0.5, 11)), mode="restart"),
    },
    "vqe4q": {
        "runner": run_vqe4q,
        "help": "four-qubit VQE across channels and gammas",
        "defaults": dict(gamma_grid=tuple(np.linspace(0.0, 0.2, 11)), mode="track"),
    },
    "vqe_unequal": {
        "runner": run_vqe_unequal,
        "help": "two-qubit VQE with per-qubit noise scales (1, 0.1) and (0.1, 1)",
        "defaults": dict(gamma_grid=tuple(np.linspace(0.0, 0.5, 11)), mode="restart"),
    },
    "target_fidelity": {
        "runner": run_target_fidelity,
        "help": "random-target state preparation, frozen vs reoptimized",
        "defaults": dict(gamma_grid=(1e-4, 3e-4, 1e-3, 1e-2),
                         layers=(2, 4, 6), n_targets=20),
    },
    "degeneracy_hist": {
        "runner": run_degeneracy_hist,
        "help": "fidelity histogram over all degenerate optimum images",
        "defaults": dict(gamma_grid=(0.01,), layers=(4,)),
        "single": ("layers", "gamma_grid"),
    },
    "transition_scan": {
        "runner": run_transition_scan,
        "help": "warm-started gamma scan exposing the optimum transition",
        "defaults": dict(gamma_grid=tuple(np.linspace(0.0, 0.1, 21)),
                         layers=(3,), kinds=("phase",), n_targets=4),
        "single": ("layers", "kinds"),
    },
    "alpha_beta_table": {
        "runner": run_alpha_beta_table,
        "help": "Monte Carlo alpha/beta noise-model coefficients",
        "defaults": dict(n_samples=10000),
    },
    "valley_demo": {
        "runner": run_valley_demo,
        "help": "one-qubit cost surface with and without mid-circuit noise",
        "defaults": dict(gamma_grid=(0.0, 0.4), kinds=("phase",)),
        "single": ("kinds",),
    },
}


def run_experiment(config: ExperimentConfig) -> ResultRecord:
    """Run the experiment's study, timed, and build its record from the
    columns and rows the study returns."""
    t0 = time.perf_counter()
    columns, rows = EXPERIMENTS[config.experiment]["runner"](config)
    return ResultRecord(config, columns, rows, time.perf_counter() - t0)


def run_and_write(config: ExperimentConfig, out_dir: str | Path | None = None,
                  force: bool = False):
    """Run unless the same config already completed; returns (record, paths).

    record is None when the run was skipped.
    """
    if not force and is_complete(config, out_dir):
        return None, _output_paths(config, out_dir)
    record = run_experiment(config)
    return record, record.write(out_dir)
