"""Experiment configs, runners, output files and the CLI."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvqa
from nvqa.channels import NoiseSpec
from nvqa.circuits import build_valley_demo, evaluate
from nvqa.cli import main
from nvqa.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    default_config,
    is_complete,
    run_and_write,
    run_experiment,
)

TINY = {
    "vqe2q": dict(gamma_grid=(0.0, 0.2), variants=("a",), n_starts_2q=8),
    "vqe4q": dict(gamma_grid=(0.0, 0.05), n_starts_4q=3),
    "vqe_unequal": dict(gamma_grid=(0.0, 0.2), n_starts_2q=4),
    "target_fidelity": dict(layers=(2,), n_targets=1, gamma_grid=(1e-3,)),
    "degeneracy_hist": dict(layers=(2,)),
    "transition_scan": dict(layers=(2,), n_targets=1, gamma_grid=(0.0, 0.05, 0.1)),
    "alpha_beta_table": dict(n_samples=20),
    "valley_demo": dict(gamma_grid=(0.0, 0.4)),
}

_MINIMA = ("gamma", "minimum_index", "cost", "energy", "fidelity", "concurrence",
           "grad_norm", "converged")
COLUMNS = {
    "vqe2q": ("variant", "kind") + _MINIMA,
    "vqe4q": ("kind",) + _MINIMA,
    "vqe_unequal": ("scale_q0", "scale_q1", "kind") + _MINIMA,
    "target_fidelity": ("kind", "layers", "gamma", "target_index", "reopt", "residual_id",
                        "infidelity", "fidelity", "concurrence", "converged"),
    "degeneracy_hist": ("kind", "gamma", "map_index", "fidelity"),
    "transition_scan": ("target_index", "kind", "layers", "gamma", "fidelity_noisy",
                        "concurrence_noisy", "fidelity_clean", "concurrence_clean",
                        "theta0", "theta1", "theta2", "theta3", "jump", "flagged"),
    "alpha_beta_table": ("kind", "n_qubits", "n_samples", "alpha", "beta",
                         "stderr_alpha", "stderr_beta"),
    "valley_demo": ("kind", "gamma", "i", "j", "theta0", "theta1", "cost"),
}


def tiny_config(experiment: str = "vqe2q", **extra) -> ExperimentConfig:
    overrides = dict(TINY.get(experiment, {}))
    overrides.update(extra)
    return default_config(experiment, **overrides)


def test_registry_provides_defaults_for_every_experiment():
    for name in EXPERIMENTS:
        cfg = default_config(name)
        assert cfg.experiment == name
        assert cfg.config_hash() == default_config(name).config_hash()


def test_config_validation():
    with pytest.raises(ValueError):
        default_config("nope")
    with pytest.raises(ValueError):
        tiny_config(kinds=("bitflip",))
    with pytest.raises(ValueError):
        tiny_config(gamma_grid=(0.0, 1.5))
    with pytest.raises(ValueError):
        tiny_config(n_targets=0)
    with pytest.raises(ValueError):
        tiny_config(mode="sideways")
    with pytest.raises(TypeError):
        default_config("vqe2q", not_a_field=3)
    with pytest.raises(ValueError):
        default_config("vqe4q", n_starts_4q=0)
    with pytest.raises(ValueError):
        default_config("target_fidelity", gamma_grid=())
    # the one experiment that reads no gamma grid needs none
    assert default_config("alpha_beta_table").gamma_grid == ()


def test_an_unknown_experiment_is_reported_before_any_other_field():
    """The experiment name is checked once, first, in ExperimentConfig: default_config
    passes every name on, and a bad seed or count does not hide an unknown name."""
    with pytest.raises(ValueError, match="^unknown experiment 'nope'"):
        ExperimentConfig(experiment="nope", seed=-1)
    with pytest.raises(ValueError, match="^unknown experiment 'nope'"):
        default_config("nope", n_targets=0)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", 2.0), ("seed", True), ("n_starts_2q", 1.5), ("n_starts_4q", 3.0),
    ("n_targets", 2.5), ("n_samples", 100.5), ("n_samples", False), ("layers", (2.7,)),
    ("layers", (2, 4.0)), ("layers", (True,)),
])
def test_config_refuses_non_integer_counts(field, value):
    """Counts, the seed and layer counts must be integers: a float is not
    truncated, and a bool is no count even though Python makes it an int."""
    with pytest.raises(ValueError, match=field):
        tiny_config(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = tiny_config(seed=np.int64(3), layers=(np.int32(2),))
    assert type(cfg.seed) is int and type(cfg.layers[0]) is int
    assert cfg.config_hash() == tiny_config(seed=3, layers=(2,)).config_hash()


def test_config_hash_tracks_every_field():
    base = tiny_config()
    assert base.config_hash() != tiny_config(seed=8).config_hash()
    assert base.config_hash() != tiny_config(gamma_grid=(0.0, 0.3)).config_hash()
    assert base.config_hash() == tiny_config().config_hash()


def test_canonical_json_is_stable():
    cfg = tiny_config()
    assert cfg.canonical_json() == tiny_config().canonical_json()
    parsed = json.loads(cfg.canonical_json())
    assert parsed["experiment"] == "vqe2q"


def test_vqe2q_runner_output_shape():
    rec = run_experiment(tiny_config())
    assert rec.config.experiment == "vqe2q"
    cols = rec.columns
    for name in ("variant", "gamma", "minimum_index", "cost", "energy", "fidelity", "concurrence"):
        assert name in cols
    gammas = {row[cols.index("gamma")] for row in rec.rows}
    assert gammas == {0.0, 0.2}
    # noiseless ground energy appears in the gamma=0 rows
    e0 = min(row[cols.index("cost")] for row in rec.rows if row[cols.index("gamma")] == 0.0)
    assert abs(e0 - (-np.sqrt(5.0))) < 1e-6


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_experiment_runs_end_to_end(experiment, tmp_path):
    """Each experiment at a tiny config, run twice: byte-identical CSVs with
    the experiment's columns, at least one row, and only finite numbers."""
    cfg = tiny_config(experiment)
    first, (csv_a, _) = run_and_write(cfg, tmp_path / "a")
    second, (csv_b, _) = run_and_write(cfg, tmp_path / "b")
    assert first is not None and second is not None
    assert csv_a.read_bytes() == csv_b.read_bytes()
    header, *lines = csv_a.read_text().splitlines()
    assert tuple(header.split(",")) == COLUMNS[experiment]
    assert lines
    for line in lines:
        cells = line.split(",")
        assert len(cells) == len(COLUMNS[experiment])
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                continue  # a kind or variant name
            assert np.isfinite(value), line


def test_runs_are_deterministic():
    a = run_experiment(tiny_config())
    b = run_experiment(tiny_config())
    assert a.csv_text() == b.csv_text()


def test_valley_demo_grid():
    rec = run_experiment(tiny_config("valley_demo"))
    cols = rec.columns
    assert rec.rows, "valley demo produced no rows"
    n_per_gamma = sum(1 for r in rec.rows if r[cols.index("gamma")] == 0.0)
    assert n_per_gamma == 101 * 101


def valley_reference_row(kind, g, i, j):
    """One row of the per-point loop the batched valley grid replaced."""
    grid = np.linspace(0.0, 2.0 * np.pi, 101)
    noise = NoiseSpec.uniform(kind, g, 1) if g > 0 else None
    rho = evaluate(build_valley_demo(), np.array([grid[i], grid[j]]), noise)
    return (kind, g, i, j, grid[i], grid[j], rho.data[0, 0].real)


@pytest.mark.parametrize("kind", ["phase", "amplitude", "depolarising"])
def test_valley_demo_matches_the_per_point_loop(kind):
    """The batched grid writes the rows of a per-point evaluate loop, bit for
    bit, in the same (gamma, i, j) order."""
    rec = run_experiment(tiny_config("valley_demo", kinds=(kind,)))
    assert len(rec.rows) == 2 * 101 * 101
    for k in range(0, len(rec.rows), 101 * 7 + 3):
        g = rec.config.gamma_grid[k // (101 * 101)]
        i, j = divmod(k % (101 * 101), 101)
        assert rec.rows[k] == valley_reference_row(kind, g, i, j)


def test_target_fidelity_smoke():
    cfg = default_config(
        "target_fidelity",
        kinds=("amplitude",),
        gamma_grid=(1e-3,),
        layers=(2,),
        n_targets=2,
    )
    rec = run_experiment(cfg)
    cols = rec.columns
    non = {
        (r[cols.index("target_index")]): r[cols.index("infidelity")]
        for r in rec.rows
        if r[cols.index("reopt")] == 0
    }
    re = {
        (r[cols.index("target_index")]): r[cols.index("infidelity")]
        for r in rec.rows
        if r[cols.index("reopt")] == 1
    }
    assert set(non) == set(re) == {0, 1}
    for t in non:
        assert re[t] <= non[t] + 1e-9


def test_write_resume_and_force(tmp_path):
    cfg = tiny_config()
    rec, (csv_path, json_path) = run_and_write(cfg, tmp_path)
    assert rec is not None
    assert csv_path.exists() and json_path.exists()
    assert is_complete(cfg, tmp_path)

    first_bytes = csv_path.read_bytes()
    again, _ = run_and_write(cfg, tmp_path)
    assert again is None  # resumed, nothing recomputed
    assert csv_path.read_bytes() == first_bytes

    forced, _ = run_and_write(cfg, tmp_path, force=True)
    assert forced is not None
    assert csv_path.read_bytes() == first_bytes  # byte-identical rerun

    bumped = tiny_config(seed=123)
    assert not is_complete(bumped, tmp_path)


def test_truncated_csv_is_rerun(tmp_path):
    cfg = tiny_config()
    _, (csv_path, json_path) = run_and_write(cfg, tmp_path)
    first_bytes = csv_path.read_bytes()
    csv_path.write_bytes(first_bytes[: len(first_bytes) // 2])
    assert not is_complete(cfg, tmp_path)
    rerun, _ = run_and_write(cfg, tmp_path)
    assert rerun is not None
    assert csv_path.read_bytes() == first_bytes
    assert is_complete(cfg, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [csv_path.name, json_path.name]


def test_sidecar_contents(tmp_path):
    cfg = tiny_config()
    rec, (csv_path, json_path) = run_and_write(cfg, tmp_path)
    side = json.loads(json_path.read_text())
    assert side["experiment"] == "vqe2q"
    assert side["config_hash"] == cfg.config_hash()
    assert side["n_rows"] == len(rec.rows)
    assert side["elapsed_seconds"] >= 0.0
    assert side["csv_sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()


def test_run_experiment_builds_and_times_the_record():
    """A runner returns its columns and rows; run_experiment alone builds the
    record, from the config it ran, and times the runner."""
    cfg = tiny_config("alpha_beta_table")
    rec = run_experiment(cfg)
    assert rec.config is cfg and rec.sidecar()["experiment"] == cfg.experiment
    assert rec.columns == COLUMNS["alpha_beta_table"] and len(rec.rows) == len(cfg.kinds)
    assert rec.elapsed_seconds > 0.0


def test_a_runner_row_of_the_wrong_width_is_refused(monkeypatch, tmp_path):
    monkeypatch.setitem(EXPERIMENTS["valley_demo"], "runner",
                        lambda config: (("kind", "gamma"), [("phase", 0.0), ("phase",)]))
    rec = run_experiment(tiny_config("valley_demo"))
    with pytest.raises(ValueError, match="row width"):
        rec.csv_text()
    with pytest.raises(ValueError, match="row width"):
        rec.write(tmp_path)
    assert not list(tmp_path.iterdir())


def test_config_takes_json_lists_as_tuples():
    """The CLI passes a JSON config's lists through; the config stores them as
    tuples, with the hash of the tuple form."""
    listed = default_config("vqe2q", kinds=["phase"], gamma_grid=[0, 0.2], variants=["a"])
    tupled = default_config("vqe2q", kinds=("phase",), gamma_grid=(0.0, 0.2), variants=("a",))
    assert listed == tupled and listed.config_hash() == tupled.config_hash()
    assert all(type(getattr(listed, f)) is tuple for f in ("kinds", "gamma_grid", "layers", "variants"))


@pytest.mark.parametrize("field, value", [
    ("variants", "ab"), ("kinds", "phase"), ("layers", "24"), ("gamma_grid", "0.1"),
])
def test_a_grid_given_as_a_string_is_refused(field, value):
    """A string grid was split into its characters: variants "ab" ran
    ("a", "b") and kinds "phase" failed as the unknown kind 'p'. Lists,
    tuples and other iterables are still taken."""
    with pytest.raises(ValueError, match=f"{field} must be a list"):
        default_config("vqe2q", **{field: value})
    taken = default_config("vqe2q", variants=iter("ab"), kinds=["phase"], gamma_grid=(0.1,))
    assert taken.variants == ("a", "b") and taken.kinds == ("phase",)


@pytest.mark.parametrize("fields", [
    dict(experiment="nope", gamma_grid=(0.0,)),
    dict(experiment="vqe2q", gamma_grid=(0.0,), layers=(0,)),
    dict(experiment="vqe2q", gamma_grid=(0.0,), layers=(2, -1)),
], ids=["unknown-experiment", "zero-layers", "negative-layers"])
def test_a_config_built_directly_is_checked(fields):
    with pytest.raises(ValueError):
        ExperimentConfig(**fields)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_run_with_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "gamma_grid": [0.0, 0.2],
        "variants": ["a"],
        "n_starts_2q": 8,
    }))
    out_args = ["--out", str(tmp_path / "res")]
    assert main(["run", "vqe2q", "--config", str(cfg_file)] + out_args) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "res" / "vqe2q.csv").exists()

    # identical invocation resumes instead of recomputing
    assert main(["run", "vqe2q", "--config", str(cfg_file)] + out_args) == 0
    assert "up to date" in capsys.readouterr().out

    # --force reruns
    assert main(["run", "vqe2q", "--config", str(cfg_file), "--force"] + out_args) == 0
    assert "wrote" in capsys.readouterr().out


def test_cli_run_seed_and_out_overrides(tmp_path, capsys):
    assert main([
        "run", "valley_demo",
        "--config", str(_write_cfg(tmp_path, {"gamma_grid": [0.0]})),
        "--out", str(tmp_path / "v"),
    ]) == 0
    assert (tmp_path / "v" / "valley_demo.json").exists()


def _write_cfg(tmp_path, payload) -> str:
    p = tmp_path / "payload.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_rejects_bad_input(tmp_path, capsys):
    assert main(["run", "vqe2q", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["run", "vqe2q", "--config", str(bad)]) == 1
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"gamma_grid": [2.0]}))
    assert main(["run", "vqe2q", "--config", str(worse)]) == 1
    with pytest.raises(SystemExit) as info:
        main(["run", "not_an_experiment"])
    assert info.value.code == 1


@pytest.mark.parametrize("experiment, payload, args", [
    ("degeneracy_hist", {"gamma_grid": []}, []),
    ("valley_demo", {"kinds": []}, []),
    ("transition_scan", {"layers": []}, []),
    ("vqe2q", {"n_starts_2q": 0, "gamma_grid": [0.0]}, []),
    ("vqe2q", {}, ["--seed", "-1"]),
    ("vqe2q", {"variants": []}, []),
    ("vqe2q", {"seed": 1.5}, []),
    ("vqe2q", {"n_starts_2q": 1.5, "gamma_grid": [0.0]}, []),
    ("alpha_beta_table", {"layers": [2.7], "n_samples": 2}, []),
    ("vqe2q", {"variants": ["d"], "gamma_grid": [0.0], "n_starts_2q": 1}, []),
    ("vqe2q", {"gamma_grid": [True], "variants": ["a"], "n_starts_2q": 1}, []),
    ("valley_demo", {"kinds": ["phase", "amplitude"]}, []),
    ("transition_scan", {"kinds": ["phase", "amplitude"], "n_targets": 1}, []),
    ("transition_scan", {"layers": [2, 3], "n_targets": 1}, []),
    ("degeneracy_hist", {"layers": [2, 4]}, []),
    ("degeneracy_hist", {"gamma_grid": [0.01, 0.02]}, []),
    ("valley_demo", {"gamma_grid": [0.0], "output_dir": "elsewhere"}, []),
    ("valley_demo", {"gamma_grid": [0.0], "output_dir": 3}, []),
    ("vqe2q", {"experiment": "vqe4q", "gamma_grid": [0.0], "variants": ["a"], "n_starts_2q": 1}, []),
    ("vqe2q", {"variants": "ab", "gamma_grid": [0.0], "n_starts_2q": 1}, []),
    ("valley_demo", {"kinds": "phase", "gamma_grid": [0.0]}, []),
], ids=["empty-gamma-grid", "empty-kinds", "empty-layers", "zero-starts", "negative-seed",
        "empty-variants", "float-seed", "float-starts", "float-layers", "unknown-variant",
        "bool-gamma", "valley-two-kinds", "scan-two-kinds", "scan-two-layers",
        "hist-two-layers", "hist-two-gammas", "output-dir", "output-dir-int",
        "another-experiment", "string-variants", "string-kinds"])
def test_cli_rejects_configs_that_cannot_run(experiment, payload, args, tmp_path, capsys):
    """Configs that used to fail mid-run, write an empty CSV, or run only the
    first of several kinds, layer counts or gammas are refused before any
    work starts. So are a results directory, which is no input of a study,
    and a config file of another experiment, which used to run as the
    commanded one."""
    assert main(["run", experiment, "--config", _write_cfg(tmp_path, payload),
                 "--out", str(tmp_path / "res")] + args) == 1
    assert "invalid config" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_a_moved_results_directory_resumes(tmp_path, capsys):
    """The config, and so its hash, holds no directory: a copied results
    directory is up to date under --out, where the hash once covered the
    directory and the copy was recomputed."""
    first, moved = tmp_path / "a", tmp_path / "b"
    assert main(["run", "valley_demo", "--out", str(first)]) == 0
    assert "wrote" in capsys.readouterr().out
    shutil.copytree(first, moved)
    assert main(["run", "valley_demo", "--out", str(moved)]) == 0
    assert capsys.readouterr().out.startswith(f"up to date: {moved / 'valley_demo.csv'}")
    assert default_config("valley_demo").config_hash() == \
        json.loads((moved / "valley_demo.json").read_text())["config_hash"]


def test_a_sidecar_config_is_a_config_file_of_its_study(tmp_path, capsys):
    out = ["--out", str(tmp_path / "res")]
    assert main(["run", "valley_demo", "--config", _write_cfg(tmp_path, {"gamma_grid": [0.0]})] + out) == 0
    assert "wrote" in capsys.readouterr().out
    side = json.loads((tmp_path / "res" / "valley_demo.json").read_text())
    assert main(["run", "valley_demo", "--config", _write_cfg(tmp_path, side["config"])] + out) == 0
    assert "up to date" in capsys.readouterr().out


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["list", "verify"])
def test_cli_exits_quietly_when_the_reader_is_gone(command, buffered):
    """`nvqa verify | head -1`: once stdout's reader has closed, the command
    exits with status 1 and writes nothing to stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(nvqa.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nvqa.cli", command], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def serial_restarts(circuit, target, seed: int):
    """optimize_to_target's serial restart loop, one start at a time: the
    best result up to the first start that reaches the goal, and the number
    of starts it ran."""
    from test_optimize import serial_reference

    from nvqa.optimize import MinimizeOptions, infidelity_cost

    cf = infidelity_cost(circuit, target)
    opts = MinimizeOptions(max_iters=400, cost_goal=1e-8)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    best = None
    for n in range(1, 31):
        cand = serial_reference(cf, rng.uniform(0.0, 2.0 * np.pi, circuit.n_params), opts)
        if best is None or cand.cost < best.cost:
            best = cand
        if best.cost <= 1e-6:
            break
    return best, n


@pytest.mark.parametrize("layers, index, seed, n_starts", [(2, 0, 2000, 30), (4, 9, 1009, 6)],
                         ids=["floored-L2", "L4-six-starts"])
def test_optimize_to_target_equals_the_serial_restart_loop(layers, index, seed, n_starts):
    """Chunked lockstep starts return the serial loop's result: on a floored
    target that spends all 30 starts, and on one whose goal is reached by the
    sixth start, inside the third chunk."""
    from nvqa.circuits import build_hea
    from nvqa.harness import optimize_to_target
    from nvqa.randstates import RngStream, sample_real_haar_state

    gen = RngStream(11, 0).generator()
    target = [sample_real_haar_state(4, gen) for _ in range(index + 1)][index]
    circuit = build_hea(layers)
    want, ran = serial_restarts(circuit, target, seed)
    assert ran == n_starts
    got = optimize_to_target(circuit, target, seed)
    assert np.array_equal(got.params, want.params)
    assert (got.cost, got.grad_norm, got.iterations, got.converged) == \
        (want.cost, want.grad_norm, want.iterations, want.converged)


@pytest.mark.parametrize("layers, n_starts", [(2, (30, 30)), (4, (1, 6))], ids=["L2-floored", "L4-drop-out"])
def test_fit_targets_equal_the_serial_restart_loop_per_target(layers, n_starts):
    """Fitting the targets of both cases above in one set of lockstep chunks
    gives each target its serial loop's result: at L=2 both spend all 30
    starts, and at L=4 one reaches the goal with its first start and drops
    out while the other runs on into its third chunk."""
    from nvqa.circuits import build_hea
    from nvqa.harness import _fit_targets
    from nvqa.randstates import RngStream, sample_real_haar_state

    gen = RngStream(11, 0).generator()
    targets = [sample_real_haar_state(4, gen) for _ in range(10)]
    targets, seeds = [targets[0], targets[9]], [2000, 1009]
    circuit = build_hea(layers)
    got = _fit_targets(circuit, targets, seeds)
    for res, target, seed, n in zip(got, targets, seeds, n_starts):
        want, ran = serial_restarts(circuit, target, seed)
        assert ran == n
        assert res.params.tobytes() == want.params.tobytes()
        assert (res.cost, res.grad_norm, res.iterations, res.converged) == \
            (want.cost, want.grad_norm, want.iterations, want.converged)


def test_target_studies_make_one_lockstep_call_per_layer_count_or_gamma(monkeypatch):
    """target_fidelity freezes and reoptimizes every (target, kind, gamma) cell
    of a layer count in two lockstep calls, and transition_scan advances
    every target's chain in one call per gamma. The noiseless fits take one
    call per chunk of starts, at most five per layer count."""
    from nvqa import harness, optimize

    calls = []
    run_rows = optimize._minimize_rows

    def counted(cf, starts, *args):
        calls.append((cf[0].noise is not None, len(starts)))
        return run_rows(cf, starts, *args)

    monkeypatch.setattr(optimize, "_minimize_rows", counted)
    monkeypatch.setattr(harness, "_minimize_rows", counted)
    run_experiment(default_config("target_fidelity", layers=(2, 3), n_targets=3, gamma_grid=(1e-3, 1e-2)))
    assert [rows for noisy, rows in calls if noisy] == [3 * 3 * 2] * 4
    assert 2 <= sum(not noisy for noisy, _ in calls) <= 2 * 5
    calls.clear()
    run_experiment(default_config("transition_scan", layers=(2,), n_targets=3, gamma_grid=(0.0, 0.05, 0.1)))
    assert [rows for noisy, rows in calls if noisy] == [3] * 3
    assert 1 <= sum(not noisy for noisy, _ in calls) <= 5


@pytest.mark.parametrize("experiment, overrides, composes", [
    ("vqe4q", dict(gamma_grid=(0.0, 0.05, 0.1), n_starts_4q=10, mode="track"), 6),
    ("transition_scan", dict(n_targets=3, gamma_grid=(0.0, 0.01, 0.03, 0.05, 0.1)), 4),
])
def test_a_study_composes_each_spec_once(experiment, overrides, composes, monkeypatch):
    """Each circuit composes each spec's blocks once: vqe4q in track mode
    reads its qualities after the whole sweep, and transition_scan makes one
    call per gamma, yet neither composes a spec again. Both circuits have
    one distinct fixed group, so composes counts the (kind, gamma > 0) cells."""
    import nvqa.circuits as circuits

    composed, compose = [], circuits._pattern_blocks
    monkeypatch.setattr(circuits, "_pattern_blocks", lambda *a: composed.append(a[2:]) or compose(*a))
    config = default_config(experiment, **overrides)
    run_experiment(config)
    assert len(composed) == len(set(composed)) == composes
    assert composes == len(config.kinds) * sum(g > 0 for g in config.gamma_grid)


def test_a_study_derives_its_hamiltonian_once(monkeypatch):
    """A reduced vqe2q study, 27 (variant, kind, gamma) cells and their quality
    reads on one Hamiltonian, derives its matrix and ground state once in the
    process: one ground_truth eigendecomposition and at most two
    PauliSum.to_matrix calls, the cost's and ground_truth's own."""
    from nvqa import optimize
    from nvqa.pauli import PauliSum

    calls = {"ground_truth": 0, "to_matrix": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    optimize._hamiltonian_matrix.cache_clear()
    optimize._ground_projector.cache_clear()
    monkeypatch.setattr(optimize, "ground_truth", counted("ground_truth", optimize.ground_truth))
    monkeypatch.setattr(PauliSum, "to_matrix", counted("to_matrix", PauliSum.to_matrix))
    run_experiment(default_config("vqe2q", gamma_grid=(0.0, 0.1, 0.3), n_starts_2q=8, seed=7))
    assert calls["ground_truth"] == 1 and calls["to_matrix"] <= 2


# sha256 of the CSVs of three reduced target studies, recorded before the
# targets and cells of a study shared lockstep calls (x86-64, numpy 2.4.6, one
# BLAS thread), with each config's hash.
TARGET_CSV_SHA256 = {
    "target_fidelity": (dict(layers=(2, 4), n_targets=5), "331ed36df0ca0888",
                        "42d5a01c70c2d7d3b615e78cb68d771f00ddef450b28bdc1f65b926571506652"),
    "transition_scan": (dict(n_targets=3, gamma_grid=(0.0, 0.01, 0.03, 0.05, 0.1)), "4dafc73ac7ec512f",
                        "08431fe85e2d47b4e2b84ae7ea0a8cf9254b1dfa257ae89fb4daba35e05d17d7"),
    "degeneracy_hist": (dict(), "b87cf04046db2409",
                        "ed684fc712779fd90f0f8d21c0f74b2a7c35da4d491d2ebc738a6562fc6238bf"),
}


@pytest.mark.parametrize("experiment", sorted(TARGET_CSV_SHA256))
def test_target_studies_keep_the_csv_bytes(experiment, tmp_path):
    """The target studies write, under unchanged config hashes, the bytes they
    wrote when every target was fitted and every cell reoptimized alone."""
    overrides, config_hash, want = TARGET_CSV_SHA256[experiment]
    config = default_config(experiment, **overrides)
    assert config.config_hash() == config_hash
    _, (csv_path, _) = run_and_write(config, tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == want


# sha256 of the CSVs of three reduced VQE configs, recorded before the (kind,
# gamma) cells of one circuit shared lockstep calls (x86-64, numpy 2.4.6, one
# BLAS thread). A platform whose BLAS rounds differently writes other bytes.
SWEEP_CSV_SHA256 = {
    "vqe2q": (dict(gamma_grid=(0.0, 0.1, 0.3), n_starts_2q=8, seed=7),
              "c4ab192d7b90759720885ceab6f29c2c417561173446cce6489b9ff3535a1a06"),
    "vqe_unequal": (dict(gamma_grid=(0.0, 0.2), n_starts_2q=6),
                    "92521a13a457199e926ed1eb76ba6e7221ff3fb19259629b2ff2a3ac39c509f1"),
    "vqe4q": (dict(gamma_grid=(0.0, 0.05), n_starts_4q=6, mode="track"),
              "59531223771afaa7433716cc1b72aaad188df778641fd953c0e41a9b2577ca8a"),
}


@pytest.mark.parametrize("experiment", sorted(SWEEP_CSV_SHA256))
def test_stacked_sweeps_keep_the_csv_bytes(experiment, tmp_path):
    """vqe2q and vqe_unequal in restart mode, and vqe4q in track mode, write
    the bytes they wrote when every (kind, gamma) cell ran its own lockstep
    call."""
    overrides, want = SWEEP_CSV_SHA256[experiment]
    _, (csv_path, _) = run_and_write(default_config(experiment, **overrides), tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == want
