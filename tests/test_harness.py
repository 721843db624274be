"""Experiment configs, runners, output files and the CLI."""

import hashlib
import json

import numpy as np
import pytest

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
    "valley_demo": dict(gamma_grid=(0.0, 0.4)),
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
    assert rec.experiment == "vqe2q"
    cols = rec.columns
    for name in ("variant", "gamma", "minimum_index", "cost", "energy", "fidelity", "concurrence"):
        assert name in cols
    gammas = {row[cols.index("gamma")] for row in rec.rows}
    assert gammas == {0.0, 0.2}
    # noiseless ground energy appears in the gamma=0 rows
    e0 = min(row[cols.index("cost")] for row in rec.rows if row[cols.index("gamma")] == 0.0)
    assert abs(e0 - (-np.sqrt(5.0))) < 1e-6


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


def test_target_fidelity_smoke(tmp_path):
    cfg = default_config(
        "target_fidelity",
        kinds=("amplitude",),
        gamma_grid=(1e-3,),
        layers=(2,),
        n_targets=2,
        output_dir=str(tmp_path),
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
    cfg = tiny_config(output_dir=str(tmp_path))
    rec, (csv_path, json_path) = run_and_write(cfg)
    assert rec is not None
    assert csv_path.exists() and json_path.exists()
    assert is_complete(cfg)

    first_bytes = csv_path.read_bytes()
    again, _ = run_and_write(cfg)
    assert again is None  # resumed, nothing recomputed
    assert csv_path.read_bytes() == first_bytes

    forced, _ = run_and_write(cfg, force=True)
    assert forced is not None
    assert csv_path.read_bytes() == first_bytes  # byte-identical rerun

    bumped = tiny_config(output_dir=str(tmp_path), seed=123)
    assert not is_complete(bumped)


def test_truncated_csv_is_rerun(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path))
    _, (csv_path, json_path) = run_and_write(cfg)
    first_bytes = csv_path.read_bytes()
    csv_path.write_bytes(first_bytes[: len(first_bytes) // 2])
    assert not is_complete(cfg)
    rerun, _ = run_and_write(cfg)
    assert rerun is not None
    assert csv_path.read_bytes() == first_bytes
    assert is_complete(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == [csv_path.name, json_path.name]


def test_sidecar_contents(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path))
    rec, (csv_path, json_path) = run_and_write(cfg)
    side = json.loads(json_path.read_text())
    assert side["experiment"] == "vqe2q"
    assert side["config_hash"] == cfg.config_hash()
    assert side["n_rows"] == len(rec.rows)
    assert side["elapsed_seconds"] >= 0.0
    assert side["csv_sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()


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
        "output_dir": str(tmp_path / "res"),
    }))
    assert main(["run", "vqe2q", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "res" / "vqe2q.csv").exists()

    # identical invocation resumes instead of recomputing
    assert main(["run", "vqe2q", "--config", str(cfg_file)]) == 0
    assert "up to date" in capsys.readouterr().out

    # --force reruns
    assert main(["run", "vqe2q", "--config", str(cfg_file), "--force"]) == 0
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


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
