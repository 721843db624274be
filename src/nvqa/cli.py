"""Command line interface: nvqa run | list | verify."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from .harness import EXPERIMENTS, default_config, run_and_write
from .verify import run_verification


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="nvqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment", parents=[], add_help=True)
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--config", type=Path, default=None,
                     help="JSON file overriding the experiment defaults")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--targets", type=int, default=None,
                     help="override the number of random targets")
    run.add_argument("--out", type=Path, default=None, help="output directory (default: results)")
    run.add_argument("--force", action="store_true",
                     help="rerun even when output for this config exists")

    sub.add_parser("list", help="list experiments and their defaults")
    sub.add_parser("verify", help="run the fast invariant checks")
    return parser


def _cmd_run(args) -> int:
    overrides = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"nvqa: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(loaded, dict):
            print("nvqa: config file must hold a JSON object", file=sys.stderr)
            return 1
        overrides.update(loaded)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.targets is not None:
        overrides["n_targets"] = args.targets
    try:
        if (named := overrides.pop("experiment", args.experiment)) != args.experiment:
            raise ValueError(f"{args.config} is a config of {named!r}, not {args.experiment!r}")
        config = default_config(args.experiment, **overrides)
    except (TypeError, ValueError) as exc:
        print(f"nvqa: invalid config: {exc}", file=sys.stderr)
        return 1
    try:
        record, (csv_path, json_path) = run_and_write(config, args.out, force=args.force)
    except Exception as exc:
        print(f"nvqa: run failed: {exc}", file=sys.stderr)
        return 2
    if record is None:
        print(f"up to date: {csv_path} (config {config.config_hash()}); use --force to rerun")
    else:
        print(f"wrote {csv_path} ({len(record.rows)} rows, "
              f"{record.elapsed_seconds:.1f}s) and {json_path}")
    return 0


def _cmd_list() -> int:
    for name in sorted(EXPERIMENTS):
        info = EXPERIMENTS[name]
        print(f"{name}: {info['help']}")
        defaults = default_config(name).to_dict()
        defaults.pop("experiment")
        print(f"    defaults: {json.dumps(defaults, sort_keys=True)}")
    return 0


def _dispatch(args) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    return 0 if run_verification(partial(print, flush=True)) else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`nvqa verify | head -1`): point stdout at
        # devnull so the flush at exit cannot raise again, and fail quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
