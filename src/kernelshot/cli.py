"""Command-line entry points.

One subcommand per experiment family: orthogonality | volume-ratio |
bounds | fewshot-roc | ingest-check.  Experiment subcommands read a single
JSON config document; --seed and --out flags override the corresponding
config fields.  Exit codes: 0 success, 2 config error, 3 input-data error,
4 numeric failure or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .experiments import COMMANDS, load_config, run_experiment
from .ingest import ingest_feature_csv

__all__ = ["build_parser", "main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelshot",
        description=(
            "Few-shot prototype classification in kernel feature spaces: "
            "orthogonality statistics, Monte-Carlo volume ratios, success-probability "
            "bounds, and ROC evaluation on ingested feature vectors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} experiment from a JSON config")
        p.add_argument("--config", required=True, help="path to the JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")

    p = sub.add_parser("ingest-check", help="validate a feature CSV and print a summary")
    p.add_argument("path", help="feature CSV to validate")
    return parser


def _load_raw_config(path: str) -> dict:
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {config_path} must contain a JSON object")
    return raw


# an overflowed or invalid value is reported by the check that names it, not by numpy
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "ingest-check":
        table = ingest_feature_csv(args.path)
        print(json.dumps(table.summary(), indent=2, sort_keys=True))
        return EXIT_OK

    raw = _load_raw_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
        raw.pop("seeds", None)  # an explicit --seed re-derives any seed list
    if args.out is not None:
        raw["out"] = args.out
    config = load_config(args.command, raw)
    out_dir = Path(config.out)
    before = _csv_stamps(out_dir)
    run_experiment(config)
    print(f"wrote {out_dir / 'report.json'}")
    # a CSV left by an earlier run into the same directory keeps its stamp
    for path, stamp in sorted(_csv_stamps(out_dir).items()):
        if before.get(path) != stamp:
            print(f"wrote {path}")
    return EXIT_OK


def _csv_stamps(out_dir: Path) -> dict:
    """(inode, mtime in ns) of each CSV in out_dir: an atomic write replaces
    the file, so a CSV this run wrote has a new inode."""
    return {p: (s.st_ino, s.st_mtime_ns) for p in out_dir.glob("*.csv") for s in [p.stat()]}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"input data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
