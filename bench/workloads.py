"""Seeded inputs for the benchmark workloads.

Each workload is one CLI subcommand on a fixed-size config.  Everything the
program reads (the JSON config and, for fewshot-roc, four feature CSVs) is
generated here from the workload seed, with this module's own CSV writer,
so that a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_WIDTH = 32
# rows per generated table: (old train, new train, old test, new test)
TABLE_ROWS = {"old_train": 2000, "new_train": 300, "old_test": 2000, "new_test": 1000}
# distance between the class means of the generated feature tables, in units
# of the per-coordinate standard deviation; keeps AUROC well inside (0.5, 1)
CLASS_SEPARATION = 2.5

MIXED_KERNELS = [
    {"kind": "linear", "bias": 0.0},
    {"kind": "polynomial", "degree": 2, "bias": 1.0},
    {"kind": "gaussian", "sigma": 0.5},
]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict  # every field but seed, out and input paths


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "volume-ratio-gaussian",
            "volume-ratio",
            {
                "kernel": {"kind": "gaussian", "sigma": 0.5},
                "domain": "unit_ball",
                "d": 5,
                "support_size": 1000,
                "probe_size": 100_000,
                "eps_grid": [0.2, 0.4, 0.6, 0.8, 1.0],
                "delta_grid": [-0.6, -0.3, 0.0, 0.3, 0.6],
                "delta_scale": "cosine",
            },
        ),
        Workload(
            "bounds-linear",
            "bounds",
            {
                "kernel": {"kind": "linear", "bias": 0.0},
                "d": 20,
                "centre_distance": 4.0,
                "radius_new": 0.5,
                "radius_old": 0.5,
                "reference_size": 2000,
                "shots": 10,
                "theta_grid": [-1.0, 0.0],
                "s_points": 10,
                "refits": 20,
                "draws": 10_000,
            },
        ),
        Workload(
            "fewshot-roc-mixed",
            "fewshot-roc",
            {"kernels": MIXED_KERNELS, "shots": 5, "n_seeds": 10},
        ),
        Workload(
            "orthogonality-mixed",
            "orthogonality",
            {"kernels": MIXED_KERNELS, "d_values": [5, 50], "n_points": 3000},
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one run and the sha256 of every file.

    The config names the feature files relative to `directory`, so the
    program must run with `directory` as its working directory; that keeps
    the config bytes independent of where the run takes place.
    """

    directory: Path
    sha256: dict  # file name -> hex digest

    def argv(self, workload: Workload, out_dir) -> list[str]:
        return [workload.command, "--config", "config.json", "--out", str(Path(out_dir).resolve())]


def feature_csv_bytes(rows: np.ndarray, label: str) -> bytes:
    """The ingestible CSV format: header f0..f{w-1},label; floats by repr."""
    width = rows.shape[1]
    lines = [",".join([f"f{i}" for i in range(width)] + ["label"])]
    for row in rows:
        lines.append(",".join([repr(float(v)) for v in row] + [label]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _feature_tables(rng: np.random.Generator) -> dict[str, tuple[np.ndarray, str]]:
    direction = rng.standard_normal(FEATURE_WIDTH)
    direction /= np.linalg.norm(direction)
    offset = rng.standard_normal(FEATURE_WIDTH)
    means = {"old": offset, "new": offset + CLASS_SEPARATION * direction}
    tables = {}
    for name, n in TABLE_ROWS.items():
        label = name.split("_")[0]
        tables[name] = (means[label] + rng.standard_normal((n, FEATURE_WIDTH)), label)
    return tables


def _write(path: Path, blob: bytes, digests: dict) -> None:
    path.write_bytes(blob)
    digests[path.name] = hashlib.sha256(blob).hexdigest()


def generate(workload: Workload, seed: int, directory) -> Inputs:
    """Write the workload's inputs for `seed` into `directory`.

    The same seed gives byte-identical files; the program seed in the config
    is drawn from the same stream.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, list(WORKLOADS).index(workload.name)]))
    config = {"command": workload.command, **workload.config}
    config["seed"] = int(rng.integers(0, 2**31 - 1))
    digests: dict = {}
    if workload.command == "fewshot-roc":
        keys = {"old_train": "old_features", "new_train": "new_features",
                "old_test": "old_test", "new_test": "new_test"}
        for name, (rows, label) in _feature_tables(rng).items():
            _write(directory / f"{name}.csv", feature_csv_bytes(rows, label), digests)
            config[keys[name]] = f"{name}.csv"
    config["out"] = "out"  # replaced per invocation by --out
    blob = (json.dumps(config, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _write(directory / "config.json", blob, digests)
    return Inputs(directory=directory, sha256=digests)
