"""Correctness check of one invocation's report.

A report passes when
  * integer counts that do not depend on round-off (trials, n_pairs,
    excluded_pairs, grid_size, row counts) equal the stored reference exactly;
  * floating results and Monte-Carlo hit counts repeat the value stored
    for the report's seed within round-off (PER_SEED_RTOL), or, for a seed
    with no stored value, lie within the cross-seed tolerance of the stored
    mean (see make_reference.py for both rules);
  * every ``sandwich`` and ``contained`` flag is true;
  * internal identities hold: ratio == hits / trials, ci_low <= ratio <=
    ci_high, lower <= upper, AUROC in [0, 1], and the input checksums the
    program recorded equal the sha256 the generator recorded.

``numeric_content`` gives the bytes two invocations of one run must share:
every report file, with only ``provenance.timestamp`` and ``config.out``
removed from report.json.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A report for a seed the reference was built from must repeat that seed's
# values up to round-off.  A change of summation order or of a kernel
# formula moves a float by at most ~1e-8 relative (cancellation in
# |x|^2 + |y|^2 - 2 x.y); 1e-6 leaves room for that and still catches any
# change of more than one part in a million.  Hit counts below 1e6 must
# repeat exactly.
PER_SEED_RTOL = 1e-6


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _volume_ratio(results: dict, exact: dict, approx: dict, problems: list) -> None:
    approx["radius"] = results["radius"]
    approx["cap_direction_norm"] = results["cap_direction_norm"]
    for family, key in (("ball", "eps"), ("cap", "grid_value")):
        exact[f"{family}.count"] = len(results[family])
        for entry in results[family]:
            name = f"{family}[{entry[key]!r}]"
            exact[f"{name}.trials"] = entry["trials"]
            approx[f"{name}.ratio"] = entry["ratio"]
            approx[f"{name}.hits"] = entry["hits"]
            if entry["ratio"] != entry["hits"] / entry["trials"]:
                problems.append(f"{name}: ratio {entry['ratio']} != hits / trials")
            if not entry["ci_low"] <= entry["ratio"] <= entry["ci_high"]:
                problems.append(f"{name}: ratio outside its confidence interval")


def _bounds(results: dict, exact: dict, approx: dict, flags: dict, problems: list) -> None:
    approx["dist_sq"] = results["dist_sq"]
    exact["theta_results.count"] = len(results["theta_results"])
    for entry in results["theta_results"]:
        name = f"theta[{entry['theta']!r}]"
        for side in ("new_class", "old_class"):
            bracket = entry[side]
            exact[f"{name}.{side}.grid_size"] = bracket["grid_size"]
            approx[f"{name}.{side}.lower"] = bracket["lower"]
            approx[f"{name}.{side}.upper"] = bracket["upper"]
            approx[f"{name}.{side}.mc_estimate"] = entry["mc"][side]["estimate"]
            flags[f"{name}.sandwich.{side}"] = entry["sandwich"][side]
            if not bracket["lower"] <= bracket["upper"]:
                problems.append(f"{name}.{side}: lower > upper")
    exact["mean_concentration.count"] = len(results["mean_concentration"])
    for i, row in enumerate(results["mean_concentration"]):
        name = f"mean_concentration[{i}]"
        for key in ("s", "lower", "upper", "mc_estimate"):
            approx[f"{name}.{key}"] = row[key]
        flags[f"{name}.contained"] = row["contained"]
        if not row["lower"] <= row["upper"]:
            problems.append(f"{name}: lower > upper")


def _fewshot_roc(results: dict, exact: dict, approx: dict, problems: list, input_sha256: dict) -> None:
    approx["normalisation.scale"] = results["normalisation"]["scale"]
    exact["per_seed.count"] = len(results["per_seed"])
    for row in results["per_seed"]:
        if not 0.0 <= row["auroc"] <= 1.0:
            problems.append(f"auroc {row['auroc']} outside [0, 1] for {row['kernel']}")
    for entry in results["summary"]:
        name = f"summary[{entry['kernel']}]"
        exact[f"{name}.n_seeds"] = entry["n_seeds"]
        approx[f"{name}.mean_auroc"] = entry["mean_auroc"]
        approx[f"{name}.std_auroc"] = entry["std_auroc"]
    for key, source in results["sources"].items():
        expected = input_sha256.get(Path(source["path"]).name)
        if source["checksum"] != expected:
            problems.append(f"sources.{key}: checksum {source['checksum']} != generated {expected}")


def _orthogonality(results: dict, exact: dict, approx: dict) -> None:
    exact["rows.count"] = len(results["rows"])
    for row in results["rows"]:
        name = f"rows[{row['kernel']},d={row['d']}]"
        exact[f"{name}.n_pairs"] = row["n_pairs"]
        exact[f"{name}.excluded_pairs"] = row["excluded_pairs"]
        for key in ("mean_abs_cos", "std_cos", "mean_norm", "std_norm"):
            approx[f"{name}.{key}"] = row[key]


def extract(command: str, report: dict, input_sha256: dict) -> tuple[dict, dict, dict, list]:
    """Split a report into exact counts, approximate values, flags, and
    violated internal identities."""
    exact: dict = {}
    approx: dict = {}
    flags: dict = {}
    problems: list = []
    results = report["results"]
    if command == "volume-ratio":
        _volume_ratio(results, exact, approx, problems)
    elif command == "bounds":
        _bounds(results, exact, approx, flags, problems)
    elif command == "fewshot-roc":
        _fewshot_roc(results, exact, approx, problems, input_sha256)
    elif command == "orthogonality":
        _orthogonality(results, exact, approx)
    else:
        raise ValueError(f"unknown command {command!r}")
    return exact, approx, flags, problems


def check_report(command: str, report: dict, reference: dict, input_sha256: dict, seed: int) -> list[str]:
    """Every way the report for `seed` disagrees with `reference`; empty when it passes."""
    exact, approx, flags, problems = extract(command, report, input_sha256)
    if set(exact) != set(reference["exact"]):
        problems.append(f"exact fields differ from reference: {sorted(set(exact) ^ set(reference['exact']))}")
    if set(approx) != set(reference["approx"]):
        problems.append(f"values differ from reference: {sorted(set(approx) ^ set(reference['approx']))}")
    for key, want in reference["exact"].items():
        if key in exact and exact[key] != want:
            problems.append(f"{key}: {exact[key]} != reference {want}")
    seed_values = reference["per_seed"].get(str(seed))
    for key, (mean, tol) in reference["approx"].items():
        if key not in approx:
            continue
        if seed_values is not None:
            mean = seed_values[key]
            tol = PER_SEED_RTOL * max(1.0, abs(mean))
        if not abs(approx[key] - mean) <= tol:
            problems.append(f"{key}: {approx[key]} outside reference {mean} +- {tol}")
    for key, value in flags.items():
        if value is not True:
            problems.append(f"{key} is {value}")
    return problems


def numeric_content(out_dir) -> bytes:
    """Report bytes that must repeat exactly across invocations of one run."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    report["provenance"].pop("timestamp", None)
    report["config"].pop("out", None)
    parts = [json.dumps(report, sort_keys=True).encode("utf-8")]
    for path in sorted(out_dir.iterdir()):
        if path.name != "report.json":
            parts.append(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return b"\0\0".join(parts)
