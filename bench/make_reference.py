"""Rebuild reference.json, the values every benchmark report is checked against.

    python3 bench/make_reference.py

For each workload the program runs once per seed 0..SEEDS-1 on the generated
inputs.  Exact fields must agree across all seeds and are stored as they
are.  Each approximate field is stored twice:

  * per seed, as the value that seed gave.  A report for one of these seeds
    must repeat it within check.PER_SEED_RTOL (round-off);
  * across seeds, as [mean, tolerance] with

        tolerance = 8 * sd + 1e-3 * max(1, |mean|)

    where sd is the sample standard deviation over the seeds.  This is the
    check for any other seed: a report for a new seed lies within 8 sd of
    the mean unless something other than the seed moved it, and the second
    term absorbs fields that barely vary by seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import check
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SEEDS = 12
SD_FACTOR = 8.0
FLOOR = 1e-3


def reference_for(name: str) -> dict:
    from kernelshot.cli import main

    workload = WORKLOADS[name]
    exact_seen: list[dict] = []
    approx_seen: list[dict] = []
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        for seed in range(SEEDS):
            inputs = generate(workload, seed, scratch / str(seed))
            out = scratch / str(seed) / "out"
            with contextlib.chdir(inputs.directory), contextlib.redirect_stdout(io.StringIO()):
                code = main(inputs.argv(workload, out))
            if code != 0:
                raise RuntimeError(f"{name} seed {seed}: exit code {code}")
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            exact, approx, flags, problems = check.extract(workload.command, report, inputs.sha256)
            bad_flags = [k for k, v in flags.items() if v is not True]
            if problems or bad_flags:
                raise RuntimeError(f"{name} seed {seed}: {problems + bad_flags}")
            exact_seen.append(exact)
            approx_seen.append(approx)
    finally:
        shutil.rmtree(scratch)
    if any(e != exact_seen[0] for e in exact_seen):
        raise RuntimeError(f"{name}: exact fields depend on the seed")
    approx = {}
    for key in approx_seen[0]:
        values = [a[key] for a in approx_seen]
        mean = statistics.fmean(values)
        tol = SD_FACTOR * statistics.stdev(values) + FLOOR * max(1.0, abs(mean))
        approx[key] = [mean, tol]
    per_seed = {str(seed): values for seed, values in enumerate(approx_seen)}
    return {"exact": exact_seen[0], "approx": approx, "per_seed": per_seed}


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    reference = {
        "tolerance_rule": (
            f"seeds 0..{SEEDS - 1}: the seed's own value within rtol {check.PER_SEED_RTOL:g} "
            f"* max(1, |value|); other seeds: [mean, tol] over seeds 0..{SEEDS - 1}, "
            f"tol = {SD_FACTOR:g} * sd + {FLOOR:g} * max(1, |mean|)"
        )
    }
    for name in WORKLOADS:
        reference[name] = reference_for(name)
        print(f"{name}: {len(reference[name]['exact'])} exact, {len(reference[name]['approx'])} approximate")
    check.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
