"""CLI-level benchmark of kernelshot.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  For each run the benchmark generates the workload's inputs from
the seed (workloads.py), then times ``kernelshot.cli.main(argv)`` the way a
user runs it: every invocation is a fresh interpreter (child.py), one client
runs them back to back (a closed loop) for S seconds, and BLAS threads are
capped at the number of usable cores.  Each report is checked against the
stored reference (check.py) and against the run's first report.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  run_s        median time from entering main to its return, report written;
  setup_s      median time from spawning the interpreter to entering main
               (interpreter start plus ``import kernelshot.cli``), over
               set-up-only spawns and every invocation;
  peak_rss_mb  median over invocations of the process's peak resident set.
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics of BENCHMARK.json from the traced ones (tracer.py),
including trace.overhead_frac, the traced over the untraced median run_s
minus one.

The error rate is failed / attempted invocations; an invocation fails when
it exits non-zero, its report fails the check, or its report differs from
the run's first.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Scratch files go to
``.bench_work/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracer
from workloads import WORKLOADS, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SPAWNS = 10
INVOCATION_TIMEOUT_S = 120.0
EXIT_NUMERIC = 4  # kernelshot.cli.EXIT_NUMERIC; the parent does not import the program


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(usable_cores())
    env.update(
        PYTHONPATH=str(SRC),
        KERNELSHOT_BENCH_SRC=str(SRC),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


@dataclass
class Invocation:
    mode: str
    exit_code: int
    setup_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None
    result: dict = field(default_factory=dict)


def spawn(mode: str, run_dir: Path, tag: str, cli_args=(), cwd: Path = ROOT) -> Invocation:
    """Run child.py in a fresh interpreter and wait for it; kill it on timeout."""
    result_path = run_dir / f"{tag}.result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(result_path), "--", *cli_args]
    with open(run_dir / f"{tag}.log", "wb") as log:
        spawned = time.monotonic()
        try:
            code = subprocess.run(
                cmd, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT, timeout=INVOCATION_TIMEOUT_S
            ).returncode
        except subprocess.TimeoutExpired:
            code = -1
    inv = Invocation(mode=mode, exit_code=code)
    if code == 0 and result_path.is_file():
        inv.result = json.loads(result_path.read_text(encoding="utf-8"))
        inv.setup_s = inv.result["entered"] - spawned
        inv.run_s = inv.result["returned"] - inv.result["entered"]
        inv.peak_rss_mb = inv.result["peak_rss_kib"] / 1024.0
    elif code == 0:
        inv.exit_code = -1
    return inv


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(probe: Invocation) -> dict:
    env = {
        "nproc": usable_cores(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "blas_thread_cap": usable_cores(),
        "load": "closed loop, 1 client, invocations back to back",
    }
    env.update(probe.result.get("environment", {}))
    return env


def median(values):
    return statistics.median(values) if values else None


class Run:
    """One workload run: inputs, invocations, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs = generate(self.workload, seed, self.dir / "inputs")
        self.reference = check.load_reference()[name]
        self.invocations: list[Invocation] = []
        self.setup_only: list[Invocation] = []
        self.probe: Invocation | None = None
        self.problems: list[str] = []
        self._first_content: bytes | None = None

    def invoke(self, mode: str) -> Invocation:
        i = len(self.invocations)
        out_dir = self.dir / f"out-{i:04d}"  # fixed width: the path is in report.json
        argv = self.inputs.argv(self.workload, out_dir)
        inv = spawn(mode, self.dir, f"inv-{i}", argv, cwd=self.inputs.directory)
        self.invocations.append(inv)
        if inv.exit_code != 0 or not (out_dir / "report.json").is_file():
            inv.exit_code = inv.exit_code or -1
            self.problems.append(f"invocation {i} ({mode}) exited with {inv.exit_code} or wrote no report")
            return inv
        try:
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            found = check.check_report(self.workload.command, report, self.reference, self.inputs.sha256, self.seed)
            content = check.numeric_content(out_dir)
        except (KeyError, TypeError, ValueError) as exc:
            found, content = [f"report does not have the expected shape: {exc!r}"], None
        if self._first_content is None:
            self._first_content = content
        else:
            if content is not None and content != self._first_content:
                found.append("numeric content differs from the run's first invocation")
            shutil.rmtree(out_dir)
        if found:
            inv.exit_code = -2
            self.problems.extend(f"invocation {i} ({mode}): {p}" for p in found)
        return inv

    def execute(self) -> None:
        self.probe = spawn("env", self.dir, "env")  # also warms the bytecode and file caches
        if self.probe.exit_code != 0 or not self.probe.result["environment"]["kernelshot_from_checkout"]:
            raise RuntimeError(f"kernelshot does not import from {SRC}; see {self.dir / 'env.log'}")
        if not self.trace:
            self.setup_only = [spawn("setup", self.dir, f"setup-{i}") for i in range(SETUP_SPAWNS)]
        modes = ("run", "trace") if self.trace else ("run",)
        start = time.monotonic()
        while True:
            n = len(self.invocations)
            elapsed = time.monotonic() - start
            # stop once the next invocation would end mostly past the deadline
            if n >= len(modes) and elapsed + 0.5 * elapsed / n >= self.seconds:
                break
            self.invoke(modes[n % len(modes)])

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.exit_code != 0)

    def samples(self, attr: str, mode: str = "run") -> list[float]:
        return [getattr(inv, attr) for inv in self.invocations if inv.mode == mode and inv.exit_code == 0]

    def setup_samples(self) -> list[float]:
        return [inv.setup_s for inv in self.setup_only if inv.exit_code == 0] + self.samples("setup_s")

    def end_to_end(self) -> tuple[dict, dict]:
        run_s = self.samples("run_s")
        setup_s = self.setup_samples()
        rss = self.samples("peak_rss_mb")
        metrics = {"run_s": median(run_s), "setup_s": median(setup_s), "peak_rss_mb": median(rss)}
        counts = {"run_s": len(run_s), "setup_s": len(setup_s), "peak_rss_mb": len(rss)}
        return metrics, counts

    def per_layer(self) -> tuple[dict, dict]:
        traced = [inv for inv in self.invocations if inv.mode == "trace" and inv.exit_code == 0]
        if not traced:
            return {}, {}
        metrics, repeated = tracer.layer_metrics([inv.result["spans"] for inv in traced])
        # main turns a NumericError into EXIT_NUMERIC, and such invocations leave no spans
        metrics["bounds.numeric_errors"] = sum(1 for inv in self.invocations if inv.exit_code == EXIT_NUMERIC)
        if not repeated:
            self.problems.append("layer counts differ between traced invocations")
        untraced = self.samples("run_s")
        if untraced:
            metrics["trace.overhead_frac"] = median(self.samples("run_s", "trace")) / median(untraced) - 1.0
        return metrics, {"traced_invocations": len(traced)}


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(name, seed, seconds, trace)
    run.execute()
    values, counts = run.per_layer() if trace else run.end_to_end()
    units = declared_metrics(trace)
    if run.failed == 0 and set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if values.get(k) is not None}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(run.probe),
        "inputs_sha256": run.inputs.sha256,
        "samples": counts,
        "attempted": len(run.invocations),
        "failed": run.failed,
        "error_rate": run.failed / len(run.invocations),
        "problems": run.problems,
        "run_s_samples": run.samples("run_s"),
        "setup_s_samples": run.setup_samples(),
        "metrics": metrics,
        "correct": run.failed == 0 and not run.problems,
    }
    (run.dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
          f"trace {record['trace']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("inputs_sha256 " + json.dumps(record["inputs_sha256"], sort_keys=True))
    for name, metric in record["metrics"].items():
        n = record["samples"].get(name)
        print(f"  {name:<56} {metric['value']:>16.6g} {metric['unit']:<8}" + (f" n={n}" if n else ""))
    print(f"  {'error_rate':<56} {record['error_rate']:>16.6g} {'1':<8} "
          f"failed={record['failed']} attempted={record['attempted']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kernelshot" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'kernelshot' / 'cli.py'} is missing", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for record in records:
        print_summary(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
