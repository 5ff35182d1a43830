"""Outside-in tracer for the traced benchmark run.

The tracer changes no source of the program.  It rebinds each listed public
function in every ``kernelshot.*`` module namespace that holds it, because
modules bind each other's names with ``from .x import f`` and patching the
defining module alone would miss those calls.  Each call becomes a span
(name, start, end, parent) kept in memory; counts that describe the work
(kernel evaluations, rows, bytes) are taken from the arguments and the
result after the span ends, so they add nothing to the span's own time.

``layer_metrics`` turns the spans of one or more traced invocations into the
per-layer metrics named in BENCHMARK.json, all but bounds.numeric_errors
(run.py counts those from exit codes).  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions wrapped in the traced run
TARGETS = {
    "kernels": ("kernel_matrix", "gram_matrix", "inner_with_combo", "centered_gram"),
    "geometry": ("ball_ratio_sweep", "cap_ratio_sweep", "orthogonality_stats", "write_ratio_sweep_csv"),
    "bounds": ("empirical_probability_functions", "mean_concentration_bounds", "combined_success_bounds"),
    "classifier": ("decision_values", "fit_few_shot", "roc_curve", "normalize_feature_table"),
    "distributions": ("sample_unit_ball",),
    "ingest": ("ingest_feature_csv",),
    "experiments": ("write_csv_atomic", "write_json_atomic", "run_experiment"),
    "cli": ("main",),
}

# span fields, in export order
NAME, START, END, PARENT, COUNTS = range(5)


def _rows(data) -> int:
    shape = np.shape(getattr(data, "points", data))
    return int(shape[0]) if len(shape) == 2 else 1


def _width(data) -> int:
    return int(np.shape(getattr(data, "points", data))[-1])


def _kernel_matrix_counts(args, result):
    rows, cols = result.shape
    d = _width(args["X"])
    # computed bytes: both point arrays read once, the result written once
    return {"evals": rows * cols, "bytes": 8 * (rows * d + cols * d + rows * cols)}


def _sweep_counts(args, result):
    n = _rows(args["probe"])
    return {"probe_points": n, "probe_support": n * args["c"].size}


# span name -> (args, result) -> counts; args are the bound call arguments
COUNTERS = {
    "kernels.kernel_matrix": _kernel_matrix_counts,
    "kernels.gram_matrix": lambda a, r: {"evals": int(r.size)},
    "kernels.inner_with_combo": lambda a, r: {"calls": 1},
    "kernels.centered_gram": lambda a, r: {"bytes": int(r.nbytes)},
    "geometry.ball_ratio_sweep": _sweep_counts,
    "geometry.cap_ratio_sweep": _sweep_counts,
    "geometry.orthogonality_stats": lambda a, r: {"pairs": r.n_pairs, "n2": _rows(a["sample"]) ** 2},
    "geometry.write_ratio_sweep_csv": lambda a, r: {"bytes_written": os.path.getsize(a["path"])},
    "bounds.empirical_probability_functions": lambda a, r: {"projection_knots": int(r.projection.knots.size)},
    "bounds.mean_concentration_bounds": lambda a, r: {"calls": 1},
    "bounds.combined_success_bounds": lambda a, r: {
        "grid_size": r.new_class.grid_size + r.old_class.grid_size
    },
    "classifier.decision_values": lambda a, r: {"rows": int(r.size)},
    "classifier.fit_few_shot": lambda a, r: {"calls": 1},
    "distributions.sample_unit_ball": lambda a, r: {"points": r.n},
    "ingest.ingest_feature_csv": lambda a, r: {"bytes": os.path.getsize(a["path"]), "rows": r.n},
    "experiments.write_csv_atomic": lambda a, r: {"bytes_written": os.path.getsize(a["path"])},
    "experiments.write_json_atomic": lambda a, r: {"bytes_written": os.path.getsize(a["path"])},
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        clock = self.clock
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[COUNTS] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in each loaded kernelshot module that holds it."""
        import kernelshot.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "kernelshot" or n.startswith("kernelshot.")]
        for module_name, names in TARGETS.items():
            defining = sys.modules[f"kernelshot.{module_name}"]
            for name in names:
                original = getattr(defining, name)
                traced = self.wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def export(self) -> list[list]:
        return self.spans


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its children.

    Spans come from one thread's call stack, so the children of a span are
    disjoint and lie inside it.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def subtree_counts(spans, key: str, source: str) -> list[float]:
    """Sum of counts[key] over each span's descendants named `source`."""
    totals = [0] * len(spans)
    for span in spans:
        if span[NAME] != source or not span[COUNTS]:
            continue
        value = span[COUNTS][key]
        parent = span[PARENT]
        while parent >= 0:
            totals[parent] += value
            parent = spans[parent][PARENT]
    return totals


def _invocation_figures(spans) -> tuple[dict, dict]:
    """Per-name self time and per-name count sums for one invocation."""
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    evals_below = subtree_counts(spans, "evals", "kernels.kernel_matrix")
    for span, own, below in zip(spans, self_times(spans), evals_below):
        name = span[NAME]
        self_s[name] += own
        counts[name]["evals_below"] += below
        for key, value in (span[COUNTS] or {}).items():
            counts[name][key] += value
    return self_s, counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _count_metrics(c) -> dict:
    """Counts and ratios of one invocation, named as in BENCHMARK.json."""
    ball = c["geometry.ball_ratio_sweep"]
    cap = c["geometry.cap_ratio_sweep"]
    orth = c["geometry.orthogonality_stats"]
    dv = c["classifier.decision_values"]
    written = sum(
        c[name]["bytes_written"]
        for name in ("experiments.write_csv_atomic", "experiments.write_json_atomic", "geometry.write_ratio_sweep_csv")
    )
    return {
        "kernels.kernel_matrix.evals": c["kernels.kernel_matrix"]["evals"],
        "kernels.kernel_matrix.bytes": c["kernels.kernel_matrix"]["bytes"],
        "kernels.inner_with_combo.calls": c["kernels.inner_with_combo"]["calls"],
        "kernels.gram_matrix.evals": c["kernels.gram_matrix"]["evals"],
        "kernels.centered_gram.bytes": c["kernels.centered_gram"]["bytes"],
        "geometry.probe_points": ball["probe_points"] + cap["probe_points"],
        "geometry.ball_ratio_sweep.evals_per_probe_support": _ratio(ball["evals_below"], ball["probe_support"]),
        "geometry.cap_ratio_sweep.evals_per_probe_support": _ratio(cap["evals_below"], cap["probe_support"]),
        "geometry.orthogonality_stats.pairs": orth["pairs"],
        "geometry.orthogonality_stats.evals_per_n2": _ratio(orth["evals_below"], orth["n2"]),
        "bounds.projection_knots": c["bounds.empirical_probability_functions"]["projection_knots"],
        "bounds.mean_concentration_bounds.calls": c["bounds.mean_concentration_bounds"]["calls"],
        "bounds.grid_size": c["bounds.combined_success_bounds"]["grid_size"],
        "classifier.decision_values.rows": dv["rows"],
        "classifier.decision_values.evals_per_row": _ratio(dv["evals_below"], dv["rows"]),
        "classifier.fit_few_shot.calls": c["classifier.fit_few_shot"]["calls"],
        "distributions.sample_unit_ball.points": c["distributions.sample_unit_ball"]["points"],
        "ingest.ingest_feature_csv.bytes": c["ingest.ingest_feature_csv"]["bytes"],
        "ingest.ingest_feature_csv.rows": c["ingest.ingest_feature_csv"]["rows"],
        "experiments.bytes_written": written,
    }


SELF_TIME_SPANS = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)


def layer_metrics(invocations) -> tuple[dict, bool]:
    """Per-layer metrics from the spans of each traced invocation.

    Self times are medians over the invocations.  Counts come from the first
    invocation; the second value says whether every invocation repeated them
    exactly.
    """
    figures = [_invocation_figures(spans) for spans in invocations]
    counts = [_count_metrics(c) for _, c in figures]
    metrics = {
        f"{name}.self_s": statistics.median(s[name] for s, _ in figures) for name in SELF_TIME_SPANS
    }
    metrics.update(counts[0])
    return metrics, all(c == counts[0] for c in counts)
