"""Span bookkeeping, self-time arithmetic and the outside-in rebinding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

BENCH_DIR = Path(tracer.__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_fake_calls():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf(duration):
        clock.now += duration

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5
        traced_leaf(3.0)

    def outer():
        clock.now += 4.0
        traced_middle()
        clock.now += 0.25

    traced_leaf = t.wrap("leaf", leaf)
    traced_middle = t.wrap("middle", middle)
    t.wrap("outer", outer)()

    spans = t.export()
    assert [s[tracer.NAME] for s in spans] == ["outer", "middle", "leaf", "leaf"]
    assert [s[tracer.PARENT] for s in spans] == [-1, 0, 1, 1]
    assert tracer.self_times(spans) == [4.25, 1.5, 2.0, 3.0]
    # self times partition the root span
    assert sum(tracer.self_times(spans)) == spans[0][tracer.END] - spans[0][tracer.START]


def test_failed_call_keeps_its_span_and_unwinds_the_stack():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    span = t.export()[0]
    assert span[tracer.END] - span[tracer.START] == 1.0
    assert t._stack == []


def test_subtree_counts_reach_every_ancestor():
    spans = [
        ["root", 0, 1, -1, None],
        ["kernels.kernel_matrix", 0, 1, 0, {"evals": 6}],
        ["mid", 0, 1, 0, None],
        ["kernels.kernel_matrix", 0, 1, 2, {"evals": 4}],
    ]
    assert tracer.subtree_counts(spans, "evals", "kernels.kernel_matrix") == [10, 0, 4, 0]


def test_traced_child_rebinds_names_imported_by_other_modules(tmp_path):
    config = {
        "command": "volume-ratio",
        "kernel": {"kind": "gaussian", "sigma": 0.5},
        "d": 3,
        "support_size": 50,
        "probe_size": 3000,
        "eps_grid": [0.5, 1.0],
        "delta_grid": [0.0],
        "seed": 3,
        "out": str(tmp_path / "out"),
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
    result_path = tmp_path / "r.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "trace", str(result_path), "--",
         "volume-ratio", "--config", str(tmp_path / "c.json")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    spans = json.loads(result_path.read_text())["spans"]
    names = [s[tracer.NAME] for s in spans]
    # the sweeps are called through names experiments.py imported from geometry
    sweep = names.index("geometry.ball_ratio_sweep")
    assert names[spans[sweep][tracer.PARENT]] == "experiments.run_experiment"
    assert names[0] == "cli.main"
    metrics, repeated = tracer.layer_metrics([spans, spans])
    assert repeated
    assert metrics["geometry.ball_ratio_sweep.evals_per_probe_support"] == 1.0
    assert metrics["geometry.probe_points"] == 6000
    assert metrics["kernels.kernel_matrix.evals"] > 0
