"""The correctness check behind the error rate."""

import contextlib
import copy
import io
import json
import shutil

import pytest

import check
from workloads import WORKLOADS, generate


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One real report per workload with a sandwich flag or trials field."""
    from kernelshot.cli import main

    out = {}
    for name in ("bounds-linear", "volume-ratio-gaussian"):
        workload = WORKLOADS[name]
        directory = tmp_path_factory.mktemp(name)
        inputs = generate(workload, 0, directory)
        with contextlib.chdir(directory), contextlib.redirect_stdout(io.StringIO()):
            assert main(inputs.argv(workload, directory / "out")) == 0
        report = json.loads((directory / "out" / "report.json").read_text())
        out[name] = (workload.command, report, inputs.sha256, directory / "out")
    return out


def _problems(name, command, report, sha256, seed=0):
    return check.check_report(command, report, check.load_reference()[name], sha256, seed)


@pytest.mark.parametrize("name", ["bounds-linear", "volume-ratio-gaussian"])
@pytest.mark.parametrize("seed", [0, 99])  # a stored seed, and one checked against the cross-seed spread
def test_untouched_report_passes(reports, name, seed):
    command, report, sha256, _ = reports[name]
    assert _problems(name, command, report, sha256, seed) == []


def test_flipped_sandwich_flag_fails(reports):
    command, report, sha256, _ = reports["bounds-linear"]
    tampered = copy.deepcopy(report)
    tampered["results"]["theta_results"][1]["sandwich"]["old_class"] = False
    problems = _problems("bounds-linear", command, tampered, sha256)
    assert problems == ["theta[0.0].sandwich.old_class is False"]


def test_flipped_containment_flag_fails(reports):
    command, report, sha256, _ = reports["bounds-linear"]
    tampered = copy.deepcopy(report)
    tampered["results"]["mean_concentration"][3]["contained"] = False
    assert _problems("bounds-linear", command, tampered, sha256) == ["mean_concentration[3].contained is False"]


def test_changed_trials_fails(reports):
    command, report, sha256, _ = reports["volume-ratio-gaussian"]
    tampered = copy.deepcopy(report)
    entry = tampered["results"]["ball"][2]
    entry["trials"] += 1
    problems = _problems("volume-ratio-gaussian", command, tampered, sha256)
    assert any(p.startswith("ball[0.6].trials: 100001 != reference 100000") for p in problems)


def test_value_outside_tolerance_fails(reports):
    command, report, sha256, _ = reports["volume-ratio-gaussian"]
    tampered = copy.deepcopy(report)
    tampered["results"]["radius"] *= 1.5
    problems = _problems("volume-ratio-gaussian", command, tampered, sha256)
    assert len(problems) == 1 and problems[0].startswith("radius:")


def test_numeric_content_ignores_only_timestamp_and_out(reports, tmp_path):
    *_, out_dir = reports["bounds-linear"]
    copy_dir = tmp_path / "copy"
    shutil.copytree(out_dir, copy_dir)
    report = json.loads((copy_dir / "report.json").read_text())
    report["provenance"]["timestamp"] = "another time"
    report["config"]["out"] = "elsewhere"
    (copy_dir / "report.json").write_text(json.dumps(report))
    assert check.numeric_content(copy_dir) == check.numeric_content(out_dir)
    report["results"]["dist_sq"] += 1e-12
    (copy_dir / "report.json").write_text(json.dumps(report))
    assert check.numeric_content(copy_dir) != check.numeric_content(out_dir)


def test_monte_carlo_estimate_off_by_a_bug_sized_amount_fails(reports):
    command, report, sha256, _ = reports["bounds-linear"]
    tampered = copy.deepcopy(report)
    # 20 of the 1e4 draws: far inside the cross-seed spread of this field
    tampered["results"]["mean_concentration"][4]["mc_estimate"] += 0.002
    problems = _problems("bounds-linear", command, tampered, sha256)
    assert [p.split(":")[0] for p in problems] == ["mean_concentration[4].mc_estimate"]
    # the cross-seed tolerance alone would let it pass
    assert _problems("bounds-linear", command, tampered, sha256, seed=99) == []


def test_one_hit_more_fails(reports):
    command, report, sha256, _ = reports["volume-ratio-gaussian"]
    tampered = copy.deepcopy(report)
    entry = tampered["results"]["cap"][2]
    entry["hits"] += 1
    entry["ratio"] = entry["hits"] / entry["trials"]
    problems = _problems("volume-ratio-gaussian", command, tampered, sha256)
    assert sorted(p.split(":")[0] for p in problems) == ["cap[0.0].hits", "cap[0.0].ratio"]
