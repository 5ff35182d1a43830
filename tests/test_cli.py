"""CLI and experiment runners: exit codes, config validation, determinism,
report round trips, and analytic spot checks on emitted data."""

import csv
import json
import os
from collections import Counter

import numpy as np
import pytest

from kernelshot import (
    DomainSpec,
    NumericError,
    auroc,
    cap_ratio_sweep,
    decision_values,
    fit_few_shot,
    ingest_feature_csv,
    linear_ball_ratio,
    linear_kernel,
    mean_combination,
    normalize_feature_table,
    roc_curve,
    sample_domain,
    spawn_seeds,
    write_feature_csv,
)
from kernelshot import kernels
from kernelshot.cli import main
from kernelshot.experiments import ball_cloud, load_config, write_csv_atomic


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def feature_files(tmp_path):
    d = 50
    old = ball_cloud(d, np.r_[4.0, np.zeros(d - 1)], 0.5, 200, seed=1)
    new = ball_cloud(d, np.zeros(d), 0.5, 200, seed=2)
    old_path = tmp_path / "old.csv"
    new_path = tmp_path / "new.csv"
    write_feature_csv(old_path, old, ["old"] * len(old))
    write_feature_csv(new_path, new, ["new"] * len(new))
    return old_path, new_path


class TestIngestCheck:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "ok.csv"
        write_feature_csv(path, [[1.0, 2.0], [3.0, 4.0]], ["a", "b"])
        assert main(["ingest-check", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 2
        assert summary["labels"] == {"a": 1, "b": 1}

    def test_invalid_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,x,a\n", encoding="utf-8")
        assert main(["ingest-check", str(path)]) == 3
        assert "input data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blob, fragment",
        [(b"f0,label\n\xff1,a\n", "not UTF-8: line 2, byte offset 9"), (b"f0,label\r1,a\r", "LF or CRLF")],
        ids=["not-utf8", "cr-only"],
    )
    def test_unreadable_file_exits_3(self, tmp_path, capsys, blob, fragment):
        path = tmp_path / "bad.csv"
        path.write_bytes(blob)
        assert main(["ingest-check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input data error")
        assert f"{path}: " in err and fragment in err
        assert "Traceback" not in err


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["volume-ratio", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize(
        "text, fragment", [('{"d": 3,', "is not valid JSON"), ("[1, 2]", "must contain a JSON object")],
        ids=["not-json", "json-array"],
    )
    def test_config_file_that_is_not_a_json_object(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "c.json"
        path.write_text(text, encoding="utf-8")
        assert main(["volume-ratio", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and fragment in err
        assert "Traceback" not in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"kernel": {"kind": "linear"}, "d": 3, "eps_grid": [0.5], "out": str(tmp_path / "o"),
             "typo_field": 1},
        )
        assert main(["volume-ratio", "--config", cfg]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"command": "bounds", "kernel": {"kind": "linear"}, "d": 3, "eps_grid": [0.5],
             "out": str(tmp_path / "o")},
        )
        assert main(["volume-ratio", "--config", cfg]) == 2

    def test_invalid_kernel_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"kernel": {"kind": "gaussian"}, "d": 3, "eps_grid": [0.5], "out": str(tmp_path / "o")},
        )
        assert main(["volume-ratio", "--config", cfg]) == 2

    def test_numeric_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        import kernelshot.cli as cli_module

        def boom(config):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli_module, "run_experiment", boom)
        cfg = write_config(
            tmp_path / "c.json",
            {"kernel": {"kind": "linear"}, "d": 3, "eps_grid": [0.5], "out": str(tmp_path / "o")},
        )
        assert main(["volume-ratio", "--config", cfg]) == 4
        assert "numeric failure" in capsys.readouterr().err


class TestVolumeRatioCommand:
    def base_config(self, tmp_path):
        return {
            "kernel": {"kind": "linear", "bias": 0.0},
            "d": 3,
            "support_size": 400,
            "probe_size": 4000,
            "eps_grid": [0.3, 0.5, 0.8],
            "delta_grid": [-0.5, 0.0, 0.5],
            "seed": 7,
            "out": str(tmp_path / "out"),
        }

    def test_emits_reports_and_matches_power_law(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.base_config(tmp_path))
        assert main(["volume-ratio", "--config", cfg]) == 0
        out = tmp_path / "out"
        rows = read_csv(out / "ball_ratios.csv")
        assert [r["eps_or_delta"] for r in rows] == ["0.3", "0.5", "0.8"]
        for row in rows:
            eps = float(row["eps_or_delta"])
            # sample-estimated mean and radius: allow the generous analytic window
            assert float(row["ci_low"]) - 0.05 <= linear_ball_ratio(eps, 3) <= float(row["ci_high"]) + 0.05
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["radius_provenance"] == "sample-estimated"
        assert report["provenance"]["seed"] == 7
        assert (out / "cap_ratios.csv").exists()

    def test_determinism_and_round_trip(self, tmp_path):
        config = self.base_config(tmp_path)
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["volume-ratio", "--config", cfg]) == 0
        first_csv = (tmp_path / "out" / "ball_ratios.csv").read_bytes()
        first_results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]

        config["out"] = str(tmp_path / "out2")
        cfg2 = write_config(tmp_path / "c2.json", config)
        assert main(["volume-ratio", "--config", cfg2]) == 0
        second_csv = (tmp_path / "out2" / "ball_ratios.csv").read_bytes()
        second_results = json.loads((tmp_path / "out2" / "report.json").read_text())["results"]
        assert first_csv == second_csv
        assert first_results == second_results

        # re-parsing the emitted CSV reproduces the in-memory ratios exactly
        rows = read_csv(tmp_path / "out" / "ball_ratios.csv")
        for row, entry in zip(rows, first_results["ball"]):
            assert float(row["ratio"]) == entry["ratio"]
            assert int(row["hits"]) == entry["hits"]

    def test_raw_delta_scale_uses_the_grid_values(self, tmp_path):
        config = {**self.base_config(tmp_path), "eps_grid": [], "delta_grid": [-0.2, 0.1, 0.4], "delta_scale": "raw"}
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["volume-ratio", "--config", cfg]) == 0
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert [row["delta"] for row in results["cap"]] == [row["grid_value"] for row in results["cap"]]
        assert [row["grid_value"] for row in results["cap"]] == config["delta_grid"]

        # the same support and probe as the run, swept directly at those deltas
        support_seed, probe_seed = spawn_seeds(config["seed"], 2)
        domain = DomainSpec("unit_ball", config["d"])
        spec = linear_kernel(0.0)
        centre = mean_combination(spec, sample_domain(domain, config["support_size"], support_seed))
        probe = sample_domain(domain, config["probe_size"], probe_seed)
        direct = cap_ratio_sweep(spec, centre, np.eye(config["d"])[0], probe, results["radius"], config["delta_grid"])
        assert [row["hits"] for row in results["cap"]] == [est.hits for est in direct]
        assert [int(row["hits"]) for row in read_csv(tmp_path / "out" / "cap_ratios.csv")] == [est.hits for est in direct]

    def test_seed_override_changes_results(self, tmp_path):
        config = self.base_config(tmp_path)
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["volume-ratio", "--config", cfg]) == 0
        base = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert main(["volume-ratio", "--config", cfg, "--seed", "8", "--out", str(tmp_path / "o3")]) == 0
        other = json.loads((tmp_path / "o3" / "report.json").read_text())
        assert other["provenance"]["seed"] == 8
        assert other["results"] != base


class TestOrthogonalityCommand:
    def test_runs_and_reports(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "kernels": [{"kind": "linear", "bias": 0.0}, {"kind": "gaussian", "sigma": 1.0}],
                "d_values": [5, 30],
                "n_points": 150,
                "seed": 3,
                "out": str(tmp_path / "orth"),
            },
        )
        assert main(["orthogonality", "--config", cfg]) == 0
        rows = read_csv(tmp_path / "orth" / "orthogonality.csv")
        assert len(rows) == 4
        by_key = {(r["kernel"], int(r["d"])): float(r["mean_abs_cos"]) for r in rows}
        # higher dimension improves orthogonality for both kernels
        for kernel in {r["kernel"] for r in rows}:
            assert by_key[(kernel, 30)] < by_key[(kernel, 5)]


class TestBoundsCommand:
    def test_runs_sandwich_and_is_deterministic(self, tmp_path):
        config = {
            "kernel": {"kind": "linear", "bias": 0.0},
            "d": 8,
            "centre_distance": 3.0,
            "radius_new": 0.5,
            "radius_old": 0.5,
            "reference_size": 300,
            "shots": 6,
            "theta_grid": [-1.0],
            "s_points": 5,
            "refits": 12,
            "draws": 400,
            "seed": 5,
            "out": str(tmp_path / "b1"),
        }
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["bounds", "--config", cfg]) == 0
        report = json.loads((tmp_path / "b1" / "report.json").read_text())
        theta_result = report["results"]["theta_results"][0]
        assert theta_result["sandwich"]["new_class"] is True
        assert theta_result["sandwich"]["old_class"] is True
        assert all(row["contained"] for row in report["results"]["mean_concentration"])
        assert report["results"]["centres"] == "empirical-feature-means"

        config["out"] = str(tmp_path / "b2")
        cfg2 = write_config(tmp_path / "c2.json", config)
        assert main(["bounds", "--config", cfg2]) == 0
        second = json.loads((tmp_path / "b2" / "report.json").read_text())
        assert second["results"] == report["results"]

    def test_old_class_bound_holds_for_close_classes(self, tmp_path):
        # at distance 1 and theta -1 about 40% of old points are misclassified,
        # so the old-class bracket must not be [1, 1]
        config = {
            "kernel": {"kind": "linear", "bias": 0.0},
            "d": 20,
            "centre_distance": 1.0,
            "reference_size": 1000,
            "refits": 20,
            "draws": 2000,
            "theta_grid": [-1.0, 0.0],
            "seed": 1,
            "out": str(tmp_path / "b"),
        }
        assert main(["bounds", "--config", write_config(tmp_path / "c.json", config)]) == 0
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        results = report["results"]["theta_results"]
        assert results[0]["mc"]["old_class"]["estimate"] < 0.9
        for entry in results:
            assert entry["sandwich"] == {"new_class": True, "old_class": True}

    def test_genuine_bound_inversion_exits_4(self, tmp_path, capsys):
        # two shots on tight well-separated data expose the inconsistent
        # symmetric upper bound; the CLI must surface it as a numeric failure
        cfg = write_config(
            tmp_path / "c.json",
            {
                "kernel": {"kind": "linear", "bias": 0.0},
                "d": 12,
                "centre_distance": 4.0,
                "reference_size": 300,
                "shots": 2,
                "theta_grid": [-1.0],
                "refits": 4,
                "draws": 100,
                "seed": 9,
                "out": str(tmp_path / "b4"),
            },
        )
        assert main(["bounds", "--config", cfg]) == 4
        assert "inverted" in capsys.readouterr().err


class TestFewShotRocCommand:
    def test_separable_features_reach_high_auroc(self, tmp_path, feature_files):
        old_path, new_path = feature_files
        cfg = write_config(
            tmp_path / "c.json",
            {
                "kernels": [{"kind": "linear", "bias": 0.0}, {"kind": "polynomial", "degree": 2, "bias": 1.0}],
                "old_features": str(old_path),
                "new_features": str(new_path),
                "shots": 10,
                "n_seeds": 20,
                "seed": 11,
                "out": str(tmp_path / "roc"),
            },
        )
        assert main(["fewshot-roc", "--config", cfg]) == 0
        report = json.loads((tmp_path / "roc" / "report.json").read_text())
        summary = {s["kernel"]: s["mean_auroc"] for s in report["results"]["summary"]}
        assert all(v >= 0.99 for v in summary.values())
        rows = read_csv(tmp_path / "roc" / "auroc.csv")
        assert len(rows) == 40
        assert report["results"]["sources"]["old_features"]["checksum"]

    @pytest.mark.parametrize("test_tables", [True, False], ids=["test-tables", "unused-shots"])
    def test_matches_a_per_seed_evaluation(self, tmp_path, feature_files, test_tables):
        # the runner scores rows against the old centre once per kernel; the
        # per-seed evaluation from scratch must give the same bits
        old_path, new_path = feature_files
        raw = {
            "kernels": [{"kind": "linear"}, {"kind": "polynomial", "degree": 2, "bias": 1.0},
                        {"kind": "gaussian", "sigma": 0.5}],
            "old_features": str(old_path),
            "new_features": str(new_path),
            "shots": 5,
            "seeds": [3, 1],
            "out": str(tmp_path / "roc"),
        }
        if test_tables:
            raw.update(old_test=str(old_path), new_test=str(new_path))
        assert main(["fewshot-roc", "--config", write_config(tmp_path / "c.json", raw)]) == 0
        report = json.loads((tmp_path / "roc" / "report.json").read_text())

        cfg = load_config("fewshot-roc", raw)
        old_rows = ingest_feature_csv(old_path).rows
        new_rows = ingest_feature_csv(new_path).rows
        old_norm, new_norm, transform = normalize_feature_table(old_rows, new_rows)
        want = []
        for kernel_idx, spec in enumerate(cfg.kernels):
            centre_old = mean_combination(spec, old_norm)
            for seed_idx, seed in enumerate(cfg.seeds):
                idx = np.random.default_rng(seed).choice(len(new_norm), size=cfg.shots, replace=False)
                model = fit_few_shot(spec, new_norm[idx], centre_old)
                if test_tables:
                    pos, neg = transform.apply(new_rows), transform.apply(old_rows)
                else:
                    pos, neg = np.delete(new_norm, idx, axis=0), old_norm
                curve = roc_curve(decision_values(model, pos), decision_values(model, neg))
                want.append(auroc(curve))
                if seed_idx == 0:
                    written = read_csv(tmp_path / "roc" / f"roc_kernel{kernel_idx}_seed{seed}.csv")
                    assert [float(r["threshold"]) for r in written] == curve.thresholds.tolist()
        assert [r["auroc"] for r in report["results"]["per_seed"]] == want
        # the ingested tables are freed before the kernels run; their sources stay
        old_source = (str(old_path), ingest_feature_csv(old_path).checksum)
        new_source = (str(new_path), ingest_feature_csv(new_path).checksum)
        sources = {k: v and (v["path"], v["checksum"]) for k, v in report["results"]["sources"].items()}
        assert sources == {
            "old_features": old_source,
            "new_features": new_source,
            "old_test": old_source if test_tables else None,
            "new_test": new_source if test_tables else None,
        }

    def test_old_rows_evaluated_once_against_the_old_centre(self, tmp_path, feature_files, monkeypatch):
        # without an old_test table the negatives are the old centre's own
        # support, whose column its construction summed
        pairs = Counter()
        original = kernels.kernel_matrix

        def recording(spec, X, Y):
            y = np.asarray(getattr(Y, "support", Y)).tobytes()
            pairs.update((x.tobytes(), y) for x in np.asarray(X))
            return original(spec, X, Y)

        monkeypatch.setattr(kernels, "kernel_matrix", recording)
        old_path, new_path = feature_files
        raw = {"kernels": [{"kind": "gaussian", "sigma": 0.5}], "old_features": str(old_path),
               "new_features": str(new_path), "shots": 5, "seeds": [3, 1], "out": str(tmp_path / "roc")}
        assert main(["fewshot-roc", "--config", write_config(tmp_path / "c.json", raw)]) == 0
        old_norm = normalize_feature_table(ingest_feature_csv(old_path).rows, ingest_feature_csv(new_path).rows)[0]
        # 200 rows: one block against the support, no padding rows
        assert [pairs[x.tobytes(), old_norm.tobytes()] for x in old_norm] == [1] * len(old_norm)

    def test_missing_feature_file_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "old_features": str(tmp_path / "nope.csv"),
                "new_features": str(tmp_path / "nope2.csv"),
                "out": str(tmp_path / "roc"),
            },
        )
        assert main(["fewshot-roc", "--config", cfg]) == 3

    def test_explicit_seed_list_is_echoed(self, tmp_path, feature_files):
        old_path, new_path = feature_files
        cfg = write_config(
            tmp_path / "c.json",
            {
                "old_features": str(old_path),
                "new_features": str(new_path),
                "shots": 5,
                "seeds": [3, 1, 4],
                "out": str(tmp_path / "roc2"),
            },
        )
        assert main(["fewshot-roc", "--config", cfg]) == 0
        report = json.loads((tmp_path / "roc2" / "report.json").read_text())
        assert report["config"]["seeds"] == [3, 1, 4]
        assert [r["seed"] for r in report["results"]["per_seed"]] == [3, 1, 4]


# small valid configs, one per command; fewshot-roc reads old.csv / new.csv
# from the working directory
SMALL_CONFIGS = {
    "orthogonality": {"kernels": [{"kind": "linear"}], "d_values": [3], "n_points": 10},
    "volume-ratio": {"kernel": {"kind": "linear"}, "d": 2, "support_size": 20, "probe_size": 100,
                     "eps_grid": [0.5]},
    "bounds": {"kernel": {"kind": "linear"}, "d": 3, "reference_size": 50, "theta_grid": [-1.0],
               "refits": 3, "draws": 50},
    "fewshot-roc": {"old_features": "old.csv", "new_features": "new.csv", "shots": 2, "n_seeds": 2},
}


@pytest.mark.parametrize(
    "command, patch, code, fragment",
    [
        ("volume-ratio", {"eps_grid": [1.5]}, 2, "'eps_grid'"),
        ("orthogonality", {"kernels": []}, 2, "'kernels'"),
        ("orthogonality", {"d_values": []}, 2, "'d_values'"),
        ("orthogonality", {"d_values": "abc"}, 2, "'d_values'"),
        ("bounds", {"d": 0}, 2, "'d'"),
        ("volume-ratio", {"seed": -1}, 2, "'seed'"),
        ("fewshot-roc", {"seed": -1}, 2, "'seed'"),
        ("volume-ratio", {"kernel": {"kind": "gaussian", "sigma": float("nan")}}, 2, "'sigma'"),
        ("bounds", {"theta_grid": []}, 2, "'theta_grid'"),
        ("fewshot-roc", {"old_test": "wide.csv"}, 3, "wide.csv"),
        ("fewshot-roc", {"old_features": "flat.csv", "new_features": "flat.csv"}, 3, "flat.csv"),
        ("fewshot-roc", {"old_features": "nan.csv"}, 3, "nan.csv: line 3, column 2"),
        ("fewshot-roc", {"new_features": "inf.csv"}, 3, "inf.csv: line 3, column 2"),
        ("volume-ratio", {"domain": "unit_ball", "half_width": 5.0}, 2, "'half_width'"),
        ("orthogonality", {"schema_version": 2}, 2, "unsupported schema_version 2"),
        ("volume-ratio", {"eps_grid": [], "delta_grid": []}, 2, "eps_grid / delta_grid"),
        ("fewshot-roc", {"shots": 6}, 2, "shots (6) must be fewer than new-class rows (6)"),
        ("fewshot-roc", {"shots": 7, "new_test": "new.csv"}, 2, "shots (7) exceeds new-class rows (6)"),
        ("fewshot-roc", {"old_features": "empty.csv"}, 3, "empty.csv: empty file"),
        ("orthogonality", {"out": "afile.txt"}, 2, "'out': 'afile.txt' is not a directory"),
        ("bounds", {"out": "afile.txt/sub"}, 2, "'out': 'afile.txt' is not a directory"),
        ("orthogonality", {"schema_version": True}, 2, "unsupported schema_version True"),
    ],
    ids=["eps-above-1", "no-kernels", "no-d-values", "d-values-string", "bounds-d-0", "negative-seed",
         "fewshot-negative-seed", "sigma-nan", "no-thetas", "test-table-width", "zero-max-norm", "nan-cell",
         "inf-cell", "half-width-unit-ball", "schema-version-2", "no-grids", "shots-all-new-rows",
         "shots-above-new-rows", "empty-feature-file", "out-names-a-file", "out-through-a-file",
         "schema-version-true"],
)
def test_bad_input_exits_with_documented_code(tmp_path, monkeypatch, capsys, command, patch, code, fragment):
    monkeypatch.chdir(tmp_path)
    rows = ball_cloud(3, np.zeros(3), 1.0, 6, seed=0)
    write_feature_csv("old.csv", rows, ["old"] * 6)
    write_feature_csv("new.csv", rows + 2.0, ["new"] * 6)
    write_feature_csv("wide.csv", np.ones((6, 4)), ["old"] * 6)
    write_feature_csv("flat.csv", np.ones((6, 3)), ["old"] * 6)
    for name, bad in (("nan.csv", np.nan), ("inf.csv", np.inf)):
        table = rows.copy()
        table[1, 1] = bad
        write_feature_csv(name, table, ["x"] * 6)
    (tmp_path / "empty.csv").write_bytes(b"")
    (tmp_path / "afile.txt").write_text("not a directory\n")
    cfg = write_config(tmp_path / "c.json", {**SMALL_CONFIGS[command], "out": "out", **patch})

    assert main([command, "--config", cfg]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error" if code == 2 else "input data error")
    assert fragment in err
    assert not (tmp_path / "out" / "report.json").exists()


OVERFLOWING_KERNELS = {
    # (100 + x.y)^200 overflows a double; its cases keep the bare command as id
    "": ({"kind": "polynomial", "degree": 200, "bias": 10.0}, "poly200(b=10)"),
    # bias^2 itself overflows, as a Python float power
    "-poly2-huge-bias": ({"kind": "polynomial", "degree": 2, "bias": 1e200}, "poly2(b=1e+200)"),
    "-linear-huge-bias": ({"kind": "linear", "bias": 1e200}, "linear(b=1e+200)"),
}


@pytest.mark.parametrize(
    "command, kernel, label",
    [
        pytest.param(command, kernel, label, id=command + suffix)
        for command in ("volume-ratio", "orthogonality", "bounds", "fewshot-roc")
        for suffix, (kernel, label) in OVERFLOWING_KERNELS.items()
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_overflow_exits_4(tmp_path, monkeypatch, capsys, command, kernel, label):
    monkeypatch.chdir(tmp_path)
    rows = ball_cloud(3, np.zeros(3), 1.0, 6, seed=0)
    write_feature_csv("old.csv", rows, ["old"] * 6)
    write_feature_csv("new.csv", rows + 2.0, ["new"] * 6)
    patch = {"kernels": [kernel]} if command in ("orthogonality", "fewshot-roc") else {"kernel": kernel}
    cfg = write_config(tmp_path / "c.json", {**SMALL_CONFIGS[command], **patch, "out": str(tmp_path / "out")})
    assert main([command, "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure")
    assert "not finite" in err
    assert label in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "kernel, radius, label",
    [
        ({"kind": "linear"}, 1e-200, "linear(b=0)"),
        ({"kind": "polynomial", "degree": 3, "bias": 0.0}, 1e-120, "poly3(b=0)"),
    ],
    ids=["linear", "poly3"],
)
def test_zero_prototype_distance_exits_4(tmp_path, capsys, kernel, radius, label):
    # the prototypes' feature distances to the new-class centre round to 0,
    # so the mean-concentration s grid, from half the smallest, would start at 0
    patch = {"kernel": kernel, "radius_new": radius, "radius_old": radius, "out": str(tmp_path / "out")}
    cfg = write_config(tmp_path / "c.json", {**SMALL_CONFIGS["bounds"], **patch})
    assert main(["bounds", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure")
    assert f"{label} refit prototype distance 0.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("support_size", [10, 16, 20, 32])
def test_single_feature_point_support_exits_4(tmp_path, capsys, support_size):
    # at sigma 1e30 every kernel value is exactly 1, so the support has one
    # image and the sweeps would have no radius to scale by; the computed
    # radius is 0 or round-off (1.49e-8 at 20 points)
    kernel = {"kind": "gaussian", "sigma": 1e30}
    patch = {"kernel": kernel, "support_size": support_size, "out": str(tmp_path / "out")}
    cfg = write_config(tmp_path / "c.json", {**SMALL_CONFIGS["volume-ratio"], **patch})
    assert main(["volume-ratio", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure")
    assert "gaussian(sigma=1e+30)" in err
    assert "enclosing radius 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_config_round_trips_through_its_echo(command):
    config = load_config(command, {**SMALL_CONFIGS[command], "out": "out"})
    assert load_config(command, config.to_dict()) == config


def test_csv_writer_writes_numpy_floats_as_numbers(tmp_path):
    # np.float64 is a float, but its repr under numpy 2 is np.float64(0.1)
    write_csv_atomic(tmp_path / "t.csv", ["a", "b"], [[np.float64(0.1), 3]])
    assert read_csv(tmp_path / "t.csv") == [{"a": "0.1", "b": "3"}]


def test_lists_only_the_csvs_this_run_wrote(tmp_path, capsys):
    out = tmp_path / "out"
    config = {**SMALL_CONFIGS["volume-ratio"], "out": str(out)}
    assert main(["volume-ratio", "--config", write_config(tmp_path / "c.json", {**config, "delta_grid": [0.5]})]) == 0
    first = capsys.readouterr().out
    assert f"wrote {out / 'cap_ratios.csv'}" in first and f"wrote {out / 'ball_ratios.csv'}" in first

    assert main(["volume-ratio", "--config", write_config(tmp_path / "c.json", config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"wrote {out / 'report.json'}", f"wrote {out / 'ball_ratios.csv'}"]
    assert (out / "cap_ratios.csv").exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_reports_take_the_process_umask(tmp_path, umask, mode):
    cfg = write_config(tmp_path / "c.json", {**SMALL_CONFIGS["volume-ratio"], "out": str(tmp_path / "out")})
    old = os.umask(umask)
    try:
        assert main(["volume-ratio", "--config", cfg]) == 0
    finally:
        os.umask(old)
    written = sorted((tmp_path / "out").iterdir())
    assert [p.name for p in written] == ["ball_ratios.csv", "report.json"]
    assert [p.stat().st_mode & 0o777 for p in written] == [mode, mode]
