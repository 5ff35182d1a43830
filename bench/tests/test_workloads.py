"""The seeded input generator."""

import pytest

from workloads import WORKLOADS, generate


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    workload = WORKLOADS[name]
    first = generate(workload, 5, tmp_path / "a")
    again = generate(workload, 5, tmp_path / "b")
    generate(workload, 6, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert set(a) == set(first.sha256)
    assert a == b
    assert first.sha256 == again.sha256
    for key in a:
        assert a[key] != c[key], key


def test_feature_tables_are_ingestible(tmp_path):
    from kernelshot.ingest import ingest_feature_csv

    inputs = generate(WORKLOADS["fewshot-roc-mixed"], 1, tmp_path)
    table = ingest_feature_csv(tmp_path / "new_test.csv")
    assert table.n == 1000 and table.width == 32
    assert set(table.labels) == {"new"}
    assert table.checksum == inputs.sha256["new_test.csv"]
