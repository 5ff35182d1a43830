"""Feature CSV ingestion: format contract, error coordinates, round trips."""

import numpy as np
import pytest

from kernelshot import DataError, ingest_feature_csv, write_feature_csv
from kernelshot.ingest import _atomic_write


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_well_formed(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(3, 50))
        labels = ["a", "b", "a"]
        path = tmp_path / "features.csv"
        write_feature_csv(path, rows, labels)
        table = ingest_feature_csv(path)
        assert table.n == 3
        assert table.width == 50
        assert table.labels == ("a", "b", "a")
        np.testing.assert_array_equal(table.rows, rows)
        assert len(table.checksum) == 64

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(7, 5)) * 1e-3
        path = tmp_path / "t.csv"
        write_feature_csv(path, rows, ["x"] * 7)
        np.testing.assert_array_equal(ingest_feature_csv(path).rows, rows)

    def test_checksum_tracks_content(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_feature_csv(p1, [[1.0]], ["x"])
        write_feature_csv(p2, [[2.0]], ["x"])
        assert ingest_feature_csv(p1).checksum != ingest_feature_csv(p2).checksum

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        write_lines(path, ["f0,f1,label", "1.0,2.0,a", "1.0,a"])
        with pytest.raises(DataError, match="line 3"):
            ingest_feature_csv(path)

    def test_non_numeric_cell_names_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["f0,f1,label", "1.0,oops,a"])
        with pytest.raises(DataError, match=r"line 2, column 2"):
            ingest_feature_csv(path)

    def test_header_only_is_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_lines(path, ["f0,f1,label"])
        with pytest.raises(DataError, match="empty body"):
            ingest_feature_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        write_lines(path, ["f0,f1,f2", "1,2,3"])
        with pytest.raises(DataError, match='named "label"'):
            ingest_feature_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            ingest_feature_csv(tmp_path / "absent.csv")

    def test_no_feature_columns(self, tmp_path):
        path = tmp_path / "thin.csv"
        write_lines(path, ["label", "a"])
        with pytest.raises(DataError, match="at least one feature column"):
            ingest_feature_csv(path)


class TestNumberSyntax:
    """Inputs on which numpy's loadtxt and Python's float() disagree, or that
    a CSV reader must handle, pinned to their outcome."""

    def test_digit_group_underscore_rejected(self, tmp_path):
        # float() reads "1_000" as 1000; loadtxt does not
        path = tmp_path / "t.csv"
        write_lines(path, ["f0,f1,label", "1,2,a", "3,1_000,b"])
        with pytest.raises(DataError, match=r"line 3, column 2 \('f1'\): feature cell '1_000'"):
            ingest_feature_csv(path)

    def test_non_ascii_digits_rejected(self, tmp_path):
        # float() reads Arabic-Indic digits; loadtxt does not
        path = tmp_path / "t.csv"
        write_lines(path, ["f0,f1,label", "١٢,2,a"])
        with pytest.raises(DataError, match=r"line 2, column 1 \('f0'\)"):
            ingest_feature_csv(path)

    def test_whitespace_around_a_number_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["f0,f1,label", " 1.5 ,\t-2e-3,a"])
        np.testing.assert_array_equal(ingest_feature_csv(path).rows, [[1.5, -2e-3]])

    @pytest.mark.parametrize("cell", ["infinity", "-Infinity", "inf", "nan", "1e400"])
    def test_non_finite_spellings_rejected(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_lines(path, ["f0,f1,label", f"1,{cell},a"])
        with pytest.raises(DataError, match=r"line 2, column 2 \('f1'\): .* is not a finite number"):
            ingest_feature_csv(path)

    def test_quoted_label_with_a_comma(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["f0,f1,label", '1,"2",\"old, test\"', '3,4," b "'])
        table = ingest_feature_csv(path)
        np.testing.assert_array_equal(table.rows, [[1.0, 2.0], [3.0, 4.0]])
        assert table.labels == ("old, test", " b ")

    def test_crlf_line_endings_and_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"f0,f1,label\r\n1,2,a\r\n\r\n3,4,b\r\n")
        table = ingest_feature_csv(path)
        np.testing.assert_array_equal(table.rows, [[1.0, 2.0], [3.0, 4.0]])
        assert table.labels == ("a", "b")

    def test_not_utf8_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"f0,label\n\xff1,a\n")
        with pytest.raises(DataError, match=r"t\.csv: not UTF-8: line 2, byte offset 9 \(0xff\)"):
            ingest_feature_csv(path)

    @pytest.mark.parametrize(
        "blob, line",
        [(b"f0,label\r1,a\r", 1), (b"f0,f1,label\n1,2,a\n1,x,b\r3,4,c\n", 3)],
        ids=["cr-only", "cr-in-a-bad-body"],
    )
    def test_lone_carriage_return_names_the_line(self, tmp_path, blob, line):
        path = tmp_path / "t.csv"
        path.write_bytes(blob)
        with pytest.raises(DataError, match=rf"t\.csv: line {line}: not a CSV record .* LF or CRLF"):
            ingest_feature_csv(path)

    def test_first_bad_record_in_reading_order(self, tmp_path):
        # a bad cell before a ragged row is reported, not the ragged row
        path = tmp_path / "t.csv"
        write_lines(path, ["f0,f1,label", "1,2,a", "", "1,inf,b", "1,x,c", "1,d"])
        with pytest.raises(DataError, match=r"line 4, column 2 \('f1'\): feature cell 'inf'"):
            ingest_feature_csv(path)


def test_atomic_write_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_bytes(b"old contents\n")

    def failing(fh):
        fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        _atomic_write(target, failing)
    assert target.read_bytes() == b"old contents\n"
    assert list(tmp_path.glob("tmp*.tmp")) == []
