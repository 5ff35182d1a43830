"""Feature-vector CSV ingestion.

Expected format: UTF-8, comma separated, lines ending in LF or CRLF, one
header row, all columns numeric except a trailing column named "label".
Parsing is strict; malformed input raises :class:`DataError` naming the
offending line or cell (or byte, for text that is not UTF-8).
"""

from __future__ import annotations

import csv
import hashlib
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["FeatureTable", "ingest_feature_csv", "write_feature_csv"]


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Parsed feature rows with labels and input provenance."""

    rows: np.ndarray
    labels: tuple[str, ...]
    source: str
    checksum: str

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        return {
            "source": self.source,
            "checksum": self.checksum,
            "rows": self.n,
            "feature_width": self.width,
            "labels": counts,
        }


def ingest_feature_csv(path) -> FeatureTable:
    """Parse a feature CSV into a FeatureTable, recording a sha256 checksum.

    numpy's loadtxt reads the body in one pass.  Feature cells take its
    number syntax: Python's float syntax without digit-group underscores or
    non-ASCII digits, with surrounding whitespace ignored.  A body that
    fails is read again record by record, with the same parser, to name the
    line and column of the first bad record.
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"feature file not found: {p}")
    blob = p.read_bytes()
    checksum = hashlib.sha256(blob).hexdigest()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise DataError(
            f"{p}: not UTF-8: line {line}, byte offset {exc.start} (0x{blob[exc.start]:02x}): {exc.reason}"
        ) from None
    reader = csv.reader(_lines(text))

    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise _csv_error(p, reader, exc) from None
    if header is None or not header:
        raise DataError(f"{p}: empty file, expected a header row")
    if header[-1].strip() != "label":
        raise DataError(f'{p}: last column must be named "label", found {header[-1]!r}')
    width = len(header)
    if width < 2:
        raise DataError(f"{p}: need at least one feature column before the label")

    dtype = np.dtype([("features", float, (width - 1,)), ("label", object)])
    try:
        with warnings.catch_warnings():
            # a body without rows warns; it is reported as an empty body below
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                _lines(text),
                dtype=dtype,
                delimiter=",",
                quotechar='"',
                comments=None,
                skiprows=reader.line_num,
                ndmin=1,
            )
    except ValueError as exc:
        raise _first_bad_record(p, header, reader) or DataError(f"{p}: {exc}") from exc
    if not np.isfinite(table["features"]).all():
        raise _first_bad_record(p, header, reader) or DataError(f"{p}: a feature cell is not finite")
    if table.size == 0:
        raise DataError(f"{p}: empty body")

    return FeatureTable(
        rows=np.ascontiguousarray(table["features"]),
        labels=tuple(table["label"].tolist()),
        source=str(p),
        checksum=checksum,
    )


def _lines(text: str):
    """The lines of text, each with its line feed, as io.StringIO(text)
    yields them, but without StringIO's copy of the text at 4 bytes a
    character."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _first_bad_record(p: Path, header: list[str], reader) -> DataError | None:
    """The error for the first record after the header, in reading order,
    with the wrong number of columns or a feature cell that is not a finite
    number; None if there is none."""
    width = len(header)
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line (e.g. trailing newline)
            if len(row) != width:
                return DataError(f"{p}: line {lineno}: expected {width} columns, found {len(row)}")
            if _finite_numbers(row[:-1]):
                continue
            for col, cell in enumerate(row[:-1]):
                if not _finite_numbers([cell]):
                    return DataError(
                        f"{p}: line {lineno}, column {col + 1} ({header[col]!r}): "
                        f"feature cell {cell!r} is not a finite number"
                    )
    except csv.Error as exc:
        return _csv_error(p, reader, exc)
    return None


def _csv_error(p: Path, reader, exc: csv.Error) -> DataError:
    """The error for a line the CSV reader cannot split into a record, most
    often a carriage return that ends no line (a file with CR-only line
    endings).  The reader's hint about opening files is dropped: it speaks
    to the caller of csv, not to whoever wrote the file."""
    reason = str(exc).split(" - ")[0]
    return DataError(f"{p}: line {reader.line_num}: not a CSV record ({reason}); lines must end in LF or CRLF")


def _finite_numbers(cells: list[str]) -> bool:
    """Whether loadtxt, as ingest_feature_csv calls it, reads every cell as
    one finite number."""
    try:
        with warnings.catch_warnings():
            # an empty cell is an empty line, which loadtxt skips with a warning
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(cells, dtype=float, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return False
    return values.shape == (len(cells),) and bool(np.isfinite(values).all())


def write_feature_csv(path, rows, labels, feature_names=None) -> None:
    """Write a feature table in the ingestible format, atomically.

    Floats are written with repr, which round-trips exactly.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"rows must be 2-d, got shape {arr.shape}")
    labels = list(labels)
    if len(labels) != arr.shape[0]:
        raise ValueError(f"labels length {len(labels)} does not match rows {arr.shape[0]}")
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(arr.shape[1])]
    if len(feature_names) != arr.shape[1]:
        raise ValueError("feature_names length does not match row width")
    _write_csv(path, [*feature_names, "label"], (row.tolist() + [label] for row, label in zip(arr, labels)))


def _write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV, atomically (_atomic_write).  A float
    cell, np.float64 among them, is written with repr, which round-trips
    exactly; any other cell as the csv module writes it."""

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])

    _atomic_write(path, _write)


def _atomic_write(path, write_fn) -> None:
    """Write a text file through `write_fn(fh)` into a temp file beside
    `path`, then rename it over `path`, so readers never see a partial file.
    The temp file has a unique name and, as open() gives, the process umask's
    permissions.  Creates the parent directory if needed."""
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            write_fn(fh)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
