"""Feature-vector CSV ingestion.

Expected format: UTF-8, comma separated, one header row, all columns numeric
except a trailing column named "label".  Parsing is strict; malformed input
raises :class:`DataError` naming the offending line or cell.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import tempfile
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
    """Parse a feature CSV into a FeatureTable, recording a sha256 checksum."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"feature file not found: {p}")
    blob = p.read_bytes()
    checksum = hashlib.sha256(blob).hexdigest()
    reader = csv.reader(io.StringIO(blob.decode("utf-8")))

    header = next(reader, None)
    if header is None or not header:
        raise DataError(f"{p}: empty file, expected a header row")
    if header[-1].strip() != "label":
        raise DataError(f'{p}: last column must be named "label", found {header[-1]!r}')
    width = len(header)
    if width < 2:
        raise DataError(f"{p}: need at least one feature column before the label")

    features: list[list[float]] = []
    labels: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue  # blank line (e.g. trailing newline)
        if len(row) != width:
            raise DataError(f"{p}: line {lineno}: expected {width} columns, found {len(row)}")
        parsed = []
        for col, cell in enumerate(row[:-1]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(
                    f"{p}: line {lineno}, column {col + 1} ({header[col]!r}): "
                    f"feature cell {cell!r} is not a finite number"
                )
            parsed.append(value)
        features.append(parsed)
        labels.append(row[-1])
    if not features:
        raise DataError(f"{p}: empty body")

    return FeatureTable(
        rows=np.asarray(features, dtype=float),
        labels=tuple(labels),
        source=str(p),
        checksum=checksum,
    )


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

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(list(feature_names) + ["label"])
        for row, label in zip(arr, labels):
            writer.writerow([repr(float(v)) for v in row] + [label])

    _atomic_write(path, _write)


def _atomic_write(path, write_fn) -> None:
    """Write a text file through `write_fn(fh)` into a temp file beside
    `path`, then rename it over `path`, so readers never see a partial file.
    Creates the parent directory if needed."""
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
