"""CSV ingestion for feature tables and raw recordings, plus report files.

Loaders are strict: every failure names the file, row, and column, so a bad
cell in a half-million-row dataset is findable. Reports are JSON with a
format-version field; non-finite floats are stored as sentinel tokens because
strict JSON has no representation for them.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Recording, Signal
from .errors import DataFormatError
from .features import FeatureMatrix

CLASS_NAMES = ("NEGATIVE", "NEUTRAL", "POSITIVE")
LABEL_TO_INT = {name: i for i, name in enumerate(CLASS_NAMES)}
REPORT_FORMAT_VERSION = 1
_SENTINELS = {math.inf: "__inf__", -math.inf: "__-inf__"}
_TOKENS = {"__inf__": math.inf, "__-inf__": -math.inf, "__nan__": math.nan}
_TIMESTAMP_HINTS = ("time", "date")


@dataclass(frozen=True)
class LabeledDataset:
    features: FeatureMatrix
    class_names: tuple
    source: str

    def __post_init__(self):
        if self.features.labels is None:
            raise ValueError("LabeledDataset requires labels")
        c = len(self.class_names)
        bad = [v for v in self.features.labels if not 0 <= v < c]
        if bad:
            raise ValueError(f"labels outside [0, {c}): {sorted(set(bad))}")
        object.__setattr__(self, "class_names", tuple(self.class_names))


def parse_label(text: str) -> int:
    """Class index of a class name (any case) or an integer in range.

    Raises ValueError naming the accepted forms; callers add their context.
    """
    name = text.strip().upper()
    if name in LABEL_TO_INT:
        return LABEL_TO_INT[name]
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"unknown label {text!r} (expected one of {CLASS_NAMES} "
            f"or an integer)"
        )
    if not 0 <= value < len(CLASS_NAMES):
        raise ValueError(f"label {value} outside [0, {len(CLASS_NAMES)})")
    return value


def load_feature_csv(path, label_column: str = "label",
                     require_label: bool = True) -> LabeledDataset | FeatureMatrix:
    """Read a feature table; returns a LabeledDataset when labels exist."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if label_column in header:
            label_idx = header.index(label_column)
        elif require_label:
            raise DataFormatError(
                f"{path}: no column named {label_column!r} in header"
            )
        else:
            label_idx = None
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        if not feature_names:
            raise DataFormatError(f"{path}: no feature columns")
        rows, labels = [], []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {row_num}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            values = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    try:
                        labels.append(parse_label(cell))
                    except ValueError as exc:
                        raise DataFormatError(f"{path}: row {row_num}: {exc}")
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {row_num}: column {header[i]!r}: "
                        f"cannot parse {cell!r} as a number"
                    )
            rows.append(values)
        if not rows:
            raise DataFormatError(f"{path}: no data rows")
    matrix = FeatureMatrix(
        rows=np.asarray(rows, dtype=float),
        feature_names=tuple(feature_names),
        labels=tuple(labels) if label_idx is not None else None,
    )
    if label_idx is None:
        return matrix
    return LabeledDataset(features=matrix, class_names=CLASS_NAMES,
                          source=str(path))


def save_feature_csv(matrix: FeatureMatrix, path,
                     class_names=CLASS_NAMES) -> None:
    """Header of feature names plus a trailing label column when labeled."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(matrix.feature_names)
        if matrix.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(matrix.n_rows):
            row = [repr(float(v)) for v in matrix.rows[i]]
            if matrix.labels is not None:
                row.append(class_names[matrix.labels[i]])
            writer.writerow(row)


def load_raw_csv(path, fs: float = 256.0) -> Recording:
    """Multichannel samples; a leading timestamp-named column is dropped.

    Rows containing non-finite values are rejected; the count lands in
    ``subject_meta['rejected_rows']``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty file")
        drop_first = bool(header) and any(
            hint in header[0].lower() for hint in _TIMESTAMP_HINTS
        )
        names = header[1:] if drop_first else header
        if not names:
            raise DataFormatError(f"{path}: no channel columns")
        columns = [[] for _ in names]
        rejected = 0
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {row_num}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            cells = row[1:] if drop_first else row
            values = []
            for i, cell in enumerate(cells):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {row_num}: column {names[i]!r}: "
                        f"cannot parse {cell!r} as a number"
                    )
            if all(math.isfinite(v) for v in values):
                for col, v in zip(columns, values):
                    col.append(v)
            else:
                rejected += 1
        if not columns[0]:
            raise DataFormatError(f"{path}: no usable data rows")
    channels = tuple(
        Signal(samples=np.asarray(col, dtype=float), fs=fs) for col in columns
    )
    return Recording(
        channels=channels,
        channel_names=tuple(names),
        subject_meta={"source": str(path), "fs": fs, "rejected_rows": rejected},
    )


def save_raw_csv(rec: Recording, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rec.channel_names)
        data = rec.to_array()
        for i in range(rec.n_samples):
            writer.writerow([repr(float(v)) for v in data[i]])


def _encode(value):
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "__nan__"
        return _SENTINELS.get(value, value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _decode(value):
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, str) and value in _TOKENS:
        return _TOKENS[value]
    return value


def write_report(report: dict, path) -> None:
    """JSON key-tree with a format-version field and non-finite sentinels."""
    body = {"format_version": REPORT_FORMAT_VERSION}
    body.update(_encode(report))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            body = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: bad report: {exc}")
    if body.get("format_version") != REPORT_FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported report version {body.get('format_version')}"
        )
    decoded = _decode(body)
    decoded.pop("format_version")
    return decoded
