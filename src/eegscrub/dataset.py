"""CSV ingestion for feature tables and raw recordings, plus report files.

Every CSV goes through one reader and one writer. Loaders are strict: every
failure, a non-finite feature value included, names the file, row, and
column, so a bad cell in a half-million-row dataset is findable; raw rows
with a non-finite sample are dropped and counted. Writers emit shortest
round-trip floats. Reports are JSON with a format-version field; non-finite
floats are stored as sentinel tokens because strict JSON has none.
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
_BLOCK_ROWS = 256  # data rows converted to floats per np.array call


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


def _parse_block(path, block, row_nums, names) -> np.ndarray:
    """``block`` as float64 by the rules of float(); a block that fails is
    rescanned to name its first bad cell (``row_nums`` ends with its rows)."""
    try:
        return np.array(block, dtype=float).reshape(len(block), len(names))
    except ValueError:
        for row_num, row in zip(row_nums[len(row_nums) - len(block):], block):
            for name, cell in zip(names, row):
                try:
                    float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {row_num}: column {name!r}: "
                        f"cannot parse {cell!r} as a number"
                    )
        raise


def _read_csv(path, text_column) -> tuple:
    """The one CSV reader. ``text_column(header)`` checks the stripped header
    and returns the index of a column kept as text, or None. Blank rows are
    skipped. Returns the names of the other columns, the row number of each
    data row, their cells as a float64 array, and the text cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: empty file")
        text_idx = text_column(header)
        names = [h for i, h in enumerate(header) if i != text_idx]
        row_nums, texts, parsed, block = [], [], [], []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                # a bad number in an earlier row is reported first
                _parse_block(path, block, row_nums, names)
                raise DataFormatError(
                    f"{path}: row {row_num}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            if text_idx is not None:
                texts.append(row.pop(text_idx))
            row_nums.append(row_num)
            block.append(row)
            if len(block) == _BLOCK_ROWS:
                parsed.append(_parse_block(path, block, row_nums, names))
                block = []
        parsed.append(_parse_block(path, block, row_nums, names))
    return names, row_nums, np.concatenate(parsed), texts


def write_csv(path, header, rows) -> None:
    """The one CSV writer. Floats are written with repr(), the shortest form
    that reads back to the same value; lines end in CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_feature_csv(path, label_column: str = "label",
                     require_label: bool = True) -> LabeledDataset | FeatureMatrix:
    """Read a feature table; returns a LabeledDataset when labels exist."""

    def label_index(header):
        if label_column not in header and require_label:
            raise DataFormatError(
                f"{path}: no column named {label_column!r} in header"
            )
        if header in ([], [label_column]):  # nothing but the label
            raise DataFormatError(f"{path}: no feature columns")
        return header.index(label_column) if label_column in header else None

    names, row_nums, rows, texts = _read_csv(path, label_index)
    if not row_nums:
        raise DataFormatError(f"{path}: no data rows")
    labels = []
    for row_num, cell in zip(row_nums, texts):
        try:
            labels.append(parse_label(cell))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_num}: {exc}")
    bad = np.argwhere(~np.isfinite(rows))
    if len(bad):
        r, c = bad[0]
        raise DataFormatError(
            f"{path}: row {row_nums[r]}: column {names[c]!r}: "
            f"feature values must be finite, got {float(rows[r, c])!r}"
        )
    matrix = FeatureMatrix(rows=rows, feature_names=tuple(names),
                           labels=labels or None)
    if not labels:
        return matrix
    return LabeledDataset(features=matrix, class_names=CLASS_NAMES,
                          source=str(path))


def save_feature_csv(matrix: FeatureMatrix, path,
                     class_names=CLASS_NAMES) -> None:
    """Header of feature names plus a trailing label column when labeled."""
    header = list(matrix.feature_names)
    rows = (row.tolist() for row in matrix.rows)
    if matrix.labels is not None:
        header.append("label")
        rows = (r + [class_names[y]] for r, y in zip(rows, matrix.labels))
    write_csv(path, header, rows)


def load_raw_csv(path, fs: float = 256.0) -> Recording:
    """Multichannel samples; a leading timestamp-named column is dropped.

    Rows containing non-finite values are rejected; the count lands in
    ``subject_meta['rejected_rows']``.
    """

    def timestamp_index(header):
        first = header[0].lower() if header else ""
        stamp = 0 if any(hint in first for hint in _TIMESTAMP_HINTS) else None
        names = header[1:] if stamp == 0 else header
        if not names:
            raise DataFormatError(f"{path}: no channel columns")
        dup = [n for i, n in enumerate(names) if n in names[:i]]
        if dup:
            raise DataFormatError(f"{path}: repeated channel name {dup[0]!r}")
        return stamp

    names, _, values, _ = _read_csv(path, timestamp_index)
    finite = np.isfinite(values).all(axis=1)
    if not finite.any():
        raise DataFormatError(f"{path}: no usable data rows")
    return Recording(
        channels=tuple(Signal(samples=col, fs=fs) for col in values[finite].T),
        channel_names=tuple(names),
        subject_meta={"source": str(path), "fs": fs,
                      "rejected_rows": int((~finite).sum())},
    )


def save_raw_csv(rec: Recording, path) -> None:
    write_csv(path, rec.channel_names, (r.tolist() for r in rec.to_array()))


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
