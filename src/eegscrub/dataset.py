"""CSV ingestion for feature tables and raw recordings, plus report files.

Every CSV goes through one reader and one writer. Loaders are strict: every
failure, a non-finite number included, names the file, row, and column, so a
bad cell in a half-million-row dataset is findable; plain files are parsed by
``np.loadtxt``. Writers emit csv.writer's bytes with shortest round-trip
floats. Reports are JSON with a format-version field; non-finite floats are
stored as sentinel tokens because strict JSON has none.
"""

import contextlib
import csv
import json
import math
from collections import Counter
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
_LABEL = "label"  # the feature-table column holding class labels


@dataclass(frozen=True)
class LabeledDataset:
    """A feature table with a label on every row, as load_feature_csv reads it."""

    features: FeatureMatrix

    def __post_init__(self):
        if self.features.labels is None:
            raise ValueError("LabeledDataset requires labels")


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
    """``block`` as float64 by the rules of float(); a block that fails or
    holds a non-finite value is rescanned to name its first bad cell
    (``row_nums`` ends with its rows)."""
    try:
        values = np.array(block, dtype=float).reshape(len(block), len(names))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for row_num, row in zip(row_nums[len(row_nums) - len(block):], block):
        for name, cell in zip(names, row):
            try:
                what = "" if math.isfinite(float(cell)) else "a finite number"
            except ValueError:
                what = "a number"
            if what:
                raise DataFormatError(f"{path}: row {row_num}: column {name!r}: "
                                      f"cannot parse {cell!r} as {what}")
    raise AssertionError("numpy rejected a block that float() accepts")


def _read_plain(path, text_column) -> tuple:
    """:func:`_read_csv` of a plain file (no ``"``, every non-blank line as
    wide as the header) of finite numbers, else ValueError."""
    with open(path, encoding="utf-8") as fh:  # \r and \r\n read as \n
        line = fh.readline().rstrip("\n")
        header = [h.strip() for h in line.split(",")]
        text_idx = text_column(header)
        if (not line or '"' in line or len(set(header)) < len(header)
                or len(line) > csv.field_size_limit()):
            raise ValueError("not a plain header")
        k = None if text_idx is None else len(header) - text_idx  # from end
        row_nums, texts = [], []

        def plain_lines():
            for row_num, line in enumerate(fh, start=2):
                if line == "\n":
                    continue
                if ('"' in line or line.count(",") != len(header) - 1
                        or len(line) > csv.field_size_limit()):
                    raise ValueError(f"row {row_num} is not plain")
                row_nums.append(row_num)
                if k:
                    texts.append(line.rstrip("\n").rsplit(",", k)[-k])
                yield line
            if not row_nums:  # before loadtxt warns of no data
                raise ValueError("no data rows")

        numbers = [i for i in range(len(header)) if i != text_idx]
        values = np.loadtxt(plain_lines(), delimiter=",", comments=None,
                            dtype=float, ndmin=2, usecols=numbers)
    if not np.isfinite(values).all():
        raise ValueError("a non-finite number")
    return [header[i] for i in numbers], row_nums, values, texts


def _read_csv(path, text_column) -> tuple:
    """The one CSV reader. ``text_column(header)`` checks the stripped header
    and returns the index of a column kept as text, or None; a repeated
    column name, a non-finite number and no data rows are errors. Blank rows
    are skipped. Returns the names of the other columns, the row number of
    each data row, their cells as a float64 array, and the text cells. Files
    :func:`_read_plain` refuses are read by csv.reader, naming any fault."""
    with contextlib.suppress(ValueError):  # not plain, or a fault: see below
        return _read_plain(path, text_column)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        row_nums, texts, parsed, block, names = [], [], [], [], []
        try:
            header = [h.strip() for h in next(reader)]
            text_idx = text_column(header)
            repeated = [h for h, n in Counter(header).items() if n > 1]
            if repeated:
                raise DataFormatError(f"{path}: repeated column name {repeated[0]!r}")
            names = [h for i, h in enumerate(header) if i != text_idx]
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
        except StopIteration:  # from next(reader): no header
            raise DataFormatError(f"{path}: empty file")
        except csv.Error as exc:  # a malformed row, after earlier rows' faults
            _parse_block(path, block, row_nums, names)
            raise DataFormatError(f"{path}: row {reader.line_num}: {exc}")
        parsed.append(_parse_block(path, block, row_nums, names))
    if not row_nums:
        raise DataFormatError(f"{path}: no data rows")
    return names, row_nums, np.concatenate(parsed), texts


def write_csv(path, header, rows, texts=None) -> None:
    """The one CSV writer, with csv.writer's bytes: shortest round-trip floats
    and CRLF. ``rows`` are rows of cells, or a float matrix formatted in C,
    each row then followed by its cell of ``texts`` when given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if not isinstance(rows, np.ndarray):
            return writer.writerows(rows)
        lead = [""] * min(rows.shape[1], 1)  # for the "," before a text cell
        for i, row in enumerate(rows):
            fh.write(",".join(map(repr, row.tolist())))
            writer.writerow([] if texts is None else lead + [texts[i]])


def load_feature_csv(path,
                     require_label: bool = True) -> LabeledDataset | FeatureMatrix:
    """A LabeledDataset, labels parsed to indices of ``CLASS_NAMES``; with
    ``require_label=False``, a FeatureMatrix, any ``label`` column unread."""

    def label_index(header):
        if _LABEL not in header and require_label:
            raise DataFormatError(f"{path}: no column named {_LABEL!r} in header")
        if header in ([], [_LABEL]):  # nothing but the label
            raise DataFormatError(f"{path}: no feature columns")
        return header.index(_LABEL) if _LABEL in header else None

    names, row_nums, rows, texts = _read_csv(path, label_index)
    labels = []
    for row_num, cell in zip(row_nums, texts if require_label else ()):
        try:
            labels.append(parse_label(cell))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_num}: {exc}")
    matrix = FeatureMatrix(rows=rows, feature_names=tuple(names),
                           labels=labels or None)
    return LabeledDataset(matrix) if labels else matrix


def save_feature_csv(matrix: FeatureMatrix, path) -> None:
    """Header of feature names, then a label column of CLASS_NAMES if labeled.

    A label outside ``[0, len(CLASS_NAMES))`` is an error; no file is
    written then."""
    header = list(matrix.feature_names)
    texts = None
    if matrix.labels is not None:
        for row, label in enumerate(matrix.labels):
            if not 0 <= label < len(CLASS_NAMES):
                raise DataFormatError(
                    f"{path}: matrix row {row} has label {label}, outside "
                    f"[0, {len(CLASS_NAMES)})")
        header.append(_LABEL)
        texts = [CLASS_NAMES[y] for y in matrix.labels]
    write_csv(path, header, matrix.rows, texts)


def load_raw_csv(path, fs: float = 256.0) -> Recording:
    """Multichannel samples; a leading timestamp-named column is dropped.

    A non-finite sample is an error, as dropping its row would splice the
    time axis.
    """

    def timestamp_index(header):
        first = header[0].lower() if header else ""
        stamp = 0 if any(hint in first for hint in _TIMESTAMP_HINTS) else None
        names = header[1:] if stamp == 0 else header
        if not names:
            raise DataFormatError(f"{path}: no channel columns")
        return stamp

    names, _, values, _ = _read_csv(path, timestamp_index)
    return Recording(
        channels=tuple(Signal(samples=col, fs=fs) for col in values.T),
        channel_names=tuple(names),
    )


def save_raw_csv(rec: Recording, path) -> None:
    write_csv(path, rec.channel_names, rec.to_array())


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
