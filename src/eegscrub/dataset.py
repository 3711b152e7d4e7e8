"""CSV ingestion for feature tables and raw recordings, plus report files.

Every CSV goes through one reader and one writer. Loaders are strict: every
failure, a non-finite number included, names the file, row, and column, so a
bad cell in a half-million-row dataset is findable; plain files are parsed by
``np.loadtxt``. Writers emit csv.writer's bytes with shortest round-trip
floats. A large float matrix is formatted, and a large plain file parsed, in
shares: one forked process per usable core, each on its own contiguous rows,
joined before the result is read, with the bytes and values of one process.
Reports are JSON with a format-version field; non-finite floats are stored as
sentinel tokens because strict JSON has none.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import pickle
import shutil
import sys
import tempfile
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
# Input bytes (CSV text read, float64 cells written) per share at least. On
# a shared 2-core box, two children of a 170 MiB process fork and join in
# 6-7 ms, 1 MiB of text parses in about 20 ms and 1 MiB of float64 formats
# in about 80 ms; files of two such shares ran as fast as one process, to
# within that box's noise, and larger ones faster.
_MIN_SHARE_BYTES = 1 << 20
_REFUSED = 3  # exit code of a forked share whose task raised ValueError


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


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _share_count(size: int) -> int:
    """Shares for ``size`` bytes of input: one per usable core, each of at
    least ``_MIN_SHARE_BYTES``, and always one."""
    return max(1, min(_usable_cores(), size // _MIN_SHARE_BYTES))


@contextlib.contextmanager
def _shares(path, n, task):
    """Rewound binary files, in share order, each holding what
    ``task(i, out)`` wrote to ``out`` for share ``i < n``. One share runs in
    this process; several run one per forked child, every child joined
    before this returns or raises. A share whose task raised ValueError
    raises ValueError; a child that failed otherwise raises OSError naming
    ``path``."""
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(tempfile.TemporaryFile())
                for _ in range(n)]
        if n == 1:
            task(0, outs[0])
        else:
            import multiprocessing  # here, so that start-up loads none of it

            def run(i):
                try:
                    task(i, outs[i])
                    outs[i].flush()  # the child ends in os._exit
                except ValueError:
                    sys.exit(_REFUSED)
                except OSError as exc:  # such as a full disk
                    sys.exit(f"{path}: {exc}")

            fork, children = multiprocessing.get_context("fork"), []
            try:
                for i in range(n):
                    child = fork.Process(target=run, args=(i,))
                    child.start()
                    children.append(child)
            finally:
                for child in children:
                    child.join()
            for i, child in enumerate(children):
                if child.exitcode not in (0, _REFUSED):
                    raise OSError(f"{path}: CSV share {i + 1} of {n} ended "
                                  f"with exit code {child.exitcode}")
            if any(child.exitcode == _REFUSED for child in children):
                raise ValueError("a share refused its lines")
        for out in outs:
            out.seek(0)
        yield outs


def _text_lines(path, start, stop):
    """The lines of bytes ``start:stop`` of ``path``, as a file opened in
    text mode reads them (\\r and \\r\\n read as \\n); a line ends at
    ``stop``. Whole lines are decoded about a minimum share at a time."""
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < stop:
            block = fh.read(min(_MIN_SHARE_BYTES, stop - start))
            if len(block) < stop - start:  # then end it with a whole line
                block += fh.readline()
            if not block:  # the file got shorter
                return
            start += len(block)
            yield from io.TextIOWrapper(io.BytesIO(block), encoding="utf-8")


def _read_plain(path, text_column) -> tuple:
    """:func:`_read_csv` of a plain file (no ``"``, every non-blank line as
    wide as the header, no lone CR in the header) of finite numbers, else
    ValueError. The data lines are cut into shares of whole lines."""
    with open(path, "rb") as fh:
        line = fh.readline()
        # text mode would end the header at a lone CR
        if line.count(b"\r") > line.endswith(b"\r\n"):
            raise ValueError("a lone CR in the header")
        line = line.decode("utf-8").rstrip("\r\n")
        header = [h.strip() for h in line.split(",")]
        text_idx = text_column(header)
        if (not line or '"' in line or len(set(header)) < len(header)
                or len(line) > csv.field_size_limit()):
            raise ValueError("not a plain header")
        cuts, size = [fh.tell()], os.fstat(fh.fileno()).st_size
        n = _share_count(size - cuts[0])
        for i in range(1, n):  # each share ends after a "\n"
            fh.seek(cuts[0] + (size - cuts[0]) * i // n)
            fh.readline()
            cuts.append(fh.tell())
        cuts.append(size)
    k = None if text_idx is None else len(header) - text_idx  # from end
    numbers = [i for i in range(len(header)) if i != text_idx]

    def read_share(share, out):
        """Pickles (line count, index of each data line, text cells), then
        writes the share's floats."""
        rows, texts, n_lines = [], [], 0

        def plain_lines():
            nonlocal n_lines
            for n_lines, line in enumerate(
                    _text_lines(path, cuts[share], cuts[share + 1]), start=1):
                if line == "\n":
                    continue
                if ('"' in line or line.count(",") != len(header) - 1
                        or len(line) > csv.field_size_limit()):
                    raise ValueError("a line is not plain")
                rows.append(n_lines - 1)
                if k:
                    texts.append(line.rstrip("\n").rsplit(",", k)[-k])
                yield line

        lines = plain_lines()
        first = next(lines, None)  # before loadtxt warns of no data
        values = np.empty((0, len(numbers)))
        if first is not None:
            values = np.loadtxt(itertools.chain([first], lines),
                                delimiter=",", comments=None, dtype=float,
                                ndmin=2, usecols=numbers)
        if not np.isfinite(values).all():
            raise ValueError("a non-finite number")
        pickle.dump((n_lines, rows, texts), out)
        out.write(values)

    with _shares(path, n, read_share) as outs:
        metas = [pickle.load(out) for out in outs]
        n_rows = sum(len(rows) for _, rows, _ in metas)
        if not n_rows:
            raise ValueError("no data rows")
        values = np.empty((n_rows, len(numbers)))
        row_nums, texts, line_num = [], [], 2
        for out, (n_lines, rows, share_texts) in zip(outs, metas):
            out.readinto(values[len(row_nums):len(row_nums) + len(rows)])
            row_nums += [line_num + j for j in rows]
            texts += share_texts
            line_num += n_lines
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
    and CRLF. ``rows`` are rows of cells, or a float matrix formatted in C in
    shares of contiguous rows, each row then followed by its cell of
    ``texts`` when given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if not isinstance(rows, np.ndarray):
            return writer.writerows(rows)
        lead = [""] * min(rows.shape[1], 1)  # for the "," before a text cell
        n = _share_count(rows.nbytes)
        bounds = [len(rows) * i // n for i in range(n + 1)]

        def write_share(share, out):
            text = io.TextIOWrapper(out, encoding="utf-8", newline="")
            writer = csv.writer(text)
            for i in range(bounds[share], bounds[share + 1]):
                text.write(",".join(map(repr, rows[i].tolist())))
                writer.writerow([] if texts is None else lead + [texts[i]])
            text.detach()  # flushed; ``out`` stays open

        fh.flush()  # the header, before the shares' bytes
        with _shares(path, n, write_share) as outs:
            for out in outs:
                shutil.copyfileobj(out, fh.buffer)


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
