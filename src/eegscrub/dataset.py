"""CSV ingestion for feature tables and raw recordings, plus report files.

Every CSV goes through one reader and one writer. Loaders are strict: every
failure, a non-finite number included, names the file, row, and column, so a
bad cell in a half-million-row dataset is findable; plain files are parsed by
``np.loadtxt``. Writers emit csv.writer's bytes with shortest round-trip
floats; a float matrix is formatted by one ``%`` operation per block of
whole rows, a fixed number of cells at a time. A large float matrix is
formatted, and a large plain file parsed, in shares: one forked process per
usable core, each on its own contiguous rows, joined before the result is
read, with the bytes and values of one process.
A reader share hands back its row count, parsed text cells and floats, but
no row numbers: any fault sends the file to the checked reader to be named.
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
# in 120-180 ms (4 or 2548 columns); files of two such shares ran as fast as
# one process, to within that box's noise, and larger ones faster.
_MIN_SHARE_BYTES = 1 << 20
_REFUSED = 3  # exit code of a forked share whose task raised ValueError
# Cells (floats, plus one per row for its end) the writer formats per ``%``
# operation, whatever the table's width. A block's Python floats and text
# fit in memory the process already holds: writing a 400 x 2548 or a
# 153,600 x 4 table in one process raised the peak RSS by at most 0.1 MiB,
# against 2 MiB for blocks of 32,768 cells and 90 MiB for the wide table in
# one block of 1 M cells.
_FORMAT_CELLS = 1 << 13


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
        raise ValueError(f"unknown label {text!r} (expected one of "
                         f"{CLASS_NAMES} or an integer)")
    if not 0 <= value < len(CLASS_NAMES):
        raise ValueError(f"label {value} outside [0, {len(CLASS_NAMES)})")
    return value


def _parse_block(path, block, row_nums, names) -> np.ndarray:
    """``block`` as float64 by the rules of float(); a block that fails or
    holds a non-finite value is rescanned to name its first bad cell
    (``row_nums`` are its rows' numbers)."""
    try:
        values = np.array(block, dtype=float).reshape(len(block), len(names))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for row_num, row in zip(row_nums, block):
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


def _blocks(path, start, stop):
    """Bytes ``start:stop`` of ``path`` in blocks of whole lines, about a
    minimum share each; a line ends at ``stop``."""
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < stop:
            block = fh.read(min(_MIN_SHARE_BYTES, stop - start))
            if len(block) < stop - start:  # then end it with a whole line
                block += fh.readline()
            if not block:  # the file got shorter
                return
            start += len(block)
            yield block


def _plain_text(block: bytes):
    """The lines of a block without ``"`` and without a line longer than
    csv's field size limit, as a file opened in text mode reads them (\\r
    and \\r\\n read as \\n), else ValueError. A line is measured in
    bytes with its end, one counted for a last line without one, so a line
    may count as longer than its text but never as shorter."""
    codes = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero((codes == ord("\n")) | (codes == ord("\r")))
    longest = np.diff(ends, prepend=-1, append=len(block)).max()
    if b'"' in block or longest > csv.field_size_limit():
        raise ValueError("a line is not plain")
    return io.TextIOWrapper(io.BytesIO(block), encoding="utf-8")


def _cut_cell(line: str, i: int, width: int) -> tuple:
    """``line`` of ``width`` cells without cell ``i``, and that cell; only
    the commas between the cell and the nearer end of the line are looked
    for. ValueError if the line has too few commas."""
    if i < width - 1 - i:
        lo = -1
        for _ in range(i):
            lo = line.index(",", lo + 1)
        hi = line.index(",", lo + 1)
        return line[:lo + 1] + line[hi + 1:], line[lo + 1:hi]
    hi = len(line)
    for _ in range(width - 1 - i):
        hi = line.rindex(",", 0, hi)
    lo = line.rindex(",", 0, hi)
    return line[:lo] + line[hi:], line[lo + 1:hi]


def _read_plain(path, text_column, parse_text) -> tuple:
    """:func:`_read_csv` of a plain file (no ``"``, every non-blank line as
    wide as the header, no lone CR in the header) of finite numbers and text
    cells ``parse_text`` accepts, else ValueError; in shares of whole lines."""
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
    numbers = [i for i in range(len(header)) if i != text_idx]

    def read_share(share, out):
        """Pickles (row count, parsed text cells), then writes the share's
        floats."""
        texts = []
        blocks = _blocks(path, cuts[share], cuts[share + 1])
        lines = itertools.chain.from_iterable(map(_plain_text, blocks))
        lines = itertools.filterfalse("\n".__eq__, lines)  # not blank ones

        def numeric(line):
            """The line without its text cell, which is parsed if asked."""
            rest, cell = _cut_cell(line.rstrip("\n"), text_idx, len(header))
            if not rest:  # loadtxt would skip it as blank
                raise ValueError("an empty number")
            if parse_text:
                texts.append(parse_text(cell))
            return rest

        if text_idx is not None:
            lines = map(numeric, lines)
        # the first row, before loadtxt warns of no data; loadtxt refuses a
        # row whose cell count differs from the first row's
        first = next(lines, None)
        values = np.empty((0, len(numbers)))
        if first is not None:
            values = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                                comments=None, dtype=float, ndmin=2)
        if values.shape[1] != len(numbers):
            raise ValueError("a row is not as wide as the header")
        if not np.isfinite(values).all():
            raise ValueError("a non-finite number")
        pickle.dump((len(values), texts), out)
        out.write(values)

    with _shares(path, n, read_share) as outs:
        counts, texts = zip(*map(pickle.load, outs))
        if not sum(counts):
            raise ValueError("no data rows")
        values = np.empty((sum(counts), len(numbers)))
        for out, stop, rows in zip(outs, itertools.accumulate(counts), counts):
            out.readinto(values[stop - rows:stop])
    return [header[i] for i in numbers], values, [*itertools.chain(*texts)]


def _read_csv(path, text_column, parse_text) -> tuple:
    """The one CSV reader. ``text_column(header)`` checks the stripped header
    and returns the index of a column kept as text, or None; a repeated
    column name, a non-finite number and no data rows are errors. Blank rows
    are skipped. Returns the names of the other columns, their cells as a
    float64 array, and ``parse_text`` of each row's text cell ([] if None).
    Files :func:`_read_plain` refuses are read by csv.reader, naming any
    fault; a text cell ``parse_text`` refuses is named after any bad number."""
    with contextlib.suppress(ValueError):  # not plain, or a fault: see below
        return _read_plain(path, text_column, parse_text)
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
                        f"got {len(row)}")
                if text_idx is not None:
                    cell = row.pop(text_idx)
                    if parse_text:
                        texts.append((row_num, cell))
                row_nums.append(row_num)
                block.append(row)
                if len(block) == _BLOCK_ROWS:
                    parsed.append(_parse_block(path, block, row_nums, names))
                    row_nums, block = [], []
        except StopIteration:  # from next(reader): no header
            raise DataFormatError(f"{path}: empty file")
        except csv.Error as exc:  # a malformed row, after earlier rows' faults
            _parse_block(path, block, row_nums, names)
            raise DataFormatError(f"{path}: row {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason}")
        parsed.append(_parse_block(path, block, row_nums, names))
    values = np.concatenate(parsed)
    if not len(values):
        raise DataFormatError(f"{path}: no data rows")
    for i, (row_num, cell) in enumerate(texts):
        try:
            texts[i] = parse_text(cell)
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_num}: {exc}")
    return names, values, texts


def _csv_line(cells) -> str:
    """csv.writer's line of ``cells``, CRLF included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def _format_rows(rows, tails) -> bytes:
    """UTF-8 lines of the float matrix ``rows``, each the ``repr`` of its
    cells joined by commas and then its string of ``tails``, made by one
    ``%`` operation over an object array of the cells and tails."""
    cells = np.empty((len(rows), rows.shape[1] + 1), dtype=object)
    cells[:, :-1] = rows  # as Python floats
    cells[:, -1] = tails
    template = (",".join(["%r"] * rows.shape[1]) + "%s") * len(rows)
    return (template % tuple(cells.ravel().tolist())).encode("utf-8")


def write_csv(path, header, rows, texts=None) -> None:
    """The one CSV writer, with csv.writer's bytes: shortest round-trip floats
    and CRLF. ``rows`` are rows of cells, or a float matrix formatted in C in
    shares of contiguous rows, each row then followed by its cell of
    ``texts`` when given; a ``texts`` not one per row is a ValueError, and
    no file is written then."""
    if texts is not None and len(texts) != len(rows):
        raise ValueError(f"{len(texts)} text cells for {len(rows)} rows")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if not isinstance(rows, np.ndarray):
            return writer.writerows(rows)
        # each row's end: CRLF, or a "," (if it has cells) and its text cell
        if texts is None:
            tails = np.broadcast_to(np.array("\r\n", dtype=object), len(rows))
        else:
            lead = [""] * min(rows.shape[1], 1)
            line = {text: _csv_line(lead + [text]) for text in set(texts)}
            tails = [line[text] for text in texts]
        step = max(1, _FORMAT_CELLS // (rows.shape[1] + 1))
        n = _share_count(rows.nbytes)
        bounds = [len(rows) * i // n for i in range(n + 1)]

        def write_share(share, out):
            start, stop = bounds[share], bounds[share + 1]
            for i in range(start, stop, step):
                end = min(i + step, stop)
                out.write(_format_rows(rows[i:end], tails[i:end]))

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

    names, rows, labels = _read_csv(path, label_index,
                                    parse_label if require_label else None)
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

    names, values, _ = _read_csv(path, timestamp_index, None)
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
    return _TOKENS.get(value, value) if isinstance(value, str) else value


def write_report(report: dict, path) -> None:
    """JSON key-tree with a format-version field and non-finite sentinels."""
    body = {"format_version": REPORT_FORMAT_VERSION, **_encode(report)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            body = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DataFormatError(f"{path}: bad report: {exc}")
    if not isinstance(body, dict):
        raise DataFormatError(f"{path}: bad report: not a JSON object")
    version = body.pop("format_version", None)
    if version != REPORT_FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported report version {version}")
    return _decode(body)
