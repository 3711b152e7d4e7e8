"""Waveform types, zero-phase filtering, epoching and z-score normalization.

These are the primitives every other module builds on. All values are
immutable after construction (sample buffers are marked read-only), so they
are safe to share across threads. ``apply_filter`` imports scipy on first
use, so code that never filters never loads it.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DegenerateInputError, InvalidSpecError,
                     NumericDegeneracyError, TooShortError)

FILTER_KINDS = ("bandpass", "lowpass", "highpass", "notch")
_BLOCK_BYTES = 1 << 20  # bytes of a table read per block: z-scores, gathers


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def samples_1d(values) -> np.ndarray:
    """``values`` as a valid sample buffer: a nonempty 1-D float64 array of
    finite numbers, the same array when it already is one (never a copy)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a nonempty 1-D array, "
                         f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DegenerateInputError("samples must all be finite")
    return arr


def check_fs(fs) -> float:
    """``fs`` as a float, refused unless it is positive."""
    fs = float(fs)
    if not fs > 0:
        raise ValueError(f"sampling rate must be positive, got {fs}")
    return fs


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled waveform (amplitudes in microvolts)."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        arr = samples_1d(self.samples)
        object.__setattr__(self, "samples", _freeze(arr))
        object.__setattr__(self, "fs", check_fs(self.fs))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs

    def with_samples(self, samples) -> "Signal":
        """New signal with the same rate and different samples."""
        return Signal(samples, self.fs)


@dataclass(frozen=True)
class Recording:
    """Ordered set of equally sampled channels with unique names."""

    channels: tuple
    channel_names: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        names = tuple(str(n) for n in self.channel_names)
        if not channels:
            raise ValueError("recording needs at least one channel")
        if len(names) != len(channels):
            raise ValueError("one name per channel required")
        if len(set(names)) != len(names):
            raise ValueError(f"channel names must be unique, got {names}")
        n0, fs0 = len(channels[0]), channels[0].fs
        for ch in channels[1:]:
            if len(ch) != n0 or ch.fs != fs0:
                raise ValueError("all channels must share length and rate")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "channel_names", names)

    @property
    def fs(self) -> float:
        return self.channels[0].fs

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def to_array(self) -> np.ndarray:
        """Samples as an (n_samples, n_channels) array."""
        return np.column_stack([ch.samples for ch in self.channels])

    def channel(self, name: str) -> Signal:
        try:
            return self.channels[self.channel_names.index(name)]
        except ValueError:
            raise KeyError(f"no channel named {name!r}; have {self.channel_names}")

    def with_channels(self, channels) -> "Recording":
        return replace(self, channels=tuple(channels))


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth band specification (or a notch at a single frequency).

    ``edges`` holds the corner frequencies in Hz: two for bandpass, one
    otherwise. ``order`` is the Butterworth design order (ignored for the
    notch, which is a single biquad shaped by ``notch_q``).
    """

    kind: str
    edges: tuple
    order: int = 4
    notch_q: float = 30.0

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise InvalidSpecError(f"kind must be one of {FILTER_KINDS}, got {self.kind!r}")
        edges = tuple(float(e) for e in np.atleast_1d(self.edges))
        expected = 2 if self.kind == "bandpass" else 1
        if len(edges) != expected:
            raise InvalidSpecError(f"{self.kind} needs {expected} edge(s), got {edges}")
        if self.order < 1:
            raise InvalidSpecError("filter order must be >= 1")
        if self.kind == "notch" and not self.notch_q > 0:
            raise InvalidSpecError("notch_q must be positive")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "order", int(self.order))

    def validate_for(self, fs: float) -> None:
        nyq = fs / 2.0
        for e in self.edges:
            if not 0.0 < e < nyq:
                raise InvalidSpecError(
                    f"corner {e} Hz outside (0, {nyq}) for fs={fs}"
                )
        if self.kind == "bandpass" and not self.edges[0] < self.edges[1]:
            raise InvalidSpecError(f"bandpass needs low < high, got {self.edges}")


@functools.lru_cache(maxsize=64)
def _butter_design(order: int, band, kind: str, fs: float) -> np.ndarray:
    """A Butterworth design's second-order sections, cached and read-only."""
    from scipy import signal as sps

    sos = sps.butter(order, band, btype=kind, output="sos", fs=fs)
    sos.flags.writeable = False
    return sos


def apply_filter(signal: Signal, spec: FilterSpec) -> Signal:
    """Zero-phase (forward-backward) filtering; length and rate preserved."""
    from scipy import signal as sps

    spec.validate_for(signal.fs)
    x = signal.samples
    if len(x) < 3 * spec.order:
        raise TooShortError(
            f"signal of {len(x)} samples is shorter than 3x filter order {spec.order}"
        )
    if spec.kind == "notch":
        b, a = sps.iirnotch(spec.edges[0], spec.notch_q, fs=signal.fs)
        # a narrow notch rings for ~fs*Q/f0 samples; pad past that decay
        bandwidth = spec.edges[0] / spec.notch_q
        decay = int(np.ceil(np.log(1e9) / (np.pi * bandwidth / signal.fs)))
        padlen = min(len(x) - 1, max(3 * max(len(a), len(b)), decay))
        y = sps.filtfilt(b, a, x, padlen=padlen)
    else:
        wn = spec.edges if spec.kind == "bandpass" else spec.edges[0]
        # each call filters with its own copy: sosfiltfilt refuses a read-only one
        sos = _butter_design(spec.order, wn, spec.kind, signal.fs).copy()
        padlen = 3 * (2 * sos.shape[0] + 1)
        if len(x) <= padlen:
            raise TooShortError(f"need more than {padlen} samples for this design")
        y = sps.sosfiltfilt(sos, x, padlen=padlen)
    return signal.with_samples(y)


def epoch_view(x: np.ndarray, fs: float, window_s: float,
               overlap: float = 0.0, min_len: int = 2) -> np.ndarray:
    """Windows of ``floor(window_s * fs) >= min_len`` samples, one every
    ``window * (1 - overlap)``, along the last axis of ``x``: a read-only view
    shaped ``x.shape[:-1] + (n_epochs, window)``. A trailing partial window is
    dropped; a window longer than ``x`` gives zero epochs."""
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    win = int(np.floor(window_s * fs))
    if win < min_len:
        raise ValueError(f"window of {win} samples ({window_s} s at {fs} Hz) "
                         f"is too short (need >= {min_len})")
    hop = max(1, int(round(win * (1.0 - overlap))))
    if win > x.shape[-1]:
        return np.empty(x.shape[:-1] + (0, win))
    return sliding_window_view(x, win, axis=-1)[..., ::hop, :]


@dataclass(frozen=True)
class NormStats:
    """Column means and sigmas (1 where constant) of a z-score, to replay it."""

    loc: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "loc", _freeze(self.loc))
        object.__setattr__(self, "scale", _freeze(self.scale))

    def apply_in_place(self, cols: np.ndarray, start: int = 0) -> np.ndarray:
        """Scale ``cols`` column-wise in place, (cols - loc) / scale; its
        columns are the fitted columns ``start`` onward."""
        stop = start + cols.shape[-1]
        cols -= self.loc[start:stop]
        cols /= self.scale[start:stop]
        return cols

    @classmethod
    def of(cls, cols: np.ndarray, names=None) -> "NormStats":
        """The z-score of ``cols``' columns, fitted one column block of at
        most ``_BLOCK_BYTES`` at a time, bit for bit ``cols.mean(axis=0)``
        and ``cols.std(axis=0)``. A column whose mean or sigma is not finite
        is a ``NumericDegeneracyError`` naming it by ``names``, if given."""
        if cols.size == 0:
            raise ValueError("cannot normalize empty data")
        n, m = cols.shape
        loc, scale = np.empty(m), np.empty(m)
        # numpy sums a lone column pairwise, but two or more row by row
        width = max(2, _BLOCK_BYTES // (n * cols.itemsize))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, m, width):
                stop = min(start + width, m)
                start = max(0, min(start, stop - 2))  # no lone last column
                block = cols[:, start:stop]
                loc[start:stop] = block.sum(axis=0) / n
                dev = block - loc[start:stop]
                dev *= dev
                scale[start:stop] = np.sqrt(dev.sum(axis=0) / n)
        bad = np.flatnonzero(~(np.isfinite(loc) & np.isfinite(scale)))
        if len(bad):
            j = bad[0]
            name = f"column {j}" if names is None else f"feature {names[j]!r}"
            raise NumericDegeneracyError(
                f"{name} has no finite z-score (mean {loc[j]:g}, sigma "
                f"{scale[j]:g}): its values are not finite or overflow "
                f"float64 arithmetic")
        # constant columns map to zero instead of dividing by zero
        return cls(loc, np.where(scale == 0.0, 1.0, scale))


def normalize(data, stats: NormStats | None = None):
    """Column-wise z-score of a 1-D or 2-D array.

    Returns the scaled array and the stats used. Pass precomputed ``stats``
    to apply a training-set normalization to new data instead of refitting.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot normalize empty data")
    cols = arr.reshape(-1, 1) if arr.ndim == 1 else arr
    if stats is None:
        stats = NormStats.of(cols)
    normed = stats.apply_in_place(cols.copy())
    return normed.reshape(arr.shape), stats


def pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    """Pearson correlation of equal-length arrays; None if one is constant."""
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return None
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def odd_width(width) -> int:
    """``width`` as an int, refused unless it is odd and positive."""
    width = int(width)
    if width < 1 or width % 2 == 0:
        raise ValueError(f"width must be an odd positive integer, got {width}")
    return width


def moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average of 1-D samples with symmetric edge padding."""
    x = samples_1d(x)
    width = odd_width(width)
    if width > len(x):
        raise ValueError(f"width {width} exceeds signal length {len(x)}")
    padded = np.pad(x, width // 2, mode="symmetric")
    kernel = np.full(width, 1.0 / width)
    return np.convolve(padded, kernel, mode="valid")
