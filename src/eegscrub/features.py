"""Epoch-level feature extraction: band powers, spectral entropy, time stats.

Each epoch of each channel contributes 12 features (5 band powers, spectral
entropy, 6 time-domain moments), concatenated per channel into one flat row,
matching the flat feature-vector shape of pre-extracted public datasets.

``welch_psd``, ``band_powers``, ``spectral_entropy`` and ``time_stats`` take
arrays and work along their last axis, so ``build_feature_matrix`` calls each
of them once per block of epochs cut by ``core.epoch_view``: a block stacks
at most ``_BLOCK_BYTES`` of samples across all channels, so memory does not
grow with the recording. ``welch_psd`` imports scipy on first use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_BYTES, Recording, epoch_view
from .errors import NumericDegeneracyError

BANDS = (
    ("delta", 0.5, 4.0),
    ("theta", 4.0, 8.0),
    ("alpha", 8.0, 13.0),
    ("beta", 13.0, 30.0),
    ("gamma", 30.0, 45.0),
)
STAT_NAMES = ("mean", "variance", "min", "max", "skewness", "kurtosis")
FEATURE_NAMES = tuple(b[0] for b in BANDS) + ("entropy",) + STAT_NAMES
FEATURES_PER_CHANNEL = len(FEATURE_NAMES)
_MIN_SEG_LEN = 8  # shortest Welch segment, so the shortest feature window


@dataclass(frozen=True)
class FeatureMatrix:
    """Row-per-epoch feature table with optional integer class labels."""

    rows: np.ndarray
    feature_names: tuple
    labels: tuple | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("feature matrix must be finite")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != rows.shape[1]:
            raise ValueError(
                f"{len(names)} names for {rows.shape[1]} columns"
            )
        labels = self.labels
        if labels is not None:
            labels = tuple(int(v) for v in labels)
            if len(labels) != rows.shape[0]:
                raise ValueError(
                    f"{len(labels)} labels for {rows.shape[0]} rows"
                )
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]


def welch_psd(x: np.ndarray, fs: float, seg_len: int = 256,
              overlap: float = 0.5):
    """Averaged Hann-windowed periodograms along the last axis of ``x``;
    returns (freqs, psd)."""
    x = np.asarray(x, dtype=float)
    seg_len = int(seg_len)
    if seg_len < _MIN_SEG_LEN:
        raise ValueError(f"seg_len must be >= {_MIN_SEG_LEN}, got {seg_len}")
    if seg_len > x.shape[-1]:
        raise ValueError(
            f"seg_len {seg_len} exceeds signal length {x.shape[-1]}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    from scipy import signal as sps

    return sps.welch(x, fs=fs, window="hann", nperseg=seg_len,
                     noverlap=int(seg_len * overlap), detrend=False, axis=-1)


def band_powers(freqs: np.ndarray, psd: np.ndarray) -> tuple:
    """Trapezoid-integrated power in the five conventional EEG bands, one
    entry per band of the shape of ``psd`` less its last (frequency) axis.
    A band holding fewer than two bins has power 0."""
    freqs = np.asarray(freqs, dtype=float)
    psd = np.asarray(psd, dtype=float)
    if freqs.ndim != 1 or psd.shape[-1:] != freqs.shape:
        raise ValueError("freqs must be 1-D and match psd's last axis")
    masks = [(freqs >= lo) & (freqs <= hi) for _, lo, hi in BANDS]
    return tuple(np.trapezoid(psd[..., m], freqs[m], axis=-1) for m in masks)


def spectral_entropy(psd: np.ndarray):
    """Shannon entropy of the normalized PSD along the last axis, scaled to
    [0, 1] by ln(n); 0 for an all-zero row."""
    psd = np.asarray(psd, dtype=float)
    total = psd.sum(axis=-1, keepdims=True)
    p = psd / np.where(total > 0.0, total, 1.0)
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    return -(p * log_p).sum(axis=-1) / math.log(psd.shape[-1])


def time_stats(x: np.ndarray) -> dict:
    """STAT_NAMES population moments and ``degenerate`` (zero variance)
    along the last axis; skewness and kurtosis are 0 where degenerate."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("need at least 2 samples")
    mean = x.mean(axis=-1)
    centered = x - mean[..., None]
    squared = centered * centered  # products: numpy's ** 3 and ** 4 call pow
    var = squared.mean(axis=-1)
    degenerate = var == 0.0
    safe_var = np.where(degenerate, 1.0, var)
    skew = np.mean(squared * centered, axis=-1) / np.sqrt(safe_var)**3
    kurt = np.mean(squared * squared, axis=-1) / safe_var**2 - 3.0
    return {
        "mean": mean,
        "variance": var,
        "min": x.min(axis=-1),
        "max": x.max(axis=-1),
        "skewness": np.where(degenerate, 0.0, skew),
        "kurtosis": np.where(degenerate, 0.0, kurt),
        "degenerate": degenerate,
    }


def build_feature_matrix(
    rec: Recording,
    window_s: float,
    overlap: float = 0.0,
    label: int | None = None,
) -> FeatureMatrix:
    """One row per epoch; columns are <channel>_<feature> per channel.
    NumericDegeneracyError names each channel whose features overflow."""
    names = tuple(f"{ch}_{feat}" for ch in rec.channel_names
                  for feat in FEATURE_NAMES)
    views = [epoch_view(ch.samples, rec.fs, window_s, overlap,
                        min_len=_MIN_SEG_LEN) for ch in rec.channels]
    n_epochs, win = views[0].shape
    labels = None if label is None else (int(label),) * n_epochs
    feats = np.empty((len(views), n_epochs, FEATURES_PER_CHANNEL))
    step = max(1, _BLOCK_BYTES // (len(views) * win * views[0].itemsize))
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        for start in range(0, n_epochs, step):
            block = np.stack([v[start:start + step] for v in views])
            freqs, psd = welch_psd(block, rec.fs, seg_len=min(256, win))
            stats = time_stats(block)
            feats[:, start:start + step] = np.stack(
                [*band_powers(freqs, psd), spectral_entropy(psd),
                 *(stats[name] for name in STAT_NAMES)], axis=-1)
    bad = [name for name, f in zip(rec.channel_names, feats)
           if not np.isfinite(f).all()]
    if bad:
        raise NumericDegeneracyError(f"features of channel(s) {', '.join(bad)}"
                                     " are not finite: they overflow float64")
    rows = feats.transpose(1, 0, 2).reshape(n_epochs, len(names))
    return FeatureMatrix(rows=rows, feature_names=names, labels=labels)
