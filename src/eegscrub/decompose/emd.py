"""Empirical mode decomposition.

Takes 1-D float samples and returns arrays; the input is never modified.
Sifting with natural cubic spline envelopes through the extrema, mirror
extension of two extrema at each boundary, and the Cauchy SD stopping
criterion. The residual is computed as input minus the sum of the IMFs,
added in order, so the completeness identity holds to machine precision by
construction.

An extremum sits where consecutive nonzero slopes ``x[i + 1] - x[i]`` and
``x[j + 1] - x[j]`` change sign, at ``(i + 1 + j) // 2``: the turning sample, or
the middle of the plateau between them; a maximum when the left slope rises.

scipy's ``CubicSpline`` is imported on first use.
"""

from dataclasses import dataclass

import numpy as np

from ..core import samples_1d
from ..errors import TooShortError

MAX_SIFTS = 50
DEFAULT_MAX_IMFS = 10
DEFAULT_SIFT_TOL = 0.2


@dataclass(frozen=True)
class ImfSet:
    """Intrinsic mode functions (highest frequency first) plus the residual,
    each an array of the input's length."""

    imfs: tuple
    residual: np.ndarray


def find_extrema(x: np.ndarray):
    """Indices of local maxima and minima; plateaus count once, at their middle."""
    d = np.diff(x)
    nz = np.flatnonzero(d)  # the nonzero slopes
    up = d[nz] > 0
    k = np.flatnonzero(up[:-1] != up[1:])  # nz[k] to nz[k + 1] turns
    at = (nz[k] + 1 + nz[k + 1]) // 2
    return at[up[k]], at[~up[k]]


def _mirror(idx: np.ndarray, val: np.ndarray, n: int, n_mirror: int = 2):
    """Mirror up to ``n_mirror`` extrema about each end of the signal."""
    left_i = -idx[:n_mirror][::-1]  # reflect about sample 0
    left_v = val[:n_mirror][::-1]
    right_i = 2 * (n - 1) - idx[-n_mirror:][::-1]
    right_v = val[-n_mirror:][::-1]
    ext_i = np.concatenate([left_i, idx, right_i])
    ext_v = np.concatenate([left_v, val, right_v])
    keep = np.concatenate([[True], np.diff(ext_i) > 0])
    return ext_i[keep], ext_v[keep]


def _envelope(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    from scipy.interpolate import CubicSpline

    pos, val = _mirror(idx, x[idx], len(x))
    spline = CubicSpline(pos, val, bc_type="natural")
    return spline(np.arange(len(x)))


def _sift(residual: np.ndarray, sift_tol: float) -> np.ndarray | None:
    """Extract one IMF from ``residual``, or None if it carries no mode."""
    h = residual
    for _ in range(MAX_SIFTS):
        maxima, minima = find_extrema(h)
        if len(maxima) < 2 or len(minima) < 2:
            return None if h is residual else h
        mean = (_envelope(h, maxima) + _envelope(h, minima)) / 2.0
        h_new = h - mean
        denom = float(np.sum(h * h))
        sd = float(np.sum((h - h_new) ** 2)) / denom if denom > 0 else 0.0
        h = h_new
        if sd < sift_tol:
            break
    return h


def emd(x: np.ndarray, max_imfs: int = DEFAULT_MAX_IMFS,
        sift_tol: float = DEFAULT_SIFT_TOL) -> ImfSet:
    """Decompose into IMFs. Monotone input yields zero IMFs and a residual
    equal to the input; the residual is always a new array."""
    x = samples_1d(x)
    if len(x) < 8:
        raise TooShortError(f"need at least 8 samples for EMD, got {len(x)}")
    imfs = []
    residual = x
    while len(imfs) < max_imfs:
        imf = _sift(residual, sift_tol)
        if imf is None:
            break
        imfs.append(imf)
        residual = residual - imf
    # pin completeness exactly: residual := x - (IMF 0 + IMF 1 + ...)
    summed = sum(imfs[1:], imfs[0]) if imfs else np.zeros_like(x)
    return ImfSet(imfs=tuple(imfs), residual=x - summed)
