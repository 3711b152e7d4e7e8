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

An envelope is the natural cubic spline through its knots, solved and
evaluated directly: the same expressions in the same order as scipy's
``CubicSpline(pos, val, bc_type="natural")(np.arange(n))``, and the same
LAPACK ``dgtsv`` solve, so the two agree bit for bit without the per-call
input checks. ``scipy.linalg`` is imported on first use.
"""

from dataclasses import dataclass

import numpy as np

from ..core import samples_1d
from ..errors import NumericDegeneracyError, TooShortError

MAX_SIFTS = 50
DEFAULT_MAX_IMFS = 10
DEFAULT_SIFT_TOL = 0.2


@dataclass(frozen=True)
class ImfSet:
    """Intrinsic mode functions (highest frequency first) plus the residual,
    each an array of the input's length; ``sifts`` holds the sifting
    iterations that produced each IMF."""

    imfs: tuple
    residual: np.ndarray
    sifts: tuple = ()


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


def _natural_spline(pos: np.ndarray, val: np.ndarray, n: int) -> np.ndarray:
    """The natural cubic spline through integer knots ``pos`` (increasing,
    at least 2) and ``val``, at 0, 1, ..., n - 1; beyond the knots the end
    pieces extend. Bit for bit ``CubicSpline(pos, val, bc_type="natural")``
    at ``np.arange(n)``: its tridiagonal system for the knot slopes, its
    ``dgtsv`` solve, ``CubicHermiteSpline``'s coefficients and ``PPoly``'s
    evaluation order."""
    from scipy.linalg.lapack import dgtsv

    knots = pos.astype(float)
    dx = knots[1:] - knots[:-1]
    slope = (val[1:] - val[:-1]) / dx
    # rows 0 and m - 1 set the second derivative to zero; row i in between
    # is dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i]
    diag = np.concatenate([2 * dx[:1], 2 * (dx[:-1] + dx[1:]), 2 * dx[-1:]])
    upper = np.concatenate([dx[:1], dx[:-1]])
    lower = np.concatenate([dx[1:], dx[-1:]])
    rhs = np.empty(len(knots))
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs[0] = 3 * (val[1] - val[0])
    rhs[-1] = 0.0 + 3 * (val[-1] - val[-2])  # as CubicSpline adds 0.5 * 0.0
    # strictly diagonally dominant, so never singular
    s = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)[3]
    if not np.isfinite(s).all():  # where CubicSpline raised a ValueError
        raise NumericDegeneracyError("EMD envelope slopes overflow the float "
                                     "range")
    # the Hermite form of each piece, in powers of the offset from its knot,
    # constant term first; PPoly's sum starts at 0.0, so -0.0 becomes 0.0
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    pieces = np.array([0.0 + val[:-1], s[:-1], (slope - s[:-1]) / dx - t,
                       t / dx, knots[:-1]])
    # sample i lies on the last piece whose knot is <= i, the first and last
    # pieces extended: one run of samples per piece
    bounds = np.concatenate(([0], np.minimum(np.maximum(pos[1:-1], 0), n),
                             [n]))
    c3, c2, c1, c0, start = np.repeat(pieces, bounds[1:] - bounds[:-1], axis=1)
    off = np.arange(n) - start
    off2 = off * off
    return ((c3 + c2 * off) + c1 * off2) + c0 * (off2 * off)


def _envelope(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    pos, val = _mirror(idx, x[idx], len(x))
    return _natural_spline(pos, val, len(x))


def _sift(residual: np.ndarray, sift_tol: float) -> tuple | None:
    """Extract one IMF from ``residual`` with the number of sifts it took,
    or None if it carries no mode."""
    h = residual
    for sifts in range(MAX_SIFTS):
        maxima, minima = find_extrema(h)
        if len(maxima) < 2 or len(minima) < 2:
            return None if h is residual else (h, sifts)
        mean = (_envelope(h, maxima) + _envelope(h, minima)) / 2.0
        h_new = h - mean
        # on h scaled by a power of two: exact, and no square overflows
        e = -np.frexp(np.max(np.abs(h)))[1]
        denom = float(np.sum(np.ldexp(h, e) ** 2))
        sd = float(np.sum(np.ldexp(h - h_new, e) ** 2)) / denom if denom > 0 else 0.0
        h = h_new
        if sd < sift_tol:
            break
    return h, sifts + 1


def emd(x: np.ndarray, max_imfs: int = DEFAULT_MAX_IMFS,
        sift_tol: float = DEFAULT_SIFT_TOL) -> ImfSet:
    """Decompose into IMFs. Monotone input yields zero IMFs and a residual
    equal to the input; the residual is always a new array."""
    x = samples_1d(x)
    if len(x) < 8:
        raise TooShortError(f"need at least 8 samples for EMD, got {len(x)}")
    imfs, sifts = [], []
    residual = x
    while len(imfs) < max_imfs:
        sifted = _sift(residual, sift_tol)
        if sifted is None:
            break
        imfs.append(sifted[0])
        sifts.append(sifted[1])
        residual = residual - sifted[0]
    # pin completeness exactly: residual := x - (IMF 0 + IMF 1 + ...)
    summed = sum(imfs[1:], imfs[0]) if imfs else np.zeros_like(x)
    return ImfSet(imfs=tuple(imfs), residual=x - summed, sifts=tuple(sifts))
