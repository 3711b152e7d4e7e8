"""Canonical correlation analysis via whitening and SVD.

The core, :func:`cca_from_moments`, works on covariances alone: the
covariance of x, of y and between them give the projection weights and the
canonical correlations, however the covariances were summed. :func:`cca`
forms them from two (channels x samples) float arrays, which it does not
modify, and also returns the x-side canonical variates. Covariances get a
ridge of 1e-8 times their trace average before inversion so near-collinear
channels stay solvable; anything still non-positive-definite after that
raises instead of returning garbage correlations.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError, NumericDegeneracyError, TooShortError

RIDGE_SCALE = 1e-8


@dataclass(frozen=True)
class CcaResult:
    """Projection weights, correlations, and x-side canonical variates."""

    wx: np.ndarray
    wy: np.ndarray
    correlations: np.ndarray
    sources: np.ndarray  # n_pairs x samples, row i is wx[i] @ (x - mean)


def _inv_sqrt(cov: np.ndarray, side: str) -> np.ndarray:
    avg = np.trace(cov) / len(cov)
    ridged = cov + np.eye(len(cov)) * (RIDGE_SCALE * avg)
    eigvals, eigvecs = np.linalg.eigh(ridged)
    if not np.all(np.isfinite(eigvals)) or eigvals[0] <= 0:
        raise NumericDegeneracyError(
            f"{side} covariance is not positive definite even with ridge "
            f"(smallest eigenvalue {eigvals[0]:.3e})"
        )
    return eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T


def cca(x: np.ndarray, y: np.ndarray) -> CcaResult:
    """Find projections of x and y with maximally correlated outputs.

    x and y are (channels x N) and stay unchanged. y is centred and released
    before x is, so a y passed as a temporary is freed first; at most two
    more channels x N arrays are alive at once.
    """
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("x and y must be 2-D (channels x samples), got "
                         f"shapes {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateInputError("x or y has non-finite samples")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"x and y differ in length: {x.shape} vs {y.shape}")
    n = x.shape[1]
    if n <= max(len(x), len(y)):
        raise TooShortError(
            f"need more samples ({n}) than channels ({len(x)} and {len(y)})"
        )
    yc = y - y.mean(axis=1, keepdims=True)
    del y
    xc = x - x.mean(axis=1, keepdims=True)
    cxx = xc @ xc.T / (n - 1)
    cyy = yc @ yc.T / (n - 1)
    cxy = xc @ yc.T / (n - 1)
    del yc  # only xc is needed below
    wx, wy, correlations = cca_from_moments(cxx, cyy, cxy)
    return CcaResult(wx=wx, wy=wy, correlations=correlations,
                     sources=wx @ xc)


def cca_from_moments(cxx: np.ndarray, cyy: np.ndarray,
                     cxy: np.ndarray) -> tuple:
    """``(wx, wy, correlations)`` from the covariances of x (channels x
    channels), of y, and of x with y: row i of ``wx`` and of ``wy`` projects
    the centred views onto the i-th most correlated pair."""
    n_pairs = min(len(cxx), len(cyy))
    white_x = _inv_sqrt(cxx, "x")
    white_y = _inv_sqrt(cyy, "y")
    u, s, vt = np.linalg.svd(white_x @ cxy @ white_y.T)
    wx = (u.T @ white_x)[:n_pairs]
    wy = (vt @ white_y)[:n_pairs]
    return wx, wy, np.clip(s[:n_pairs], 0.0, 1.0)
