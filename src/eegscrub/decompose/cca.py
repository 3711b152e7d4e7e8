"""Canonical correlation analysis via whitening and SVD.

Covariances get a ridge of 1e-8 times their trace average before inversion so
near-collinear channels stay solvable; anything still non-positive-definite
after that raises instead of returning garbage correlations.
"""

from dataclasses import dataclass

import numpy as np

from ..core import Recording, Signal
from ..errors import NumericDegeneracyError, TooShortError

RIDGE_SCALE = 1e-8


@dataclass(frozen=True)
class CcaResult:
    """Projection weights, correlations, and x-side canonical variates."""

    wx: np.ndarray
    wy: np.ndarray
    correlations: np.ndarray
    sources: Recording


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


def cca(x: Recording, y: Recording) -> CcaResult:
    """Find projections of x and y with maximally correlated outputs."""
    if x.n_samples != y.n_samples:
        raise ValueError(
            f"recordings differ in length: {x.n_samples} vs {y.n_samples}"
        )
    n = x.n_samples
    if n <= max(len(x.channels), len(y.channels)):
        raise TooShortError(
            f"need more samples ({n}) than channels "
            f"({len(x.channels)} and {len(y.channels)})"
        )
    xc = x.to_array().T
    xc -= xc.mean(axis=1, keepdims=True)
    yc = y.to_array().T
    yc -= yc.mean(axis=1, keepdims=True)
    cxx = xc @ xc.T / (n - 1)
    cyy = yc @ yc.T / (n - 1)
    cxy = xc @ yc.T / (n - 1)
    del yc  # each centred copy is channels x N; only xc is needed below

    white_x = _inv_sqrt(cxx, "x")
    white_y = _inv_sqrt(cyy, "y")
    u, s, vt = np.linalg.svd(white_x @ cxy @ white_y.T)
    n_pairs = min(len(x.channels), len(y.channels))
    wx = (u.T @ white_x)[:n_pairs]
    wy = (vt @ white_y)[:n_pairs]
    correlations = np.clip(s[:n_pairs], 0.0, 1.0)

    variates = wx @ xc
    del xc
    channels = tuple(
        Signal(samples=variates[i], fs=x.fs) for i in range(n_pairs)
    )
    names = tuple(f"source_{i}" for i in range(n_pairs))
    return CcaResult(
        wx=wx,
        wy=wy,
        correlations=correlations,
        sources=Recording(channels=channels, channel_names=names),
    )
