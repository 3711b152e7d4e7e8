"""Canonical correlation analysis via whitening and SVD.

CCA needs only the count, means and centred products of the samples.
:func:`moments` forms them for a block of samples; :func:`merge_moments`
joins two blocks' moments (the pairwise update of Chan, Golub & LeVeque,
Am. Stat. 37(3), 1983), so a long input can be summed a chunk at a time.
:func:`cca_from_moments` turns the covariances into projection weights and
canonical correlations, however they were summed. :func:`cca` is the
one-block case: from two (channels x samples) float arrays, which it does
not modify, it also returns the x-side canonical variates. Covariances get
a ridge of 1e-8 times their trace average before inversion so
near-collinear channels stay solvable; anything still
non-positive-definite after that raises instead of returning garbage
correlations.
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


def moments(x: np.ndarray, y: np.ndarray) -> tuple:
    """Count, mean and centred Gram of the rows [x_t, y_t] of x and y,
    samples x k each; merge chunks' moments with :func:`merge_moments`."""
    mean_x, mean_y = x.mean(axis=0), y.mean(axis=0)
    xc, yc = (x - mean_x).T, (y - mean_y).T
    cxy = xc @ yc.T
    return (len(x), np.concatenate([mean_x, mean_y]),
            np.block([[xc @ xc.T, cxy], [cxy.T, yc @ yc.T]]))


def merge_moments(a: tuple, b: tuple) -> tuple:
    """Count, mean and centred Gram of two sets of rows from those of each
    (Chan, Golub & LeVeque, Am. Stat. 37(3), 1983). Means of shape
    (m, ...) go with Grams of shape (m, m, ...): trailing axes are
    independent sets of m variables."""
    (na, mean_a, gram_a), (nb, mean_b, gram_b) = a, b
    n = na + nb
    delta = mean_b - mean_a
    return (n, mean_a + delta * (nb / n),
            gram_a + gram_b + delta[:, None] * delta[None] * (na * nb / n))


def cca(x: np.ndarray, y: np.ndarray) -> CcaResult:
    """Find projections of x and y with maximally correlated outputs.

    x and y are (channels x N) and stay unchanged.
    """
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("x and y must be 2-D (channels x samples), got "
                         f"shapes {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateInputError("x or y has non-finite samples")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"x and y differ in length: {x.shape} vs {y.shape}")
    n, k = x.shape[1], len(x)
    if n <= max(k, len(y)):
        raise TooShortError(
            f"need more samples ({n}) than channels ({k} and {len(y)})"
        )
    _, mean, gram = moments(x.T, y.T)
    wx, wy, correlations = cca_from_moments(
        gram[:k, :k] / (n - 1), gram[k:, k:] / (n - 1), gram[:k, k:] / (n - 1))
    return CcaResult(wx=wx, wy=wy, correlations=correlations,
                     sources=wx @ (x - mean[:k, None]))


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
