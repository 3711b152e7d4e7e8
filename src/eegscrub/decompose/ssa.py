"""Singular spectrum analysis by eigendecomposition of the lag covariance.

Takes 1-D float samples and returns arrays; the input is never modified. A
model keeps a reference to its input, not a copy, and builds components from
it on request, so the input must not change while the model is in use.

The L x L lag covariance C = X X^T of the L x K trajectory matrix X has X's
left singular vectors as eigenvectors and the squared singular values as
eigenvalues (basic SSA; Golyandina & Zhigljavsky, 2013). C is formed in
O(N L + L^2) without X: its first row is one correlation of the signal with
its first K samples, and every other entry follows down its diagonal,
C[i+1, j+1] = C[i, j] + x[i+K] x[j+K] - x[i] x[j], by one cumulative sum of
those steps. Both triangles hold the same numbers, so C is exactly symmetric.
The sums round differently from the product X X^T: on noisy, two-tone and
large-offset signals C differs from the sum of X's column-block products by
at most a few 1e-15 of max|C|. Those blocks are still used, but only to
re-measure eigenvalues too small for C to resolve. A caller that reads only
the first k components passes ``leading=k`` and gets a model of those alone.
When the k-th eigenvalue is above twice the re-measure tolerance, the
re-measure is skipped: a re-measured tail value exceeds the tolerance by at
most C's rounding, about 1e-12 of the largest eigenvalue, so it cannot
overtake component k-1, and the k components are bit for bit the full
model's. A caller that reads the whole spectrum, as a sum over all singular
values does, passes nothing. Component i, the diagonal average of
u_i u_i^T X, is built only on request, as a convolution of u_i with the
sliding dot product u_i^T X; the eigenvectors are orthonormal, so all
components sum to the signal. Samples start:stop of a component depend only
on the dot products start - L + 1 to stop - 1, each the same L-term sum as
over the whole signal, so a range is bit for bit that slice of the whole
component, and a long signal's components can be built a chunk at a time.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core import samples_1d
from ..errors import InvalidSpecError, NumericDegeneracyError, TooShortError

# eigenvalues of C below this fraction of the largest are within 1e4 times
# its rounding noise; their directions are measured on the signal instead
EIG_NOISE_TOL = 1e-10
# squared singular values below this fraction of the largest carry no signal
# mass worth a component; dropping them keeps rank tests exact
REL_RANK_TOL = 1e-24
_BLOCK_COLS = 4096  # trajectory columns per block


@dataclass(frozen=True)
class SsaModel:
    """Eigendecomposition of the lag covariance of one signal."""

    window_len: int
    singular_values: np.ndarray
    eigenvectors: np.ndarray  # L x n_components, column i belongs to s_i
    samples: np.ndarray  # the input itself, not a copy

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def n_components(self) -> int:
        return len(self.singular_values)

    def component(self, i: int, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
        """Samples ``start:stop`` of elementary component i, the diagonal
        average of u_i u_i^T X: bit for bit that slice of the whole one."""
        n, length = self.n_samples, self.window_len
        stop = n if stop is None else stop
        if not 0 <= start <= stop <= n:
            raise ValueError(f"sample range {start}:{stop} is not in 0:{n}")
        u = self.eigenvectors[:, i]
        # the sliding dot products u^T X[:, j] that reach samples start:stop
        lo, hi = max(0, start - length + 1), min(n - length + 1, stop)
        if hi - lo <= length:
            # np.convolve puts the longer operand first; over the whole
            # signal the K = N - L + 1 > L dot products are the longer one
            hi = min(n - length + 1, lo + length + 1)
            lo = hi - length - 1
        dots = np.correlate(self.samples[lo:hi + length - 1], u, "valid")
        if length - 1 <= start and stop <= n - length + 1:
            counts = length  # each sample lies on L columns of X
        else:
            t = np.arange(start, stop)
            counts = np.minimum(np.minimum(t + 1, n - t), length)
        return np.convolve(u, dots)[start - lo:stop - lo] / counts


def default_window(n_samples: int) -> int:
    return min(n_samples // 2, 128)


def _row_blocks(x: np.ndarray, length: int):
    """Contiguous blocks of rows of X^T, the trajectory matrix transposed."""
    rows = sliding_window_view(x, length)
    for start in range(0, len(rows), _BLOCK_COLS):
        yield np.ascontiguousarray(rows[start:start + _BLOCK_COLS])


def _lag_cov(x: np.ndarray, length: int) -> np.ndarray:
    """The L x L lag covariance X X^T from its first row and its diagonals."""
    k = len(x) - length + 1
    head = x[:2 * length - 2]
    tail = np.concatenate([x[k:], np.zeros(length - 1)])
    # steps[m, d] = C[m+1, m+1+d] - C[m, m+d]; zero padding past the signal
    # only reaches entries beyond the last column
    steps = (tail[:length - 1, None] * sliding_window_view(tail, length)
             - head[:length - 1, None] * sliding_window_view(head, length))
    first = np.correlate(x, x[:k], "valid")
    # the small steps are summed before they meet the first row
    diagonals = np.vstack([first, first + np.cumsum(steps, axis=0)])
    # row i of diagonals holds C[i, i:], so row i of C starts i places later
    skewed = sliding_window_view(diagonals.ravel(), length)[::length - 1]
    upper = np.triu(skewed[:length])
    return upper + np.triu(upper, 1).T


def ssa_decompose(x: np.ndarray, window_len: int | None = None,
                  leading: int | None = None) -> SsaModel:
    """Decompose 1-D samples; components are built by ``SsaModel.component``.

    With ``leading=k`` the model holds only the full model's first
    ``min(k, n_components)`` components, bit for bit.

    A nonzero signal whose lag covariance overflows or underflows (max |x|
    above about 1e153 or below about 1e-162) raises NumericDegeneracyError.
    """
    x = samples_1d(x)
    n = len(x)
    if window_len is None:
        if n < 4:
            raise TooShortError(f"SSA needs at least 4 samples, got {n}")
        length = default_window(n)
    else:
        length = int(window_len)
        if length < 2 or length > n // 2:
            raise InvalidSpecError(
                f"window_len must satisfy 2 <= L <= N/2, got L={length} for N={n}"
            )
    if leading is not None and leading < 1:
        raise InvalidSpecError(f"leading must be >= 1, got {leading}")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _lag_cov(x, length)
    if not np.isfinite(cov).all() or (x.any() and not cov.any()):
        raise NumericDegeneracyError("lag covariance is out of float range "
                                     f"(max |x| = {np.max(np.abs(x)):.3e})")
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    if leading is not None:
        k = min(leading, length)
        if eigvals[k - 1] > 2 * EIG_NOISE_TOL * eigvals[0]:
            eigvals, eigvecs = eigvals[:k], eigvecs[:, :k]
    low = eigvals < eigvals[0] * EIG_NOISE_TOL
    if low.any():
        # |u_i^T X|^2, summed over the same blocks
        eigvals[low] = sum(np.sum((block @ eigvecs[:, low]) ** 2, axis=0)
                           for block in _row_blocks(x, length))
        order = np.argsort(-eigvals, kind="stable")
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    # none for an all-zero signal; eigvals are in descending order
    keep = np.flatnonzero(eigvals > eigvals[0] * REL_RANK_TOL)[:leading]
    return SsaModel(
        window_len=length,
        singular_values=np.sqrt(eigvals[keep]),
        eigenvectors=eigvecs[:, keep],
        samples=x,
    )


def ssa_reconstruct(model: SsaModel, group) -> np.ndarray:
    """Sum the elementary components selected by index."""
    indices = sorted(set(int(i) for i in group))
    if indices and (indices[0] < 0 or indices[-1] >= model.n_components):
        raise ValueError(
            f"component index out of range 0..{model.n_components - 1}: {indices}"
        )
    return sum((model.component(i) for i in indices),
               np.zeros(model.n_samples))
