"""Singular spectrum analysis by eigendecomposition of the lag covariance.

The L x L lag covariance C = X X^T of the L x K trajectory matrix X has X's
left singular vectors as eigenvectors and the squared singular values as
eigenvalues (basic SSA; Golyandina & Zhigljavsky, 2013). C is summed over
column blocks of X, so X is never copied whole. Component i, the diagonal
average of u_i u_i^T X, is built only on request, as a convolution of u_i
with the sliding dot product u_i^T X; the eigenvectors are orthonormal, so
all components sum to the signal.
"""

from dataclasses import dataclass

import numpy as np

from ..core import Signal

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
    samples: np.ndarray
    n_samples: int
    fs: float

    @property
    def n_components(self) -> int:
        return len(self.singular_values)

    def component(self, i: int) -> Signal:
        """Elementary component i: the diagonal average of u_i u_i^T X."""
        u = self.eigenvectors[:, i]
        ramp = np.arange(1, self.n_samples + 1)
        counts = np.minimum(np.minimum(ramp, ramp[::-1]), self.window_len)
        series = np.convolve(u, np.correlate(self.samples, u, "valid"))
        return Signal(samples=series / counts, fs=self.fs)


def default_window(n_samples: int) -> int:
    return min(n_samples // 2, 128)


def _row_blocks(x: np.ndarray, length: int):
    """Contiguous blocks of rows of X^T, the trajectory matrix transposed."""
    rows = np.lib.stride_tricks.sliding_window_view(x, length)
    for start in range(0, len(rows), _BLOCK_COLS):
        yield np.ascontiguousarray(rows[start:start + _BLOCK_COLS])


def ssa_decompose(signal: Signal, window_len: int | None = None) -> SsaModel:
    """Decompose a signal; components are built by ``SsaModel.component``."""
    x = signal.samples
    n = len(x)
    length = default_window(n) if window_len is None else int(window_len)
    if length < 2 or length > n // 2:
        raise ValueError(
            f"window_len must satisfy 2 <= L <= N/2, got L={length} for N={n}"
        )
    cov = sum(block.T @ block for block in _row_blocks(x, length))
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    low = eigvals < eigvals[0] * EIG_NOISE_TOL
    if low.any():
        # |u_i^T X|^2, summed over the same blocks
        eigvals[low] = sum(np.sum((block @ eigvecs[:, low]) ** 2, axis=0)
                           for block in _row_blocks(x, length))
        order = np.argsort(-eigvals, kind="stable")
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    keep = eigvals > eigvals[0] * REL_RANK_TOL  # none for an all-zero signal
    return SsaModel(
        window_len=length,
        singular_values=np.sqrt(eigvals[keep]),
        eigenvectors=eigvecs[:, keep],
        samples=x,
        n_samples=n,
        fs=signal.fs,
    )


def ssa_reconstruct(model: SsaModel, group) -> Signal:
    """Sum the elementary components selected by index."""
    indices = sorted(set(int(i) for i in group))
    if indices and (indices[0] < 0 or indices[-1] >= model.n_components):
        raise ValueError(
            f"component index out of range 0..{model.n_components - 1}: {indices}"
        )
    total = sum((model.component(i).samples for i in indices),
                np.zeros(model.n_samples))
    return Signal(samples=total, fs=model.fs)
