"""Daubechies-4 discrete wavelet transform with symmetric extension.

Takes 1-D float samples and returns arrays; the input is never modified.
The analysis step extends the signal by ``len(filter) - 1`` samples on each
side (half-sample symmetric reflection) and keeps every correlation window
that lies fully inside the extension. That slight redundancy (each band holds
``floor((n + 7) / 2)`` coefficients) is what makes the inverse exact for any
signal length, not just powers of two.
"""

from dataclasses import dataclass

import numpy as np

from ..core import samples_1d
from ..errors import InvalidLevelsError

# orthonormal db4 scaling filter (sum = sqrt(2), unit energy)
DB4_LO = np.array([
    0.2303778133088964,
    0.7148465705529153,
    0.6308807679298589,
    -0.0279837694168594,
    -0.1870348117190930,
    0.0308413818355606,
    0.0328830116668852,
    -0.0105974017850690,
])
# conjugate quadrature mate: g[n] = (-1)^n h[L-1-n]
DB4_HI = (DB4_LO[::-1] * np.where(np.arange(8) % 2 == 0, 1.0, -1.0))
FILT_LEN = len(DB4_LO)


@dataclass(frozen=True)
class WaveletDecomposition:
    """Multilevel db4 coefficients; details ordered finest to coarsest."""

    approx: np.ndarray
    details: tuple
    levels: int
    original_length: int


def _coeff_len(n: int) -> int:
    return (n + FILT_LEN - 1) // 2


def band_lengths(n: int, levels: int) -> list:
    """Input length seen by each analysis level (finest first)."""
    lengths = [n]
    for _ in range(levels):
        lengths.append(_coeff_len(lengths[-1]))
    return lengths


def _analyze(x: np.ndarray):
    ext = np.pad(x, (FILT_LEN - 1, FILT_LEN - 1), mode="symmetric")
    lo = np.correlate(ext, DB4_LO, mode="valid")[1::2]
    hi = np.correlate(ext, DB4_HI, mode="valid")[1::2]
    return lo, hi


def _synthesize(approx: np.ndarray, detail: np.ndarray, out_len: int) -> np.ndarray:
    up_a = np.zeros(2 * len(approx) - 1)
    up_a[::2] = approx
    up_d = np.zeros(2 * len(detail) - 1)
    up_d[::2] = detail
    y = np.convolve(up_a, DB4_LO) + np.convolve(up_d, DB4_HI)
    return y[FILT_LEN - 2 : FILT_LEN - 2 + out_len]


def dwt_forward(x: np.ndarray, levels: int) -> WaveletDecomposition:
    """Decompose into ``levels`` detail bands plus a coarse approximation."""
    x = samples_1d(x)
    if levels < 1:
        raise InvalidLevelsError(f"levels must be >= 1, got {levels}")
    details = []
    approx = x
    for lv in range(levels):
        if len(approx) < FILT_LEN:
            raise InvalidLevelsError(
                f"band at level {lv} has {len(approx)} samples, "
                f"shorter than the {FILT_LEN}-tap filter"
            )
        approx, detail = _analyze(approx)
        details.append(detail)
    return WaveletDecomposition(
        approx=approx,
        details=tuple(details),
        levels=levels,
        original_length=len(x),
    )


def dwt_inverse(dec: WaveletDecomposition) -> np.ndarray:
    """Exact inverse of :func:`dwt_forward` (untouched coefficients)."""
    lengths = band_lengths(dec.original_length, dec.levels)
    approx = dec.approx
    for level in range(dec.levels - 1, -1, -1):
        approx = _synthesize(approx, dec.details[level], lengths[level])
    return approx
