"""Signal decompositions (EMD, DWT, SSA) and canonical correlation analysis."""

from .cca import CcaResult, cca, cca_from_moments, merge_moments, moments
from .emd import ImfSet, emd, find_extrema
from .ssa import SsaModel, default_window, ssa_decompose, ssa_reconstruct
from .wavelet import (
    DB4_HI,
    DB4_LO,
    WaveletDecomposition,
    band_lengths,
    dwt_forward,
    dwt_inverse,
)
