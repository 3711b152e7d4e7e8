import numpy as np
import pytest

from eegscrub import rng_stream
from eegscrub.decompose import (
    DB4_HI,
    DB4_LO,
    band_lengths,
    dwt_forward,
    dwt_inverse,
)
from eegscrub.errors import InvalidLevelsError


def oracle_analysis(x, taps):
    """Loop-based single-level analysis: symmetric pad, correlate, downsample.

    Written independently of the library's vectorized path so the two can
    check each other.
    """
    m = len(taps)
    padded = list(x[: m - 1][::-1]) + list(x) + list(x[-(m - 1):][::-1])
    full = []
    for start in range(len(padded) - m + 1):
        acc = 0.0
        for k in range(m):
            acc += padded[start + k] * taps[k]
        full.append(acc)
    return np.array(full[1::2])


def rt_error(n, levels, seed=0):
    rng = rng_stream(seed, f"wavelet-rt:{n}")
    x = rng.normal(size=n)
    dec = dwt_forward(x, levels)
    back = dwt_inverse(dec)
    return np.max(np.abs(back - x))


class TestFilterBank:
    def test_lowpass_sums_to_sqrt2(self):
        assert abs(DB4_LO.sum() - np.sqrt(2.0)) < 1e-12

    def test_unit_energy(self):
        assert abs(np.sum(DB4_LO**2) - 1.0) < 1e-12
        assert abs(np.sum(DB4_HI**2) - 1.0) < 1e-12

    def test_double_shift_orthogonality(self):
        for shift in (2, 4, 6):
            assert abs(np.dot(DB4_LO[shift:], DB4_LO[:-shift])) < 1e-12

    def test_quadrature_relation(self):
        expected = DB4_LO[::-1] * np.array([1.0, -1.0] * 4)
        assert np.allclose(DB4_HI, expected, atol=1e-15)


class TestForward:
    def test_impulse_detail_matches_convolution_oracle(self):
        x = np.zeros(64)
        x[0] = 1.0
        dec = dwt_forward(x, 1)
        assert np.allclose(dec.details[0],
                           oracle_analysis(x, list(DB4_HI)), atol=1e-12)
        assert np.allclose(dec.approx,
                           oracle_analysis(x, list(DB4_LO)), atol=1e-12)

    def test_mid_signal_matches_convolution_oracle(self):
        rng = rng_stream(1, "wavelet-oracle")
        x = rng.normal(size=101)
        dec = dwt_forward(x, 1)
        assert np.allclose(dec.details[0],
                           oracle_analysis(x, list(DB4_HI)), atol=1e-12)
        assert np.allclose(dec.approx,
                           oracle_analysis(x, list(DB4_LO)), atol=1e-12)

    def test_zero_signal_zero_bands(self):
        dec = dwt_forward(np.zeros(128), 3)
        assert np.all(dec.approx == 0.0)
        assert all(np.all(d == 0.0) for d in dec.details)

    def test_band_lengths_match(self):
        # band_lengths lists the input length first, then each level's size
        dec = dwt_forward(np.ones(1000), 4)
        expected = band_lengths(1000, 4)
        assert expected[0] == 1000
        assert [len(d) for d in dec.details] == list(expected[1:])
        assert len(dec.approx) == expected[-1]

    def test_excessive_levels_rejected(self):
        with pytest.raises(InvalidLevelsError):
            dwt_forward(np.zeros(32), 10)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [37, 256, 1000, 1024])
    def test_perfect_reconstruction(self, n):
        levels = 5 if n >= 256 else 2
        assert rt_error(n, levels) < 1e-8

    def test_shallow_and_deep(self):
        assert rt_error(512, 1) < 1e-10
        assert rt_error(512, 6) < 1e-10

    def test_metadata_round_trip(self):
        x = np.arange(300.0)
        dec = dwt_forward(x, 3)
        assert dec.levels == 3
        assert dec.original_length == 300
