"""What ``dwt``, ``emd_maf`` and ``akf`` report under ``decisions``, one test
per key, each against the quantity recomputed from the method's own steps."""

import numpy as np
import pytest

from eegscrub import (Signal, adaptive_kalman_denoise, denoise_dwt,
                      denoise_emd_maf, rng_stream)
from eegscrub.decompose import dwt_forward, emd
from eegscrub.decompose.emd import MAX_SIFTS

FS = 256.0


def noisy_sine(n=1024, seed=0):
    t = np.arange(n) / FS
    rng = rng_stream(seed, "decisions")
    return Signal(np.sin(2 * np.pi * 6.0 * t) + 0.3 * rng.normal(size=n), FS)


class TestDwt:
    def test_sigma_is_the_finest_band_noise_scale(self):
        x = noisy_sine()
        _, report = denoise_dwt(x)
        finest = dwt_forward(x.samples, 3).details[0]
        assert report.decisions["sigma"] == np.median(np.abs(finest)) / 0.6745

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_fraction_zeroed_counts_the_coefficients_set_to_zero(self, mode):
        # white noise is shrunk away, a 40 Hz tone in the details is not
        x = noisy_sine()
        x = x.with_samples(x.samples + 3.0 * np.sin(
            2 * np.pi * 40.0 * np.arange(len(x)) / FS))
        _, report = denoise_dwt(x, mode=mode)
        details = dwt_forward(x.samples, 3).details
        threshold = (report.decisions["sigma"]
                     * np.sqrt(2.0 * np.log(len(x))))
        below = sum(int(np.sum(np.abs(band) <= threshold)) for band in details)
        fraction = report.decisions["fraction_zeroed"]
        assert fraction == below / sum(len(band) for band in details)
        assert 0.0 < fraction < 1.0
        # an all-zero input has a zero threshold and nothing but zeros
        _, report = denoise_dwt(Signal(np.zeros(512), FS), mode=mode)
        assert report.decisions == {"sigma": 0.0, "fraction_zeroed": 1.0}


class TestEmdMaf:
    def test_imf_count_is_the_decomposition_s(self):
        x = noisy_sine()
        _, report = denoise_emd_maf(x)
        assert report.decisions["imf_count"] == len(emd(x.samples).imfs) > 0
        _, ramp = denoise_emd_maf(Signal(np.linspace(0.0, 1.0, 256), FS))
        assert ramp.decisions == {"imf_count": 0, "sifts": []}

    def test_sifts_one_count_per_imf(self):
        x = noisy_sine()
        _, report = denoise_emd_maf(x)
        sifts = report.decisions["sifts"]
        assert sifts == list(emd(x.samples).sifts)
        assert len(sifts) == report.decisions["imf_count"]
        assert all(1 <= s <= MAX_SIFTS for s in sifts)
        # a tolerance nothing meets sifts to the cap or until the extrema
        # run out; one everything meets stops after the first sift
        assert max(emd(x.samples, sift_tol=0.0).sifts) == MAX_SIFTS
        assert set(emd(x.samples, sift_tol=np.inf).sifts) == {1}


class TestAkf:
    def test_final_r_is_the_last_window_s_estimate(self):
        # an all-zero input has no innovations, so every window sets r to
        # its floor r0 / 100; an input shorter than a window keeps r0
        zero = Signal(np.zeros(512), FS)
        _, report = adaptive_kalman_denoise(zero, r0=2.0, adapt_window=64)
        assert report.decisions["final_r"] == 2.0 / 100.0
        _, report = adaptive_kalman_denoise(zero, r0=2.0, adapt_window=600)
        assert report.decisions["final_r"] == 2.0

    def test_final_gain_is_the_last_step_s(self):
        # under one window r stays r0, so the gain follows p alone
        q, r0, n = 1e-3, 0.5, 50
        p = r0
        for _ in range(n):
            p_prior = p + q
            gain = p_prior / (p_prior + r0)
            p = (1.0 - gain) * p_prior
        _, report = adaptive_kalman_denoise(noisy_sine(n), q=q, r0=r0,
                                            adapt_window=64)
        assert report.decisions["final_gain"] == gain
