import numpy as np
import pytest

from eegscrub import rng_stream
from eegscrub.decompose import emd, find_extrema
from eegscrub.errors import TooShortError


def sine(freq, n=1024, fs=256.0):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * freq * t)


def dominant_freq(samples, fs):
    spec = np.abs(np.fft.rfft(samples))
    return np.fft.rfftfreq(len(samples), 1 / fs)[np.argmax(spec)]


class TestFindExtrema:
    def test_simple_peaks(self):
        x = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0])
        maxima, minima = find_extrema(x)
        assert list(maxima) == [1, 5]
        assert list(minima) == [3]

    def test_plateau_midpoint(self):
        x = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        maxima, _ = find_extrema(x)
        assert list(maxima) == [2]

    def test_monotone_has_none(self):
        maxima, minima = find_extrema(np.arange(10.0))
        assert len(maxima) == 0 and len(minima) == 0


class TestEmd:
    def test_pure_sine_first_imf(self):
        x = sine(10.0, n=1024)
        result = emd(x)
        r = np.corrcoef(result.imfs[0], x)[0, 1]
        assert r >= 0.99
        res_rms = np.sqrt(np.mean(result.residual**2))
        assert res_rms < 0.05 * np.sqrt(np.mean(x**2))

    def test_monotone_ramp_passthrough(self):
        x = np.linspace(0.0, 1.0, 256)
        result = emd(x)
        assert len(result.imfs) == 0
        assert np.array_equal(result.residual, x)
        assert not np.shares_memory(result.residual, x)

    def test_two_tone_separation(self):
        t = np.arange(1024) / 256.0
        x = np.sin(2 * np.pi * 25 * t) + np.sin(2 * np.pi * 3 * t)
        result = emd(x)
        assert len(result.imfs) >= 2
        f0 = dominant_freq(result.imfs[0], 256.0)
        f1 = dominant_freq(result.imfs[1], 256.0)
        assert abs(f0 - 25.0) < 3.0
        assert abs(f1 - 3.0) < 1.5

    def test_completeness(self):
        rng = rng_stream(0, "emd-completeness")
        for _ in range(5):
            x = rng.normal(size=512)
            result = emd(x)
            total = sum(result.imfs)
            total = total + result.residual
            scale = np.max(np.abs(x))
            assert np.max(np.abs(total - x)) < 1e-8 * scale

    def test_imf_extrema_zero_crossing_counts(self):
        x = sine(10.0, n=1024)
        result = emd(x)
        for s in result.imfs[:2]:
            maxima, minima = find_extrema(s)
            zc = int(np.sum(np.abs(np.diff(np.signbit(s)))))
            assert abs((len(maxima) + len(minima)) - zc) <= 1

    def test_caps_respected(self):
        rng = rng_stream(3, "emd-caps")
        x = rng.normal(size=2048)
        result = emd(x, max_imfs=4)
        assert len(result.imfs) <= 4

    def test_too_short(self):
        with pytest.raises(TooShortError):
            emd(np.arange(4.0))
