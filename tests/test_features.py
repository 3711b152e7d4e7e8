import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from eegscrub import (
    BANDS,
    FEATURES_PER_CHANNEL,
    FeatureMatrix,
    Recording,
    Signal,
    band_powers,
    build_feature_matrix,
    features,
    rng_stream,
    spectral_entropy,
    time_stats,
    welch_psd,
)
from eegscrub.errors import NumericDegeneracyError
from peak_rss import peak_rise_mib


def sine(freq, n=1024, fs=256.0):
    t = np.arange(n) / fs
    return Signal(samples=np.sin(2 * np.pi * freq * t), fs=fs)


def sine_psd(freq, n=1024, **welch_kw):
    x = sine(freq, n=n)
    return welch_psd(x.samples, x.fs, **welch_kw)


class TestWelchPsd:
    def test_tone_peaks_at_its_frequency(self):
        freqs, psd = sine_psd(10.0, seg_len=256)
        assert freqs[np.argmax(psd)] == pytest.approx(10.0)

    def test_white_noise_flat_and_parseval(self):
        rng = rng_stream(0, "welch-white")
        x = Signal(samples=rng.normal(size=256 * 21), fs=256.0)
        freqs, psd = welch_psd(x.samples, x.fs, seg_len=256, overlap=0.0)
        integrated = np.trapezoid(psd, freqs)
        assert integrated == pytest.approx(x.samples.var(), rel=0.05)
        interior = psd[2:-2]
        assert interior.max() / interior.min() < 10.0

    def test_zero_signal_zero_psd(self):
        _, psd = welch_psd(np.zeros(512), 256.0, seg_len=256)
        assert np.all(psd == 0.0)

    def test_seg_len_validation(self):
        with pytest.raises(ValueError):
            sine_psd(5.0, seg_len=4)


class TestBandPowers:
    def test_alpha_tone(self):
        freqs, psd = sine_psd(10.0, n=4096, seg_len=1024)
        powers = band_powers(freqs, psd)
        assert powers[2] >= 0.95 * sum(powers)

    def test_delta_tone(self):
        freqs, psd = sine_psd(2.0, n=4096, seg_len=1024)
        powers = band_powers(freqs, psd)
        assert powers[0] == max(powers)

    def test_zero_psd(self):
        freqs = np.linspace(0.0, 128.0, 257)
        assert band_powers(freqs, np.zeros(257)) == (0.0,) * len(BANDS)


class TestSpectralEntropy:
    def test_delta_distribution(self):
        psd = np.zeros(64)
        psd[10] = 3.0
        assert spectral_entropy(psd) == 0.0

    def test_uniform_distribution(self):
        assert spectral_entropy(np.ones(64)) == pytest.approx(1.0)

    def test_two_equal_bins(self):
        psd = np.zeros(16)
        psd[3] = psd[9] = 1.0
        assert spectral_entropy(psd) == pytest.approx(
            np.log(2.0) / np.log(16.0)
        )

    def test_all_zero_is_zero(self):
        assert spectral_entropy(np.zeros(16)) == 0.0
        psd = np.ones((3, 16))
        psd[1] = 0.0
        np.testing.assert_array_equal(spectral_entropy(psd), [1.0, 0.0, 1.0])


class TestTimeStats:
    def test_hand_case(self):
        stats = time_stats(np.array([1.0, 2.0, 3.0, 4.0]))
        assert stats["mean"] == 2.5
        assert stats["variance"] == 1.25  # population variance
        assert stats["min"] == 1.0 and stats["max"] == 4.0

    def test_constant_flagged(self):
        stats = time_stats(np.full(16, 5.0))
        assert stats["variance"] == 0.0
        assert stats["skewness"] == 0.0 and stats["kurtosis"] == 0.0
        assert stats["degenerate"]

    def test_gaussian_moments(self):
        rng = rng_stream(1, "stats-gauss")
        stats = time_stats(rng.normal(size=100_000))
        assert abs(stats["skewness"]) < 0.1
        assert abs(stats["kurtosis"]) < 0.2  # excess kurtosis near 0

    def test_moments_match_exact_arithmetic(self):
        # The float mean is off by about eps * |mean|; that shift of every
        # centered sample moves skewness by about 3 * shift / sd in any
        # float method, so the bound grows with |mean| / sd.
        rng = rng_stream(3, "stats-exact")
        eps = np.finfo(float).eps
        for trial in range(120):
            scale = 10.0 ** rng.uniform(-3, 3)
            offset = scale * (0, 1, -10, 100)[trial % 4]
            draw = (rng.normal, rng.exponential, rng.uniform)[trial % 3]
            x = offset + scale * draw(size=int(rng.integers(3, 65)))
            skew, kurt, mean, sd = exact_moments(x)
            stats = time_stats(x)
            cond = 8 * eps * (1 + abs(mean) / sd)
            assert abs(stats["skewness"] - skew) <= cond * max(1, abs(skew))
            assert abs(stats["kurtosis"] - kurt) <= cond * (kurt + 3)


def exact_moments(x):
    """Skewness, excess kurtosis, mean and standard deviation of the float
    values in ``x``, from exact rational sums; each square root is taken to
    40 digits before the one rounding to float."""
    values = [Fraction(v) for v in x.tolist()]
    mean = sum(values) / len(values)
    m2, m3, m4 = (sum((v - mean) ** k for v in values) / len(values)
                  for k in (2, 3, 4))
    with localcontext() as ctx:
        ctx.prec = 40
        sd = (Decimal(m2.numerator) / Decimal(m2.denominator)).sqrt()
        skew = Decimal(m3.numerator) / Decimal(m3.denominator) / sd**3
    return float(skew), float(m4 / m2**2 - 3), float(mean), float(sd)


class TestBuildFeatureMatrix:
    def make_rec(self, n=512, n_ch=4):
        rng = rng_stream(2, "feat-rec")
        channels = tuple(
            Signal(samples=np.sin(2 * np.pi * 10 * np.arange(n) / 256.0)
                   + 0.1 * rng.normal(size=n), fs=256.0)
            for _ in range(n_ch)
        )
        names = ("TP9", "AF7", "AF8", "TP10")[:n_ch]
        return Recording(channels=channels, channel_names=names)

    def test_four_channels_one_epoch(self):
        matrix = build_feature_matrix(self.make_rec(n=512), window_s=2.0)
        assert matrix.n_rows == 1
        assert matrix.n_features == 4 * FEATURES_PER_CHANNEL

    def test_column_names(self):
        matrix = build_feature_matrix(self.make_rec(n=512), window_s=2.0)
        assert matrix.feature_names[0] == "TP9_delta"
        assert "AF7_entropy" in matrix.feature_names
        assert matrix.feature_names[-1] == "TP10_kurtosis"

    def test_two_epochs_two_rows(self):
        matrix = build_feature_matrix(self.make_rec(n=1024), window_s=2.0)
        assert matrix.n_rows == 2

    def test_rows_follow_epoch_order(self):
        rec = self.make_rec(n=1024)
        both = build_feature_matrix(rec, window_s=2.0)
        first = Recording(
            channels=tuple(ch.with_samples(ch.samples[:512])
                           for ch in rec.channels),
            channel_names=rec.channel_names,
        )
        one = build_feature_matrix(first, window_s=2.0)
        assert np.allclose(both.rows[0], one.rows[0])

    def test_labels_broadcast(self):
        matrix = build_feature_matrix(self.make_rec(n=1024), window_s=2.0,
                                      label=2)
        assert matrix.labels == (2, 2)

    def test_zero_epochs(self):
        matrix = build_feature_matrix(self.make_rec(n=100), window_s=2.0)
        assert matrix.n_rows == 0
        assert matrix.n_features == 4 * FEATURES_PER_CHANNEL

    def test_all_finite_on_rough_input(self):
        # constant channel hits every degenerate branch at once
        rec = Recording(
            channels=(Signal(samples=np.zeros(512), fs=256.0),),
            channel_names=("flat",),
        )
        matrix = build_feature_matrix(rec, window_s=2.0)
        assert np.all(np.isfinite(matrix.rows))

    def test_overflowing_amplitude_names_its_channels(self):
        rec = self.make_rec(n=1024)
        huge = rec.with_channels(
            ch.with_samples(ch.samples * 1e100) if name in ("AF7", "TP10")
            else ch for name, ch in zip(rec.channel_names, rec.channels))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDegeneracyError,
                               match=r"channel\(s\) AF7, TP10 are"):
                build_feature_matrix(huge, window_s=2.0)

    def test_rows_independent_of_block_size(self, monkeypatch):
        # 4 channels of 2 s windows at 50 % overlap: 202 epochs, three full
        # default blocks and a partial fourth
        rec = self.make_rec(n=512 + 256 * 201)
        per_block = features._BLOCK_BYTES // (4 * 512 * 8)
        default = build_feature_matrix(rec, window_s=2.0, overlap=0.5)
        assert 3 * per_block < default.n_rows < 4 * per_block
        for block_bytes in (1, 1 << 40):  # an epoch a block; one block
            monkeypatch.setattr(features, "_BLOCK_BYTES", block_bytes)
            rows = build_feature_matrix(rec, window_s=2.0, overlap=0.5).rows
            assert np.array_equal(rows, default.rows)


_FEATURES_SETUP = """
import numpy as np
from eegscrub import Recording, Signal, build_feature_matrix, rng_stream

def recording(n):
    rng = rng_stream(0, "features-rss")
    return Recording(tuple(Signal(rng.normal(size=n), 256.0)
                           for _ in range(4)), ("TP9", "AF7", "AF8", "TP10"))

build_feature_matrix(recording(2048), 2.0, 0.5)  # scipy loads on first use
rec = recording(20 * 60 * 256)
"""


def test_twenty_minute_features_stay_in_proportion():
    # memory in proportion to the input: at most 4x its bytes plus 32 MiB
    input_mib = 4 * 20 * 60 * 256 * 8 / 2**20
    rise = peak_rise_mib(_FEATURES_SETUP, "build_feature_matrix(rec, 2.0, 0.5)")
    assert rise <= 4 * input_mib + 32


class TestFeatureMatrixType:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureMatrix(rows=np.zeros((2, 3)), feature_names=("a", "b"))
        with pytest.raises(ValueError):
            FeatureMatrix(rows=np.array([[np.nan]]), feature_names=("a",))
        with pytest.raises(ValueError):
            FeatureMatrix(rows=np.zeros((2, 1)), feature_names=("a",),
                          labels=(0,))

    def test_rows_read_only(self):
        m = FeatureMatrix(rows=np.zeros((1, 2)), feature_names=("a", "b"))
        with pytest.raises(ValueError):
            m.rows[0, 0] = 1.0
