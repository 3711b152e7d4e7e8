import numpy as np
import pytest

from eegscrub import (
    FilterSpec,
    Recording,
    Signal,
    apply_filter,
    epoch_view,
    moving_average,
    normalize,
    rng_stream,
)
from eegscrub.core import _butter_design, butter_sos
from eegscrub.decompose import (
    dwt_forward,
    dwt_inverse,
    emd,
    ssa_decompose,
    ssa_reconstruct,
)
from eegscrub.errors import DegenerateInputError, InvalidSpecError, TooShortError


def sine(freq, n=1024, fs=256.0, amp=1.0):
    t = np.arange(n) / fs
    return Signal(samples=amp * np.sin(2 * np.pi * freq * t), fs=fs)


def band_power_at(signal, freq):
    spec = np.abs(np.fft.rfft(signal.samples)) ** 2
    freqs = np.fft.rfftfreq(len(signal), 1 / signal.fs)
    return spec[np.argmin(np.abs(freqs - freq))]


def tone_amp(signal, freq):
    # Hann window keeps edge-transient leakage out of the measured bin
    w = np.hanning(len(signal))
    spec = np.abs(np.fft.rfft(signal.samples * w))
    freqs = np.fft.rfftfreq(len(signal), 1 / signal.fs)
    return spec[np.argmin(np.abs(freqs - freq))]


class TestSignal:
    def test_basics(self):
        s = Signal(samples=np.arange(4.0), fs=2.0)
        assert len(s) == 4
        assert s.duration == 2.0

    def test_rejects_bad_fs(self):
        with pytest.raises(ValueError):
            Signal(samples=np.zeros(4), fs=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Signal(samples=np.array([1.0, np.nan]), fs=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_typed(self, value):
        with pytest.raises(DegenerateInputError):
            Signal([value], 256.0)

    def test_immutable(self):
        s = Signal(samples=np.zeros(4), fs=1.0)
        with pytest.raises(ValueError):
            s.samples[0] = 1.0


class TestRecording:
    def test_shape_and_lookup(self):
        a, b = sine(5, n=64), sine(7, n=64)
        rec = Recording(channels=(a, b), channel_names=("TP9", "AF7"))
        assert rec.n_channels == 2
        assert rec.to_array().shape == (64, 2)
        assert rec.channel("AF7") is b

    def test_unknown_channel(self):
        rec = Recording(channels=(sine(5, n=64),), channel_names=("TP9",))
        with pytest.raises(KeyError):
            rec.channel("AF8")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Recording(channels=(sine(5, n=64), sine(5, n=65)),
                      channel_names=("a", "b"))


class TestApplyFilter:
    def test_bandpass_retains_in_band_tone(self):
        x = sine(10.0, n=2048)
        spec = FilterSpec(kind="bandpass", edges=(8.0, 13.0), order=4)
        y = apply_filter(x, spec)
        assert band_power_at(y, 10.0) >= 0.97 * band_power_at(x, 10.0)

    def test_notch_kills_mains_tone(self):
        x = sine(50.0, n=2048)
        spec = FilterSpec(kind="notch", edges=(50.0,), notch_q=30.0)
        y = apply_filter(x, spec)
        assert tone_amp(y, 50.0) < 0.01 * tone_amp(x, 50.0)

    def test_zero_input_zero_output(self):
        x = Signal(samples=np.zeros(512), fs=256.0)
        spec = FilterSpec(kind="lowpass", edges=(30.0,), order=4)
        assert np.all(apply_filter(x, spec).samples == 0.0)

    def test_corner_at_nyquist_rejected(self):
        x = sine(10.0)
        with pytest.raises(InvalidSpecError):
            apply_filter(x, FilterSpec(kind="lowpass", edges=(128.0,),
                                       order=4))

    def test_too_short_signal_rejected(self):
        x = Signal(samples=np.zeros(8), fs=256.0)
        with pytest.raises(TooShortError):
            apply_filter(x, FilterSpec(kind="lowpass", edges=(30.0,),
                                       order=4))

    def test_linearity(self):
        rng = rng_stream(0, "filter-linearity")
        x = Signal(samples=rng.normal(size=512), fs=256.0)
        y = Signal(samples=rng.normal(size=512), fs=256.0)
        spec = FilterSpec(kind="bandpass", edges=(1.0, 40.0), order=4)
        lhs = apply_filter(
            Signal(samples=2.0 * x.samples + 3.0 * y.samples, fs=256.0), spec
        ).samples
        rhs = (2.0 * apply_filter(x, spec).samples
               + 3.0 * apply_filter(y, spec).samples)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_design_shared_but_copies_writeable(self):
        first = butter_sos(4, (8.0, 13.0), "bandpass", 256.0)
        first[:] = 0.0  # a caller's edits reach no other caller
        again = butter_sos(4, (8.0, 13.0), "bandpass", 256.0)
        assert again.flags.writeable and again is not first
        assert not np.array_equal(again, first)
        hits = _butter_design.cache_info().hits
        butter_sos(4, (8.0, 13.0), "bandpass", 256.0)
        assert _butter_design.cache_info().hits == hits + 1

    def test_zero_phase(self):
        # in-band sine passes with zero lag at the cross-correlation peak
        x = sine(10.0, n=2048)
        y = apply_filter(x, FilterSpec(kind="bandpass", edges=(8.0, 13.0),
                                       order=4))
        corr = np.correlate(y.samples, x.samples, mode="full")
        assert np.argmax(corr) == len(x) - 1


class TestSegmentEpochs:
    def test_no_overlap_count(self):
        x = sine(5, n=1024)
        epochs = epoch_view(x.samples, x.fs, window_s=1.0, overlap=0.0)
        assert len(epochs) == 4
        assert all(len(e) == 256 for e in epochs)

    def test_half_overlap_count(self):
        x = sine(5, n=1024)
        epochs = epoch_view(x.samples, x.fs, window_s=1.0, overlap=0.5)
        assert len(epochs) == 7

    def test_window_longer_than_signal(self):
        x = sine(5, n=100)
        assert len(epoch_view(x.samples, x.fs, 1.0, 0.0)) == 0

    def test_concatenation_is_prefix(self):
        x = sine(5, n=1000)
        epochs = epoch_view(x.samples, x.fs, window_s=1.0, overlap=0.0)
        cat = np.concatenate(list(epochs))
        assert np.array_equal(cat, x.samples[: len(cat)])


class TestNormalize:
    def test_zscore_hand_case(self):
        data = np.array([[1.0], [2.0], [3.0]])
        out, stats = normalize(data)
        assert np.allclose(out[:, 0], [-1.2247448, 0.0, 1.2247448],
                           atol=1e-6)

    def test_constant_column_zscore(self):
        out, _ = normalize(np.array([[5.0], [5.0], [5.0]]))
        assert np.all(out == 0.0)

    def test_precomputed_stats_applied_not_recomputed(self):
        train = np.array([[0.0], [2.0]])
        _, stats = normalize(train)
        out, stats2 = normalize(np.array([[4.0]]), stats=stats)
        assert stats2 is stats
        assert out[0, 0] == pytest.approx(3.0)  # (4-1)/1


class TestMovingAverage:
    def test_constant_invariant(self):
        s = np.ones(4)
        assert np.allclose(moving_average(s, 3), 1.0)

    def test_symmetric_padding_hand_case(self):
        s = np.array([0.0, 3.0, 0.0])
        assert np.allclose(moving_average(s, 3), [1.0, 1.0, 1.0])

    def test_impulse_response(self):
        x = np.zeros(9)
        x[4] = 1.0
        out = moving_average(x, 3)
        assert np.allclose(out[3:6], 1.0 / 3.0)
        assert np.allclose(out[:3], 0.0) and np.allclose(out[6:], 0.0)

    def test_even_width_rejected(self):
        with pytest.raises(ValueError):
            moving_average(sine(5, n=16).samples, 4)


def _emd_outputs(x):
    result = emd(x)
    return [*result.imfs, result.residual]


def _ssa_outputs(x):
    model = ssa_decompose(x, window_len=32)
    return [ssa_reconstruct(model, range(model.n_components)),
            ssa_reconstruct(model, [0])]


# each array engine with every full-length array it returns for x
ENGINES = {
    "emd": _emd_outputs,
    "dwt": lambda x: [dwt_inverse(dwt_forward(x, 2))],
    "ssa": _ssa_outputs,
    "moving_average": lambda x: [moving_average(x, 5)],
}


@pytest.mark.parametrize("engine", ENGINES)
class TestArrayEngineContract:
    @pytest.mark.parametrize("shape", [(2, 300), (300, 1), (0,)])
    def test_rejects_non_1d_or_empty(self, engine, shape):
        with pytest.raises(ValueError):
            ENGINES[engine](np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_typed(self, engine, value):
        x = rng_stream(0, "engine-contract").normal(size=300)
        x[123] = value
        with pytest.raises(DegenerateInputError):
            ENGINES[engine](x)

    def test_input_unchanged_and_outputs_full_length(self, engine):
        x = rng_stream(1, "engine-contract").normal(size=300)
        before = x.tobytes()
        outputs = ENGINES[engine](x)
        assert x.tobytes() == before
        assert outputs
        for out in outputs:
            assert isinstance(out, np.ndarray)
            assert out.shape == x.shape
            assert not np.shares_memory(out, x)
