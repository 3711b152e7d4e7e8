import numpy as np
import pytest

from eegscrub import (
    NOISE_KINDS,
    NoiseSpec,
    Signal,
    compute_metrics,
    gen_noise,
    mix_at_snr,
)
from eegscrub.errors import DegenerateInputError, InvalidSpecError


def band_energy_fraction(samples, fs, lo, hi):
    spec = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(len(samples), 1 / fs)
    total = spec.sum()
    return spec[(freqs >= lo) & (freqs <= hi)].sum() / total


def unit_sine(n=2048, fs=256.0, freq=10.0):
    t = np.arange(n) / fs
    return Signal(samples=np.sin(2 * np.pi * freq * t), fs=fs)


class TestNoiseSpec:
    def test_kinds_registered(self):
        assert set(NOISE_KINDS) == {
            "awgn", "powerline", "baseline_wander", "emg_burst", "blink",
        }

    def test_text_round_trip(self):
        spec = NoiseSpec("emg_burst", {"duty": 0.5, "sigma": 1.0}, seed=7)
        text = spec.to_text()
        assert "kind=emg_burst" in text and "seed=7" in text
        assert NoiseSpec.from_text(text) == spec

    def test_cli_example_form(self):
        spec = NoiseSpec.from_text("kind=emg_burst,duty=0.5,seed=7")
        assert spec.kind == "emg_burst"
        assert spec.params["duty"] == 0.5
        assert spec.seed == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidSpecError):
            NoiseSpec("pink", {}, seed=0)

    def test_out_of_range_param_rejected(self):
        with pytest.raises(InvalidSpecError):
            NoiseSpec("emg_burst", {"duty": 1.5}, seed=0)

    @pytest.mark.parametrize("text, message", [
        ("kind=awgn,seed=1.5", "seed must be an integer, got 'seed=1.5'"),
        ("kind=awgn,sigma=abc", "sigma must be a number, got 'sigma=abc'"),
    ])
    def test_unreadable_value_names_item_and_spec(self, text, message):
        with pytest.raises(InvalidSpecError) as err:
            NoiseSpec.from_text(text)
        assert str(err.value) == f"{message} in {text!r}"


class TestGenNoise:
    def test_deterministic(self):
        spec = NoiseSpec("awgn", {}, seed=11)
        a = gen_noise(spec, 256, 256.0)
        b = gen_noise(spec, 256, 256.0)
        assert np.array_equal(a.samples, b.samples)

    def test_awgn_moments(self):
        spec = NoiseSpec("awgn", {"sigma": 1.0}, seed=5)
        x = gen_noise(spec, 1000, 256.0).samples
        assert abs(x.mean()) < 0.1
        assert abs(x.var() - 1.0) < 0.1

    def test_powerline_is_pure_tone(self):
        spec = NoiseSpec("powerline", {"freq": 50.0}, seed=3)
        x = gen_noise(spec, 2048, 256.0).samples
        assert band_energy_fraction(x, 256.0, 49.5, 50.5) >= 0.99

    def test_emg_burst_band_limited(self):
        spec = NoiseSpec("emg_burst", {"duty": 0.5}, seed=9)
        x = gen_noise(spec, 4096, 256.0).samples
        assert band_energy_fraction(x, 256.0, 20.0, 60.0) >= 0.90

    def test_baseline_wander_below_one_hz(self):
        spec = NoiseSpec("baseline_wander", {}, seed=2)
        x = gen_noise(spec, 4096, 256.0).samples
        assert band_energy_fraction(x, 256.0, 0.0, 1.0) >= 0.95

    def test_blink_bumps_unipolar(self):
        spec = NoiseSpec("blink", {"rate": 20.0}, seed=4)
        x = gen_noise(spec, 4096, 256.0).samples
        assert x.min() >= -1e-12
        assert x.max() > 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_blink_never_silent_at_positive_rate(self, seed):
        # seeds 0 and 5 draw no blink from the Poisson law at the default
        # rate over 8 s; at least one is placed all the same
        x = gen_noise(NoiseSpec("blink", {}, seed=seed), 2048, 256.0).samples
        assert np.any(x != 0.0)

    @pytest.mark.parametrize("fs", [0.0, -256.0])
    def test_non_positive_fs_refused(self, fs):
        with pytest.raises(ValueError, match="sampling rate must be positive"):
            gen_noise(NoiseSpec("awgn", {}, seed=0), 256, fs)

    def test_blink_rate_zero_is_silent(self):
        spec = NoiseSpec("blink", {"rate": 0.0}, seed=0)
        assert np.all(gen_noise(spec, 2048, 256.0).samples == 0.0)


class TestMixAtSnr:
    def test_zero_db_matches_power(self):
        clean = unit_sine()
        noise = gen_noise(NoiseSpec("awgn", {}, seed=1), len(clean), 256.0)
        mixed, report = mix_at_snr(clean, noise, 0.0)
        p_clean = np.mean(clean.samples**2)
        scaled = mixed.samples - clean.samples
        assert np.mean(scaled**2) == pytest.approx(p_clean, rel=1e-9)
        assert report.achieved_snr_db == pytest.approx(0.0, abs=1e-6)

    def test_minus_ten_db(self):
        clean = unit_sine()
        noise = gen_noise(NoiseSpec("awgn", {}, seed=1), len(clean), 256.0)
        mixed, _ = mix_at_snr(clean, noise, -10.0)
        p_clean = np.mean(clean.samples**2)
        p_noise = np.mean((mixed.samples - clean.samples) ** 2)
        assert p_noise == pytest.approx(10.0 * p_clean, rel=1e-9)

    def test_infinite_snr_returns_clean(self):
        clean = unit_sine()
        noise = gen_noise(NoiseSpec("awgn", {}, seed=1), len(clean), 256.0)
        mixed, report = mix_at_snr(clean, noise, np.inf)
        assert np.array_equal(mixed.samples, clean.samples)
        assert report.noise_scale == 0.0

    def test_degenerate_inputs_rejected(self):
        clean = unit_sine()
        zeros = Signal(samples=np.zeros(len(clean)), fs=256.0)
        with pytest.raises(DegenerateInputError):
            mix_at_snr(zeros, clean, 0.0)
        with pytest.raises(DegenerateInputError):
            mix_at_snr(clean, zeros, 0.0)


class TestComputeMetrics:
    def test_identity(self):
        x = unit_sine()
        m = compute_metrics(x, x)
        assert m["rmse"] == 0.0
        assert m["corr"] == pytest.approx(1.0)
        assert m["snr_db"] == np.inf

    def test_sign_flip(self):
        x = unit_sine()
        y = Signal(samples=-x.samples, fs=256.0)
        assert compute_metrics(x, y)["corr"] == pytest.approx(-1.0)

    def test_constructed_zero_db(self):
        clean = unit_sine()
        noise = gen_noise(NoiseSpec("awgn", {}, seed=8), len(clean), 256.0)
        mixed, _ = mix_at_snr(clean, noise, 0.0)
        assert compute_metrics(clean, mixed)["snr_db"] == pytest.approx(
            0.0, abs=1e-6
        )

    def test_constant_test_flagged(self):
        x = unit_sine()
        y = Signal(samples=np.full(len(x), 2.0), fs=256.0)
        m = compute_metrics(x, y)
        assert m["corr"] == 0.0
        assert m["degenerate_corr"] is True

    def test_corr_shift_scale_invariant(self):
        x = unit_sine()
        y = Signal(samples=2.5 * x.samples + 3.0, fs=256.0)
        assert compute_metrics(x, y)["corr"] == pytest.approx(1.0, abs=1e-9)


def test_round_trip_many_targets():
    clean = unit_sine()
    for kind in ("awgn", "powerline", "emg_burst"):
        noise = gen_noise(NoiseSpec(kind, {}, seed=6), len(clean), 256.0)
        for target in (-10.0, -5.0, 0.0, 5.0, 10.0):
            mixed, report = mix_at_snr(clean, noise, target)
            measured = compute_metrics(clean, mixed)["snr_db"]
            assert abs(measured - target) < 1e-6
            assert abs(report.achieved_snr_db - target) < 1e-6
