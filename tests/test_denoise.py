import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegscrub import (
    NoiseSpec,
    Recording,
    Signal,
    adaptive_kalman_denoise,
    cascade_lms,
    compute_metrics,
    denoise_dwt,
    denoise_emd_maf,
    gen_noise,
    identity,
    mix_at_snr,
    remove_blink_template,
    remove_motion_ssa,
    remove_muscle_ssa_cca,
    rng_stream,
)
from eegscrub import denoise
from eegscrub.bench import make_blink_template
from eegscrub.denoise import METHOD_IDS, METHODS, apply_method
from eegscrub.decompose import ssa_decompose, ssa_reconstruct
from eegscrub.errors import DivergenceError, EegScrubError, TooShortError
from peak_rss import peak_rise_mib

FS = 256.0


def sine(freq, n=2048, fs=FS, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return Signal(samples=amp * np.sin(2 * np.pi * freq * t + phase), fs=fs)


def contaminated(clean, kind, seed, snr_db=0.0, **params):
    noise = gen_noise(NoiseSpec(kind, params, seed=seed), len(clean), FS)
    mixed, _ = mix_at_snr(clean, noise, snr_db)
    return mixed


class TestIdentity:
    def test_passthrough(self):
        x = sine(10.0)
        out, report = identity(x)
        assert np.array_equal(out.samples, x.samples)
        assert report.method_id == "identity"
        assert report.input_len == len(x)


class TestDwt:
    def test_improves_snr_on_awgn(self):
        gains = []
        for seed in range(3):
            clean = sine(10.0)
            mixed = contaminated(clean, "awgn", seed)
            out, _ = denoise_dwt(mixed)
            gains.append(compute_metrics(clean, out)["snr_db"])
        assert np.median(gains) >= 5.0

    def test_noiseless_near_identity(self):
        x = sine(10.0)
        out, _ = denoise_dwt(x)
        assert np.corrcoef(out.samples, x.samples)[0, 1] >= 0.999

    def test_zero_in_zero_out(self):
        out, _ = denoise_dwt(Signal(samples=np.zeros(512), fs=FS))
        assert np.all(out.samples == 0.0)

    def test_report_params(self):
        # DenoiseReport.params is a text map
        _, report = denoise_dwt(sine(10.0), levels=3, mode="hard")
        assert report.method_id == "dwt"
        assert report.params["levels"] == "3"
        assert report.params["mode"] == "hard"


class TestEmdMaf:
    def test_reduces_emg_rmse(self):
        reductions = []
        for seed in range(2):
            clean = sine(5.0)
            mixed = contaminated(clean, "emg_burst", seed, duty=1.0)
            out, _ = denoise_emd_maf(mixed)
            before = compute_metrics(clean, mixed)["rmse"]
            after = compute_metrics(clean, out)["rmse"]
            reductions.append(1.0 - after / before)
        assert np.median(reductions) >= 0.30

    def test_clean_sine_preserved(self):
        x = sine(5.0)
        out, _ = denoise_emd_maf(x)
        assert np.corrcoef(out.samples, x.samples)[0, 1] >= 0.99

    def test_monotone_ramp_passthrough(self):
        x = Signal(samples=np.linspace(0.0, 2.0, 512), fs=FS)
        out, _ = denoise_emd_maf(x)
        assert np.array_equal(out.samples, x.samples)

    @pytest.mark.parametrize("n, width", [(1, 5), (4, 5), (256, 999)])
    def test_width_over_length_refused(self, n, width):
        x = Signal(np.random.default_rng(0).normal(size=n), FS)
        with pytest.raises(TooShortError,
                           match=f"ma_width {width} exceeds the signal "
                                 f"length {n}"):
            denoise_emd_maf(x, ma_width=width)

    @pytest.mark.parametrize("width", [4, 0, -3])
    def test_bad_width_refused_when_no_imf_is_smoothed(self, width):
        # a clean sine has no IMF above 30 Hz, so the width is never used
        with pytest.raises(ValueError, match=f"odd positive integer, got {width}"):
            denoise_emd_maf(sine(5.0), ma_width=width)


class TestSsaMotion:
    def drifted(self, seed):
        clean = sine(10.0)
        rms = np.sqrt(np.mean(clean.samples**2))
        drift = gen_noise(NoiseSpec("baseline_wander", {}, seed=seed),
                          len(clean), FS)
        scale = 10.0 * rms / np.sqrt(np.mean(drift.samples**2))
        mixed = Signal(samples=clean.samples + scale * drift.samples, fs=FS)
        return clean, mixed

    def test_removes_large_drift(self):
        corrs = []
        for seed in range(2):
            clean, mixed = self.drifted(seed)
            out, _ = remove_motion_ssa(mixed)
            corrs.append(np.corrcoef(out.samples, clean.samples)[0, 1])
        assert np.median(corrs) >= 0.9

    def test_no_low_frequency_energy_untouched(self):
        x = sine(10.0)
        out, _ = remove_motion_ssa(x)
        scale = np.max(np.abs(x.samples))
        assert np.max(np.abs(out.samples - x.samples)) < 1e-6 * scale

    def test_pure_drift_mostly_removed(self):
        drift = gen_noise(NoiseSpec("baseline_wander", {}, seed=3), 2048, FS)
        out, _ = remove_motion_ssa(drift)
        assert (np.sqrt(np.mean(out.samples**2))
                < 0.1 * np.sqrt(np.mean(drift.samples**2)))

    def test_output_is_input_minus_removed_components(self):
        _, mixed = self.drifted(0)
        out, report = remove_motion_ssa(mixed)
        model = ssa_decompose(mixed.samples)
        removed = list(report.components_removed)
        assert removed
        expected = mixed.samples - ssa_reconstruct(model, removed)
        scale = np.max(np.abs(mixed.samples))
        assert np.max(np.abs(out.samples - expected)) < 1e-12 * scale
        mass = model.singular_values / model.singular_values.sum()
        assert report.decisions["mass_removed"] == pytest.approx(
            mass[removed].sum(), rel=1e-12)


class TestSsaCca:
    def four_channel(self, seed, n=2048):
        shared = gen_noise(NoiseSpec("emg_burst", {"duty": 1.0}, seed=seed),
                           n, FS)
        cleans, mixeds = [], []
        for c, gain in enumerate((1.0, 0.8, 1.2, 0.9)):
            clean = sine(6.0 + 2.0 * c, n=n)
            mixed, _ = mix_at_snr(
                clean,
                Signal(samples=gain * shared.samples, fs=FS),
                0.0,
            )
            cleans.append(clean)
            mixeds.append(mixed)
        names = ("TP9", "AF7", "AF8", "TP10")
        return (Recording(channels=tuple(cleans), channel_names=names),
                Recording(channels=tuple(mixeds), channel_names=names))

    def test_reduces_shared_emg(self):
        reductions = []
        for seed in range(2):
            clean_rec, mixed_rec = self.four_channel(seed)
            out_rec, _ = remove_muscle_ssa_cca(mixed_rec)
            per_channel = []
            for clean, mixed, out in zip(clean_rec.channels,
                                         mixed_rec.channels,
                                         out_rec.channels):
                before = compute_metrics(clean, mixed)["rmse"]
                after = compute_metrics(clean, out)["rmse"]
                per_channel.append(1.0 - after / before)
            reductions.append(np.mean(per_channel))
        assert np.median(reductions) >= 0.30

    def test_clean_channels_preserved(self):
        clean_rec, _ = self.four_channel(0)
        out_rec, _ = remove_muscle_ssa_cca(clean_rec)
        for clean, out in zip(clean_rec.channels, out_rec.channels):
            assert np.corrcoef(out.samples, clean.samples)[0, 1] >= 0.95

    def test_single_channel_path(self):
        x = contaminated(sine(6.0), "emg_burst", 1, duty=1.0)
        rec = Recording(channels=(x,), channel_names=("only",))
        out, report = remove_muscle_ssa_cca(rec)
        assert out.n_channels == 1
        assert out.n_samples == len(x)
        assert report.method_id == "ssa_cca"

    def test_too_short_rejected(self):
        rec = Recording(channels=(sine(6.0, n=256),),
                        channel_names=("only",))
        with pytest.raises(TooShortError):
            remove_muscle_ssa_cca(rec)

    def test_all_zero_recording_returned_unchanged(self):
        zero = Signal(samples=np.zeros(2048), fs=FS)
        rec = Recording(channels=(zero,) * 4,
                        channel_names=("TP9", "AF7", "AF8", "TP10"))
        out, report = remove_muscle_ssa_cca(rec)
        assert out is rec
        assert report.method_id == "ssa_cca"
        assert report.components_removed == ()
        assert report.decisions == {}
        assert report.params["top_k"] == "4"
        assert report.input_len == 2048

    def test_every_source_zeroed_leaves_component_means(self):
        _, mixed_rec = self.four_channel(0)
        out, report = remove_muscle_ssa_cca(mixed_rec, autocorr_thresh=2.0)
        assert report.components_removed == tuple(range(16))
        for ch, clean in zip(mixed_rec.channels, out.channels):
            model = ssa_decompose(ch.samples)
            mean = sum(model.component(i).mean() for i in range(4))
            assert np.allclose(clean.samples, mean, rtol=0, atol=1e-12)

    def test_report_names_correlations_and_autocorrelations(self):
        _, mixed_rec = self.four_channel(0)
        _, report = remove_muscle_ssa_cca(mixed_rec, autocorr_thresh=0.9)
        corrs = report.decisions["canonical_correlations"]
        autocorrs = report.decisions["lag1_autocorrelations"]
        assert len(corrs) == len(autocorrs) == 4 * 4  # top 4 per channel
        assert corrs == sorted(corrs, reverse=True)
        assert all(0.0 <= c <= 1.0 for c in corrs)
        assert report.components_removed == tuple(
            i for i, rho in enumerate(autocorrs) if rho < 0.9)


def _akf_per_sample(z, q=1e-5, r0=1.0, adapt_window=64):
    """The Kalman recurrence as it ran on numpy scalars, one array write per
    sample; the reference for the Python-float loop."""
    estimate = z[0]
    p = r0
    r = r0
    out = np.empty_like(z)
    innovations = np.empty(adapt_window)
    priors = np.empty(adapt_window)
    fill = 0
    for t, measurement in enumerate(z):
        p_prior = p + q
        innovation = measurement - estimate
        gain = p_prior / (p_prior + r)
        estimate = estimate + gain * innovation
        p = (1.0 - gain) * p_prior
        out[t] = estimate
        innovations[fill] = innovation
        priors[fill] = p_prior
        fill += 1
        if fill == adapt_window:
            r = max(innovations.var() - priors.mean(), r0 / 100.0)
            fill = 0
    return out


class TestAdaptiveKalman:
    def test_constant_plus_noise(self):
        rng = rng_stream(0, "akf-test")
        x = Signal(samples=5.0 + rng.normal(size=4096), fs=FS)
        out, _ = adaptive_kalman_denoise(x)
        tail = out.samples[3 * 4096 // 4:]
        assert abs(tail.mean() - 5.0) < 0.05
        assert tail.var() < 0.05

    def test_tracks_noiseless_input(self):
        x = sine(4.0, n=2048)
        out, _ = adaptive_kalman_denoise(x, q=1.0, r0=1e-6)
        rmse = np.sqrt(np.mean((out.samples - x.samples) ** 2))
        assert rmse < 0.01 * np.sqrt(np.mean(x.samples**2))

    def test_zero_in_zero_out(self):
        out, _ = adaptive_kalman_denoise(Signal(samples=np.zeros(512), fs=FS))
        assert np.all(out.samples == 0.0)

    def test_config_validation(self):
        x = sine(4.0, n=256)
        with pytest.raises(ValueError):
            adaptive_kalman_denoise(x, q=0.0)
        with pytest.raises(ValueError):
            adaptive_kalman_denoise(x, adapt_window=4)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 700),
           kind=st.sampled_from(["noise", "constant", "zero", "impulse"]),
           log_amp=st.floats(-150.0, 150.0),
           log_q=st.floats(-12.0, 3.0),
           log_r0=st.floats(-12.0, 3.0),
           adapt_window=st.integers(8, 100),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2048, kind="noise", log_amp=0.0, log_q=-5.0, log_r0=0.0,
             adapt_window=64, seed=0)
    @example(n=denoise._FLOAT_BLOCK + 50, kind="noise", log_amp=0.0,
             log_q=-5.0, log_r0=0.0, adapt_window=100, seed=1)
    def test_matches_per_sample_loop(self, n, kind, log_amp, log_q, log_r0,
                                     adapt_window, seed):
        x = Signal(edge_samples(kind, n, log_amp, seed), FS)
        q, r0 = 10.0**log_q, 10.0**log_r0
        with np.errstate(all="ignore"):
            want = _akf_per_sample(x.samples, q, r0, adapt_window)
        if not np.all(np.isfinite(want)):
            with pytest.raises(EegScrubError):
                adaptive_kalman_denoise(x, q, r0, adapt_window)
            return
        got, _ = adaptive_kalman_denoise(x, q, r0, adapt_window)
        assert got.samples.tobytes() == want.tobytes()


def _nlms_per_sample(primary, refs, mu, taps):
    """The NLMS cascade as it ran one window at a time, recomputing each
    window's norm; the reference for the blocked loop. Returns the output
    samples and the two decision lists, or raises DivergenceError."""
    current = primary.samples.copy()
    n = len(current)
    reduction_db, max_weight = [], []
    for stage, ref in enumerate(refs):
        x = ref.samples
        delta = 1e-3 * taps * float(np.var(x)) or np.finfo(float).tiny
        w = np.zeros(taps)
        out = np.empty(n)
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([x[::-1], np.zeros(taps - 1)]), taps)[::-1]
        stage_in_energy = float(current @ current)
        with np.errstate(over="ignore", invalid="ignore"):
            for t, window in enumerate(windows):
                err = current[t] - w @ window
                out[t] = err
                w = w + mu * err * window / (window @ window + delta)
            stage_out_energy = float(out @ out)
        if (not np.all(np.isfinite(out))
                or stage_out_energy > 100.0 * stage_in_energy):
            raise DivergenceError(f"NLMS stage {stage} diverged")
        with np.errstate(divide="ignore", invalid="ignore"):
            reduction_db.append(float(
                10.0 * np.log10(np.divide(stage_in_energy, stage_out_energy))))
        max_weight.append(float(np.max(np.abs(w))))
        current = out
    return current, reduction_db, max_weight


class TestCascadeLms:
    def test_cancels_mains(self):
        clean = sine(10.0)
        mains = sine(50.0, amp=1.0, phase=0.3)
        mixed = Signal(samples=clean.samples + mains.samples, fs=FS)
        out, _ = cascade_lms(mixed, [sine(50.0)])
        # interference RMS in the converged half
        half = len(out) // 2
        resid = out.samples[half:] - clean.samples[half:]
        assert (np.sqrt(np.mean(resid**2))
                < 0.10 * np.sqrt(np.mean(mains.samples[half:] ** 2)))

    def test_empty_reference_list_passthrough(self):
        x = sine(10.0)
        out, _ = cascade_lms(x, [])
        assert np.array_equal(out.samples, x.samples)

    def test_two_stage_beats_single(self):
        clean = sine(10.0)
        mains = sine(50.0, phase=0.2)
        drift = sine(0.3, amp=2.0, phase=1.0)
        mixed = Signal(
            samples=clean.samples + mains.samples + drift.samples, fs=FS
        )
        half = len(clean) // 2

        def resid_power(out):
            return np.mean((out.samples[half:] - clean.samples[half:]) ** 2)

        both, _ = cascade_lms(mixed, [sine(50.0), sine(0.3, amp=2.0)])
        only_mains, _ = cascade_lms(mixed, [sine(50.0)])
        only_drift, _ = cascade_lms(mixed, [sine(0.3, amp=2.0)])
        assert resid_power(both) < resid_power(only_mains)
        assert resid_power(both) < resid_power(only_drift)

    def test_divergence_names_stage(self):
        x = contaminated(sine(10.0), "awgn", 0)
        ref = gen_noise(NoiseSpec("awgn", {}, seed=1), len(x), FS)
        with pytest.raises(DivergenceError, match="stage 0"):
            cascade_lms(x, [ref], mu=500.0)

    def test_reference_scale_does_not_matter(self):
        # the regulariser follows the reference power, so a weak reference
        # (the first windows of a filtered EMG one hold almost no energy)
        # takes the same normalized steps as a strong one
        x = contaminated(sine(10.0), "emg_burst", 0, duty=1.0)
        ref = gen_noise(NoiseSpec("emg_burst", {"duty": 1.0}, seed=7),
                        len(x), FS)
        strong, _ = cascade_lms(x, [ref])
        weak, _ = cascade_lms(x, [ref.with_samples(1e-4 * ref.samples)])
        scale = np.max(np.abs(x.samples))
        assert np.max(np.abs(weak.samples - strong.samples)) < 1e-9 * scale

    def test_all_zero_reference_passes_through(self):
        x = sine(10.0)
        out, _ = cascade_lms(x, [x.with_samples(np.zeros(len(x)))])
        assert np.array_equal(out.samples, x.samples)

    @pytest.mark.parametrize("taps, n", [(1, 5), (3, 2048), (16, 5),
                                         (16, 2048), (33, 2048)])
    def test_matches_shifting_window_loop(self, taps, n):
        x = contaminated(sine(10.0, n=n), "emg_burst", 0, duty=1.0)
        refs = [gen_noise(NoiseSpec("emg_burst", {"duty": 1.0}, seed=7), n, FS),
                sine(50.0, n=n)]
        current, mu = x.samples.copy(), 0.05
        for ref in refs:  # one sample shifted into the window per step
            delta = 1e-3 * taps * float(np.var(ref.samples))
            w, window, out = np.zeros(taps), np.zeros(taps), np.empty(n)
            for t in range(n):
                window[1:] = window[:-1]
                window[0] = ref.samples[t]
                out[t] = current[t] - w @ window
                w = w + mu * out[t] * window / (window @ window + delta)
            current = out
        got, _ = cascade_lms(x, refs, mu=mu, taps=taps)
        assert np.array_equal(got.samples, current)

    @pytest.mark.parametrize("taps, n, mu, stages", [
        (1, 2048, 0.05, 1), (16, 2048, 0.05, 1), (64, 2048, 0.05, 1),
        (16, 10, 0.05, 1), (64, 40, 0.5, 2),
        (16, denoise._FLOAT_BLOCK + 1, 0.05, 1),
        (16, 2048, 0.05, 2), (1, 2048, 1.9, 2), (16, 2048, 500.0, 1)])
    def test_matches_per_window_loop(self, taps, n, mu, stages):
        x = contaminated(sine(10.0, n=n), "emg_burst", 0, duty=1.0)
        refs = [gen_noise(NoiseSpec("emg_burst", {"duty": 1.0}, seed=7), n, FS),
                sine(50.0, n=n, amp=3.0)][:stages]
        try:
            want = _nlms_per_sample(x, refs, mu, taps)
        except DivergenceError:
            with pytest.raises(DivergenceError):
                cascade_lms(x, refs, mu=mu, taps=taps)
            return
        got, report = cascade_lms(x, refs, mu=mu, taps=taps)
        assert got.samples.tobytes() == want[0].tobytes()
        assert (np.array(report.decisions["energy_reduction_db"]).tobytes()
                == np.array(want[1]).tobytes())
        assert (np.array(report.decisions["max_abs_weight"]).tobytes()
                == np.array(want[2]).tobytes())

    def test_reports_each_stage(self):
        clean = sine(10.0)
        mains = sine(50.0, phase=0.2)
        drift = sine(0.3, amp=2.0, phase=1.0)
        mixed = Signal(
            samples=clean.samples + mains.samples + drift.samples, fs=FS
        )
        _, report = cascade_lms(mixed, [sine(50.0), sine(0.3, amp=2.0)])
        reduction = report.decisions["energy_reduction_db"]
        weights = report.decisions["max_abs_weight"]
        assert len(reduction) == len(weights) == 2
        assert reduction[0] > 0 and reduction[1] > 0
        assert all(w > 0 for w in weights)
        _, idle = cascade_lms(mixed, [mixed.with_samples(np.zeros(len(mixed)))])
        assert idle.decisions == {"energy_reduction_db": [0.0],
                                  "max_abs_weight": [0.0]}


_LMS_SETUP = """
import numpy as np
from eegscrub import Signal, cascade_lms, rng_stream

def pair(n, seed):
    rng = rng_stream(seed, "lms-rss")
    t = np.arange(n) / 256.0
    ref = rng.normal(size=n)
    return (Signal(np.sin(2 * np.pi * 10.0 * t) + 0.5 * ref, 256.0),
            Signal(ref, 256.0))

primary, ref = pair(2048, 0)
cascade_lms(primary, [ref])  # BLAS buffers on first use
primary, ref = pair(153_600, 1)
"""


def test_ten_minute_cascade_lms_stays_small():
    # ten minutes of one channel and one reference at 256 Hz: each signal is
    # 1.2 MiB, and a copied window array of N x 16 taps would be 19 MiB
    assert peak_rise_mib(_LMS_SETUP, "cascade_lms(primary, [ref])") < 8.0


_AKF_SETUP = """
import numpy as np
from eegscrub import Signal, adaptive_kalman_denoise, rng_stream

adaptive_kalman_denoise(Signal(np.ones(2048), 256.0))
x = Signal(rng_stream(1, "akf-rss").normal(size=153_600), 256.0)
"""


def test_ten_minute_akf_stays_small():
    # ten minutes of one channel at 256 Hz is 1.2 MiB; the same samples as
    # Python floats in lists, input and output, would take about 10 MiB
    assert peak_rise_mib(_AKF_SETUP, "adaptive_kalman_denoise(x)") < 4.0


class TestBlinkTemplate:
    def build_case(self, amps=(3.0, 2.5, 3.5), n=2048):
        template = make_blink_template(NoiseSpec("blink", {}, seed=0), FS)
        m = len(template)
        events = [300, 900, 1600]
        rng = rng_stream(5, "blink-case")
        base = [sine(9.0, n=n), sine(11.0, n=n)]
        chans = []
        for ch, scale in zip(base, (1.0, 0.7)):
            samples = ch.samples.copy()
            for pos, amp in zip(events, amps):
                samples[pos : pos + m] += scale * amp * template.samples
            chans.append(Signal(samples=samples, fs=FS))
        rec = Recording(channels=tuple(chans), channel_names=("AF7", "AF8"))
        clean = Recording(channels=tuple(base), channel_names=("AF7", "AF8"))
        return rec, clean, template, events, m

    def test_detects_and_removes(self):
        rec, clean, template, events, m = self.build_case()
        out, report = remove_blink_template(rec, template, ["AF7", "AF8"])
        detected = sorted(int(e) for e in report.components_removed)
        assert len(detected) == 3
        for found, truth in zip(detected, events):
            assert abs(found - truth) <= 5
        # event-window RMSE drops by >= 70%
        for ch_out, ch_in, ch_clean in zip(out.channels, rec.channels,
                                           clean.channels):
            for pos in events:
                win = slice(pos, pos + m)
                before = np.sqrt(np.mean(
                    (ch_in.samples[win] - ch_clean.samples[win]) ** 2))
                after = np.sqrt(np.mean(
                    (ch_out.samples[win] - ch_clean.samples[win]) ** 2))
                assert after <= 0.30 * before

    def test_no_blink_no_change(self):
        _, clean, template, _, _ = self.build_case()
        out, report = remove_blink_template(clean, template, ["AF7"])
        assert report.components_removed == ()
        for ch_out, ch_in in zip(out.channels, clean.channels):
            assert np.array_equal(ch_out.samples, ch_in.samples)

    def test_zero_amplitude_no_detections(self):
        rec, clean, template, _, _ = self.build_case(amps=(0.0, 0.0, 0.0))
        _, report = remove_blink_template(clean, template, ["AF7", "AF8"])
        assert report.components_removed == ()

    def test_unknown_channel(self):
        rec, _, template, _, _ = self.build_case()
        with pytest.raises(KeyError):
            remove_blink_template(rec, template, ["Fp1"])

    def test_template_longer_than_recording(self):
        rec, _, template, _, _ = self.build_case()
        for m in (4096, rec.n_samples):
            long_template = Signal(samples=np.ones(m), fs=FS)
            with pytest.raises(TooShortError):
                remove_blink_template(rec, long_template, ["AF7"])


def edge_samples(kind, n, log_amp, seed):
    x = np.random.default_rng(seed).normal(size=n)
    if kind == "constant":
        x = np.ones(n)
    elif kind == "zero":
        x = np.zeros(n)
    elif kind == "impulse":
        x = np.zeros(n)
        x[n // 2] = 1.0
    return 10.0**log_amp * x


@pytest.mark.parametrize("method", METHOD_IDS)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2048),
       kind=st.sampled_from(["noise", "constant", "zero", "impulse"]),
       log_amp=st.floats(-150.0, 150.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, kind="noise", log_amp=0.0, seed=0)
@example(n=64, kind="impulse", log_amp=150.0, seed=0)
def test_every_method_typed_error_or_finite_output(method, n, kind, log_amp,
                                                   seed):
    """Each run ends in an EegScrubError or in finite output of the input's
    length on every channel."""
    names = ("TP9", "AF7", "AF8", "TP10")
    rec = Recording(tuple(Signal(edge_samples(kind, n, log_amp, seed + i), FS)
                          for i in range(len(names))), names)
    inputs = {
        "references": ([Signal(edge_samples(kind, n, log_amp, seed + 9),
                               FS)],),
        "template": (make_blink_template(NoiseSpec("blink", {}, seed=0), FS),
                     ["AF7", "AF8"]),
    }.get(METHODS[method].needs, ())
    try:
        out, _ = apply_method(method, rec, *inputs)
    except EegScrubError:
        return
    for ch in out.channels:
        assert len(ch) == n and np.all(np.isfinite(ch.samples))


class TestCommonContracts:
    def test_length_fs_preserved_and_finite(self):
        x = contaminated(sine(10.0, n=1024), "awgn", 0)
        single = [
            lambda: identity(x),
            lambda: denoise_dwt(x),
            lambda: denoise_emd_maf(x),
            lambda: remove_motion_ssa(x),
            lambda: adaptive_kalman_denoise(x),
            lambda: cascade_lms(x, [sine(50.0, n=1024)]),
        ]
        for run in single:
            out, report = run()
            assert len(out) == len(x)
            assert out.fs == x.fs
            assert np.all(np.isfinite(out.samples))
            assert report.input_len == len(x)

    def test_deterministic(self):
        x = contaminated(sine(10.0, n=1024), "awgn", 0)
        a, _ = denoise_dwt(x)
        b, _ = denoise_dwt(x)
        assert np.array_equal(a.samples, b.samples)
        a, _ = denoise_emd_maf(x)
        b, _ = denoise_emd_maf(x)
        assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("method_id", METHOD_IDS)
def test_method_params_match_signature(method_id):
    # each table default must be the function's own keyword default, of the
    # type the command line parses, so the CLI, the library and the bench
    # run one operating point
    spec = METHODS[method_id]
    keywords = inspect.signature(getattr(denoise, spec.func)).parameters
    for param in spec.params:
        assert param.name in keywords
        own = keywords[param.name]
        assert own.kind in (own.POSITIONAL_OR_KEYWORD, own.KEYWORD_ONLY)
        assert param.default == own.default, param.name
        if param.default is not None:
            assert isinstance(param.default, param.type), param.name
            assert isinstance(own.default, param.type), param.name
