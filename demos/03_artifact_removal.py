"""Contaminate a clean signal with each noise class, then remove it.

Every remover is paired against the contaminant it was designed for, at
0 dB SNR, and judged by the before/after metrics. The identity method is
the control row.

Run with: python3 demos/03_artifact_removal.py
"""

import numpy as np

from eegscrub import (
    NoiseSpec,
    Recording,
    Signal,
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
)
from eegscrub.bench import make_blink_template
from eegscrub.rng import rng_stream

FS = 256.0
N = 2048


def tone(freq, amp=1.0):
    t = np.arange(N) / FS
    return Signal(samples=amp * np.sin(2 * np.pi * freq * t), fs=FS)


def show(label, clean, mixed, out):
    before = compute_metrics(clean, mixed)
    after = compute_metrics(clean, out)
    print(f"  {label:<18} snr {before['snr_db']:+6.2f} -> {after['snr_db']:+6.2f} dB"
          f"   rmse {before['rmse']:.3f} -> {after['rmse']:.3f}"
          f"   corr {after['corr']:.3f}")


def single_channel_rounds():
    print("single-channel methods at 0 dB:")

    clean = tone(10.0)
    mixed, _ = mix_at_snr(clean, gen_noise(NoiseSpec("awgn", {}, seed=0), N, FS), 0.0)
    out, _ = identity(mixed)
    show("identity (ctrl)", clean, mixed, out)
    out, _ = denoise_dwt(mixed)
    show("wavelet shrink", clean, mixed, out)

    clean = tone(5.0)
    emg = gen_noise(NoiseSpec("emg_burst", {"duty": 1.0}, seed=0), N, FS)
    mixed, _ = mix_at_snr(clean, emg, 0.0)
    out, _ = denoise_emd_maf(mixed)
    show("EMD + MAF", clean, mixed, out)

    clean = tone(10.0)
    drift = gen_noise(NoiseSpec("baseline_wander", {}, seed=0), N, FS)
    scale = 10.0 * np.sqrt(np.mean(clean.samples**2) / np.mean(drift.samples**2))
    mixed = Signal(samples=clean.samples + scale * drift.samples, fs=FS)
    out, _ = remove_motion_ssa(mixed)
    show("SSA drift", clean, mixed, out)

    clean = tone(10.0)
    t = np.arange(N) / FS
    mains = Signal(samples=np.sin(2 * np.pi * 50.0 * t + 1.3), fs=FS)
    mixed = Signal(samples=clean.samples + mains.samples, fs=FS)
    out, _ = cascade_lms(mixed, [tone(50.0)])
    show("cascade LMS", clean, mixed, out)


def akf_round():
    # the Kalman smoother tracks slowly varying levels, so judge it on a
    # drifting baseline buried in measurement noise rather than a fast tone
    t = np.arange(N) / FS
    clean = Signal(samples=np.sin(2 * np.pi * 0.3 * t), fs=FS)
    noise = rng_stream(1, "demo3-akf").normal(size=N)
    mixed = Signal(samples=clean.samples + 0.5 * noise, fs=FS)
    from eegscrub import adaptive_kalman_denoise
    # q sets how fast the tracked level may move; 1e-3 suits a 0.3 Hz drift
    out, _ = adaptive_kalman_denoise(mixed, q=1e-3)
    show("adaptive Kalman", clean, mixed, out)


def multi_channel_rounds():
    print("\nmulti-channel methods:")
    names = ("TP9", "AF7", "AF8", "TP10")

    # shared EMG bleeding into all four channels with different gains
    shared = gen_noise(NoiseSpec("emg_burst", {"duty": 1.0}, seed=2), N, FS)
    cleans, mixeds = [], []
    for c, gain in enumerate((1.0, 0.8, 1.2, 0.9)):
        ch = tone(6.0 + 2.0 * c)
        noisy, _ = mix_at_snr(ch, Signal(samples=gain * shared.samples, fs=FS), 0.0)
        cleans.append(ch)
        mixeds.append(noisy)
    rec = Recording(channels=tuple(mixeds), channel_names=names)
    out, report = remove_muscle_ssa_cca(rec)
    print(f"  (zeroed {len(report.components_removed)} canonical sources)")
    for name, ch_clean, ch_mixed, ch_out in zip(names, cleans, mixeds, out.channels):
        show(f"SSA+CCA {name}", ch_clean, ch_mixed, ch_out)

    # blinks on the frontal pair only
    template = make_blink_template(NoiseSpec("blink", {}, seed=0), FS)
    blink_track = np.zeros(N)
    for start in (300, 1100):
        blink_track[start:start + len(template)] += 3.0 * template.samples
    cleans, chans = [], []
    for c, name in enumerate(names):
        ch = tone(9.0 + c, amp=1.0)
        cleans.append(ch)
        frontal_gain = {"AF7": 1.0, "AF8": 0.7}.get(name, 0.0)
        chans.append(Signal(samples=ch.samples + frontal_gain * blink_track, fs=FS))
    rec = Recording(channels=tuple(chans), channel_names=names)
    out, report = remove_blink_template(rec, template=template,
                                        frontal_channels=("AF7", "AF8"))
    print(f"  blink template: {len(report.components_removed)} events detected")
    for name, ch_clean, ch_mixed, ch_out in zip(names, cleans, chans, out.channels):
        if name in ("AF7", "AF8"):
            show(f"blink {name}", ch_clean, ch_mixed, ch_out)


def main():
    single_channel_rounds()
    akf_round()
    multi_channel_rounds()


if __name__ == "__main__":
    main()
