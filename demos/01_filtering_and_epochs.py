"""Walk through the core waveform types: filtering, epoching, normalization.

Run with: python3 demos/01_filtering_and_epochs.py
"""

import numpy as np

from eegscrub import FilterSpec, Recording, Signal, apply_filter, epoch_view, normalize

FS = 256.0


def make_tone_mix():
    # 10 Hz alpha-band tone plus 50 Hz mains pickup
    t = np.arange(int(8 * FS)) / FS
    x = np.sin(2 * np.pi * 10.0 * t) + 0.8 * np.sin(2 * np.pi * 50.0 * t)
    return Signal(samples=x, fs=FS)


def band_rms(sig, lo, hi):
    # Hann window keeps filter edge transients from leaking across bins
    spec = np.fft.rfft(sig.samples * np.hanning(len(sig)))
    freqs = np.fft.rfftfreq(len(sig), 1 / sig.fs)
    mask = (freqs >= lo) & (freqs <= hi)
    return float(np.sqrt(np.sum(np.abs(spec[mask]) ** 2)) / len(sig))


def main():
    sig = make_tone_mix()
    print(f"input: {len(sig)} samples at {sig.fs:g} Hz")
    print(f"  energy near 10 Hz: {band_rms(sig, 9, 11):.4f}")
    print(f"  energy near 50 Hz: {band_rms(sig, 49, 51):.4f}")

    notch = FilterSpec(kind="notch", edges=(50.0,), notch_q=30.0)
    cleaned = apply_filter(sig, notch)
    print("\nafter 50 Hz notch (Q=30):")
    print(f"  energy near 10 Hz: {band_rms(cleaned, 9, 11):.4f}")
    print(f"  energy near 50 Hz: {band_rms(cleaned, 49, 51):.6f}")

    band = FilterSpec(kind="bandpass", edges=(1.0, 40.0), order=4)
    passed = apply_filter(sig, band)
    print("\nafter 1-40 Hz bandpass (order 4):")
    print(f"  energy near 10 Hz: {band_rms(passed, 9, 11):.4f}")
    print(f"  energy near 50 Hz: {band_rms(passed, 49, 51):.6f}")

    rec = Recording(
        channels=(cleaned, passed),
        channel_names=("TP9", "AF7"),
    )
    tp9 = rec.channel("TP9")
    epochs = epoch_view(tp9.samples, tp9.fs, window_s=2.0, overlap=0.5)
    print(f"\nsegmenting {len(cleaned) / FS:g} s into 2 s epochs at 50% overlap:")
    print(f"  {len(epochs)} epochs, each {len(epochs[0])} samples")

    z, _ = normalize(cleaned.samples)
    print("\nz-score normalization of the notched channel:")
    print(f"  mean {np.mean(z):+.2e}, std {np.std(z):.6f}")


if __name__ == "__main__":
    main()
