"""From a multichannel recording to a labeled feature matrix.

Run with: python3 demos/05_feature_extraction.py
"""

import numpy as np

from eegscrub import BANDS, Recording, Signal, band_powers, build_feature_matrix, spectral_entropy, welch_psd
from eegscrub.rng import rng_stream

FS = 256.0


def make_recording(seconds=8.0):
    # alpha-dominant at the temporal sites, beta-dominant frontally
    n = int(seconds * FS)
    t = np.arange(n) / FS
    rng = rng_stream(0, "demo5")
    chans, names = [], ("TP9", "AF7", "AF8", "TP10")
    for name in names:
        freq = 10.0 if name.startswith("TP") else 22.0
        x = np.sin(2 * np.pi * freq * t) + 0.3 * rng.normal(size=n)
        chans.append(Signal(samples=x, fs=FS))
    return Recording(channels=tuple(chans), channel_names=names)


def main():
    rec = make_recording()

    tp9 = rec.channel("TP9")
    freqs, psd = welch_psd(tp9.samples, tp9.fs)
    print(f"Welch PSD: {len(freqs)} bins up to {freqs[-1]:g} Hz, "
          f"peak at {freqs[np.argmax(psd)]:.2f} Hz")

    powers = band_powers(freqs, psd)
    total = sum(powers)
    print("\nband power fractions on TP9 (10 Hz tone + noise):")
    for (band, _, _), power in zip(BANDS, powers):
        print(f"  {band:<6} {power / total:6.1%}")
    print(f"spectral entropy: {spectral_entropy(psd):.3f} (0 = pure tone, 1 = white)")

    features = build_feature_matrix(rec, window_s=2.0, overlap=0.5, label=1)
    print(f"\nfeature matrix: {features.n_rows} epochs x {features.n_features} features")
    print(f"labels: {set(features.labels)}")
    print("first six feature names: " + ", ".join(features.feature_names[:6]))
    alpha_tp9 = features.feature_names.index("TP9_alpha")
    beta_af7 = features.feature_names.index("AF7_beta")
    print(f"mean TP9_alpha {np.mean(features.rows[:, alpha_tp9]):.4f}  vs  "
          f"mean AF7_beta {np.mean(features.rows[:, beta_af7]):.4f}")


if __name__ == "__main__":
    main()
