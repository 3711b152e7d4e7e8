"""Tour of the decomposition engines and canonical correlation analysis.

EMD, the DWT and SSA take a 1-D sample array and return arrays, and each
reconstructs its input from its parts to machine precision; denoising (demo
03) works by dropping or attenuating components before the inverse. CCA
reconstructs nothing: it finds the maximally correlated projections of two
multichannel views.

Run with: python3 demos/02_decompositions.py
"""

import numpy as np

from eegscrub.decompose import cca, dwt_forward, dwt_inverse, emd, ssa_decompose, ssa_reconstruct
from eegscrub.rng import rng_stream

FS = 256.0


def dominant_freq(x, fs=FS):
    spec = np.abs(np.fft.rfft(x * np.hanning(len(x))))
    return float(np.fft.rfftfreq(len(x), 1 / fs)[np.argmax(spec)])


def two_tone(n=2048):
    t = np.arange(n) / FS
    return np.sin(2 * np.pi * 3.0 * t) + 0.6 * np.sin(2 * np.pi * 25.0 * t)


def main():
    sig = two_tone()

    print("=== empirical mode decomposition ===")
    result = emd(sig)
    print(f"{len(result.imfs)} IMFs extracted from a 3 Hz + 25 Hz mix")
    for i, imf in enumerate(result.imfs[:4]):
        print(f"  IMF {i}: dominant {dominant_freq(imf):5.1f} Hz, "
              f"rms {np.sqrt(np.mean(imf**2)):.3f}")
    total = result.residual + sum(result.imfs)
    print(f"completeness error: {np.max(np.abs(total - sig)):.2e}")

    print("\n=== discrete wavelet transform (db4) ===")
    decomp = dwt_forward(sig, levels=5)
    for i, band in enumerate(decomp.details):
        print(f"  detail {i + 1}: {len(band)} coeffs, "
              f"energy {np.sum(band**2):8.2f}")
    print(f"  approx:   {len(decomp.approx)} coeffs, "
          f"energy {np.sum(decomp.approx**2):8.2f}")
    back = dwt_inverse(decomp)
    print(f"round-trip error: {np.max(np.abs(back - sig)):.2e}")

    print("\n=== singular spectrum analysis ===")
    noisy = sig + 0.3 * rng_stream(0, "demo2").normal(size=len(sig))
    model = ssa_decompose(noisy, window_len=128)
    mass = model.singular_values**2 / np.sum(model.singular_values**2)
    print(f"window 128 -> {model.n_components} components")
    print(f"top six squared-mass fractions: "
          + ", ".join(f"{m:.3f}" for m in mass[:6]))
    # the two tones live in the four leading rank-1 pairs
    lead = ssa_reconstruct(model, range(4))
    corr = np.corrcoef(lead, sig)[0, 1]
    print(f"leading 4 components vs clean mix: corr {corr:.4f}")
    full = ssa_reconstruct(model, range(model.n_components))
    print(f"full-group reconstruction error: "
          f"{np.max(np.abs(full - noisy)):.2e}")

    print("\n=== canonical correlation analysis ===")
    rng = rng_stream(1, "demo2-cca")
    shared = np.sin(2 * np.pi * 7.0 * np.arange(2048) / FS)
    x = np.array([shared + 0.1 * rng.normal(size=2048) for _ in range(3)])
    res = cca(x, x)
    print(f"identical views: correlations {np.round(res.correlations, 6)}")
    y = np.array([rng.normal(size=2048) for _ in range(3)])
    res = cca(x, y)
    print(f"independent views: correlations {np.round(res.correlations, 3)}")


if __name__ == "__main__":
    main()
