"""Seeded Monte-Carlo benchmark grid: methods x noise kinds x SNR levels.

Each draw mixes one noise realization per seed into a deterministic two-tone
surrogate on every channel, each channel at the target SNR (the ``identical``
montage), and runs the method at its default operating point; each cell
aggregates its draws' median and IQR. The identity method rides along as the
no-op control every improvement claim is measured against.
"""

from dataclasses import replace

import numpy as np

from .core import Recording, Signal, check_fs
# the denoisers stay importable from here, where benchmarks/layers.py wraps
# them by name; the table calls them through eegscrub.denoise
from .denoise import (  # noqa: F401
    METHOD_IDS,
    METHODS,
    adaptive_kalman_denoise,
    apply_method,
    cascade_lms,
    denoise_dwt,
    denoise_emd_maf,
    identity,
    remove_motion_ssa,
    remove_muscle_ssa_cca,
)
from .errors import DegenerateInputError
from .noise import NoiseSpec, blink_bump, compute_metrics, gen_noise, mix_at_snr
from .rng import rng_stream

CHANNEL_NAMES = ("TP9", "AF7", "AF8", "TP10")
# reference generators get their own seed offset so the reference is a
# distinct realization of the same contaminant family
REFERENCE_SEED_OFFSET = 10_000


def make_clean(seed: int, n: int, fs: float, channel: int = 0) -> Signal:
    """Two-tone surrogate EEG (theta + alpha) with seeded phases."""
    check_fs(fs)
    rng = rng_stream(seed, f"clean:{channel}")
    t = np.arange(n) / fs
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    samples = (np.sin(2 * np.pi * 6.0 * t + phases[0])
               + 0.6 * np.sin(2 * np.pi * 11.0 * t + phases[1]))
    return Signal(samples=samples, fs=fs)


def make_blink_template(spec: NoiseSpec, fs: float) -> Signal:
    return Signal(samples=blink_bump(spec.params.get("width", 0.3), fs), fs=fs)


def _run_cell_seed(method: str, spec: NoiseSpec, snr_db: float, seed: int,
                   n: int, fs: float) -> dict:
    """One Monte-Carlo draw; returns metrics plus the mix round-trip error.

    Every channel is ``mix_at_snr`` of its own clean surrogate and the one
    contaminant draw, at ``snr_db``. Multichannel methods see all four
    channels; single-channel methods see channel 0.
    """
    entry = METHODS[method]
    n_ch = len(CHANNEL_NAMES) if entry.multichannel else 1
    realized = replace(spec, seed=spec.seed + seed)
    noise = gen_noise(realized, n, fs)
    cleans = [make_clean(seed, n, fs, channel=c) for c in range(n_ch)]
    mixed_channels = [mix_at_snr(clean, noise, snr_db)[0] for clean in cleans]
    in_metrics = [compute_metrics(c, m) for c, m in zip(cleans, mixed_channels)]
    if not all(m["rmse"] for m in in_metrics):  # the mix equals the clean
        raise DegenerateInputError(f"SNR {snr_db:g} dB rounds the noise away")
    if entry.needs == "references":
        ref_spec = replace(realized, seed=seed + REFERENCE_SEED_OFFSET)
        inputs = ([gen_noise(ref_spec, n, fs)],)
    elif entry.needs == "template":
        inputs = (make_blink_template(realized, fs), CHANNEL_NAMES[1:3])
    else:
        inputs = ()
    rec = Recording(channels=tuple(mixed_channels),
                    channel_names=CHANNEL_NAMES[:n_ch])
    out, _ = apply_method(method, rec, *inputs)
    per_channel = [compute_metrics(c, o) for c, o in zip(cleans, out.channels)]
    return {
        "snr_db": float(np.mean([m["snr_db"] for m in per_channel])),
        "rmse": float(np.mean([m["rmse"] for m in per_channel])),
        "corr": float(np.mean([m["corr"] for m in per_channel])),
        "in_snr_db": float(np.mean([m["snr_db"] for m in in_metrics])),
        "in_rmse": float(np.mean([m["rmse"] for m in in_metrics])),
        "mix_roundtrip_db": max(abs(m["snr_db"] - snr_db) for m in in_metrics),
    }


def _median_iqr(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    q1, q3 = np.percentile(arr, [25, 75])
    return float(np.median(arr)), float(q3 - q1)


def run_bench(methods, noise_specs, snrs_db, seeds,
              n: int = 2048, fs: float = 256.0) -> dict:
    """Full grid; returns ``{"rows": [...]}`` of sorted leaderboard rows."""
    methods = list(methods)
    specs = [s if isinstance(s, NoiseSpec) else NoiseSpec.from_text(s)
             for s in noise_specs]
    snrs_db = sorted(float(s) for s in snrs_db)
    seeds = list(seeds)
    if not (methods and specs and snrs_db and seeds):
        raise ValueError("need at least one method, noise spec, SNR and seed")
    for m in methods:
        if m not in METHOD_IDS:
            raise ValueError(f"unknown method {m!r}; known: {METHOD_IDS}")
    rows = []
    for method in sorted(methods):
        for spec in sorted(specs, key=lambda s: s.kind):
            for snr_db in snrs_db:
                draws = [_run_cell_seed(method, spec, snr_db, seed, n, fs)
                         for seed in seeds]
                med_snr, iqr_snr = _median_iqr([d["snr_db"] for d in draws])
                med_rmse, iqr_rmse = _median_iqr([d["rmse"] for d in draws])
                med_corr, _ = _median_iqr([d["corr"] for d in draws])
                gains = [d["snr_db"] - d["in_snr_db"] for d in draws]
                reductions = [1.0 - d["rmse"] / d["in_rmse"] for d in draws]
                rows.append({
                    "method": method,
                    "noise_kind": spec.kind,
                    "noise_spec": spec.to_text(),
                    "target_snr_db": snr_db,
                    "n_seeds": len(seeds),
                    "median_out_snr_db": med_snr,
                    "iqr_out_snr_db": iqr_snr,
                    "median_rmse": med_rmse,
                    "iqr_rmse": iqr_rmse,
                    "median_corr": med_corr,
                    "median_gain_db": float(np.median(gains)),
                    "median_rmse_reduction": float(np.median(reductions)),
                    "mix_roundtrip_max_db": max(
                        d["mix_roundtrip_db"] for d in draws
                    ),
                })
    return {"rows": rows}


def leaderboard_csv_rows(result: dict) -> list:
    """Flatten bench output for CSV writing, header first."""
    header = ["method", "noise_kind", "target_snr_db", "n_seeds",
              "median_out_snr_db", "iqr_out_snr_db", "median_rmse",
              "iqr_rmse", "median_corr", "median_gain_db",
              "median_rmse_reduction"]
    out = [header]
    for row in result["rows"]:
        out.append([row[k] for k in header])
    return out
