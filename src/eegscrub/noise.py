"""Parametric contaminant generators, SNR-controlled mixing, and metrics.

Power is defined as the mean square over the full record, so SNR arithmetic
is bit-reproducible. Every generator draws from a counter-based stream keyed
by (seed, kind), making sequences independent of call order.
``baseline_wander`` and ``emg_burst`` are band-limited by ``apply_filter``,
which imports scipy on first use; the other kinds and signals shorter than
64 samples never load it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FilterSpec, Signal, apply_filter, check_fs, pearson
from .errors import DegenerateInputError, InvalidSpecError
from .rng import rng_stream

NOISE_KINDS = ("awgn", "powerline", "baseline_wander", "emg_burst", "blink")

_AMP_MAX = 1e150  # so the squares of every kind's peaks stay finite
# kind-specific parameter defaults and admissible ranges
_PARAM_SPECS = {
    "awgn": {"sigma": (1.0, 0.0, _AMP_MAX)},
    "powerline": {"freq": (50.0, 1.0, 1000.0), "amp": (1.0, 0.0, _AMP_MAX)},
    "baseline_wander": {"freq": (0.3, 0.01, 1.0), "amp": (1.0, 0.0, _AMP_MAX)},
    "emg_burst": {"duty": (0.5, 0.0, 1.0), "sigma": (1.0, 0.0, _AMP_MAX)},
    "blink": {"width": (0.3, 0.01, 10.0), "rate": (12.0, 0.0, 600.0),
              "amp": (1.0, 0.0, _AMP_MAX)},
}


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidSpecError(
                f"unknown noise kind {self.kind!r}; known: {NOISE_KINDS}"
            )
        allowed = _PARAM_SPECS[self.kind]
        resolved = {}
        for name, (default, lo, hi) in allowed.items():
            value = float(self.params.get(name, default))
            if not lo <= value <= hi:
                raise InvalidSpecError(
                    f"{self.kind} param {name}={value} outside [{lo}, {hi}]"
                )
            resolved[name] = value
        for name in self.params:
            if name not in allowed:
                raise InvalidSpecError(
                    f"{self.kind} does not take param {name!r}; "
                    f"allowed: {sorted(allowed)}"
                )
        object.__setattr__(self, "params", resolved)
        object.__setattr__(self, "seed", int(self.seed))

    def to_text(self) -> str:
        """Flat key=value form used by CLI flags."""
        parts = [f"kind={self.kind}"]
        parts += [f"{k}={v:g}" for k, v in sorted(self.params.items())]
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "NoiseSpec":
        kind, seed, params = None, 0, {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise InvalidSpecError(
                    f"expected key=value items, got {item!r} in {text!r}"
                )
            key, value = item.split("=", 1)
            key = key.strip()
            try:
                if key == "kind":
                    kind = value.strip()
                elif key == "seed":
                    seed = int(value)
                else:
                    params[key] = float(value)
            except ValueError:
                what = "an integer" if key == "seed" else "a number"
                raise InvalidSpecError(
                    f"{key} must be {what}, got {item!r} in {text!r}")
        if kind is None:
            raise InvalidSpecError(f"noise spec text needs kind=...: {text!r}")
        return cls(kind=kind, params=params, seed=seed)


@dataclass(frozen=True)
class MixReport:
    achieved_snr_db: float
    noise_scale: float


def _power(samples: np.ndarray) -> float:
    return float(np.mean(samples**2))


def blink_bump(width_s: float, fs: float) -> np.ndarray:
    """Unit raised-cosine eye-blink shape, at least 3 samples long."""
    width = max(3, int(round(width_s * fs)))
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(width) / (width - 1)))


def gen_noise(spec: NoiseSpec, n: int, fs: float) -> Signal:
    """Draw one deterministic contaminant realization.

    ``blink`` draws a Poisson number of blinks at ``rate`` per minute but at
    least one whenever the rate is positive, so the contaminant is never
    silent by chance; ``rate=0`` gives an all-zero contaminant.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_fs(fs)
    rng = rng_stream(spec.seed, spec.kind)
    t = np.arange(n) / fs
    p = spec.params

    if spec.kind == "awgn":
        samples = rng.normal(0.0, p["sigma"], n)
    elif spec.kind == "powerline":
        phase = rng.uniform(0.0, 2.0 * np.pi)
        samples = p["amp"] * np.sin(2.0 * np.pi * p["freq"] * t + phase)
    elif spec.kind == "baseline_wander":
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tone = np.sin(2.0 * np.pi * p["freq"] * t + phase)
        walk = np.cumsum(rng.normal(0.0, 1.0, n))
        if n >= 64 and fs > 2.0:  # keep the random walk below 1 Hz
            below = FilterSpec("lowpass", (min(1.0, 0.45 * fs),), order=2)
            walk = apply_filter(Signal(walk, fs), below).samples
        scale = np.abs(walk).max()
        if scale > 0:
            walk = walk / scale
        samples = p["amp"] * (tone + walk)
    elif spec.kind == "emg_burst":
        raw = rng.normal(0.0, p["sigma"], n)
        low, high = 20.0, (60.0 if 60.0 < fs / 2 else 0.95 * (fs / 2))
        if n >= 64 and low < high:
            raw = apply_filter(Signal(raw, fs),
                               FilterSpec("bandpass", (low, high))).samples
        burst = max(1, int(round(0.25 * fs)))  # 250 ms on-bursts
        on = rng.uniform(size=math.ceil(n / burst)) < p["duty"]
        envelope = np.repeat(on, burst)[:n]
        if not envelope.any():
            envelope[:burst] = True  # duty rounding must not yield silence
        samples = raw * envelope
    elif spec.kind == "blink":
        bump = blink_bump(p["width"], fs)
        width = len(bump)
        samples = np.zeros(n)
        expected = p["rate"] * (n / fs) / 60.0
        n_events = max(1, rng.poisson(expected)) if expected > 0 else 0
        starts = rng.integers(0, max(1, n - width), size=n_events) if n_events else []
        for start in starts:
            seg = samples[start : start + width]
            seg += p["amp"] * bump[: len(seg)]
        if n <= width:
            samples[:n] = p["amp"] * bump[:n]
    else:  # pragma: no cover - NoiseSpec already validates
        raise ValueError(f"unknown noise kind {spec.kind!r}")
    return Signal(samples=np.asarray(samples, dtype=float), fs=fs)


def mix_at_snr(clean: Signal, noise: Signal, snr_db: float) -> tuple:
    """Add noise scaled so the clean-to-noise power ratio hits snr_db. Mean
    squares out of (0, inf) are a ``DegenerateInputError``, an SNR that
    scales the noise out of the float range an ``InvalidSpecError``."""
    if len(clean) != len(noise):
        raise ValueError(
            f"length mismatch: clean {len(clean)}, noise {len(noise)}"
        )
    with np.errstate(over="ignore"):
        p_clean, p_noise = _power(clean.samples), _power(noise.samples)
    if not (0.0 < p_clean < math.inf and 0.0 < p_noise < math.inf):
        raise DegenerateInputError(
            f"the mean squares of clean ({p_clean:g}) and noise ({p_noise:g}) "
            "must be positive finite floats; neither may be all-zero")
    if math.isinf(snr_db) and snr_db > 0:
        return clean, MixReport(achieved_snr_db=math.inf, noise_scale=0.0)
    try:  # math raises where a power leaves the float range
        scale = math.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
        with np.errstate(over="ignore"):
            scaled = scale * noise.samples
            achieved = 10.0 * math.log10(p_clean / _power(scaled))
    except (OverflowError, ZeroDivisionError, ValueError):
        achieved = math.nan
    if not math.isfinite(achieved):
        raise InvalidSpecError(
            f"SNR {snr_db:g} dB needs a noise scale out of the float range "
            f"at mean squares {p_clean:g} (clean) and {p_noise:g} (noise)")
    mixed = clean.with_samples(clean.samples + scaled)
    return mixed, MixReport(achieved_snr_db=achieved, noise_scale=scale)


def compute_metrics(clean: Signal, test: Signal) -> dict:
    """SNR (dB), RMSE, and Pearson correlation of test against clean."""
    if len(clean) != len(test):
        raise ValueError(
            f"length mismatch: clean {len(clean)}, test {len(test)}"
        )
    if len(clean) < 2:
        raise ValueError("need at least 2 samples")
    c = clean.samples
    x = test.samples
    p_err = _power(x - c)
    rmse = math.sqrt(p_err)
    snr_db = math.inf if p_err == 0.0 else 10.0 * math.log10(_power(c) / p_err)
    corr = pearson(c, x)
    return {
        "snr_db": snr_db,
        "rmse": rmse,
        "corr": 0.0 if corr is None else corr,
        "degenerate_corr": corr is None,
    }
