"""Artifact-removal methods: wavelet and EMD denoising, SSA-based motion and
muscle removal, adaptive Kalman filtering, cascaded NLMS, and blink-template
subtraction.

Every method returns the cleaned signal(s) together with a DenoiseReport
recording what was done, keyed by a stable method id so CLI output and bench
tables stay comparable across runs.

A method is registered by one entry of the ``METHODS`` table at the end of
this module: its function, its tunable keywords with their command-line
defaults, whether it works on one channel or a whole recording, and whether
it needs reference signals or a blink template. The bench, the CLI's
``--method`` choices, per-method flags and report config all read the table.
"""

from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Recording, Signal, moving_average, pearson
from .decompose import cca, dwt_forward, dwt_inverse, emd, ssa_decompose
from .errors import DivergenceError, NumericDegeneracyError, TooShortError

@dataclass(frozen=True)
class DenoiseReport:
    """Provenance record attached to every denoiser output."""

    method_id: str
    params: dict = field(default_factory=dict)
    components_removed: tuple = ()
    input_len: int = 0
    decisions: dict = field(default_factory=dict)  # what the method computed

    def __post_init__(self):
        if self.method_id not in METHOD_IDS:
            raise ValueError(
                f"unknown method_id {self.method_id!r}; known: {METHOD_IDS}"
            )
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "decisions", dict(self.decisions))
        object.__setattr__(
            self, "components_removed", tuple(self.components_removed)
        )


@dataclass(frozen=True)
class KalmanConfig:
    q: float = 1e-5
    r0: float = 1.0
    adapt_window: int = 64

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if not self.r0 > 0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if self.adapt_window < 8:
            raise ValueError(
                f"adapt_window must be >= 8, got {self.adapt_window}"
            )


def _dominant_freq(samples: np.ndarray, fs: float) -> float:
    spectrum = np.abs(np.fft.rfft(samples))
    return float(np.fft.rfftfreq(len(samples), 1.0 / fs)[np.argmax(spectrum)])


def _energy_fraction_above(samples: np.ndarray, fs: float, f0: float) -> float:
    power = np.abs(np.fft.rfft(samples)) ** 2
    total = power.sum()
    if total == 0.0:
        return 0.0
    freqs = np.fft.rfftfreq(len(samples), 1.0 / fs)
    return float(power[freqs > f0].sum() / total)


def identity(signal: Signal) -> tuple:
    """Pass-through control used as the bench baseline."""
    report = DenoiseReport(method_id="identity", input_len=len(signal))
    return signal, report


def denoise_dwt(signal: Signal, levels: int = 3, mode: str = "soft") -> tuple:
    """Universal-threshold wavelet shrinkage.

    The default depth keeps 0-16 Hz (at 256 Hz sampling) in the untouched
    approximation band, so in-band EEG rhythms survive the shrinkage.
    """
    if mode not in ("soft", "hard"):
        raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
    dec = dwt_forward(signal, levels)
    # noise scale from the finest detail band, threshold shared by all bands
    sigma = np.median(np.abs(dec.details[0])) / 0.6745
    threshold = sigma * np.sqrt(2.0 * np.log(len(signal)))
    shrunk = []
    for band in dec.details:
        if mode == "soft":
            shrunk.append(np.sign(band) * np.maximum(np.abs(band) - threshold, 0.0))
        else:
            shrunk.append(np.where(np.abs(band) > threshold, band, 0.0))
    cleaned = dwt_inverse(replace(dec, details=tuple(shrunk)))
    report = DenoiseReport(
        method_id="dwt",
        params={"levels": str(levels), "mode": mode,
                "threshold": f"{threshold:.6g}"},
        input_len=len(signal),
    )
    return cleaned, report


def denoise_emd_maf(signal: Signal, ma_width: int = 5) -> tuple:
    """Moving-average the high-frequency IMFs, keep the rest untouched.

    An IMF counts as high-frequency when the majority of its spectral energy
    sits above 30 Hz; a single coherent low tone sharing the mode (boundary
    mixing) must not shield an EMG-dominated IMF from smoothing.
    """
    imf_set = emd(signal)
    total = imf_set.residual.samples.copy()
    smoothed = []
    for i, imf in enumerate(imf_set.imfs):
        if _energy_fraction_above(imf.samples, signal.fs, 30.0) > 0.5:
            total += moving_average(imf, ma_width).samples
            smoothed.append(i)
        else:
            total += imf.samples
    report = DenoiseReport(
        method_id="emd_maf",
        params={"ma_width": str(ma_width)},
        components_removed=tuple(smoothed),
        input_len=len(signal),
    )
    return signal.with_samples(total), report


def remove_motion_ssa(
    signal: Signal, window_len: int | None = None, var_thresh: float = 0.1
) -> tuple:
    """Subtract large, slow SSA components (the motion-artifact signature);
    only those above ``var_thresh`` of the singular-value mass are built."""
    model = ssa_decompose(signal, window_len)
    # linear singular-value mass: a drift spread over a few medium components
    # must still clear the threshold
    mass = model.singular_values / model.singular_values.sum()
    removed = []
    cleaned = signal.samples.copy()
    for i in np.flatnonzero(mass > var_thresh):
        comp = model.component(i).samples
        if _dominant_freq(comp, signal.fs) < 1.0:
            removed.append(int(i))
            cleaned -= comp
    report = DenoiseReport(
        method_id="ssa_motion",
        params={"window_len": str(model.window_len),
                "var_thresh": str(var_thresh)},
        components_removed=tuple(removed),
        input_len=len(signal),
        decisions={"mass_removed": float(mass[removed].sum())},
    )
    return signal.with_samples(cleaned), report


def remove_muscle_ssa_cca(rec: Recording, autocorr_thresh: float = 0.9) -> tuple:
    """SSA-expand each channel, zero low-autocorrelation canonical sources.

    Only the top 4 SSA components of each channel enter CCA or the output, so
    this truncation alone removes broadband content.
    """
    n_ch = len(rec.channels)
    if not 1 <= n_ch <= 8:
        raise ValueError(f"supports 1..8 channels, got {n_ch}")
    if rec.n_samples < 2 * rec.fs:
        raise TooShortError(
            f"need at least 2 s of data, got {rec.n_samples / rec.fs:.3f} s"
        )

    top_k = 4
    comps, owner = [], []  # owner: the channel index of each component
    for c, ch in enumerate(rec.channels):
        model = ssa_decompose(ch)
        for i in range(min(top_k, model.n_components)):
            comps.append(model.component(i))
            owner.append(c)
    names = tuple(f"c{i}" for i in range(len(comps)))
    delayed = [s.with_samples(np.concatenate([s.samples[:1], s.samples[:-1]]))
               for s in comps]
    result = cca(Recording(comps, names), Recording(delayed, names))

    sources = result.sources.to_array().T
    # a constant source counts as fully autocorrelated and is kept
    autocorrs = [1.0 if rho is None else rho
                 for rho in (pearson(src[1:], src[:-1]) for src in sources)]
    zeroed = [i for i, rho in enumerate(autocorrs) if rho < autocorr_thresh]
    sources_clean = sources.copy()
    sources_clean[zeroed] = 0.0

    stacked = np.array([s.samples for s in comps])
    try:
        back = np.linalg.inv(result.wx)
    except np.linalg.LinAlgError:
        raise NumericDegeneracyError("canonical projection is not invertible")
    cleaned = back @ sources_clean + stacked.mean(axis=1, keepdims=True)
    out_channels = [ch.with_samples(cleaned[np.equal(owner, c)].sum(axis=0))
                    for c, ch in enumerate(rec.channels)]
    report = DenoiseReport(
        method_id="ssa_cca",
        params={"autocorr_thresh": str(autocorr_thresh), "top_k": str(top_k)},
        components_removed=tuple(zeroed),
        input_len=rec.n_samples,
        decisions={"canonical_correlations": result.correlations.tolist(),
                   "lag1_autocorrelations": autocorrs},
    )
    return rec.with_channels(out_channels), report


def adaptive_kalman_denoise(signal: Signal, cfg: KalmanConfig | None = None) -> tuple:
    """Scalar random-walk Kalman filter with innovation-based noise tracking."""
    cfg = cfg or KalmanConfig()
    z = signal.samples
    estimate = z[0]
    p = cfg.r0
    r = cfg.r0
    out = np.empty_like(z)
    innovations = np.empty(cfg.adapt_window)
    priors = np.empty(cfg.adapt_window)
    fill = 0
    for t, measurement in enumerate(z):
        p_prior = p + cfg.q
        innovation = measurement - estimate
        gain = p_prior / (p_prior + r)
        estimate = estimate + gain * innovation
        p = (1.0 - gain) * p_prior
        out[t] = estimate
        innovations[fill] = innovation
        priors[fill] = p_prior
        fill += 1
        if fill == cfg.adapt_window:
            r = max(innovations.var() - priors.mean(), cfg.r0 / 100.0)
            fill = 0
    report = DenoiseReport(
        method_id="akf",
        params={"q": str(cfg.q), "r0": str(cfg.r0),
                "adapt_window": str(cfg.adapt_window)},
        input_len=len(signal),
    )
    return signal.with_samples(out), report


def cascade_lms(
    primary: Signal, references, mu: float = 0.05, taps: int = 16
) -> tuple:
    """One normalized-LMS cancellation stage per reference, in sequence."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if taps < 1:
        raise ValueError(f"taps must be >= 1, got {taps}")
    references = list(references)
    for ref in references:
        if len(ref) != len(primary):
            raise ValueError(
                f"reference length {len(ref)} != primary length {len(primary)}"
            )
    current = primary.samples.copy()
    n = len(current)
    for stage, ref in enumerate(references):
        x = ref.samples
        # scaled to the reference power, so the nearly empty first windows
        # of a weak reference take no huge steps; positive for a zero one
        delta = 1e-3 * taps * float(np.var(x)) or np.finfo(float).tiny
        w = np.zeros(taps)
        out = np.empty(n)
        window = np.zeros(taps)  # window[0] is the newest sample
        stage_in_energy = float(current @ current)
        # a diverging weight vector overflows before the check below fires
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(n):
                window[1:] = window[:-1]
                window[0] = x[t]
                err = current[t] - w @ window
                out[t] = err
                w = w + mu * err * window / (window @ window + delta)
        if not np.all(np.isfinite(out)) or float(out @ out) > 100.0 * stage_in_energy:
            raise DivergenceError(
                f"NLMS stage {stage} diverged (mu={mu}, taps={taps})"
            )
        current = out
    report = DenoiseReport(
        method_id="cascade_lms",
        params={"mu": str(mu), "taps": str(taps),
                "stages": str(len(references))},
        input_len=n,
    )
    return primary.with_samples(current), report


def _ncc(samples: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Zero-mean normalized cross-correlation at every window start."""
    m = len(template)
    windows = sliding_window_view(samples, m)
    w_centered = windows - windows.mean(axis=1, keepdims=True)
    t_centered = template - template.mean()
    num = w_centered @ t_centered
    den = np.linalg.norm(w_centered, axis=1) * np.linalg.norm(t_centered)
    out = np.zeros(len(num))
    np.divide(num, den, out=out, where=den > 0)
    return out


def remove_blink_template(
    rec: Recording, template: Signal, frontal_channels, peak_thresh: float = 0.7
) -> tuple:
    """Detect blinks on frontal channels, subtract a scaled template everywhere."""
    tpl = template.samples
    m = len(tpl)
    if m >= rec.n_samples:
        raise ValueError(
            f"template ({m}) must be shorter than the recording ({rec.n_samples})"
        )
    frontal = [rec.channel(name) for name in frontal_channels]

    candidates = []
    for ch in frontal:
        scores = _ncc(ch.samples, tpl)
        local_max = sliding_window_view(np.pad(scores, 1, mode="edge"), 3).max(-1)
        peaks = np.flatnonzero((scores > peak_thresh) & (scores == local_max))
        candidates += zip(scores[peaks].tolist(), peaks.tolist())
    # greedy non-overlap suppression across channels, strongest first
    events = []
    for score, t in sorted(candidates, reverse=True):
        if all(abs(t - kept) >= m for kept in events):
            events.append(t)
    events.sort()

    tpl_energy = float(tpl @ tpl)
    cleaned = []
    for ch in rec.channels:
        samples = ch.samples.copy()
        for t in events:
            seg = samples[t : t + m]
            scale = float(seg @ tpl) / tpl_energy if tpl_energy > 0 else 0.0
            samples[t : t + m] = seg - scale * tpl
        cleaned.append(ch.with_samples(samples))
    report = DenoiseReport(
        method_id="blink_template",
        params={"peak_thresh": str(peak_thresh),
                "template_len": str(m)},
        components_removed=tuple(events),
        input_len=rec.n_samples,
    )
    return rec.with_channels(cleaned), report


# a method's tunable keyword with its command-line type and default
Param = namedtuple("Param", "name type default choices", defaults=(None,))


@dataclass(frozen=True)
class MethodSpec:
    """How to call one denoiser and what it needs besides the signal."""

    func: str  # name of a function of this module, looked up at each call
    params: tuple = ()
    multichannel: bool = False  # takes a Recording instead of one Signal
    needs: str | None = None  # "references" or "template"
    config: type | None = None  # packs the keywords into one config object


METHODS = {
    "dwt": MethodSpec("denoise_dwt", (
        Param("levels", int, 3), Param("mode", str, "soft", ("soft", "hard")))),
    "emd_maf": MethodSpec("denoise_emd_maf", (Param("ma_width", int, 5),)),
    "ssa_motion": MethodSpec("remove_motion_ssa", (
        Param("window_len", int, None), Param("var_thresh", float, 0.1))),
    "ssa_cca": MethodSpec("remove_muscle_ssa_cca", (
        Param("autocorr_thresh", float, 0.9),), multichannel=True),
    "akf": MethodSpec("adaptive_kalman_denoise", (
        Param("q", float, 1e-5), Param("r0", float, 1.0),
        Param("adapt_window", int, 64)), config=KalmanConfig),
    "cascade_lms": MethodSpec("cascade_lms", (
        Param("mu", float, 0.05), Param("taps", int, 16)), needs="references"),
    "blink_template": MethodSpec("remove_blink_template", (
        Param("peak_thresh", float, 0.7),), multichannel=True, needs="template"),
    "identity": MethodSpec("identity"),
}
METHOD_IDS = tuple(METHODS)


def apply_method(method_id: str, rec: Recording, *inputs, **params) -> tuple:
    """Run a registered method on a recording; returns (recording, reports).

    ``inputs`` follow the signal: the reference list for
    ``needs="references"``, the template and frontal channel names for
    ``needs="template"``. Omitted keywords keep the function's defaults.
    Single-channel methods run once per channel.
    """
    spec = METHODS[method_id]
    fn = globals()[spec.func]
    if spec.config is not None:
        inputs, params = inputs + (spec.config(**params),), {}
    if spec.multichannel:
        out, report = fn(rec, *inputs, **params)
        return out, [report]
    outs, reports = zip(*(fn(ch, *inputs, **params) for ch in rec.channels))
    return rec.with_channels(outs), list(reports)
