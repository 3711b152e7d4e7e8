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

import tempfile
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _BLOCK_BYTES, Recording, Signal, moving_average, odd_width
# benchmarks/layers.py traces ``denoise.cca`` by name
from .decompose import cca  # noqa: F401
from .decompose import (cca_from_moments, dwt_forward, dwt_inverse, emd,
                        merge_moments, moments, ssa_decompose)
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


def _dominant_freq(samples: np.ndarray, fs: float) -> float:
    spectrum = np.abs(np.fft.rfft(samples))
    return float(np.fft.rfftfreq(len(samples), 1.0 / fs)[np.argmax(spectrum)])


def _energy_fraction_above(samples: np.ndarray, fs: float, f0: float) -> float:
    # on the samples scaled by a power of two: exact, and no square overflows
    scaled = np.ldexp(samples, -np.frexp(np.max(np.abs(samples)))[1])
    power = np.abs(np.fft.rfft(scaled)) ** 2
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
    dec = dwt_forward(signal.samples, levels)
    # noise scale from the finest detail band, threshold shared by all bands
    sigma = np.median(np.abs(dec.details[0])) / 0.6745
    threshold = sigma * np.sqrt(2.0 * np.log(len(signal)))
    shrunk, zeroed = [], 0
    for band in dec.details:
        magnitude = np.abs(band)
        zeroed += int(np.count_nonzero(magnitude <= threshold))
        if mode == "soft":
            shrunk.append(np.sign(band) * np.maximum(magnitude - threshold, 0.0))
        else:
            shrunk.append(np.where(magnitude > threshold, band, 0.0))
    cleaned = dwt_inverse(replace(dec, details=tuple(shrunk)))
    report = DenoiseReport(
        method_id="dwt",
        params={"levels": str(levels), "mode": mode,
                "threshold": f"{threshold:.6g}"},
        input_len=len(signal),
        # the detail coefficients at or below the threshold, set to zero
        decisions={"sigma": float(sigma), "fraction_zeroed":
                   zeroed / sum(len(band) for band in dec.details)},
    )
    return signal.with_samples(cleaned), report


def denoise_emd_maf(signal: Signal, ma_width: int = 5) -> tuple:
    """Moving-average the high-frequency IMFs, keep the rest untouched.

    An IMF counts as high-frequency when the majority of its spectral energy
    sits above 30 Hz; a single coherent low tone sharing the mode (boundary
    mixing) must not shield an EMG-dominated IMF from smoothing.
    """
    # checked before EMD, so they fail whether or not an IMF is smoothed
    width = odd_width(ma_width)
    if width > len(signal):
        raise TooShortError(f"ma_width {width} exceeds the signal length "
                            f"{len(signal)}")
    imf_set = emd(signal.samples)
    total = imf_set.residual  # a new array, so the sum can build on it
    smoothed = []
    for i, imf in enumerate(imf_set.imfs):
        if _energy_fraction_above(imf, signal.fs, 30.0) > 0.5:
            total += moving_average(imf, ma_width)
            smoothed.append(i)
        else:
            total += imf
    report = DenoiseReport(
        method_id="emd_maf",
        params={"ma_width": str(ma_width)},
        components_removed=tuple(smoothed),
        input_len=len(signal),
        decisions={"imf_count": len(imf_set.imfs),
                   "sifts": list(imf_set.sifts)},
    )
    return signal.with_samples(total), report


def remove_motion_ssa(
    signal: Signal, window_len: int | None = None, var_thresh: float = 0.1
) -> tuple:
    """Subtract large, slow SSA components (the motion-artifact signature);
    only those above ``var_thresh`` of the singular-value mass are built."""
    model = ssa_decompose(signal.samples, window_len)
    # linear singular-value mass: a drift spread over a few medium components
    # must still clear the threshold
    mass = model.singular_values / model.singular_values.sum()
    removed = []
    cleaned = signal.samples.copy()
    for i in np.flatnonzero(mass > var_thresh):
        comp = model.component(i)
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


def _lag_moments(rows: np.ndarray) -> tuple:
    """Count, means (2 x k) and centred Grams (2 x 2 x k) of each row of
    ``rows`` at t >= 1 and one sample earlier, for ``merge_moments``."""
    now, before = rows[:, 1:], rows[:, :-1]
    mean = np.stack([now.mean(axis=1), before.mean(axis=1)])
    now, before = now - mean[0][:, None], before - mean[1][:, None]
    cov = np.einsum("ij,ij->i", now, before)
    return now.shape[1], mean, np.array([
        [np.einsum("ij,ij->i", now, now), cov],
        [cov, np.einsum("ij,ij->i", before, before)]])


def _lag1(gram: np.ndarray) -> list:
    """Pearson's r of series with themselves one sample earlier, from their
    2 x 2 x k Grams; a series without variance counts as fully
    autocorrelated (1.0)."""
    var_now, var_before, cov = gram[0, 0], gram[1, 1], gram[0, 1]
    constant = (var_now <= 0) | (var_before <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(constant, 1.0,
                        cov / (np.sqrt(var_now) * np.sqrt(var_before))).tolist()


def remove_muscle_ssa_cca(rec: Recording, autocorr_thresh: float = 0.9) -> tuple:
    """SSA-expand each channel, zero low-autocorrelation canonical sources.

    Only the top 4 SSA components of each channel enter CCA or the output, so
    this truncation alone removes broadband content. A recording with no
    component at all (all zero) is returned as it is.

    CCA pairs each component with itself one sample earlier (sample 0 with
    itself). Memory: the k components are built in chunks of
    ``_BLOCK_BYTES // (8 * 2k)`` samples (4,096 for 4 channels), never
    whole, and each chunk once. Pass 1 builds them, merges each chunk's
    ``moments`` into CCA's covariances and spills the chunk to an unnamed
    temporary file: k * n * 8 bytes, 19.7 MB for a 10-minute 4-channel
    recording. Pass 2 reads the chunks back, last first, and merges the
    sources' own lag-1 moments, which decide what is kept. Pass 3 reads them
    back in order and writes the kept sources onto their channels. An input
    of one chunk is one ``moments`` call, as in ``cca``, so its output is
    bit for bit that of the code that held the components whole.
    Measured in a fresh process, peak RSS rises by 4.3 MiB on a 10-minute
    4-channel recording and by 21.6 MiB on a 60-minute one, output included.
    """
    n_ch = len(rec.channels)
    if not 1 <= n_ch <= 8:
        raise ValueError(f"supports 1..8 channels, got {n_ch}")
    n = rec.n_samples
    if n < 2 * rec.fs:
        raise TooShortError(
            f"need at least 2 s of data, got {n / rec.fs:.3f} s"
        )

    top_k = 4
    params = {"autocorr_thresh": str(autocorr_thresh), "top_k": str(top_k)}
    parts, owner = [], []  # owner: the channel index of each component
    for c, ch in enumerate(rec.channels):
        model = ssa_decompose(ch.samples, leading=top_k)
        parts += [(model, i) for i in range(model.n_components)]
        owner += [c] * model.n_components
    if not parts:
        return rec, DenoiseReport("ssa_cca", params, input_len=n)
    k = len(parts)
    if n <= k:
        raise TooShortError(f"need more samples ({n}) than components ({k})")
    step = max(2, _BLOCK_BYTES // (8 * 2 * k))
    starts = range(0, n, step)
    sums, at = np.zeros(k), [0]  # at: where each chunk starts, then the end
    with tempfile.TemporaryFile() as spill:
        # pass 1: CCA's rows [x_t, x_{t-1}]. The output's offsets take each
        # component's sum along it: on one chunk, that is the sum of the
        # whole component, bit for bit
        for start in starts:
            # the components, C-ordered samples x k, from the sample before
            # ``start`` (from ``start`` if it is 0) to the chunk's end
            comps = np.column_stack([
                model.component(i, max(0, start - 1), min(start + step, n))
                for model, i in parts])
            now = comps[min(start, 1):]
            # sample 0 stands in for the sample before it
            before = np.concatenate([comps[:1], comps[:-1]]) if start == 0 \
                else comps[:-1]
            sums += [column.sum() for column in now.T]
            here = moments(now, before)
            summed = here if start == 0 else merge_moments(summed, here)
            spill.write(comps)
            at.append(spill.tell())
        count, mean, gram = summed
        wx, _, correlations = cca_from_moments(gram[:k, :k] / (count - 1),
                                               gram[k:, k:] / (count - 1),
                                               gram[:k, k:] / (count - 1))
        try:
            back = np.linalg.inv(wx)
        except np.linalg.LinAlgError:
            raise NumericDegeneracyError("canonical projection is not invertible")

        def sources(j):
            """Chunk ``j``'s sources, read back from the spill."""
            comps = np.empty(((at[j + 1] - at[j]) // (8 * k), k))
            spill.seek(at[j])
            spill.readinto(comps)
            return wx @ (comps - mean[:k]).T

        for j in reversed(range(len(starts))):  # pass 2
            here = _lag_moments(sources(j))
            exact = here if j == len(starts) - 1 else merge_moments(exact, here)
        autocorrs = _lag1(exact[2])
        zeroed = [i for i, rho in enumerate(autocorrs) if rho < autocorr_thresh]
        kept = [i for i, rho in enumerate(autocorrs) if rho >= autocorr_thresh]
        owners = np.equal.outer(np.arange(n_ch), owner).astype(float)
        mix = owners @ back  # each source's share of each channel
        offset = owners @ (sums / n)
        out = [np.empty(n) for _ in range(n_ch)]
        for j, start in enumerate(starts):  # pass 3
            part = mix[:, kept] @ sources(j)[kept][:, min(start, 1):]
            for row, values, level in zip(out, part, offset):
                row[start:start + step] = values + level
    # each row is freed once its signal holds a copy
    out_channels = [ch.with_samples(out.pop(0)) for ch in rec.channels]
    report = DenoiseReport(
        method_id="ssa_cca",
        params=params,
        components_removed=tuple(zeroed),
        input_len=n,
        decisions={"canonical_correlations": correlations.tolist(),
                   "lag1_autocorrelations": autocorrs},
    )
    return rec.with_channels(out_channels), report


# samples turned into Python floats at once by the per-sample recurrences;
# a block keeps their memory flat however long the input
_FLOAT_BLOCK = 4096


def adaptive_kalman_denoise(signal: Signal, q: float = 1e-5, r0: float = 1.0,
                            adapt_window: int = 64) -> tuple:
    """Scalar random-walk Kalman filter with innovation-based noise tracking."""
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    if not r0 > 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    if adapt_window < 8:
        raise ValueError(f"adapt_window must be >= 8, got {adapt_window}")
    z = signal.samples
    estimate = float(z[0])
    p = r0
    r = r0
    out = np.empty(len(z))
    innovations, priors = [], []
    # the recurrence runs on Python floats, one block of samples at a time;
    # p_prior + r stays positive, so no division raises
    for start in range(0, len(z), _FLOAT_BLOCK):
        estimates = []
        for measurement in z[start:start + _FLOAT_BLOCK].tolist():
            p_prior = p + q
            innovation = measurement - estimate
            gain = p_prior / (p_prior + r)
            estimate = estimate + gain * innovation
            p = (1.0 - gain) * p_prior
            estimates.append(estimate)
            innovations.append(innovation)
            priors.append(p_prior)
            if len(innovations) == adapt_window:
                r = max(float(np.var(innovations) - np.mean(priors)),
                        r0 / 100.0)
                innovations, priors = [], []
        out[start:start + len(estimates)] = estimates
    report = DenoiseReport(
        method_id="akf",
        params={"q": str(q), "r0": str(r0), "adapt_window": str(adapt_window)},
        input_len=len(signal),
        # the measurement noise and the gain the filter ended on
        decisions={"final_r": float(r), "final_gain": gain},
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
    reduction_db, max_weight = [], []
    for stage, ref in enumerate(references):
        x = ref.samples
        # scaled to the reference power, so the nearly empty first windows
        # of a weak reference take no huge steps; positive for a zero one
        delta = 1e-3 * taps * float(np.var(x)) or np.finfo(float).tiny
        w = np.zeros(taps)
        dot, step = w.dot, np.empty(taps)  # w is updated in place
        out = np.empty(n)
        # row t is the window at sample t, newest sample first: a view whose
        # rows are contiguous, as the dot products were fixed on
        windows = sliding_window_view(
            np.concatenate([x[::-1], np.zeros(taps - 1)]), taps)[::-1]
        stage_in_energy = float(current @ current)
        # a diverging weight vector overflows before the check below fires
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, _FLOAT_BLOCK):
                block = windows[start:start + _FLOAT_BLOCK]
                # each (1 x taps) @ (taps x 1) product is the dot product
                # window @ window, by the same kernel
                norms = (np.matmul(block[:, None, :], block[:, :, None])
                         .ravel() + delta).tolist()
                targets = current[start:start + _FLOAT_BLOCK].tolist()
                errs = []
                for window, target, norm in zip(block, targets, norms):
                    err = target - float(dot(window))
                    errs.append(err)
                    # w + mu * err * window / norm, rounded as that is
                    np.multiply(window, mu * err, step)
                    step /= norm
                    w += step
                out[start:start + len(errs)] = errs
            stage_out_energy = float(out @ out)
        if not np.all(np.isfinite(out)) or stage_out_energy > 100.0 * stage_in_energy:
            raise DivergenceError(
                f"NLMS stage {stage} diverged (mu={mu}, taps={taps})"
            )
        # inf when a stage cancels everything, nan for an all-zero input
        with np.errstate(divide="ignore", invalid="ignore"):
            reduction_db.append(float(
                10.0 * np.log10(np.divide(stage_in_energy, stage_out_energy))))
        max_weight.append(float(np.max(np.abs(w))))
        current = out
    report = DenoiseReport(
        method_id="cascade_lms",
        params={"mu": str(mu), "taps": str(taps),
                "stages": str(len(references))},
        input_len=n,
        decisions={"energy_reduction_db": reduction_db,
                   "max_abs_weight": max_weight},
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
        raise TooShortError(
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


# a method's tunable keyword with its command-line type, default and help
Param = namedtuple("Param", "name type default choices help",
                   defaults=(None, None))


@dataclass(frozen=True)
class MethodSpec:
    """How to call one denoiser and what it needs besides the signal."""

    func: str  # name of a function of this module, looked up at each call
    params: tuple = ()
    multichannel: bool = False  # takes a Recording instead of one Signal
    needs: str | None = None  # "references" or "template"


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
        Param("adapt_window", int, 64))),
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
    if spec.multichannel:
        out, report = fn(rec, *inputs, **params)
        return out, [report]
    outs, reports = zip(*(fn(ch, *inputs, **params) for ch in rec.channels))
    return rec.with_channels(outs), list(reports)
