"""The grid's kernels against copies of the library calls and loops they
replaced, bit for bit.

- EMD envelopes: the direct natural spline against scipy's
  ``CubicSpline(pos, val, bc_type="natural")`` at ``np.arange(n)``, and whole
  decompositions against EMD run on ``CubicSpline`` envelopes.
- Butterworth filtering: ``apply_filter`` against ``sosfiltfilt`` of the
  cached design at the same ``padlen``.
- NLMS: ``cascade_lms``, which updates its weights in place, against the loop
  that allocated a new weight vector per sample, divergence included.
- Bench cells: ``run_bench`` rows against rows summarized one series at a
  time by the ``_median_iqr`` they replaced.

Outputs are compared as bytes (or ``float.hex``), so a sign of zero or a
NaN payload counts too.
"""

import importlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgtsv

from eegscrub import (FilterSpec, NoiseSpec, Signal, apply_filter, bench,
                      gen_noise, mix_at_snr)
from eegscrub.bench import make_clean
from eegscrub.core import _butter_design
from eegscrub.decompose import emd
from eegscrub.decompose.emd import (_envelope, _mirror, _natural_spline,
                                    find_extrema)
from eegscrub.denoise import _FLOAT_BLOCK, cascade_lms
from eegscrub.errors import DivergenceError, NumericDegeneracyError

# the package re-exports the function ``emd`` under the submodule's name
emd_module = importlib.import_module("eegscrub.decompose.emd")
FS = 256.0


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scipy_spline(pos, val, n):
    return CubicSpline(pos, val, bc_type="natural")(np.arange(n))


# ---- EMD envelopes --------------------------------------------------------

@st.composite
def knots(draw):
    """Increasing integer knots, the first at or before sample 0 as after
    mirroring, gaps from even to far apart, values with plateaus and zeros
    of either sign."""
    m = draw(st.integers(2, 40))
    start = draw(st.integers(-30, 0))
    gaps = draw(st.lists(st.integers(1, 400), min_size=m - 1, max_size=m - 1))
    pos = np.cumsum([start] + gaps)
    values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0]))
    val = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    n = draw(st.integers(1, max(1, int(pos[-1])) + 5))
    return pos, val, n


@settings(max_examples=300, deadline=None)
@given(case=knots())
@example(case=(np.array([0, 1]), np.array([0.0, 1.0]), 5))  # 2 knots
@example(case=(np.array([-3, 2, 9]), np.array([1.0, -2.0, 0.5]), 9))  # 3
@example(case=(np.array([0, 1, 10, 11, 40]), np.array([1.0, 1.0, 1.0, -0.0,
                                                       -0.0]), 40))  # plateau
def test_natural_spline_is_cubic_spline(case):
    pos, val, n = case
    assert same_bits(_natural_spline(pos, val, n), scipy_spline(pos, val, n))


def test_uneven_knots_make_gtsv_pivot():
    # the first row's diagonal, 2 * dx[0] = 2, is smaller than the entry
    # below it, dx[1] = 9, so the solve swaps rows (a nonzero fill-in du2)
    pos, val = np.array([0, 1, 10, 12]), np.array([0.0, 2.0, -1.0, 3.0])
    dx = np.diff(pos).astype(float)
    du2 = dgtsv(np.concatenate([dx[1:], dx[-1:]]),
                np.concatenate([2 * dx[:1], 2 * (dx[:-1] + dx[1:]),
                                2 * dx[-1:]]),
                np.concatenate([dx[:1], dx[:-1]]), np.ones(4))[0]
    assert du2.any()
    assert same_bits(_natural_spline(pos, val, 12), scipy_spline(pos, val, 12))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(8, 600), seed=st.integers(0, 2**32 - 1),
       plateaus=st.booleans())
def test_envelope_through_mirrored_extrema(n, seed, plateaus):
    x = np.random.default_rng(seed).normal(size=n)
    if plateaus:
        x = np.round(x)  # runs of equal samples
    for idx in find_extrema(x):
        if len(idx) >= 1:
            pos, val = _mirror(idx, x[idx], n)
            assert same_bits(_envelope(x, idx), scipy_spline(pos, val, n))


def scipy_envelope(x, idx):
    pos, val = _mirror(idx, x[idx], len(x))
    return scipy_spline(pos, val, len(x))


def grid_draws():
    """Channel 0 of the golden grid's mixes (tests/test_golden.py), plus
    noise of six lengths from 8 to 2048."""
    draws = []
    for text in ("kind=awgn", "kind=powerline", "kind=baseline_wander",
                 "kind=emg_burst,duty=1"):
        spec = NoiseSpec.from_text(text)
        for snr in (-5.0, 0.0, 5.0):
            for seed in (0, 1):
                noise = gen_noise(replace(spec, seed=spec.seed + seed), 2048,
                                  FS)
                draws.append(mix_at_snr(make_clean(seed, 2048, FS), noise,
                                        snr)[0].samples)
    rng = np.random.default_rng(5)
    draws += [rng.normal(size=n) for n in (8, 9, 31, 256, 1000, 2048)]
    return draws


@pytest.mark.parametrize("x", grid_draws())
def test_emd_is_emd_on_cubic_spline_envelopes(x):
    got = emd(x)
    with mock.patch.object(emd_module, "_envelope", scipy_envelope):
        want = emd(x)
    assert len(got.imfs) == len(want.imfs)
    assert all(same_bits(a, b) for a, b in zip(got.imfs, want.imfs))
    assert same_bits(got.residual, want.residual)
    assert got.sifts == want.sifts


def test_envelope_slopes_out_of_the_float_range_are_a_typed_error():
    # CubicSpline refused such slopes with a plain ValueError
    pos, val = np.array([-2, 0, 3, 5]), np.array([1.7e308, -1.7e308,
                                                  1.7e308, -1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="must contain only finite"):
            scipy_spline(pos, val, 5)
        with pytest.raises(NumericDegeneracyError, match="overflow"):
            _natural_spline(pos, val, 5)


# ---- Butterworth filtering ------------------------------------------------

@st.composite
def butterworth_cases(draw):
    kind = draw(st.sampled_from(["lowpass", "highpass", "bandpass"]))
    order = draw(st.integers(1, 6))
    if kind == "bandpass":
        low = draw(st.floats(0.5, 100.0))
        edges = (low, draw(st.floats(low + 1.0, 127.0)))
    else:
        edges = (draw(st.floats(0.5, 127.0)),)
    wn = edges if kind == "bandpass" else edges[0]
    sections = _butter_design(order, wn, kind, FS).shape[0]
    padlen = 3 * (2 * sections + 1)
    n = draw(st.one_of(st.integers(padlen + 1, padlen + 4),
                       st.integers(padlen + 1, 10_000)))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    return FilterSpec(kind, edges, order=order), wn, padlen, x


@settings(max_examples=150, deadline=None)
@given(case=butterworth_cases())
def test_apply_filter_is_sosfiltfilt(case):
    spec, wn, padlen, x = case
    design = _butter_design(spec.order, wn, spec.kind, FS)
    want = sps.sosfiltfilt(design.copy(), x, padlen=padlen)
    got = apply_filter(Signal(x, FS), spec).samples
    assert same_bits(got, want)


# ---- NLMS -----------------------------------------------------------------

def allocating_cascade_lms(primary, references, mu, taps):
    """``cascade_lms`` as it was: a new weight vector per sample. Returns
    the output samples and the two decision lists."""
    current = primary.samples.copy()
    n = len(current)
    reduction_db, max_weight = [], []
    for stage, ref in enumerate(references):
        x = ref.samples
        delta = 1e-3 * taps * float(np.var(x)) or np.finfo(float).tiny
        w = np.zeros(taps)
        out = np.empty(n)
        windows = sliding_window_view(
            np.concatenate([x[::-1], np.zeros(taps - 1)]), taps)[::-1]
        stage_in_energy = float(current @ current)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, _FLOAT_BLOCK):
                block = windows[start:start + _FLOAT_BLOCK]
                norms = (np.matmul(block[:, None, :], block[:, :, None])
                         .ravel() + delta).tolist()
                targets = current[start:start + _FLOAT_BLOCK].tolist()
                errs = []
                for window, target, norm in zip(block, targets, norms):
                    err = target - float(w @ window)
                    errs.append(err)
                    w = w + mu * err * window / norm
                out[start:start + len(errs)] = errs
            stage_out_energy = float(out @ out)
        if not np.all(np.isfinite(out)) or stage_out_energy > 100.0 * stage_in_energy:
            raise DivergenceError(
                f"NLMS stage {stage} diverged (mu={mu}, taps={taps})"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            reduction_db.append(float(
                10.0 * np.log10(np.divide(stage_in_energy, stage_out_energy))))
        max_weight.append(float(np.max(np.abs(w))))
        current = out
    return current, reduction_db, max_weight


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3000), taps=st.integers(1, 40),
       log_mu=st.floats(-3.0, 3.0), stages=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@example(n=2048, taps=16, log_mu=math.log10(0.05), stages=1, seed=0)
@example(n=_FLOAT_BLOCK + 7, taps=16, log_mu=math.log10(0.05), stages=2,
         seed=1)
@example(n=2048, taps=16, log_mu=math.log10(500.0), stages=1, seed=2)
def test_cascade_lms_is_allocating_loop(n, taps, log_mu, stages, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    primary = Signal(np.sin(2 * np.pi * 10.0 * t) + rng.normal(size=n), FS)
    refs = [Signal(rng.normal(size=n), FS),
            Signal(3.0 * np.sin(2 * np.pi * 50.0 * t), FS)][:stages]
    mu = 10.0**log_mu
    try:
        want = allocating_cascade_lms(primary, refs, mu, taps)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as got:
            cascade_lms(primary, refs, mu=mu, taps=taps)
        assert str(got.value) == str(exc)
        return
    got, report = cascade_lms(primary, refs, mu=mu, taps=taps)
    assert same_bits(got.samples, want[0])
    assert same_bits(report.decisions["energy_reduction_db"], want[1])
    assert same_bits(report.decisions["max_abs_weight"], want[2])


def test_the_divergence_case_diverges():
    # the example above at mu=500 takes the DivergenceError branch
    rng = np.random.default_rng(2)
    t = np.arange(2048) / FS
    primary = Signal(np.sin(2 * np.pi * 10.0 * t) + rng.normal(size=2048), FS)
    with pytest.raises(DivergenceError, match="stage 0"):
        allocating_cascade_lms(primary, [Signal(rng.normal(size=2048), FS)],
                               500.0, 16)


# ---- bench cells ----------------------------------------------------------

def _median_iqr(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    q1, q3 = np.percentile(arr, [25, 75])
    return float(np.median(arr)), float(q3 - q1)


def summarized_one_series_at_a_time(draws) -> dict:
    """The statistics of one cell's row, as ``run_bench`` computed them."""
    med_snr, iqr_snr = _median_iqr([d["snr_db"] for d in draws])
    med_rmse, iqr_rmse = _median_iqr([d["rmse"] for d in draws])
    med_corr, _ = _median_iqr([d["corr"] for d in draws])
    gains = [d["snr_db"] - d["in_snr_db"] for d in draws]
    reductions = [1.0 - d["rmse"] / d["in_rmse"] for d in draws]
    return {"median_out_snr_db": med_snr, "iqr_out_snr_db": iqr_snr,
            "median_rmse": med_rmse, "iqr_rmse": iqr_rmse,
            "median_corr": med_corr,
            "median_gain_db": float(np.median(gains)),
            "median_rmse_reduction": float(np.median(reductions))}


finite = st.floats(-1e6, 1e6)
positive = st.floats(1e-6, 1e6)
draw_dicts = st.fixed_dictionaries({
    "snr_db": st.one_of(finite, st.just(math.inf)),  # inf: exact output
    "rmse": st.one_of(positive, st.just(0.0)),
    "corr": st.floats(-1.0, 1.0),
    "in_snr_db": finite,
    "in_rmse": positive,
    "mix_roundtrip_db": st.floats(0.0, 1e-9),
})


@settings(max_examples=200, deadline=None)
@given(draws=st.lists(draw_dicts, min_size=1, max_size=40))
@example(draws=[{"snr_db": 1.0, "rmse": 0.5, "corr": 0.9, "in_snr_db": 0.0,
                 "in_rmse": 1.0, "mix_roundtrip_db": 0.0}])
def test_run_bench_rows_are_one_series_at_a_time(draws):
    fed = iter(draws)
    # an infinite SNR makes a quartile inf - inf, as it always did
    with mock.patch.object(bench, "_run_cell_seed", lambda *args: next(fed)), \
            np.errstate(invalid="ignore"):
        (row,) = bench.run_bench(["identity"], ["kind=awgn"], [0.0],
                                 range(len(draws)))["rows"]
        want = summarized_one_series_at_a_time(draws)
    assert {k: float.hex(row[k]) for k in want} == {
        k: float.hex(v) for k, v in want.items()}
