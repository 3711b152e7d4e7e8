"""Power-of-two scaling through ``apply_method``: a scale-free method must
return exactly 2^k f(x) for 2^k x, since scaling by a power of two is exact
in floating point until something overflows or underflows. Each method is
either checked bit for bit over the exponents where it holds, checked to a
stated tolerance, or named below as an exception with its cause."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegscrub.bench import make_blink_template, make_clean
from eegscrub.core import Recording
from eegscrub.denoise import METHOD_IDS, apply_method
from eegscrub.noise import NoiseSpec, gen_noise, mix_at_snr

N, FS = 2048, 256.0
NAMES = ("ch0", "ch1", "ch2", "ch3")

# bit for bit over k in [lo, hi]. emd_maf's sifting rule and spectral split
# work on power-of-two scalings, so it holds until its samples leave the
# normal floats. Past +-500, ssa_motion refuses the input as numerically
# degenerate, and cascade_lms and blink_template overflow
EXACT = {"identity": (-500, 500), "dwt": (-500, 500),
         "emd_maf": (-900, 1000), "ssa_motion": (-500, 500),
         "cascade_lms": (-500, 500), "blink_template": (-500, 500)}
# within a tolerance, as a fraction of max|x|: the whitening of ssa_cca's
# CCA stage is ill-conditioned, so its rounding depends on the scale; it
# moved by up to 1.8e-8 at k = +-500 over 40 draws (ROADMAP item 4)
TOLERANCE = {"ssa_cca": (-500, 500, 1e-7)}
# not scale-free, so not checked: akf's process noise q and initial
# measurement noise r0 are absolute variances, so its output moves by 0.2
# to 1.8 of max|x| under any scaling (ROADMAP item 3)
EXCEPTIONS = {"akf": "q and r0 are absolute variances"}


def draw(seed: int) -> Recording:
    """Four two-tone channels, each plus one emg_burst draw at 0 dB."""
    noise = gen_noise(NoiseSpec("emg_burst", {"duty": 0.5}, seed=seed), N, FS)
    return Recording(channels=tuple(
        mix_at_snr(make_clean(seed, N, FS, channel=c), noise, 0.0)[0]
        for c in range(len(NAMES))), channel_names=NAMES)


def run(method: str, rec: Recording) -> np.ndarray:
    """The method's output, with a fixed powerline reference or a blink
    template on the first two channels as its inputs."""
    if method == "cascade_lms":
        inputs = ([gen_noise(NoiseSpec("powerline", {}), N, FS)],)
    elif method == "blink_template":
        inputs = (make_blink_template(NoiseSpec("blink", {}), FS), NAMES[:2])
    else:
        inputs = ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return apply_method(method, rec, *inputs)[0].to_array()


def scaled(rec: Recording, k: int) -> Recording:
    return rec.with_channels([ch.with_samples(np.ldexp(ch.samples, k))
                              for ch in rec.channels])


def test_every_method_is_checked_or_named():
    groups = [set(EXACT), set(TOLERANCE), set(EXCEPTIONS)]
    assert sorted(set().union(*groups)) == sorted(METHOD_IDS)
    assert sum(map(len, groups)) == len(METHOD_IDS)


def exponents(lo: int, hi: int):
    """Draws of (seed, k), with both ends of the range as examples."""
    def wrap(test):
        test = given(seed=st.integers(0, 2**16), k=st.integers(lo, hi))(test)
        test = example(seed=0, k=hi)(example(seed=0, k=lo)(test))
        return settings(max_examples=6, deadline=None)(test)
    return wrap


@pytest.mark.parametrize("method", sorted(EXACT))
def test_exact_scaling(method):
    @exponents(*EXACT[method])
    def check(seed, k):
        rec = draw(seed)
        assert np.array_equal(run(method, scaled(rec, k)),
                              np.ldexp(run(method, rec), k))
    check()


@pytest.mark.parametrize("method", sorted(TOLERANCE))
def test_scaling_within_tolerance(method):
    lo, hi, tol = TOLERANCE[method]

    @exponents(lo, hi)
    def check(seed, k):
        rec = draw(seed)
        want = run(method, rec)
        got = np.ldexp(run(method, scaled(rec, k)), -k)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(rec.to_array()))
    check()
