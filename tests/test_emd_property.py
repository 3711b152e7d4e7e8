"""find_extrema's sign-change rule against the scanning loop it replaced,
and EMD's exact answer to a power-of-two scaling of its input."""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegscrub.decompose import emd, find_extrema
from eegscrub.rng import rng_stream


def scanning_extrema(x):
    """The left-to-right scan with a plateau walk, kept as the reference."""
    d = np.diff(x)
    maxima, minima = [], []
    i = 0
    n = len(d)
    prev_sign = 0  # sign of the last nonzero slope seen
    while i < n:
        if d[i] == 0.0:
            j = i
            while j < n and d[j] == 0.0:
                j += 1
            if j < n:
                next_sign = 1 if d[j] > 0 else -1
                mid = (i + j) // 2
                if prev_sign > 0 and next_sign < 0:
                    maxima.append(mid)
                elif prev_sign < 0 and next_sign > 0:
                    minima.append(mid)
                prev_sign = next_sign
            i = j
            continue
        sign = 1 if d[i] > 0 else -1
        if prev_sign > 0 and sign < 0:
            maxima.append(i)
        elif prev_sign < 0 and sign > 0:
            minima.append(i)
        prev_sign = sign
        i += 1
    return np.asarray(maxima, dtype=int), np.asarray(minima, dtype=int)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.integers(-2, 2), max_size=64),
       as_float=st.booleans())
@example(values=[], as_float=True)
@example(values=[1], as_float=True)
@example(values=[0, 1, 1, 1, 0, 0, 2, 2], as_float=True)
@example(values=[3, 3, 1, 2, 2, 2], as_float=False)
def test_matches_scanning_loop(values, as_float):
    x = np.array(values, dtype=float if as_float else int)
    for got, want in zip(find_extrema(x), scanning_extrema(x)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@st.composite
def scaled_signals(draw):
    """A seeded noise or random walk of 8-512 samples, and a power of two
    ``k`` that keeps every scaled sample a normal float: 8 binades below
    the overflow threshold, which envelope overshoot needs, and 64 above
    the smallest normal float, which the sifting differences need."""
    rng = rng_stream(draw(st.integers(0, 2**16)), "emd-scaling")
    x = rng.normal(size=draw(st.integers(8, 512)))
    if draw(st.booleans()):
        x = np.cumsum(x)
    top = np.frexp(np.max(np.abs(x)))[1]
    bottom = np.frexp(np.min(np.abs(x[x != 0])))[1]
    return x, draw(st.integers(-1022 + 64 - bottom, 1024 - 8 - top))


@settings(max_examples=60, deadline=None)
@given(drawn=scaled_signals())
@example(drawn=(rng_stream(0, "emd-scaling").normal(size=2048), 600))
@example(drawn=(rng_stream(0, "emd-scaling").normal(size=2048), -600))
def test_emd_commutes_with_power_of_two_scaling(drawn):
    # a power-of-two scaling is exact, so each IMF, the residual and the
    # sift counts must come out as 2^k times those of x: the stopping rule
    # may not square its way to overflow or underflow
    x, k = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want, got = emd(x), emd(np.ldexp(x, k))
    assert got.sifts == want.sifts
    assert len(got.imfs) == len(want.imfs)
    for g, w in zip(got.imfs + (got.residual,), want.imfs + (want.residual,)):
        assert np.array_equal(g, np.ldexp(w, k))
