"""The moments core of CCA: the moments of rows cut into chunks and merged
pairwise equal one ``moments`` call over all of them, for CCA's Gram and
for ``ssa_cca``'s lag-1 moments of its sources."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eegscrub.decompose import merge_moments, moments
from eegscrub.denoise import _lag_moments

# a merged mean or Gram entry may differ from one call's by this share of
# n * max|row value|^2 (of max|row value| for a mean); rounding in sums of
# at most 400 rows stays below 1e-13 of it
REL_BOUND = 1e-12


@st.composite
def cut_rows(draw):
    """Random rows (samples x columns) with an offset, and 0 to 5 cuts
    that split them into 1 to 6 chunks; the first and the last chunk have
    at least 2 rows, so each chunk holds a lag pair."""
    n = draw(st.integers(4, 400))
    n_cols = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    offset = draw(st.floats(-1e3, 1e3))
    scale = draw(st.floats(1e-3, 1e3))
    rows = offset + scale * np.random.default_rng(seed).normal(
        size=(n, n_cols))
    cuts = draw(st.lists(st.integers(2, n - 2), max_size=5, unique=True))
    return rows, [0, *sorted(cuts), n]


def merged(parts):
    """The chunks' moments merged in order, as ``ssa_cca`` merges them."""
    total = None
    for part in parts:
        total = part if total is None else merge_moments(total, part)
    return total


def assert_close(got, want, rows):
    peak = np.abs(rows).max()
    assert got[0] == want[0]
    assert np.all(np.abs(got[1] - want[1]) <= REL_BOUND * peak)
    assert np.all(np.abs(got[2] - want[2])
                  <= REL_BOUND * want[0] * peak ** 2)


@settings(max_examples=200, deadline=None)
@given(data=cut_rows(), split=st.integers(1, 5))
def test_merged_chunks_equal_one_call(data, split):
    rows, bounds = data
    split = min(split, rows.shape[1] - 1)  # x columns first, then y
    chunks = [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    got = merged(moments(c[:, :split], c[:, split:]) for c in chunks)
    want = moments(rows[:, :split], rows[:, split:])
    if len(chunks) == 1:  # nothing is merged: the same bits
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)
    assert got[1].shape == want[1].shape and got[2].shape == want[2].shape
    assert_close(got, want, rows)


@settings(max_examples=200, deadline=None)
@given(data=cut_rows())
def test_merged_lag_moments_equal_one_call(data):
    rows, bounds = data
    series = np.ascontiguousarray(rows.T)  # k series x n samples
    # each chunk from the sample before it, as ssa_cca's chunks are
    got = merged(_lag_moments(series[:, max(lo - 1, 0):hi])
                 for lo, hi in zip(bounds, bounds[1:]))
    want = _lag_moments(series)
    k = len(series)
    assert got[1].shape == (2, k) and got[2].shape == (2, 2, k)
    if len(bounds) == 2:
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)
    assert_close(got, want, rows)
