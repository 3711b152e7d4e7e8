"""find_extrema's sign-change rule against the scanning loop it replaced."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegscrub.decompose import find_extrema


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
