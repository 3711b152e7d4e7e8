"""build_feature_matrix against a per-epoch reference on generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eegscrub import (
    FEATURES_PER_CHANNEL,
    Recording,
    Signal,
    band_powers,
    build_feature_matrix,
    segment_epochs,
    spectral_entropy,
    time_stats,
    welch_psd,
)
from eegscrub.features import STAT_NAMES

FS = 64.0


def reference_rows(rec, window_s, overlap):
    """One Signal, one Welch PSD and one set of moments per epoch and
    channel, concatenated channel by channel."""
    per_channel = [segment_epochs(ch, window_s, overlap)
                   for ch in rec.channels]
    rows = []
    for epochs in zip(*per_channel):
        row = []
        for epoch in epochs:
            freqs, psd = welch_psd(epoch, seg_len=min(256, len(epoch)))
            row.extend(band_powers(freqs, psd))
            row.append(0.0 if psd.sum() <= 0 else spectral_entropy(psd))
            stats = time_stats(epoch)
            row.extend(stats[name] for name in STAT_NAMES)
        rows.append(row)
    return np.array(rows)


channel = st.tuples(
    st.sampled_from(["noise", "constant", "zero"]),
    st.floats(-3.0, 3.0),  # log10 of the amplitude
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 1500),
    window_s=st.floats(8 / FS, 6.0),
    overlap=st.floats(0.0, 0.9),
    channels=st.lists(channel, min_size=1, max_size=3),
)
def test_matches_per_epoch_reference(n, window_s, overlap, channels):
    signals = []
    for kind, log_amp, seed in channels:
        x = np.random.default_rng(seed).normal(size=n)
        if kind == "constant":
            x = np.full(n, x[0])
        elif kind == "zero":
            x = np.zeros(n)
        signals.append(Signal(10.0**log_amp * x, FS))
    rec = Recording(tuple(signals), tuple(f"c{i}" for i in range(len(signals))))

    matrix = build_feature_matrix(rec, window_s, overlap)
    ref = reference_rows(rec, window_s, overlap)

    assert matrix.n_rows == len(segment_epochs(signals[0], window_s, overlap))
    assert matrix.n_features == FEATURES_PER_CHANNEL * len(signals)
    assert np.all(np.isfinite(matrix.rows))
    assert len(ref) == matrix.n_rows
    if matrix.n_rows:
        np.testing.assert_allclose(matrix.rows, ref, rtol=1e-12, atol=0.0)
