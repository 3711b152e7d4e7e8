import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegscrub import (
    InvalidSpecError,
    NumericDegeneracyError,
    TooShortError,
    rng_stream,
)
from eegscrub.decompose import default_window, ssa_decompose, ssa_reconstruct
from eegscrub.decompose import ssa as ssa_module
from eegscrub.decompose.ssa import EIG_NOISE_TOL, _lag_cov, _row_blocks
from peak_rss import peak_rise_mib


def sine(freq, n=1024, fs=256.0):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * freq * t)


class TestDecompose:
    def test_constant_is_rank_one(self):
        x = np.full(200, 7.0)
        model = ssa_decompose(x, window_len=10)
        assert model.n_components == 1
        back = ssa_reconstruct(model, [0])
        assert np.allclose(back, 7.0, atol=1e-10)

    def test_sine_is_rank_two(self):
        model = ssa_decompose(sine(10.0), window_len=32)
        sq = model.singular_values**2
        assert sq[:2].sum() >= 0.999 * sq.sum()

    def test_singular_values_nonincreasing(self):
        rng = rng_stream(0, "ssa-order")
        x = rng.normal(size=300)
        model = ssa_decompose(x, window_len=40)
        assert np.all(np.diff(model.singular_values) <= 1e-12)

    def test_full_reconstruction(self):
        rng = rng_stream(1, "ssa-complete")
        x = rng.normal(size=400)
        model = ssa_decompose(x, window_len=50)
        back = ssa_reconstruct(model, range(model.n_components))
        scale = np.max(np.abs(x))
        assert np.max(np.abs(back - x)) < 1e-8 * scale

    def test_noisy_sine_recovery(self):
        clean = sine(10.0)
        noise = rng_stream(2, "ssa-noise").normal(size=len(clean))
        noise *= np.sqrt(np.mean(clean**2) / 10.0 / np.mean(noise**2))
        x = clean + noise
        model = ssa_decompose(x, window_len=32)
        back = ssa_reconstruct(model, [0, 1])
        r = np.corrcoef(back, clean)[0, 1]
        assert r >= 0.95

    def test_window_validation(self):
        x = sine(5.0, n=100)
        with pytest.raises(ValueError):
            ssa_decompose(x, window_len=1)
        with pytest.raises(ValueError):
            ssa_decompose(x, window_len=51)

    def test_window_errors_are_typed(self):
        x = sine(5.0, n=100)
        with pytest.raises(InvalidSpecError, match="got L=51 for N=100"):
            ssa_decompose(x, window_len=51)
        with pytest.raises(TooShortError,
                           match="SSA needs at least 4 samples, got 3"):
            ssa_decompose(np.ones(3))
        assert ssa_decompose(np.arange(4.0)).window_len == 2

    def test_default_window(self):
        assert default_window(100) == 50
        assert default_window(10_000) == 128

    def test_reconstruct_index_validation(self):
        model = ssa_decompose(sine(5.0, n=128), window_len=16)
        with pytest.raises(ValueError):
            ssa_reconstruct(model, [model.n_components])


def trajectory_svd_components(x, window_len):
    """Reference elementary components from the SVD of the trajectory matrix."""
    traj = np.lib.stride_tricks.sliding_window_view(x, window_len).T
    u, s, vt = np.linalg.svd(traj, full_matrices=False)
    counts = np.convolve(np.ones(window_len), np.ones(traj.shape[1]))
    return s, [s[i] * np.convolve(u[:, i], vt[i]) / counts
               for i in range(len(s))]


class TestAgainstTrajectorySvd:
    @pytest.mark.parametrize("seed", range(5))
    def test_distinct_singular_values_agree_per_component(self, seed):
        x = rng_stream(seed, "ssa-vs-svd").normal(size=300)
        model = ssa_decompose(x, window_len=40)
        s, ref = trajectory_svd_components(x, 40)
        assert np.min(-np.diff(s)) > 1e-6 * s[0]  # no degenerate pair
        assert model.n_components == len(ref)
        assert np.allclose(model.singular_values, s, rtol=0, atol=1e-9 * s[0])
        for i, comp in enumerate(ref):
            assert np.max(np.abs(model.component(i) - comp)) < 1e-9

    def test_two_tone_group_agrees(self):
        # two tones have SSA rank 4; each sine pair is nearly degenerate, so
        # single components may rotate within it but the group sum may not
        t = np.arange(2048) / 256.0
        x = np.sin(2 * np.pi * 6.0 * t + 0.4) + 0.6 * np.sin(2 * np.pi * 11.0 * t)
        model = ssa_decompose(x)
        _, ref = trajectory_svd_components(x, model.window_len)
        assert model.n_components == 4
        back = ssa_reconstruct(model, range(4))
        assert np.max(np.abs(back - sum(ref[:4]))) < 1e-9

    def test_small_fluctuation_on_large_offset_kept(self):
        # the fluctuation's eigenvalues sit under the rounding noise of the
        # lag covariance; measured on the signal they still count
        x = 1000.0 + 1e-4 * rng_stream(3, "ssa-offset").normal(size=1024)
        model = ssa_decompose(x, window_len=64)
        assert model.n_components == 64
        back = ssa_reconstruct(model, range(model.n_components))
        assert np.max(np.abs(back - x)) < 1e-8 * 1000.0

    def test_all_zero_signal_has_no_components(self):
        model = ssa_decompose(np.zeros(64))
        assert model.n_components == 0
        assert np.array_equal(ssa_reconstruct(model, []), np.zeros(64))


class TestAmplitudeRange:
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_but_representable_amplitudes_reconstruct(self, scale):
        x = scale * rng_stream(4, "ssa-range").normal(size=512)
        model = ssa_decompose(x, window_len=32)
        back = ssa_reconstruct(model, range(model.n_components))
        assert model.n_components == 32
        assert np.max(np.abs(back - x)) < 1e-8 * np.max(np.abs(x))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_lag_covariance_out_of_range_raises(self, scale):
        x = scale * rng_stream(4, "ssa-range").normal(size=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(NumericDegeneracyError, match="float range"):
                ssa_decompose(x, window_len=32)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 600),
    window_frac=st.floats(0.0, 1.0),
    kind=st.sampled_from(["noise", "constant", "zero", "offset"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lag_cov_matches_blocked_sum(n, window_frac, kind, seed):
    length = 2 + round(window_frac * (n // 2 - 2))
    x = np.random.default_rng(seed).normal(size=n)
    if kind == "constant":
        x = np.full(n, x[0])
    elif kind == "zero":
        x = np.zeros(n)
    elif kind == "offset":
        x = 1000.0 + 1e-4 * x
    cov = _lag_cov(x, length)
    ref = sum(block.T @ block for block in _row_blocks(x, length))
    assert cov.shape == (length, length)
    assert np.array_equal(cov, cov.T)
    assert np.max(np.abs(cov - ref)) <= 1e-12 * np.max(np.abs(ref))


def leading_case(kind, n, scale, seed):
    t = np.arange(n)
    noise = np.random.default_rng(seed).normal(size=n)
    if kind == "sine":  # rank 2
        return np.sin(0.3 * t + seed)
    if kind == "two_tones":  # rank 4
        return np.sin(0.3 * t) + 0.5 * np.cos(0.71 * t + seed)
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, noise[0])
    if kind == "offset":
        return 1000.0 + 1e-4 * noise
    if kind == "near_tol":
        # components 4 and 5 at about twice the re-measure tolerance of
        # the largest: the squared amplitude ratio is 2e-10 times scale
        return (np.sin(0.3 * t) + np.cos(0.71 * t)
                + np.sqrt(2 * EIG_NOISE_TOL * scale) * np.sin(1.3 * t))
    return noise


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["noise", "sine", "two_tones", "zero", "constant",
                          "offset", "near_tol"]),
    n=st.integers(8, 600),
    window_frac=st.floats(0.0, 1.0),
    leading=st.integers(1, 8),
    scale=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="two_tones", n=2048, window_frac=1.0, leading=4, scale=1.0,
         seed=0)
@example(kind="sine", n=2048, window_frac=1.0, leading=4, scale=1.0, seed=0)
@example(kind="near_tol", n=512, window_frac=1.0, leading=5, scale=1.0,
         seed=0)
def test_leading_model_is_the_full_model_cut(kind, n, window_frac, leading,
                                             scale, seed):
    x = leading_case(kind, n, scale, seed)
    length = 2 + round(window_frac * (n // 2 - 2))
    full = ssa_decompose(x, length)
    cut = ssa_decompose(x, length, leading=leading)
    k = min(leading, full.n_components)
    assert cut.window_len == full.window_len and cut.samples is x
    assert cut.n_components == k
    assert (cut.singular_values.tobytes()
            == full.singular_values[:k].tobytes())
    assert (cut.eigenvectors.tobytes()
            == np.ascontiguousarray(full.eigenvectors[:, :k]).tobytes())
    for i in range(k):
        assert cut.component(i).tobytes() == full.component(i).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["noise", "sine", "zero", "constant", "offset"]),
    n=st.integers(4, 600),
    window_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(kind="noise", n=1000, window_frac=1.0, seed=0, data=None)
def test_component_range_is_the_whole_components_slice(kind, n, window_frac,
                                                       seed, data):
    x = leading_case(kind, n, 1.0, seed)
    length = 2 + round(window_frac * (n // 2 - 2))
    model = ssa_decompose(x, length)
    k = n - length + 1
    # both signal ends, both window ends, and a range anywhere
    edges = sorted({0, 1, length - 1, length, k - 1, k, n - 1, n})
    ranges = [(0, n), (0, 1), (n - 1, n), (n, n), (0, length),
              (length - 1, k), (k - 1, n), (1, n - 1)]
    if data is not None:
        start = data.draw(st.sampled_from(edges) | st.integers(0, n))
        stop = data.draw(st.sampled_from([e for e in edges if e >= start])
                         | st.integers(start, n))
        ranges.append((start, stop))
    for i in range(model.n_components):
        whole = model.component(i)
        for start, stop in ranges:
            part = model.component(i, start, stop)
            assert part.tobytes() == whole[start:stop].tobytes()


@pytest.mark.parametrize("start,stop", [(-1, 4), (5, 4), (0, 65)])
def test_component_range_outside_the_signal_refused(start, stop):
    model = ssa_decompose(sine(5.0, n=64))
    with pytest.raises(ValueError, match="is not in 0:64"):
        model.component(0, start, stop)


def test_leading_skips_the_tail_re_measure(monkeypatch):
    t = np.arange(2048)
    x = np.sin(0.3 * t) + 0.5 * np.cos(0.71 * t)
    full = ssa_decompose(x)

    def no_blocks(*args):
        raise AssertionError("the tail was re-measured")

    monkeypatch.setattr(ssa_module, "_row_blocks", no_blocks)
    cut = ssa_decompose(x, leading=4)
    assert cut.singular_values.tobytes() == full.singular_values[:4].tobytes()
    with pytest.raises(AssertionError, match="re-measured"):
        ssa_decompose(x)  # 124 of 128 eigenvalues are below the tolerance


@pytest.mark.parametrize("leading", [0, -1])
def test_leading_below_one_refused(leading):
    with pytest.raises(InvalidSpecError, match="leading must be >= 1"):
        ssa_decompose(sine(5.0), leading=leading)


_TOP_FOUR_SETUP = """
import numpy as np
from eegscrub.decompose import ssa_decompose, ssa_reconstruct

def top_four(samples):
    model = ssa_decompose(samples)
    return [ssa_reconstruct(model, [i]) for i in range(4)]

top_four(np.arange(2048.0) % 7)  # BLAS buffers are allocated on first use
x = np.sin(np.arange(153_600) * 0.1) + np.arange(153_600) % 5
"""


def test_ten_minute_decomposition_stays_small():
    assert peak_rise_mib(_TOP_FOUR_SETUP, "top_four(x)") < 64.0


_SSA_CCA_SETUP = """
import numpy as np
from eegscrub import Recording, Signal, rng_stream
from eegscrub.denoise import remove_muscle_ssa_cca

def recording(n, seed):
    rng = rng_stream(seed, "ssa-cca-rss")
    t = np.arange(n) / 256.0
    return Recording([Signal(np.sin(2 * np.pi * (6 + c) * t)
                             + 0.5 * rng.normal(size=n), 256.0)
                      for c in range(4)], ("TP9", "AF7", "AF8", "TP10"))

remove_muscle_ssa_cca(recording(2048, 0))  # BLAS buffers on first use
rec = recording(153_600, 1)
"""


def test_ten_minute_ssa_cca_stays_small():
    # ten minutes of 4 channels at 256 Hz: each 16 x N array of the 16
    # components or sources is about 19 MiB
    rise = peak_rise_mib(_SSA_CCA_SETUP, "remove_muscle_ssa_cca(rec)")
    assert rise < 100.0


def test_sixty_minute_ssa_cca_rises_by_four_inputs_at_most():
    # an hour of 4 channels at 256 Hz: 28.1 MiB of input samples
    setup = _SSA_CCA_SETUP.replace("recording(153_600, 1)",
                                   "recording(921_600, 1)")
    input_mib = 4 * 921_600 * 8 / 2**20
    rise = peak_rise_mib(setup, "remove_muscle_ssa_cca(rec)")
    assert rise <= 4 * input_mib + 32.0
