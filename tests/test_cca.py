import numpy as np
import pytest

from eegscrub import rng_stream
from eegscrub.decompose import cca
from eegscrub.errors import EegScrubError, TooShortError


def random_views(seed, name, n=512, n_ch=2):
    rng = rng_stream(seed, name)
    return np.array([rng.normal(size=n) for _ in range(n_ch)])


class TestCca:
    def test_identical_recordings(self):
        x = random_views(0, "cca-ident")
        result = cca(x, x)
        assert np.allclose(result.correlations, 1.0, atol=1e-6)

    def test_independent_noise_low_correlation(self):
        x = random_views(1, "cca-x", n=10_000)
        y = random_views(1, "cca-y", n=10_000)
        result = cca(x, y)
        assert np.all(result.correlations < 0.1)

    def test_channel_permutation_keeps_unit_correlation(self):
        x = random_views(2, "cca-perm")
        y = x[::-1]
        result = cca(x, y)
        assert np.allclose(result.correlations, 1.0, atol=1e-6)

    def test_correlations_sorted_and_bounded(self):
        rng = rng_stream(3, "cca-mix")
        base = rng.normal(size=600)
        x = np.array([base + 0.5 * rng.normal(size=600),
                      rng.normal(size=600)])
        y = np.array([base + 0.5 * rng.normal(size=600),
                      rng.normal(size=600)])
        result = cca(x, y)
        c = result.correlations
        assert np.all(np.diff(c) <= 1e-12)
        assert np.all((c >= -1e-9) & (c <= 1.0 + 1e-9))

    def test_scale_invariance(self):
        x = random_views(4, "cca-scale-x")
        y = random_views(4, "cca-scale-y")
        base = cca(x, y).correlations
        scaled = np.array([3.7 * x[0], x[1]])
        assert np.allclose(cca(scaled, y).correlations, base, atol=1e-6)

    def test_sources_shape(self):
        x = random_views(5, "cca-src", n=300)
        result = cca(x, x)
        assert result.sources.shape == (2, 300)

    def test_sources_shape_is_pairs_by_samples(self):
        x = random_views(5, "cca-src-x", n=300, n_ch=3)
        y = random_views(5, "cca-src-y", n=300, n_ch=2)
        result = cca(x, y)
        assert result.sources.shape == (2, 300)
        assert result.wx.shape == (2, 3)
        assert result.wy.shape == (2, 2)

    def test_length_mismatch(self):
        x = random_views(6, "cca-len-x", n=128)
        y = random_views(6, "cca-len-y", n=130)
        with pytest.raises(ValueError):
            cca(x, y)

    def test_too_few_samples(self):
        x = random_views(7, "cca-short", n=2, n_ch=2)
        with pytest.raises(TooShortError):
            cca(x, x)

    @pytest.mark.parametrize("shape", [(300,), (2, 3, 100)])
    def test_rejects_non_2d(self, shape):
        good = random_views(8, "cca-ndim", n=300)
        bad = np.zeros(shape)
        with pytest.raises(ValueError, match="2-D"):
            cca(bad, good)
        with pytest.raises(ValueError, match="2-D"):
            cca(good, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_typed(self, value):
        good = random_views(9, "cca-finite", n=300)
        bad = good.copy()
        bad[1, 17] = value
        with pytest.raises(EegScrubError, match="non-finite"):
            cca(bad, good)
        with pytest.raises(EegScrubError, match="non-finite"):
            cca(good, bad)

    def test_inputs_unchanged(self):
        x = random_views(10, "cca-keep-x", n=400, n_ch=3)
        y = random_views(10, "cca-keep-y", n=400, n_ch=3) + 5.0
        x_bytes, y_bytes = x.tobytes(), y.tobytes()
        cca(x, y)
        assert x.tobytes() == x_bytes
        assert y.tobytes() == y_bytes
