import numpy as np
import pytest

from eegscrub.bench import (
    leaderboard_csv_rows,
    make_blink_template,
    make_clean,
    run_bench,
)
from eegscrub.denoise import METHOD_IDS
from eegscrub.noise import NoiseSpec


class TestMakeClean:
    def test_deterministic_per_channel(self):
        a = make_clean(3, 512, 256.0, channel=0)
        b = make_clean(3, 512, 256.0, channel=0)
        other = make_clean(3, 512, 256.0, channel=1)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, other.samples)

    def test_band_limited(self):
        x = make_clean(0, 2048, 256.0, channel=0)
        spec = np.abs(np.fft.rfft(x.samples)) ** 2
        freqs = np.fft.rfftfreq(len(x), 1 / 256.0)
        assert spec[freqs > 16.0].sum() < 0.01 * spec.sum()


class TestRunBench:
    def small_grid(self):
        return run_bench(
            methods=["identity", "dwt"],
            noise_specs=["kind=awgn", "kind=powerline"],
            snrs_db=[-5.0, 0.0, 5.0],
            seeds=[0, 1, 2],
            n=1024,
        )

    def test_grid_row_count(self):
        result = self.small_grid()
        assert len(result["rows"]) == 12  # 2 methods x 2 noises x 3 SNRs

    def test_identity_control_near_zero_gain(self):
        result = self.small_grid()
        for row in result["rows"]:
            if row["method"] == "identity":
                assert abs(row["median_gain_db"]) < 1e-9

    def test_dwt_beats_identity_on_awgn(self):
        result = self.small_grid()
        gains = {
            (row["method"], row["target_snr_db"]): row["median_gain_db"]
            for row in result["rows"] if row["noise_kind"] == "awgn"
        }
        assert gains[("dwt", 0.0)] >= 5.0

    def test_mix_round_trip_within_tolerance(self):
        result = self.small_grid()
        for row in result["rows"]:
            assert row["mix_roundtrip_max_db"] < 1e-6

    def test_deterministic(self):
        a = self.small_grid()["rows"]
        b = self.small_grid()["rows"]
        assert a == b

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_bench(["nonsense"], ["kind=awgn"], [0.0], [0], n=512)

    def test_row_ordering_sorted(self):
        rows = self.small_grid()["rows"]
        keys = [(r["method"], r["noise_kind"], r["target_snr_db"])
                for r in rows]
        assert keys == sorted(keys)


class TestLeaderboardCsv:
    def test_header_and_size(self):
        result = run_bench(["identity"], ["kind=awgn"], [0.0], [0, 1],
                           n=512)
        rows = leaderboard_csv_rows(result)
        assert rows[0][0] == "method"
        assert len(rows) == 1 + len(result["rows"])


class TestBlinkTemplateShape:
    def test_raised_cosine(self):
        template = make_blink_template(NoiseSpec("blink", {}, seed=0), 256.0)
        x = template.samples
        assert x.min() >= 0.0
        assert x.max() == pytest.approx(1.0)
        assert x[0] == pytest.approx(0.0, abs=1e-12)
        assert len(x) == int(round(0.3 * 256.0))


class TestEveryMethod:
    def test_one_finite_row_per_cell(self):
        noises = ["kind=awgn", "kind=powerline"]
        snrs = [-5.0, 5.0]
        result = run_bench(METHOD_IDS, noises, snrs, [0, 1], n=1024)
        rows = result["rows"]
        cells = {(r["method"], r["noise_kind"], r["target_snr_db"])
                 for r in rows}
        assert len(rows) == len(cells) == len(METHOD_IDS) * 2 * 2
        assert {m for m, _, _ in cells} == set(METHOD_IDS)
        for row in rows:
            for key, value in row.items():
                if isinstance(value, float):
                    assert np.isfinite(value), (row["method"], key)


class TestCascadeLmsOnFullDutyEmg:
    def test_seed_zero_draw_converges(self):
        # the draw that made the default grid abort with DivergenceError
        result = run_bench(["cascade_lms"], ["kind=emg_burst,duty=1"],
                           [-5.0, 0.0, 5.0], [0])
        assert len(result["rows"]) == 3
        for row in result["rows"]:
            assert np.isfinite(row["median_out_snr_db"])
