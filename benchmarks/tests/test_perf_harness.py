import statistics

import numpy as np
import pytest

import harness
import workloads
from eegscrub.core import Recording, Signal


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, med, q3 = harness.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert med == statistics.median(values)
    assert harness.spread(values) == pytest.approx((q3 - q1) / med)


def test_quartiles_of_one_and_two_values():
    assert harness.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert harness.spread([2.5]) == 0.0
    q1, med, q3 = harness.quartiles([1.0, 3.0])
    assert med == 2.0 and q1 <= med <= q3


def test_quartiles_reject_empty():
    with pytest.raises(ValueError):
        harness.quartiles([])


def test_timed_passes_runs_at_least_once():
    calls = []
    walls = harness.timed_passes(lambda: calls.append(1), 0.0)
    assert len(walls) == len(calls) == 1


def _rec(n, names=("a", "b")):
    return Recording(channels=tuple(Signal(samples=np.arange(n, dtype=float),
                                           fs=256.0) for _ in names),
                     channel_names=names)


def test_wrong_length_output_is_a_failed_operation():
    ops = harness.Ops()
    ref = _rec(600)
    with pytest.raises(harness.OpFailed):
        ops.run("denoise", lambda: _rec(599),
                lambda out: workloads.check_denoised(ref, out))
    assert ops.failures == {"denoise": "CheckFailed"}
    assert not ops.correct


def test_nan_output_is_a_failed_operation():
    ops = harness.Ops()
    row = {"n_seeds": 2, "median_gain_db": 0.0, "mix_roundtrip_max_db": 0.0,
           "median_out_snr_db": float("nan")}
    with pytest.raises(harness.OpFailed):
        ops.run("cell", lambda: [row],
                lambda rows: workloads.check_grid_rows(rows, 2, "dwt"))
    probs = np.full((3, 3), 1 / 3)
    probs[1, 2] = np.nan
    with pytest.raises(harness.OpFailed):
        ops.run("predict", lambda: probs,
                lambda p: workloads.check_probabilities(p, 3))
    assert set(ops.failures) == {"cell", "predict"}
    assert "median_out_snr_db is not finite" in ops.violations["cell"]


def test_raised_error_is_failed_but_not_incorrect():
    ops = harness.Ops()

    def diverge():
        raise RuntimeError("diverged")

    with pytest.raises(harness.OpFailed):
        ops.run("cell", diverge)
    ops.run("ok", lambda: 1)
    ops.run("ok", lambda: 1)  # a repeated pass counts the key once
    assert len(ops.attempted) == 2
    assert ops.failure_kinds() == {"RuntimeError": 1}
    assert ops.correct


def test_good_outputs_pass_their_checks():
    ref = _rec(600)
    assert workloads.check_denoised(ref, _rec(600)) == []
    assert workloads.check_same_recording(ref, _rec(600)) == []
    assert workloads.check_probabilities(np.full((4, 3), 1 / 3), 4) == []


def test_environment_record_has_versions_and_blas():
    env = harness.environment("/nonexistent")
    for key in ("python", "numpy", "scipy", "blas", "blas_version",
                "blas_threads", "nproc", "git_commit"):
        assert key in env
    assert env["git_commit"] == "unknown"
    assert env["nproc"] >= 1
