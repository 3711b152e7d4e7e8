import json
import os
import shutil
import subprocess
import sys

import numpy as np

import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_grid_cells_follow_the_seed():
    cells = workloads.grid_cells(5)
    assert len(cells) == 84
    assert workloads.grid_cells(5) == cells
    assert {c[3] for c in cells} == {(5, 6)}
    assert workloads.grid_cells(6) != cells


def test_recording_is_deterministic_per_seed():
    a = workloads.make_recording(3, duration_s=4.0)
    b = workloads.make_recording(3, duration_s=4.0)
    c = workloads.make_recording(4, duration_s=4.0)
    assert a.channel_names == ("TP9", "AF7", "AF8", "TP10")
    assert a.n_samples == 1024
    assert np.array_equal(a.to_array(), b.to_array())
    assert not np.array_equal(a.to_array(), c.to_array())


def test_planted_table_is_deterministic_per_seed():
    a = workloads.planted_table(1, n_rows=30, n_features=40)
    b = workloads.planted_table(1, n_rows=30, n_features=40)
    c = workloads.planted_table(2, n_rows=30, n_features=40)
    assert a.rows.shape == (30, 40)
    assert np.array_equal(a.rows, b.rows) and a.labels == b.labels
    assert not np.array_equal(a.rows, c.rows)
    assert sorted(set(a.labels)) == [0, 1, 2]


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in layers.PER_LAYER]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "benchmarks"),
                    tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
