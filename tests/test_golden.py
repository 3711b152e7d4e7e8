"""Golden pins for the outputs that stay bit-exact across refactors.

Each pin is the first 16 hex digits of a sha256: of the bench rows of a
small grid, whole and per method (so a change shows which method moved), of
the saved GRU and linear model bytes for a fixed table, and of the feature
CSV the README's command chain writes. A change that moves one of them
changes what users get for the same seed, and must say so.
"""

import hashlib
import json

import numpy as np
import pytest

from eegscrub import cli
from eegscrub.bench import run_bench
from eegscrub.features import FeatureMatrix
from eegscrub.gru import (ModelConfig, TrainConfig, save_model, train,
                          train_linear_baseline)
from eegscrub.rng import rng_stream

GRID_METHODS = ("identity", "dwt", "emd_maf", "ssa_motion", "ssa_cca", "akf",
                "cascade_lms")
GRID_NOISES = ("kind=awgn", "kind=powerline", "kind=baseline_wander",
               "kind=emg_burst,duty=1")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def model_table() -> FeatureMatrix:
    """80 rows per class; class c lifts features 10c..10c+9 by 1.5."""
    rng = rng_stream(0, "ident")
    rows, labels = [], []
    for c in range(3):
        center = np.zeros(40)
        center[10 * c:10 * c + 10] = 1.5
        for _ in range(80):
            rows.append(center + rng.normal(size=40))
            labels.append(c)
    return FeatureMatrix(np.array(rows), tuple(f"f{i}" for i in range(40)),
                         tuple(labels))


@pytest.fixture(scope="module")
def bench_rows():
    return run_bench(GRID_METHODS, GRID_NOISES, [-5, 0, 5], [0, 1],
                     n=2048)["rows"]


def test_bench_rows_pinned(bench_rows):
    assert digest(json.dumps(bench_rows, sort_keys=True).encode()) \
        == "46faa3fd0b2f83d9"


@pytest.mark.parametrize("method,pin", [
    ("identity", "442f9c381e942a9e"),
    ("dwt", "04bc24ad54e18ffc"),
    ("emd_maf", "63afbe9014e1b010"),
    ("ssa_motion", "b4df8a3bd69f33f5"),
    ("ssa_cca", "341ec467bf214fbb"),
    ("akf", "42b35243cd59273c"),
    ("cascade_lms", "c035ec8735a4735f"),
])
def test_bench_rows_pinned_per_method(bench_rows, method, pin):
    rows = [row for row in bench_rows if row["method"] == method]
    assert digest(json.dumps(rows, sort_keys=True).encode()) == pin


@pytest.mark.parametrize("kind,pin", [("gru", "dc99586e20beeb6b"),
                                      ("linear", "3d8c1660109e726a")])
def test_model_bytes_pinned(tmp_path, kind, pin):
    table = model_table()
    tc = TrainConfig(epochs=5, seed=1)
    if kind == "gru":
        mc = ModelConfig.for_features(40, 3, hidden_size=16, seed=1)
        model, _ = train(table, mc, tc)
    else:
        model, _ = train_linear_baseline(table, tc)
    path = tmp_path / "m.eegmodel"
    save_model(model, path)
    assert digest(path.read_bytes()) == pin


def test_readme_chain_features_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("EEGSCRUB_SEED", raising=False)
    raw, clean, feats = (str(tmp_path / n)
                         for n in ("raw.csv", "clean.csv", "feats.csv"))
    for argv in (["simulate", "--out", raw, "--duration", "8",
                  "--noise", "kind=emg_burst,duty=0.5", "--snr", "0"],
                 ["denoise", "--in", raw, "--method", "ssa_cca",
                  "--out", clean],
                 ["extract-features", "--in", clean, "--out", feats,
                  "--label", "NEUTRAL"]):
        assert cli.main(argv) == 0
    with open(feats, "rb") as fh:
        assert digest(fh.read()) == "23754eb6737c5ae5"
