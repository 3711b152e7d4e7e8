"""The three workloads: input generators, timed passes and output checks.

Every library call goes through a module attribute (``bench.run_bench``,
``dataset.save_raw_csv``, ...) so that the traced run's wrappers see it.
Checks hold for any correct implementation: they test invariants and
round trips within one run, never stored golden bytes.
"""

import contextlib
import math
import os
import time
from dataclasses import replace

import numpy as np

from eegscrub import bench, dataset, denoise, features, gru, noise
from eegscrub.core import Recording
from eegscrub.rng import rng_stream

from harness import OpFailed, peak_rss_mib

FS = 256.0

# The CLI's default leaderboard grid, with fewer seeds per cell.
GRID_METHODS = ("identity", "dwt", "emd_maf", "ssa_motion", "ssa_cca", "akf",
                "cascade_lms")
GRID_NOISES = ("kind=awgn", "kind=powerline", "kind=baseline_wander",
               "kind=emg_burst,duty=1")
GRID_SNRS_DB = (-5.0, 0.0, 5.0)
GRID_SEEDS = 2
GRID_N = 2048

# The README's CLI chain on a 10-minute 4-channel headband recording.
RECORDING_S = 600.0
RECORDING_CHANNELS = ("TP9", "AF7", "AF8", "TP10")
RECORDING_NOISE = "kind=emg_burst"
RECORDING_SNR_DB = 0.0
WINDOW_S, OVERLAP = 2.0, 0.5
SMALL_MODEL = dict(rows=240, hidden=16, epochs=2)

# The public emotion feature table's shape: 2132 rows x 2548 features.
TABLE_ROWS, TABLE_FEATURES, N_CLASSES = 2132, 2548, 3
TRAIN_HIDDEN, TRAIN_BATCH, TRAIN_EPOCHS = 64, 32, 3
VAL_ACC_FLOOR = 0.9  # chance is 1/3; the planted classes are well separated
PREDICT_CHECK_ROWS = 256


def _span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer else contextlib.nullcontext()


def _operation(tracer, op):
    return tracer.operation(op) if tracer else contextlib.nullcontext()


# -- input generators --------------------------------------------------------

def grid_cells(seed: int) -> list:
    """(method, noise, snr_db, seeds) for each cell of the grid."""
    seeds = tuple(range(seed, seed + GRID_SEEDS))
    return [(m, nz, snr, seeds) for m in GRID_METHODS for nz in GRID_NOISES
            for snr in GRID_SNRS_DB]


def make_recording(seed: int, duration_s: float = RECORDING_S) -> Recording:
    """Two-tone surrogate per channel plus EMG bursts mixed at 0 dB, as the
    CLI's ``simulate`` builds it."""
    n = int(round(duration_s * FS))
    spec = noise.NoiseSpec.from_text(RECORDING_NOISE)
    channels = []
    for c in range(len(RECORDING_CHANNELS)):
        clean = bench.make_clean(seed, n, FS, channel=c)
        contaminant = noise.gen_noise(
            noise.NoiseSpec(spec.kind, spec.params, seed=spec.seed + seed + c),
            n, FS)
        mixed, _ = noise.mix_at_snr(clean, contaminant, RECORDING_SNR_DB)
        channels.append(mixed)
    return Recording(channels=tuple(channels),
                     channel_names=RECORDING_CHANNELS)


def planted_table(seed: int, n_rows: int = TABLE_ROWS,
                  n_features: int = TABLE_FEATURES) -> features.FeatureMatrix:
    """Balanced 3-class table: a tenth of the columns carry a class offset,
    and columns span five decades of scale like band powers do."""
    rng = rng_stream(seed, "benchmarks:planted_table")
    labels = np.arange(n_rows) % N_CLASSES
    rng.shuffle(labels)
    informative = rng.uniform(size=n_features) < 0.1
    centroids = rng.normal(0.0, 1.0, (N_CLASSES, n_features)) * informative
    scales = 10.0 ** rng.uniform(-2.0, 3.0, n_features)
    rows = (centroids[labels] + rng.normal(0.0, 1.0, (n_rows, n_features)))
    return features.FeatureMatrix(
        rows=rows * scales,
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        labels=tuple(int(v) for v in labels),
    )


# -- output checks (each returns a list of problems) -------------------------

def check_grid_rows(rows, n_seeds: int, method: str) -> list:
    problems = []
    if len(rows) != 1:
        problems.append(f"expected 1 row, got {len(rows)}")
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{key} is not finite")
        if row["n_seeds"] != n_seeds:
            problems.append(f"n_seeds {row['n_seeds']} != {n_seeds}")
        if method == "identity" and abs(row["median_gain_db"]) > 1e-9:
            problems.append(f"identity gain {row['median_gain_db']} dB")
        if not row["mix_roundtrip_max_db"] < 1e-6:
            problems.append(
                f"mix round trip {row['mix_roundtrip_max_db']} dB")
    return problems


def check_same_recording(expected: Recording, got: Recording) -> list:
    if got.channel_names != expected.channel_names:
        return [f"channel names {got.channel_names}"]
    if got.fs != expected.fs:
        return [f"fs {got.fs} != {expected.fs}"]
    return [f"channel {name} differs" for name, a, b in
            zip(expected.channel_names, expected.channels, got.channels)
            if not np.array_equal(a.samples, b.samples)]


def check_denoised(reference: Recording, out: Recording) -> list:
    problems = []
    if out.n_channels != reference.n_channels:
        problems.append(f"{out.n_channels} channels")
    if out.n_samples != reference.n_samples:
        problems.append(f"length {out.n_samples} != {reference.n_samples}")
    if out.fs != reference.fs:
        problems.append(f"fs {out.fs} != {reference.fs}")
    if not all(np.all(np.isfinite(ch.samples)) for ch in out.channels):
        problems.append("non-finite samples")
    return problems


def check_feature_matrix(matrix, n_rows: int, n_features: int) -> list:
    problems = []
    if matrix.rows.shape != (n_rows, n_features):
        problems.append(f"shape {matrix.rows.shape}")
    if not np.all(np.isfinite(matrix.rows)):
        problems.append("non-finite features")
    return problems


def check_same_features(expected, got) -> list:
    problems = []
    if got.feature_names != expected.feature_names:
        problems.append("feature names differ")
    if got.labels != expected.labels:
        problems.append("labels differ")
    if not np.array_equal(got.rows, expected.rows):
        problems.append("values differ")
    return problems


def check_probabilities(probs, n_rows: int) -> list:
    probs = np.asarray(probs)
    problems = []
    if probs.shape != (n_rows, N_CLASSES):
        problems.append(f"shape {probs.shape}")
    elif not np.all(np.isfinite(probs)):
        problems.append("non-finite probabilities")
    elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
        problems.append("rows do not sum to 1")
    return problems


def check_history(history, floor: float | None) -> list:
    problems = []
    if not history:
        return ["empty history"]
    if not all(math.isfinite(h[k]) for h in history
               for k in ("train_loss", "val_loss")):
        problems.append("non-finite loss")
    if floor is not None and not history[-1]["val_acc"] >= floor:
        problems.append(f"val_acc {history[-1]['val_acc']} < {floor}")
    return problems


# -- workloads -----------------------------------------------------------------

class Workload:
    """``setup`` makes the inputs (it may be called several times);
    ``run_pass`` does one timed pass and returns its throughput."""

    name = ""
    unit = ""  # what ``throughput`` counts in this workload
    keeps_rss = False  # record peak RSS after each chain step

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rss_after = {}

    def failure_kinds_for_layers(self, ops) -> dict:
        return {}

    def _chain(self, ops, tracer, steps):
        """Run ``(key, fn, check)`` steps in order. ``fn(results)`` and
        ``check(output, results)`` see the outputs of earlier steps by key.
        A failed step stops the pass; the later steps count as failed too."""
        results = {}
        for i, (key, fn, check) in enumerate(steps):
            try:
                with _operation(tracer, f"{self.name}:{key}"):
                    results[key] = ops.run(
                        key, lambda: fn(results),
                        check and (lambda out: check(out, results)))
            except OpFailed:
                ops.not_run(k for k, _, _ in steps[i + 1:])
                return results
            finally:
                if self.keeps_rss:
                    self.rss_after.setdefault(key, peak_rss_mib())
        return results


class Grid(Workload):
    name = "grid"
    unit = "draws_per_s"

    def setup(self):
        self.cells = grid_cells(self.seed)
        self.first_rows = {}
        # one draw per method warms BLAS threads and lazily loaded code
        for method in GRID_METHODS:
            bench.run_bench([method], ["kind=awgn"], [0.0], [self.seed],
                            n=GRID_N, fs=FS)

    def failure_kinds_for_layers(self, ops) -> dict:
        return ops.failure_kinds()

    def run_pass(self, ops, tracer) -> float:
        t0 = time.perf_counter()
        draws = 0
        for method, nz, snr, seeds in self.cells:
            key = f"{method}|{nz}|{snr:g}"

            def cell():
                with _span(tracer, "bench.cell", method=method):
                    return bench.run_bench([method], [nz], [snr], seeds,
                                           n=GRID_N, fs=FS)["rows"]

            def check(rows):
                problems = check_grid_rows(rows, len(seeds), method)
                first = self.first_rows.setdefault(key, rows)
                if rows != first:
                    problems.append("rows differ from the first pass")
                return problems

            try:
                with _operation(tracer, f"grid:{key}"):
                    ops.run(key, cell, check)
            except OpFailed:
                continue
            draws += len(seeds)
        return draws / (time.perf_counter() - t0)


class RecordingChain(Workload):
    name = "recording"
    unit = "realtime_x"
    keeps_rss = True

    def setup(self):
        self.rec = make_recording(self.seed)
        table = planted_table(self.seed, SMALL_MODEL["rows"],
                              len(RECORDING_CHANNELS)
                              * features.FEATURES_PER_CHANNEL)
        mc = gru.ModelConfig.for_features(table.n_features, N_CLASSES,
                                          hidden_size=SMALL_MODEL["hidden"],
                                          seed=self.seed)
        tc = gru.TrainConfig(epochs=SMALL_MODEL["epochs"], seed=self.seed)
        model, _ = gru.train(table, mc, tc)
        self.model_path = os.path.join(self.workdir, "recording.eegmodel")
        gru.save_model(model, self.model_path)

    def run_pass(self, ops, tracer) -> float:
        raw = os.path.join(self.workdir, "recording.csv")
        feats = os.path.join(self.workdir, "recording-features.csv")
        rec = self.rec
        n_epochs = int((RECORDING_S - WINDOW_S) / (WINDOW_S * (1 - OVERLAP))) + 1
        n_feats = len(RECORDING_CHANNELS) * features.FEATURES_PER_CHANNEL
        t0 = time.perf_counter()
        self._chain(ops, tracer, [
            ("save_raw_csv", lambda r: dataset.save_raw_csv(rec, raw), None),
            ("load_raw_csv", lambda r: dataset.load_raw_csv(raw, fs=FS),
             lambda got, r: check_same_recording(rec, got)),
            ("remove_muscle_ssa_cca",
             lambda r: denoise.remove_muscle_ssa_cca(r["load_raw_csv"])[0],
             lambda out, r: check_denoised(rec, out)),
            ("build_feature_matrix",
             lambda r: features.build_feature_matrix(
                 r["remove_muscle_ssa_cca"], WINDOW_S, OVERLAP),
             lambda m, r: check_feature_matrix(m, n_epochs, n_feats)),
            ("save_feature_csv",
             lambda r: dataset.save_feature_csv(r["build_feature_matrix"],
                                                feats), None),
            ("load_feature_csv",
             lambda r: dataset.load_feature_csv(feats, require_label=False),
             lambda got, r: check_same_features(r["build_feature_matrix"],
                                                got)),
            ("load_model", lambda r: gru.load_model(self.model_path), None),
            ("predict_proba",
             lambda r: r["load_model"].predict_proba(
                 r["load_feature_csv"].rows),
             lambda p, r: check_probabilities(p, n_epochs)),
        ])
        return RECORDING_S / (time.perf_counter() - t0)


class Train(Workload):
    name = "train"
    unit = "train_rows_per_s"

    def setup(self):
        self.table = planted_table(self.seed)
        self.mc = gru.ModelConfig.for_features(TABLE_FEATURES, N_CLASSES,
                                               hidden_size=TRAIN_HIDDEN,
                                               seed=self.seed)
        self.tc = gru.TrainConfig(epochs=TRAIN_EPOCHS,
                                  batch_size=TRAIN_BATCH, seed=self.seed)
        vf = self.tc.val_fraction
        self.n_train = len(gru.stratified_split(
            self.table.labels, (1.0 - vf, vf, 0.0), seed=self.tc.seed)[0])
        self.train_s = None
        # one full-size epoch: the first training call in a process is about
        # a third slower, which would make 1-pass and 2-pass runs disagree
        gru.train(self.table, self.mc, replace(self.tc, epochs=1))

    def run_pass(self, ops, tracer) -> float:
        path = os.path.join(self.workdir, "table.csv")
        model_path = os.path.join(self.workdir, "table.eegmodel")
        table = self.table

        def train(r):
            t0 = time.perf_counter()
            out = gru.train(r["load_feature_csv"].features, self.mc, self.tc)
            self.train_s = time.perf_counter() - t0
            return out

        def same_predictions(loaded, r):
            x = table.rows[:PREDICT_CHECK_ROWS]
            before = r["train"][0].predict_proba(x)
            if not np.array_equal(loaded.predict_proba(x), before):
                return ["predict_proba changed across save/load"]
            return []

        self.train_s = None
        self._chain(ops, tracer, [
            ("save_feature_csv",
             lambda r: dataset.save_feature_csv(table, path), None),
            ("load_feature_csv", lambda r: dataset.load_feature_csv(path),
             lambda ds, r: check_same_features(table, ds.features)),
            ("train", train,
             lambda out, r: check_history(out[1], VAL_ACC_FLOOR)),
            ("train_linear_baseline",
             lambda r: gru.train_linear_baseline(
                 r["load_feature_csv"].features, self.tc, N_CLASSES),
             lambda out, r: check_history(out[1], None)),
            ("evaluate",
             lambda r: gru.evaluate(r["train"][0],
                                    r["load_feature_csv"].features),
             lambda ev, r: [] if 0.0 <= ev["accuracy"] <= 1.0
             else [f"accuracy {ev['accuracy']}"]),
            ("save_model",
             lambda r: gru.save_model(r["train"][0], model_path), None),
            ("load_model", lambda r: gru.load_model(model_path),
             same_predictions),
        ])
        if self.train_s is None:
            return 0.0
        return self.n_train * TRAIN_EPOCHS / self.train_s


WORKLOADS = {w.name: w for w in (Grid, RecordingChain, Train)}
