import json
import warnings

import numpy as np
import pytest

from eegscrub import (
    FeatureMatrix,
    load_feature_csv,
    load_raw_csv,
    read_report,
    rng_stream,
    save_feature_csv,
)
from eegscrub.cli import _COMMANDS, build_parser, main
from eegscrub.denoise import METHOD_IDS
from eegscrub.gru import MODEL_MAGIC


def run(*argv):
    return main(list(argv))


@pytest.fixture
def raw_csv(tmp_path):
    path = tmp_path / "raw.csv"
    assert run("simulate", "--out", str(path), "--duration", "4",
               "--channels", "4", "--noise", "kind=awgn,seed=3",
               "--snr", "0", "--seed", "5") == 0
    return path


@pytest.fixture
def labeled_csv(tmp_path):
    rng = rng_stream(0, "cli-blobs")
    rows, labels = [], []
    for cls in range(3):
        center = np.zeros(24)
        center[cls * 8:(cls + 1) * 8] = 3.0
        for _ in range(20):
            rows.append(center + 0.4 * rng.normal(size=24))
            labels.append(cls)
    matrix = FeatureMatrix(
        rows=np.array(rows),
        feature_names=tuple(f"f{i}" for i in range(24)),
        labels=tuple(labels),
    )
    path = tmp_path / "features.csv"
    save_feature_csv(matrix, path)
    return path


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_unknown_flag(self, capsys):
        assert run("simulate", "--out", "x.csv", "--bogus") == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert run("denoise", "--in", str(tmp_path / "nope.csv"),
                   "--method", "dwt",
                   "--out", str(tmp_path / "out.csv")) == 2

    def test_clobber_guard(self, raw_csv, capsys):
        assert run("denoise", "--in", str(raw_csv), "--method", "dwt",
                   "--out", str(raw_csv)) == 1
        assert "refusing" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, target", [
        (("eval", "--features", "{feats}", "--model", "{model}",
          "--report", "{feats}"), "feats"),
        (("eval", "--features", "{feats}", "--model", "{model}",
          "--report", "{model}"), "model"),
        (("predict", "--features", "{feats}", "--model", "{model}",
          "--out", "{model}"), "model"),
        (("simulate", "--out", "{raw}", "--report", "{raw}"), "raw"),
        (("bench", "--methods", "identity", "--noises", "kind=awgn",
          "--snrs", "0", "--seeds", "1", "--n", "256", "--out", "{raw}",
          "--report", "{raw}"), "raw"),
        (("train", "--features", "{feats}", "--model", "{model}",
          "--history", "{model}", "--epochs", "1"), "model"),
    ], ids=["eval-report-features", "eval-report-model", "predict-out-model",
            "simulate-report-out", "bench-report-out",
            "train-history-model"])
    def test_output_path_taken_refused(self, tmp_path, labeled_csv, capsys,
                                       argv, target):
        paths = {"feats": labeled_csv, "model": tmp_path / "m.bin",
                 "raw": tmp_path / "x.csv"}
        paths["model"].write_bytes(b"model bytes")
        paths["raw"].write_bytes(b"raw bytes")
        before = paths[target].read_bytes()
        assert run(*(a.format(**paths) for a in argv)) == 1
        assert "refusing" in capsys.readouterr().err
        assert paths[target].read_bytes() == before

    def test_symlink_to_input_refused(self, raw_csv, tmp_path, capsys):
        link = tmp_path / "link.csv"
        link.symlink_to(raw_csv)
        before = raw_csv.read_bytes()
        assert run("denoise", "--in", str(raw_csv), "--method", "dwt",
                   "--out", str(link)) == 1
        assert "refusing" in capsys.readouterr().err
        assert raw_csv.read_bytes() == before

    def test_hard_link_to_input_refused(self, raw_csv, tmp_path, capsys):
        link = tmp_path / "hard.csv"
        link.hardlink_to(raw_csv)
        before = raw_csv.read_bytes()
        assert run("denoise", "--in", str(raw_csv), "--method", "dwt",
                   "--out", str(link)) == 1
        assert "refusing" in capsys.readouterr().err
        assert raw_csv.read_bytes() == before

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--grad-clip", "0"), ("--grad-clip", "-5"),
    ])
    def test_bad_train_config_data_error(self, tmp_path, labeled_csv, flag,
                                         value):
        model = tmp_path / "m.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), flag, value) == 2
        assert not model.exists()

    def test_empty_validation_split_data_error(self, tmp_path, labeled_csv,
                                               capsys):
        # 20 rows per class: val_fraction 0.02 leaves the validation empty
        model = tmp_path / "m.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--val-fraction", "0.02") == 2
        assert "val_fraction" in capsys.readouterr().err
        assert not model.exists()

    def test_command_table_names_every_subcommand(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        assert set(sub.choices) == set(_COMMANDS)

    def test_repeated_channel_names_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n" + "1.0,2.0\n" * 600, encoding="utf-8")
        assert run("denoise", "--in", str(path), "--method", "dwt",
                   "--out", str(tmp_path / "out.csv")) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'a'" in err

    def test_non_finite_feature_data_error(self, tmp_path, capsys):
        path = tmp_path / "feats.csv"
        path.write_text("a,b,label\n1.0,nan,NEUTRAL\n", encoding="utf-8")
        assert run("predict", "--features", str(path),
                   "--model", str(tmp_path / "m.bin"),
                   "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "row 2" in err and "'b'" in err

    def test_overflowing_amplitude_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        x = rng_stream(0, "cli-huge").normal(size=(1024, 2)) * [1.0, 1e100]
        path.write_text("a,b\n" + "".join(f"{p!r},{q!r}\n"
                                          for p, q in x.tolist()),
                        encoding="utf-8")
        out = tmp_path / "f.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("extract-features", "--in", str(path),
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "channel(s) b are not finite" in err and not caught
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert not out.exists()

    def test_corrupt_model_is_data_error(self, tmp_path, labeled_csv):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        assert run("eval", "--features", str(labeled_csv),
                   "--model", str(bad)) == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command, flag", [
        ("extract-features", "--window-s"), ("simulate", "--duration"),
    ])
    def test_non_finite_float_flag_usage_error(self, tmp_path, raw_csv,
                                               capsys, command, flag, value):
        out = tmp_path / "out.csv"
        inputs = ["--in", str(raw_csv)] if command == "extract-features" else []
        assert run(command, *inputs, "--out", str(out),
                   f"{flag}={value}") == 1
        err = capsys.readouterr().err
        assert f"{flag} must be finite, not {value}" in err
        assert "Traceback" not in err and not out.exists()

    def test_window_under_welch_minimum_named(self, tmp_path, raw_csv,
                                              capsys):
        out = tmp_path / "f.csv"
        assert run("extract-features", "--in", str(raw_csv), "--out",
                   str(out), "--window-s", "0.02") == 2
        err = capsys.readouterr().err
        assert ("window of 5 samples (0.02 s at 256.0 Hz) is too short "
                "(need >= 8)") in err
        assert "seg_len" not in err and not out.exists()

    @pytest.mark.parametrize("text, row", [
        ("a," + "1" * 140_002 + "\n1.0,2.0\n", 1),
        ("a,b\n1.0,2.0\n1.0," + "1" * 140_000 + "\n", 3),
    ], ids=["header", "data_row"])
    def test_cell_over_csv_field_limit_data_error(self, tmp_path, capsys,
                                                  text, row):
        path = tmp_path / "big.csv"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run("denoise", "--in", str(path), "--method", "identity",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{path}: row {row}: field larger than field limit" in err
        assert "Traceback" not in err and not out.exists()

    def test_unknown_frontal_channel_usage_error(self, raw_csv, tmp_path,
                                                 capsys):
        out = tmp_path / "out.csv"
        assert run("denoise", "--in", str(raw_csv), "--method",
                   "blink_template", "--frontal", "ch0,zz",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "--frontal" in err and "ch0, ch1, ch2, ch3" in err
        assert "'ch0,zz'" in err and not out.exists()

    def test_unparsable_snrs_usage_error(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        assert run("bench", "--snrs", "0,x", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "--snrs must be finite numbers, got '0,x'" in err
        assert not out.exists()

    def test_window_longer_than_recording_data_error(self, tmp_path, raw_csv,
                                                     capsys):
        out = tmp_path / "f.csv"
        assert run("extract-features", "--in", str(raw_csv), "--out",
                   str(out), "--window-s", "100") == 2
        err = capsys.readouterr().err
        assert "a 4 s recording holds no full 100 s window" in err
        assert not out.exists()
        assert not (tmp_path / "f.csv.report.json").exists()


    def test_ssa_on_three_samples_data_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n" + "1.0,2.0\n" * 3, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run("denoise", "--in", str(path), "--method", "ssa_motion",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "SSA needs at least 4 samples, got 3" in err
        assert "window_len" not in err and "Traceback" not in err
        assert not out.exists()

    def test_ssa_lag_covariance_overflow_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        wave = 1e200 * np.sin(np.arange(512) * 0.3)
        path.write_text("a,b\n" + "".join(f"{v!r},{-v!r}\n"
                                          for v in wave.tolist()),
                        encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run("denoise", "--in", str(path), "--method", "ssa_motion",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "lag covariance is out of float range" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_predict_ignores_labels(self, tmp_path, labeled_csv):
        model = tmp_path / "m.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--model-kind", "linear", "--epochs", "1") == 0
        feats = tmp_path / "happy.csv"
        feats.write_text(labeled_csv.read_text().replace(
            "NEGATIVE", "HAPPY"), encoding="utf-8")
        preds = tmp_path / "p.csv"
        assert run("predict", "--features", str(feats), "--model",
                   str(model), "--out", str(preds)) == 0
        assert len(preds.read_text().strip().split("\n")) == 61


class TestSimulate:
    def test_writes_csv_and_report(self, raw_csv):
        rec = load_raw_csv(raw_csv)
        assert rec.n_channels == 4
        report = read_report(str(raw_csv) + ".report.json")
        assert report["command"] == "simulate"
        assert report["config"]["seed"] == 5
        assert report["config"]["noise"].startswith("kind=awgn")
        mixes = report["results"]["mixes"]
        assert len(mixes) == 4
        for mix in mixes:
            assert abs(mix["achieved_snr_db"]) < 1e-6

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EEGSCRUB_SEED", "42")
        out = tmp_path / "env.csv"
        assert run("simulate", "--out", str(out), "--duration", "1",
                   "--channels", "1") == 0
        assert read_report(str(out) + ".report.json")["config"]["seed"] == 42


class TestDenoise:
    def test_writes_output_and_report(self, raw_csv, tmp_path):
        out = tmp_path / "clean.csv"
        before = raw_csv.read_bytes()
        assert run("denoise", "--in", str(raw_csv), "--method", "dwt",
                   "--out", str(out)) == 0
        assert raw_csv.read_bytes() == before  # input not mutated
        cleaned = load_raw_csv(out)
        assert cleaned.n_channels == 4
        report = read_report(str(out) + ".report.json")
        assert report["config"]["method"] == "dwt"
        assert report["config"]["levels"] == 3
        assert len(report["results"]["reports"]) == 4
        assert report["results"]["reports"][0]["method_id"] == "dwt"

    def test_ssa_cca_all_zero_input_unchanged(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("TP9,AF7,AF8,TP10\n" + "0.0,0.0,0.0,0.0\n" * 1024,
                        encoding="utf-8")
        out = tmp_path / "clean.csv"
        assert run("denoise", "--in", str(path), "--method", "ssa_cca",
                   "--out", str(out)) == 0
        assert np.array_equal(load_raw_csv(out).to_array(),
                              load_raw_csv(path).to_array())
        report = read_report(str(out) + ".report.json")
        assert report["results"]["reports"][0]["components_removed"] == []

    def test_multichannel_method(self, raw_csv, tmp_path):
        out = tmp_path / "clean.csv"
        assert run("denoise", "--in", str(raw_csv), "--method", "ssa_cca",
                   "--out", str(out)) == 0
        report = read_report(str(out) + ".report.json")
        assert report["results"]["reports"][0]["method_id"] == "ssa_cca"


class TestFeaturePipeline:
    def test_extract_train_eval_predict(self, raw_csv, tmp_path,
                                        labeled_csv, capsys):
        feats = tmp_path / "extracted.csv"
        assert run("extract-features", "--in", str(raw_csv), "--out",
                   str(feats), "--window-s", "1.0", "--label",
                   "NEUTRAL") == 0
        extracted = load_feature_csv(feats)
        assert set(extracted.features.labels) == {1}

        model = tmp_path / "model.bin"
        history = tmp_path / "history.csv"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--history", str(history), "--epochs", "6",
                   "--hidden", "8", "--seed", "3") == 0
        lines = history.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 7
        report = read_report(str(model) + ".report.json")
        assert report["config"]["train_config"]["epochs"] == 6
        assert report["config"]["model_kind"] == "gru"

        assert run("eval", "--features", str(labeled_csv), "--model",
                   str(model)) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        eval_report = read_report(
            str(model).replace(".bin", ".bin.eval-report.json"))
        assert len(eval_report["results"]["confusion_counts"]) == 3

        preds = tmp_path / "preds.csv"
        assert run("predict", "--features", str(labeled_csv), "--model",
                   str(model), "--out", str(preds)) == 0
        lines = preds.read_text().strip().split("\n")
        assert lines[0].startswith("row,label,class,p_NEGATIVE")
        assert len(lines) == 61

    def test_train_deterministic(self, tmp_path, labeled_csv):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for path in (a, b):
            assert run("train", "--features", str(labeled_csv), "--model",
                       str(path), "--epochs", "3", "--hidden", "8",
                       "--seed", "7") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_linear_model_kind(self, tmp_path, labeled_csv):
        model = tmp_path / "linear.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--model-kind", "linear", "--epochs",
                   "5") == 0
        report = read_report(str(model) + ".report.json")
        assert report["config"]["model_kind"] == "linear"


class TestBench:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "leaderboard.csv"
        assert run("bench", "--methods", "identity,dwt", "--noises",
                   "kind=awgn", "--snrs", "0", "--seeds", "2", "--n",
                   "1024", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("method,")
        assert len(lines) == 3  # header + 2 methods x 1 noise x 1 snr
        report = read_report(str(out) + ".report.json")
        assert report["config"]["n_seeds"] == 2
        assert len(report["results"]["rows"]) == 2

    def test_cascade_lms_on_full_duty_emg(self, tmp_path):
        out = tmp_path / "leaderboard.csv"
        assert run("bench", "--methods", "cascade_lms", "--noises",
                   "kind=emg_burst,duty=1", "--snrs", "0", "--seeds", "1",
                   "--out", str(out)) == 0

    def test_blink_template_on_blink_noise(self, tmp_path):
        # seed 0 draws no blink from the Poisson law; gen_noise places one
        out = tmp_path / "leaderboard.csv"
        assert run("bench", "--methods", "blink_template", "--noises",
                   "kind=blink", "--snrs", "0", "--seeds", "4", "--n",
                   "2048", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("method,")
        assert len(lines) == 2


class TestDenoiseEveryMethod:
    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_method(self, raw_csv, tmp_path, method):
        out = tmp_path / "clean.csv"
        assert run("denoise", "--in", str(raw_csv), "--method", method,
                   "--out", str(out)) == 0
        before, after = load_raw_csv(raw_csv), load_raw_csv(out)
        assert after.channel_names == before.channel_names
        assert after.n_samples == before.n_samples
        report = read_report(str(out) + ".report.json")
        assert report["config"]["method"] == method
        reports = report["results"]["reports"]
        assert reports
        assert all(r["method_id"] == method for r in reports)


_GRU_CONFIG = {"seq_len": 16, "feat_dim": 2, "hidden_size": 4,
               "n_classes": 3, "seed": 0}
_LINEAR_ARRAYS = [["w", [3, 24]], ["b", [3]]]

MALFORMED_HEADERS = {
    "missing_manifest": {"format_version": 1, "kind": "linear",
                         "config": {"n_classes": 3}},
    "missing_config": {"format_version": 1, "kind": "linear",
                       "manifest": _LINEAR_ARRAYS},
    "gru_empty_manifest": {"format_version": 1, "kind": "gru",
                           "config": _GRU_CONFIG, "manifest": []},
    "json_list": [1, "linear"],
    "bias_shape": {"format_version": 1, "kind": "linear",
                   "config": {"n_classes": 3},
                   "manifest": [["w", [3, 24]], ["b", [2]]]},
    "negative_shape": {"format_version": 1, "kind": "linear",
                       "config": {"n_classes": 3},
                       "manifest": [["w", [-3, 24]], ["b", [3]]]},
}


class TestMalformedModel:
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_data_error_not_traceback(self, tmp_path, labeled_csv, capsys,
                                      case):
        path = tmp_path / "model.bin"
        # enough float64 payload for every array the header names
        path.write_bytes(MODEL_MAGIC
                         + json.dumps(MALFORMED_HEADERS[case]).encode()
                         + b"\n" + bytes(8 * (3 * 24 + 3)))
        assert run("eval", "--features", str(labeled_csv),
                   "--model", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


class TestModelTableMismatch:
    @pytest.mark.parametrize("kind", ["gru", "linear"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_feature_count_named(self, tmp_path, labeled_csv, capsys, kind,
                                 command):
        model = tmp_path / "model.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--model-kind", kind, "--epochs", "1",
                   "--hidden", "4") == 0
        full = load_feature_csv(labeled_csv).features
        narrow = tmp_path / "narrow.csv"
        save_feature_csv(FeatureMatrix(rows=full.rows[:, :20],
                                       feature_names=full.feature_names[:20],
                                       labels=full.labels), narrow)
        out = ["--out", str(tmp_path / "preds.csv")] * (command == "predict")
        assert run(command, "--features", str(narrow), "--model",
                   str(model), *out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "20 features" in err and "trained on 24" in err
