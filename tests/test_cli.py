import json
import math
import re
import shlex
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from eegscrub import (
    CLASS_NAMES,
    FeatureMatrix,
    load_feature_csv,
    load_raw_csv,
    read_report,
    rng_stream,
    save_feature_csv,
)
from eegscrub.cli import build_parser, main
from eegscrub.denoise import METHOD_IDS, METHODS
from eegscrub.core import NormStats
from eegscrub.errors import DataFormatError
from eegscrub.gru import (MODEL_MAGIC, LinearModel, ModelConfig, TrainConfig,
                          init_gru, load_model, save_model)


def run(*argv):
    return main(list(argv))


def train_one_epoch(features, model, kind: str) -> int:
    """``train`` for 1 epoch; a GRU gets 4 hidden units."""
    hidden = ["--hidden", "4"] * (kind == "gru")
    return run("train", "--features", str(features), "--model", str(model),
               "--model-kind", kind, "--epochs", "1", *hidden)


def subparsers() -> dict:
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices


def declared_files(name: str) -> tuple:
    """Dests of the flags naming the files a subcommand reads, then writes."""
    command = subparsers()[name].get_default("run")
    return command.reads + command.writes


DECLARED_FILES = [(name, dest) for name in subparsers()
                  for dest in declared_files(name)]


def documented_commands() -> list:
    """The arguments of every `eegscrub ...` line in the README's bash
    blocks and in demos/07_cli_pipeline.sh, continuations joined."""
    root = Path(__file__).resolve().parent.parent
    texts = re.findall(r"```bash\n(.*?)```", flags=re.S,
                       string=(root / "README.md").read_text(encoding="utf-8"))
    texts.append((root / "demos" / "07_cli_pipeline.sh").read_text(
        encoding="utf-8"))
    return [shlex.split(line)[1:] for text in texts
            for line in text.replace("\\\n", " ").splitlines()
            if line.lstrip().startswith("eegscrub ")]


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

    @pytest.mark.parametrize("command, dest", DECLARED_FILES,
                             ids=[f"{c}-{d}" for c, d in DECLARED_FILES])
    def test_report_on_a_declared_file_refused(self, tmp_path, capsys,
                                               command, dest):
        sub = subparsers()[command]
        flags = {a.dest: a.option_strings[0] for a in sub._actions}
        reads = sub.get_default("run").reads
        argv = [command] + ["--method", "identity"] * (command == "denoise")
        for d in declared_files(command):
            path = tmp_path / f"{d}.file"
            if d in reads:
                path.write_bytes(b"input bytes")
            argv += [flags[d], str(path)]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run(*argv, "--report", str(tmp_path / f"{dest}.file")) == 1
        kind = "input" if dest in reads else "output"
        assert f"refusing to overwrite {kind} file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_every_documented_command_parses(self):
        commands = documented_commands()
        # every subcommand is shown, so a missed block cannot pass unseen
        assert {argv[0] for argv in commands} == set(subparsers())
        for argv in commands:
            build_parser().parse_args(argv)

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

    @pytest.mark.parametrize("scale", [1e307, 1e200])
    def test_overflowing_z_score_data_error(self, tmp_path, labeled_csv,
                                            capsys, scale):
        # x1e307 overflowed to a NaN model; x1e200 z-scored the column to 0
        data = load_feature_csv(labeled_csv).features
        rows = data.rows.copy()
        rows[:, 5] *= scale
        feats = tmp_path / "huge.csv"
        save_feature_csv(FeatureMatrix(rows, data.feature_names, data.labels),
                         feats)
        model = tmp_path / "m.bin"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("train", "--features", str(feats), "--model",
                       str(model)) == 2
        err = capsys.readouterr().err
        assert "'f5'" in err and "z-score" in err and not caught
        assert not model.exists()

    @pytest.mark.parametrize("kind", ["gru", "linear"])
    def test_diverging_training_data_error(self, tmp_path, labeled_csv,
                                           capsys, kind):
        model = tmp_path / "m.bin"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("train", "--features", str(labeled_csv), "--model",
                       str(model), "--model-kind", kind, "--lr",
                       "1e308") == 2
        err = capsys.readouterr().err
        assert "diverged in epoch 0" in err and "1e+308" in err
        assert not caught and not model.exists()

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

    @pytest.mark.parametrize("data", [b"a,b\n1,2\n3,\xe94\n",
                                      b"a,\xe9\n1,2\n"],
                             ids=["data_row", "header"])
    def test_csv_not_utf8_data_error(self, tmp_path, capsys, data):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        out = tmp_path / "out.csv"
        assert run("denoise", "--in", str(path), "--method", "identity",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")
        assert "Traceback" not in err and not out.exists()

    def test_unreadable_noise_seed_data_error(self, tmp_path, capsys):
        out = tmp_path / "raw.csv"
        assert run("simulate", "--out", str(out),
                   "--noise", "kind=awgn,seed=1.5") == 2
        err = capsys.readouterr().err
        assert ("seed must be an integer, got 'seed=1.5' in "
                "'kind=awgn,seed=1.5'") in err
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

    def test_even_ma_width_refused_on_clean_recording(self, tmp_path,
                                                    capsys):
        raw, out = tmp_path / "clean8.csv", tmp_path / "out.csv"
        assert run("simulate", "--out", str(raw), "--duration", "8") == 0
        assert run("denoise", "--in", str(raw), "--method", "emd_maf",
                   "--ma-width", "4", "--out", str(out)) == 2
        assert "odd positive integer, got 4" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "out.csv.report.json").exists()

    @pytest.mark.parametrize("noise", [None, "kind=emg_burst,duty=1,seed=3"])
    def test_ma_width_over_length_data_error(self, tmp_path, capsys, noise):
        # a clean recording has no IMF to smooth, a noisy one does; both
        # are refused before EMD
        raw, out = tmp_path / "short.csv", tmp_path / "out.csv"
        noise_args = ("--noise", noise) if noise else ()
        assert run("simulate", "--out", str(raw), "--duration", "1",
                   *noise_args) == 0
        assert run("denoise", "--in", str(raw), "--method", "emd_maf",
                   "--ma-width", "999", "--out", str(out)) == 2
        assert ("ma_width 999 exceeds the signal length 256"
                in capsys.readouterr().err)
        assert not out.exists()
        assert not (tmp_path / "out.csv.report.json").exists()

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

    @pytest.mark.parametrize("duration, fs, message", [
        ("0.001", "256", "--duration 0.001 at --fs 256 gives 0.256 samples"),
        ("-1", "256", "--duration -1 at --fs 256 gives -256 samples"),
        ("0.5", "1", "--duration 0.5 at --fs 1 gives 0.5 samples"),
        ("1e308", "256", "--duration 1e+308 at --fs 256 gives inf samples"),
    ])
    def test_no_samples_data_error(self, tmp_path, capsys, duration, fs,
                                   message):
        assert run("simulate", "--out", str(tmp_path / "raw.csv"),
                   f"--duration={duration}", "--fs", fs) == 2
        assert capsys.readouterr().err == (
            f"error: {message}, need a finite count >= 1\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("noise, snr, message", [
        ("kind=awgn", "4000", "SNR 4000 dB needs a noise scale out"),
        ("kind=awgn", "-4000", "SNR -4000 dB needs a noise scale out"),
        ("kind=powerline,amp=1e200", "0", "amp=1e+200 outside [0.0, 1e+150]"),
        ("kind=awgn,sigma=1e-200", "0", "and noise (0) must be positive"),
        ("kind=emg_burst,sigma=1e308", "0",
         "sigma=1e+308 outside [0.0, 1e+150]"),
    ])
    def test_out_of_range_noise_or_snr_data_error(self, tmp_path, capsys,
                                                  noise, snr, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--out", str(tmp_path / "raw.csv"),
                       "--noise", noise, f"--snr={snr}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("kind", ["awgn", "emg_burst", "baseline_wander",
                                      "blink"])
    def test_drawn_reference_refused(self, raw_csv, tmp_path, capsys, kind):
        # a drawn reference is independent of the recording's contaminant;
        # a powerline one, given after it, does not rescue the run
        out = tmp_path / "clean.csv"
        assert run("denoise", "--in", str(raw_csv), "--method", "cascade_lms",
                   "--out", str(out), "--ref-noise", f"kind={kind},seed=2",
                   "--ref-noise", "kind=powerline") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --ref-noise kind={kind} is drawn at "
                              "random"), err
        assert "only powerline references" in err
        assert not out.exists()
        assert not Path(str(out) + ".report.json").exists()

    def test_powerline_references_run(self, raw_csv, tmp_path):
        out = tmp_path / "clean.csv"
        assert run("denoise", "--in", str(raw_csv), "--method", "cascade_lms",
                   "--out", str(out), "--ref-noise", "kind=powerline",
                   "--ref-noise", "kind=powerline,freq=60,seed=1") == 0
        report = read_report(str(out) + ".report.json")
        assert all(len(r["decisions"]["energy_reduction_db"]) == 2
                   for r in report["results"]["reports"])

    @pytest.mark.parametrize("method, dest, value", [
        ("blink_template", "frontal", "ch0,ch1"),
        ("cascade_lms", "ref_noise", ["kind=powerline"])])
    def test_default_inputs_reported(self, raw_csv, tmp_path, method, dest,
                                     value):
        # the report names the input a method ran with, not a null
        out = tmp_path / "clean.csv"
        assert run("denoise", "--in", str(raw_csv), "--method", method,
                   "--out", str(out)) == 0
        assert read_report(str(out) + ".report.json")["config"][dest] == value


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
        # the linear loop never clips, so its report names no clip bound
        want = asdict(TrainConfig(epochs=5, seed=0))
        del want["grad_clip"]
        assert report["config"]["train_config"] == want

    def test_every_train_config_field_is_settable(self, tmp_path,
                                                  labeled_csv):
        # a TrainConfig field no flag can move is a setting no one can set
        model = tmp_path / "model.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--hidden", "4", "--epochs", "2",
                   "--batch-size", "8", "--lr", "0.01", "--grad-clip", "1.5",
                   "--val-fraction", "0.25", "--seed", "9") == 0
        got = read_report(str(model) + ".report.json")["config"]["train_config"]
        default = asdict(TrainConfig())
        assert set(got) == set(default)
        assert [k for k in default if got[k] == default[k]] == []


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

    @pytest.mark.parametrize("form", [["--snrs", "-5,0,5"],
                                      ["--snrs=-5,0,5"]])
    def test_negative_snrs_value(self, tmp_path, form):
        out = tmp_path / "leaderboard.csv"
        assert run("bench", "--methods", "identity", "--noises", "kind=awgn",
                   *form, "--seeds", "1", "--n", "256",
                   "--out", str(out)) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert [row.split(",")[2] for row in rows] == ["-5.0", "0.0", "5.0"]

    def test_snrs_without_value_usage_error(self, tmp_path, capsys):
        out = tmp_path / "leaderboard.csv"
        assert run("bench", "--snrs", "--seeds", "2", "--out", str(out)) == 1
        assert "--snrs: expected one argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--noises=", "need at least one method, noise spec, SNR and seed"),
        ("--snrs=", "need at least one method, noise spec, SNR and seed"),
        ("--fs=0", "sampling rate must be positive, got 0.0"),
    ], ids=["noises", "snrs", "fs"])
    def test_empty_grid_data_error(self, tmp_path, capsys, flag, message):
        out = tmp_path / "leaderboard.csv"
        assert run("bench", "--methods", "identity", "--seeds", "1", "--n",
                   "256", flag, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("snr, message", [
        ("4000", "SNR 4000 dB needs a noise scale out"),
        ("-4000", "SNR -4000 dB needs a noise scale out"),
        ("3000", "SNR 3000 dB rounds the noise away"),
    ])
    def test_out_of_range_snr_data_error(self, tmp_path, capsys, snr,
                                         message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("bench", "--out", str(tmp_path / "lb.csv"),
                       "--methods", "identity", "--noises", "kind=awgn",
                       f"--snrs={snr}", "--seeds", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err
        assert list(tmp_path.iterdir()) == []

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
        # the config names only the parameters this method ran with
        extra = {"references": {"ref_noise"},
                 "template": {"template_width", "frontal"}}
        want = ({"in", "out", "method", "fs", "seed"}
                | {p.name for p in METHODS[method].params}
                | extra.get(METHODS[method].needs, set()))
        assert set(report["config"]) == want


# a value for each method's flag, by dest, as the report prints it; the
# flags of a method's inputs besides the signal, by MethodSpec.needs
FLAG_VALUES = {"levels": "9", "mode": "hard", "ma_width": "7",
               "window_len": "32", "var_thresh": "0.2",
               "autocorr_thresh": "0.5", "q": "0.0001", "r0": "2.0",
               "adapt_window": "32", "mu": "0.01", "taps": "8",
               "peak_thresh": "0.5", "ref_noise": "kind=powerline",
               "template_width": "0.2", "frontal": "ch0,ch1"}
INPUT_FLAGS = {"references": {"ref_noise"},
               "template": {"template_width", "frontal"}}


def own_flags(method: str) -> set:
    spec = METHODS[method]
    return ({p.name for p in spec.params}
            | INPUT_FLAGS.get(spec.needs, set()))


class TestForeignFlags:
    def test_every_flag_has_a_value(self):
        assert set(FLAG_VALUES) == set().union(*map(own_flags, METHOD_IDS))

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_usage_error_naming_flag_and_method(self, raw_csv, tmp_path,
                                                capsys, method):
        out = tmp_path / "clean.csv"
        foreign = sorted(set(FLAG_VALUES) - own_flags(method))
        assert foreign
        for dest in foreign:
            flag = "--" + dest.replace("_", "-")
            assert run("denoise", "--in", str(raw_csv), "--method", method,
                       "--out", str(out), flag, FLAG_VALUES[dest]) == 1, flag
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: {flag} does not apply to --method {method}\n"), err
            assert not out.exists()
            assert not Path(str(out) + ".report.json").exists()

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_own_flags_run_and_are_reported(self, raw_csv, tmp_path, method):
        out = tmp_path / "clean.csv"
        argv = [arg for dest in sorted(own_flags(method))
                for arg in ("--" + dest.replace("_", "-"), FLAG_VALUES[dest])]
        assert run("denoise", "--in", str(raw_csv), "--method", method,
                   "--out", str(out), *argv) == 0
        config = read_report(str(out) + ".report.json")["config"]
        reported = {dest: config[dest] for dest in own_flags(method)}
        if "ref_noise" in reported:  # the list of repeated flags
            (reported["ref_noise"],) = reported["ref_noise"]
        assert {dest: str(value) for dest, value in reported.items()} == {
            dest: FLAG_VALUES[dest] for dest in own_flags(method)}


class TestGruOnlyFlags:
    @pytest.mark.parametrize("flag, value", [("--hidden", "7"),
                                             ("--grad-clip", "0.5")])
    def test_usage_error_naming_flag_and_model_kind(self, tmp_path,
                                                    labeled_csv, capsys,
                                                    flag, value):
        model = tmp_path / "linear.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--model-kind", "linear", "--epochs", "1",
                   flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {flag} does not apply to --model-kind linear\n"), err
        assert set(tmp_path.iterdir()) == {labeled_csv}

    def test_gru_report_names_both_flags(self, tmp_path, labeled_csv):
        model = tmp_path / "gru.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--epochs", "1", "--hidden", "7",
                   "--grad-clip", "0.5") == 0
        config = read_report(str(model) + ".report.json")["config"]
        assert config["model_config"] == asdict(
            ModelConfig.for_features(24, 3, hidden_size=7, seed=0))
        assert config["train_config"] == asdict(
            TrainConfig(epochs=1, grad_clip=0.5, seed=0))

    def test_gru_defaults_unchanged(self, tmp_path, labeled_csv):
        model = tmp_path / "gru.bin"
        assert run("train", "--features", str(labeled_csv), "--model",
                   str(model), "--epochs", "1") == 0
        config = read_report(str(model) + ".report.json")["config"]
        assert config["model_config"]["hidden_size"] == 64
        assert config["train_config"] == asdict(TrainConfig(epochs=1, seed=0))


class TestSubcommandUsage:
    # a usage error prints the usage line of the command it concerns
    @pytest.mark.parametrize("argv, command", [
        (["denoise", "--in", "x.csv", "--out", "y.csv", "--method", "akf",
          "--levels", "9"], "denoise"),
        (["train", "--features", "x.csv", "--model", "m.bin",
          "--model-kind", "linear", "--hidden", "7"], "train"),
        (["simulate", "--duration", "1"], "simulate"),  # no --out
        (["predict", "--features", "x.csv", "--model", "m.bin", "--out",
          "p.csv", "--lr", "1"], "predict"),  # another command's flag
    ])
    def test_subcommand_usage_line(self, capsys, argv, command):
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ")
        assert err[1].startswith(f"usage: eegscrub {command} [-h]"), err

    @pytest.mark.parametrize("argv", [[], ["frobnicate"]])
    def test_root_usage_line_without_a_subcommand(self, capsys, argv):
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[1].startswith("usage: eegscrub [-h] [--seed SEED]"), err


class TestClassCount:
    # eval and predict name a model's outputs by CLASS_NAMES
    @pytest.mark.parametrize("kind", ["gru", "linear"])
    @pytest.mark.parametrize("n_classes", [2, 4])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_refused_before_any_output(self, tmp_path, labeled_csv, capsys,
                                       kind, n_classes, command):
        model = tmp_path / "model.bin"
        if kind == "gru":
            save_model(init_gru(ModelConfig.for_features(
                24, n_classes, hidden_size=4, seed=0)), model)
        else:
            save_model(LinearModel(n_classes=n_classes,
                                   w=np.zeros((n_classes, 24)),
                                   b=np.zeros(n_classes)), model)
        preds = tmp_path / "preds.csv"
        out = ["--out", str(preds)] * (command == "predict")
        assert run(command, "--features", str(labeled_csv), "--model",
                   str(model), *out) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            f"error: {model}: the model has {n_classes} classes")
        assert ", ".join(CLASS_NAMES) in captured.err
        assert set(tmp_path.iterdir()) == {model, labeled_csv}


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
    # shapes whose byte count overflows int64, or wraps to 0 in it
    "int64_overflow_shape": {"format_version": 1, "kind": "linear",
                             "config": {"n_classes": 3},
                             "manifest": [["w", [2**31, 2**31]], ["b", [3]]]},
    "beyond_int64_shape": {"format_version": 1, "kind": "linear",
                           "config": {"n_classes": 3},
                           "manifest": [["w", [10**30]], ["b", [3]]]},
    "wrapping_shape": {"format_version": 1, "kind": "linear",
                       "config": {"n_classes": 3},
                       "manifest": [["w", [2**40, 2**40]], ["b", [3]]]},
}


def write_malformed(path: Path, case: str) -> None:
    # enough float64 payload for a linear model's arrays
    path.write_bytes(MODEL_MAGIC + json.dumps(MALFORMED_HEADERS[case]).encode()
                     + b"\n" + bytes(8 * (3 * 24 + 3)))


class TestMalformedModel:
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_data_error_not_traceback(self, tmp_path, labeled_csv, capsys,
                                      case):
        path = tmp_path / "model.bin"
        write_malformed(path, case)
        assert run("eval", "--features", str(labeled_csv),
                   "--model", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("case", ["int64_overflow_shape",
                                      "beyond_int64_shape", "wrapping_shape"])
    def test_array_past_the_end_is_never_read(self, tmp_path, case):
        path = tmp_path / "model.bin"
        write_malformed(path, case)
        with pytest.raises(DataFormatError,
                           match=f"^{re.escape(str(path))}: truncated array 'w'$"):
            load_model(path)


class TestImpossibleModelValues:
    # a damaged file, or a diverged model saved before training checked
    @pytest.mark.parametrize("kind", ["gru", "linear"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("name, value", [
        ("weights", math.nan), ("norm_loc", math.inf), ("norm_scale", 0.0),
        ("norm_scale", -1.0)])
    def test_refused_by_name(self, tmp_path, labeled_csv, capsys, kind,
                             command, name, value):
        model = tmp_path / "model.bin"
        assert train_one_epoch(labeled_csv, model, kind) == 0
        loaded = load_model(model)
        if name == "weights":  # every weight of the output layer
            name = "w_out" if kind == "gru" else "w"
            damaged = replace(loaded, **{name: np.full_like(
                getattr(loaded, name), value)})
        else:  # one entry of the normalization
            arrays = {"norm_loc": loaded.norm.loc.copy(),
                      "norm_scale": loaded.norm.scale.copy()}
            arrays[name][3] = value
            damaged = replace(loaded, norm=NormStats(loc=arrays["norm_loc"],
                                                     scale=arrays["norm_scale"]))
        save_model(damaged, model)
        with pytest.raises(DataFormatError, match=f"{model}: array '{name}'"):
            load_model(model)
        capsys.readouterr()
        out = ["--out", str(tmp_path / "preds.csv")] * (command == "predict")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--features", str(labeled_csv), "--model",
                       str(model), *out) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert str(model) in captured.err and repr(name) in captured.err
        assert not (tmp_path / "preds.csv").exists()


class TestTinyNormScale:
    # a positive sigma that load_model accepts, but that no feature value
    # divides into a finite input
    @pytest.mark.parametrize("kind", ["gru", "linear"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_exit_2_naming_the_column(self, tmp_path, labeled_csv, capsys,
                                      kind, command):
        model = tmp_path / "model.bin"
        assert train_one_epoch(labeled_csv, model, kind) == 0
        loaded = load_model(model)
        scale = loaded.norm.scale.copy()
        scale[3] = 1e-310
        save_model(replace(loaded, norm=NormStats(loc=loaded.norm.loc,
                                                  scale=scale)), model)
        capsys.readouterr()
        out = ["--out", str(tmp_path / "preds.csv")] * (command == "predict")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(command, "--features", str(labeled_csv), "--model",
                       str(model), *out) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: feature column 3 ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "preds.csv").exists()


class TestModelTableMismatch:
    @pytest.mark.parametrize("kind", ["gru", "linear"])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_feature_count_named(self, tmp_path, labeled_csv, capsys, kind,
                                 command):
        model = tmp_path / "model.bin"
        assert train_one_epoch(labeled_csv, model, kind) == 0
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
