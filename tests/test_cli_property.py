"""`simulate`, `denoise` with every method, `extract-features`, and `train`,
`eval` and `predict`, run through `cli.main` on CSVs of any shape and scale
the readers accept and on any noise spec and SNR: each run either writes
finite output of the expected shape or fails with an `error:` line."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegscrub import FeatureMatrix, save_feature_csv
from eegscrub.cli import main
from eegscrub.denoise import METHOD_IDS
from eegscrub.gru import load_model
from eegscrub.noise import _PARAM_SPECS, NOISE_KINDS
from eegscrub.rng import rng_stream

FEATURES_PER_CHANNEL = 12


@st.composite
def raw_tables(draw):
    """1-1024 rows of 1-4 columns; each column seeded noise, a constant or
    all zeros, at an amplitude from 1e-300 to 1e150."""
    n = draw(st.integers(1, 1024))
    columns = []
    for c in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["noise", "constant", "zero"]))
        amplitude = 10.0 ** draw(st.floats(-300, 150))
        if kind == "noise":
            rng = rng_stream(draw(st.integers(0, 2**16)), f"cli-property:{c}")
            columns.append(amplitude * rng.normal(size=n))
        else:
            columns.append(np.full(n, amplitude if kind == "constant" else 0.0))
    return np.column_stack(columns)


def write_raw(path: Path, table: np.ndarray) -> None:
    header = ",".join(f"ch{c}" for c in range(table.shape[1]))
    path.write_text(header + "\n" + "".join(
        ",".join(map(repr, row.tolist())) + "\n" for row in table))


def read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def run_cli(argv) -> tuple:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def check_outcome(code: int, stderr: str, out: Path) -> np.ndarray | None:
    """The output table of a run that exited 0, else None after checking the
    failure was reported as an error line."""
    assert "Traceback" not in stderr
    if code == 0:
        return read_table(out)
    assert code in (1, 2), (code, stderr)
    assert stderr.startswith("error: "), stderr
    return None


@settings(max_examples=12, deadline=None)
@given(table=raw_tables(), window_s=st.sampled_from([0.25, 1.0, 2.0]))
def test_denoise_and_extract_exit_cleanly(table, window_s):
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "raw.csv"
        write_raw(raw, table)
        for method in METHOD_IDS:
            out = Path(tmp) / f"{method}.csv"
            code, stderr = run_cli(["denoise", "--in", str(raw), "--method",
                                    method, "--out", str(out)])
            clean = check_outcome(code, stderr, out)
            if clean is not None:
                assert clean.shape == table.shape, method
                assert np.isfinite(clean).all(), method
        out = Path(tmp) / "feats.csv"
        code, stderr = run_cli(["extract-features", "--in", str(raw),
                                "--out", str(out), "--window-s",
                                str(window_s)])
        feats = check_outcome(code, stderr, out)
        if feats is not None:
            assert feats.shape[1] == FEATURES_PER_CHANNEL * table.shape[1]
            assert len(feats) >= 1
            assert np.isfinite(feats).all()


@st.composite
def noise_texts(draw):
    """A noise spec text of any kind, each parameter at an edge of its
    range or inside it, with a seed."""
    kind = draw(st.sampled_from(NOISE_KINDS))
    items = [f"kind={kind}"]
    for name, (_, lo, hi) in _PARAM_SPECS[kind].items():
        value = draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
        items.append(f"{name}={value!r}")
    return ",".join(items + [f"seed={draw(st.integers(0, 2**16))}"])


@settings(max_examples=40, deadline=None)
@given(duration=st.floats(0.01, 10.0),
       fs=st.one_of(st.sampled_from([2.0, 120.0]), st.floats(0.05, 2.0),
                    st.floats(2.0, 120.0), st.floats(120.0, 600.0)),
       channels=st.integers(1, 8), noise=noise_texts(),
       snr=st.floats(-4000.0, 4000.0))
@example(duration=8.0, fs=256.0, channels=4, noise="kind=awgn", snr=4000.0)
@example(duration=8.0, fs=256.0, channels=4, noise="kind=awgn", snr=-4000.0)
@example(duration=8.0, fs=256.0, channels=4,
         noise="kind=powerline,amp=1e200", snr=0.0)
@example(duration=8.0, fs=256.0, channels=4, noise="kind=awgn,sigma=1e-200",
         snr=0.0)
@example(duration=8.0, fs=256.0, channels=4,
         noise="kind=emg_burst,sigma=1e308", snr=0.0)
def test_simulate_exits_cleanly(duration, fs, channels, noise, snr):
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = Path(tmp) / "sim.csv"
        code, stderr = run_cli(["simulate", "--out", str(out), "--duration",
                                repr(duration), "--fs", repr(fs),
                                "--channels", str(channels), "--noise", noise,
                                f"--snr={snr!r}"])
        table = check_outcome(code, stderr, out)
        if table is not None:
            assert table.shape == (round(duration * fs), channels)
            assert np.isfinite(table).all()
        elif code == 2:  # a usage error adds the usage line
            assert len(stderr.splitlines()) == 1, stderr
        assert not [w for w in caught if issubclass(w.category,
                                                    RuntimeWarning)]


@st.composite
def feature_tables(draw):
    """1-200 labelled rows of 1-40 columns; each column seeded noise, a
    constant or all zeros, at an amplitude from 1e-300 to 1e300. The labels
    cycle through the three classes in a seeded order."""
    n = draw(st.integers(1, 200))
    rng = rng_stream(draw(st.integers(0, 2**16)), "cli-train-property")
    columns = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["noise", "constant", "zero"]))
        amplitude = 10.0 ** draw(st.floats(-300, 300))
        if kind == "noise":
            columns.append(amplitude * rng.normal(size=n))
        else:
            columns.append(np.full(n, amplitude if kind == "constant" else 0.0))
    return np.column_stack(columns), rng.permutation(np.arange(n) % 3)


def planted(scale: float) -> tuple:
    """60 rows of 4 noise columns, the third scaled by ``scale``."""
    labels = np.arange(60) % 3
    rows = rng_stream(0, "cli-train-planted").normal(size=(60, 4))
    rows[:, 0] += 2.0 * labels
    rows[:, 2] *= scale
    return rows, labels


@settings(max_examples=20, deadline=None)
@given(table=feature_tables(), kind=st.sampled_from(["gru", "linear"]),
       lr=st.sampled_from(["1e-3", "0.5", "1e308"]))
@example(table=planted(1e307), kind="gru", lr="1e-3")
@example(table=planted(1e200), kind="linear", lr="1e-3")
@example(table=planted(1.0), kind="gru", lr="1e308")
@example(table=planted(1.0), kind="linear", lr="1e308")
def test_train_eval_predict_exit_cleanly(table, kind, lr):
    rows, labels = table
    matrix = FeatureMatrix(rows, [f"f{c}" for c in range(rows.shape[1])],
                           labels.tolist())
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        feats, model = Path(tmp) / "feats.csv", Path(tmp) / "model.bin"
        save_feature_csv(matrix, feats)
        code, stderr = run_cli(["train", "--features", str(feats), "--model",
                                str(model), "--model-kind", kind, "--lr", lr,
                                "--epochs", "2",
                                *["--hidden", "4"] * (kind == "gru")])
        assert "Traceback" not in stderr
        if code != 0:
            assert code in (1, 2) and stderr.startswith("error: "), stderr
            assert not model.exists()
        else:
            loaded = load_model(model)
            arrays = [loaded.norm.loc, loaded.norm.scale] + [
                v for v in vars(loaded).values() if isinstance(v, np.ndarray)]
            assert all(np.isfinite(a).all() for a in arrays)
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(["eval", "--features", str(feats), "--model",
                                str(model)]) == (0, "")
            out = Path(tmp) / "predictions.csv"
            assert run_cli(["predict", "--features", str(feats), "--model",
                            str(model), "--out", str(out)]) == (0, "")
            probs = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2,
                               usecols=(3, 4, 5))
            assert probs.shape == (len(rows), 3)
            assert np.isfinite(probs).all()
        assert not [w for w in caught if issubclass(w.category,
                                                    RuntimeWarning)]
