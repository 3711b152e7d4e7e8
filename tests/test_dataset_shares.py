"""The CSV writer and reader in forked shares, on every machine that forks.

Small files stay in one process, so each test here lowers the share minimum
to one byte and claims at least three cores: every file with a few bytes of
data is then cut into shares, each run by its own child. The tests of
test_dataset.py and the plain-against-checked property run again that way.
"""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import eegscrub
import test_dataset
from eegscrub import FeatureMatrix, cli, dataset, load_feature_csv
from eegscrub.errors import DataFormatError
from test_dataset_property import outcome
from test_dataset_property import (  # noqa: collected here, run in shares
    test_plain_path_matches_checked_path,
)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="shares run only where processes fork")


def split_into(monkeypatch, cores):
    monkeypatch.setattr(dataset, "_MIN_SHARE_BYTES", 1)
    monkeypatch.setattr(dataset, "_usable_cores", lambda: cores)


@pytest.fixture(autouse=True)
def three_cores(monkeypatch):
    split_into(monkeypatch, 3)


class TestFeatureCsvInShares(test_dataset.TestFeatureCsv):
    pass


class TestRawCsvInShares(test_dataset.TestRawCsv):
    pass


class TestWriteCsvInShares(test_dataset.TestWriteCsv):
    pass


def test_shares_are_cut_and_forked(tmp_path, monkeypatch):
    # the positive control: the tests above would pass in one process too
    calls = []
    shares = dataset._shares

    def counted(path, n, task):
        calls.append(n)
        return shares(path, n, task)

    monkeypatch.setattr(dataset, "_shares", counted)
    matrix = FeatureMatrix(np.arange(12.0).reshape(6, 2), ("a", "b"),
                           (0, 1, 2, 0, 1, 2))
    dataset.save_feature_csv(matrix, tmp_path / "f.csv")
    back = load_feature_csv(tmp_path / "f.csv")
    assert calls == [3, 3]
    assert np.array_equal(back.features.rows, matrix.rows)
    assert back.features.labels == matrix.labels


LAST_SHARE_FAULTS = [
    ("1e999", "cannot parse '1e999' as a finite number"),
    ("nan", "cannot parse 'nan' as a finite number"),
    ("2..5", "cannot parse '2..5' as a number"),
    ('"7"', None),  # quoted, so not plain; the checked reader reads 7.0
]


@pytest.mark.parametrize("cell, message", LAST_SHARE_FAULTS)
def test_fault_in_last_share_named_as_in_one_process(tmp_path, monkeypatch,
                                                     cell, message):
    lines = [f"{i}.0,{i}.5,NEUTRAL" for i in range(40)]
    lines[38] = f"1.0,{cell},NEUTRAL"
    path = tmp_path / "f.csv"
    path.write_text("a,b,label\r\n" + "\r\n".join(lines) + "\r\n")
    shared = outcome(path, lambda h: 2, plain=True)
    if message is None:
        assert shared[1] == (40, 2)
    else:
        assert shared == (DataFormatError,
                          f"{path}: row 40: column 'b': {message}")
    split_into(monkeypatch, 1)
    assert shared == outcome(path, lambda h: 2, plain=True)
    assert multiprocessing.active_children() == []


BOUNDARY_TEXTS = [
    "a,b\r\n1,2\r\n\r\n\r\n3,4\r\n\r\n5,6\r\n",
    "a,b\n\n1,2\n\r\n3,4\r\n\n",
    "a,b\r\n1,2\r3,4\r\n\r5,6",  # lone CRs end lines in text mode
    "label,a\r\nx,1\r\n\r\ny,2\r\n",
    "label\r\nx\r\n\r\ny\r\n",  # no number columns
    "a\n1\n",  # more shares than rows
    "a,b\n\n\n\n",  # shares, but no data rows
]


@pytest.mark.parametrize("cores", [2, 3, 5, 16])
@pytest.mark.parametrize("text", BOUNDARY_TEXTS)
def test_blank_lines_and_crlf_at_share_boundaries(tmp_path, monkeypatch,
                                                  text, cores):
    split_into(monkeypatch, cores)
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))

    def text_column(header):
        return header.index("label") if "label" in header else None

    assert (outcome(path, text_column, plain=True)
            == outcome(path, text_column, plain=False))


def test_plain_path_taken_across_share_boundaries(tmp_path, monkeypatch):
    split_into(monkeypatch, 16)
    path = tmp_path / "f.csv"
    path.write_bytes(b"a,b\r\n1,2\r\n\r\n\r\n3,4\r\n\r5,6\n")
    names, values, texts = dataset._read_plain(path, lambda h: None, None)
    assert (names, texts) == (["a", "b"], [])
    assert values.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_lone_cr_in_header_refused(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"a\rb\n1\n")
    with pytest.raises(ValueError):
        dataset._read_plain(path, lambda h: None, None)
    assert outcome(path, lambda h: None, plain=True) == outcome(
        path, lambda h: None, plain=False)


def test_no_child_left_after_write_read_and_refusal(tmp_path):
    matrix = FeatureMatrix(np.ones((9, 2)), ("a", "b"), (0,) * 9)
    dataset.save_feature_csv(matrix, tmp_path / "ok.csv")
    load_feature_csv(tmp_path / "ok.csv")
    assert multiprocessing.active_children() == []
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,label\n" + "1,2,NEUTRAL\n" * 8 + "1,x,NEUTRAL\n")
    with pytest.raises(DataFormatError, match="row 10: column 'b'"):
        load_feature_csv(bad)
    assert multiprocessing.active_children() == []


def exit_in_children(monkeypatch):
    """Makes every forked share of the writer exit with code 1."""
    parent, format_rows = os.getpid(), dataset._format_rows

    def formatted(rows, tails):
        if os.getpid() != parent:
            os._exit(1)
        return format_rows(rows, tails)

    monkeypatch.setattr(dataset, "_format_rows", formatted)


def test_failed_child_is_os_error_naming_path(tmp_path, monkeypatch):
    exit_in_children(monkeypatch)
    path = tmp_path / "w.csv"
    with pytest.raises(OSError, match=f"{path}: CSV share 1 of 3 ended "
                                      f"with exit code 1"):
        dataset.write_csv(path, ["a"], np.ones((6, 1)))
    assert multiprocessing.active_children() == []


def test_simulate_with_failed_child_exits_2(tmp_path, monkeypatch, capsys):
    exit_in_children(monkeypatch)
    out = tmp_path / "raw.csv"
    code = cli.main(["simulate", "--out", str(out), "--duration", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {out}: CSV share")
    assert "Traceback" not in err


def test_import_loads_no_multiprocessing_and_shares_do(tmp_path):
    # the forced-share save is the positive control: the guard sees an import
    src = os.path.dirname(os.path.dirname(eegscrub.__file__))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import eegscrub, eegscrub.cli\n"
        "print('multiprocessing' in sys.modules)\n"
        "from eegscrub import dataset\n"
        "dataset._MIN_SHARE_BYTES, dataset._usable_cores = 1, lambda: 3\n"
        "dataset.write_csv('w.csv', ['a'], np.ones((6, 1)))\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
