import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eegscrub import (
    CLASS_NAMES,
    FeatureMatrix,
    LabeledDataset,
    Recording,
    Signal,
    load_feature_csv,
    load_raw_csv,
    read_report,
    rng_stream,
    save_feature_csv,
    save_raw_csv,
    write_report,
)
from eegscrub import dataset
from eegscrub.dataset import _BLOCK_ROWS, write_csv
from eegscrub.errors import DataFormatError
from peak_rss import peak_rise_mib


class TestFeatureCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "features.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_load(self, tmp_path):
        path = self.write(tmp_path,
                          "a,b,label\n1.0,2.0,NEGATIVE\n"
                          "3.0,4.0,NEUTRAL\n5.0,6.0,POSITIVE\n")
        ds = load_feature_csv(path)
        assert isinstance(ds, LabeledDataset)
        assert ds.features.rows.shape == (3, 2)
        assert ds.features.labels == (0, 1, 2)

    def test_case_insensitive_and_int_labels(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1.0,positive\n2.0,1\n")
        ds = load_feature_csv(path)
        assert ds.features.labels == (2, 1)

    def test_unknown_label_names_row(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1.0,NEGATIVE\n2.0,HAPPY\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_feature_csv(path)

    def test_bad_number_named_before_an_earlier_bad_label(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1.0,HAPPY\n2.0,NEUTRAL\n"
                                    "x,NEUTRAL\n")
        with pytest.raises(DataFormatError, match="row 4: column 'a'"):
            load_feature_csv(path)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1.0,abc,NEUTRAL\n")
        with pytest.raises(DataFormatError) as err:
            load_feature_csv(path)
        assert "b" in str(err.value) and "row 2" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_file_row_and_column(self, tmp_path, cell):
        path = self.write(tmp_path, f"a,b,label\n1.0,2.0,NEUTRAL\n"
                                    f"3.0,{cell},NEUTRAL\n")
        with pytest.raises(DataFormatError) as err:
            load_feature_csv(path)
        msg = str(err.value)
        assert str(path) in msg and "row 3" in msg and "'b'" in msg

    def test_label_column_anywhere(self, tmp_path):
        path = self.write(tmp_path, "a,label,b\n1.0,NEGATIVE,2.0\n"
                                    "3.0,POSITIVE,4.0\n")
        ds = load_feature_csv(path)
        assert ds.features.feature_names == ("a", "b")
        assert np.array_equal(ds.features.rows, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.features.labels == (0, 2)

    def test_bad_cell_after_blank_line_names_physical_row(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1.0,NEUTRAL\n\n\nx,NEUTRAL\n")
        with pytest.raises(DataFormatError, match="row 5: column 'a'"):
            load_feature_csv(path)

    def test_bad_cell_in_a_later_block_named(self, tmp_path):
        n = 2 * _BLOCK_ROWS + 3
        lines = [f"{i}.0,{i}.5,NEUTRAL" for i in range(n)]
        lines[_BLOCK_ROWS + 7] = "1.0,2..5,NEUTRAL"
        path = self.write(tmp_path, "a,b,label\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_feature_csv(path)
        assert (f"row {_BLOCK_ROWS + 9}: column 'b': cannot parse '2..5'"
                in str(err.value))

    @pytest.mark.parametrize("header", ["a,a,label", "a,label,label"])
    def test_repeated_column_name_named(self, tmp_path, header):
        path = self.write(tmp_path, header + "\n1.0,2.0,NEUTRAL\n")
        name = header.split(",")[1]
        with pytest.raises(DataFormatError) as err:
            load_feature_csv(path)
        msg = str(err.value)
        assert str(path) in msg and f"repeated column name {name!r}" in msg

    def test_unlabeled_load_drops_label_column_unparsed(self, tmp_path):
        path = self.write(tmp_path, "a,label,b\n1.0,HAPPY,2.0\n")
        matrix = load_feature_csv(path, require_label=False)
        assert isinstance(matrix, FeatureMatrix)
        assert matrix.feature_names == ("a", "b")
        assert matrix.labels is None

    def test_missing_label_column(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1.0,2.0\n")
        with pytest.raises(DataFormatError, match="label"):
            load_feature_csv(path)

    def test_unlabeled_load(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1.0,2.0\n")
        matrix = load_feature_csv(path, require_label=False)
        assert isinstance(matrix, FeatureMatrix)
        assert matrix.labels is None

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DataFormatError):
            load_feature_csv(path)

    def test_round_trip_exact(self, tmp_path):
        rows = np.array([[0.1, 1e-17], [3.5, -2.25]])
        matrix = FeatureMatrix(rows=rows, feature_names=("x", "y"),
                               labels=(0, 2))
        path = tmp_path / "rt.csv"
        save_feature_csv(matrix, path)
        back = load_feature_csv(path)
        assert np.array_equal(back.features.rows, rows)
        assert back.features.labels == (0, 2)

    @pytest.mark.parametrize("label", [3, -1])
    def test_out_of_range_label_names_row_and_writes_nothing(self, tmp_path,
                                                            label):
        matrix = FeatureMatrix(rows=np.zeros((2, 1)), feature_names=("a",),
                               labels=(0, label))
        path = tmp_path / "bad.csv"
        with pytest.raises(DataFormatError) as err:
            save_feature_csv(matrix, path)
        msg = str(err.value)
        assert f"matrix row 1 has label {label}, outside [0, 3)" in msg
        assert not path.exists()

    def test_deterministic_load(self, tmp_path):
        path = self.write(tmp_path, "a,label\n1.5,NEUTRAL\n")
        a = load_feature_csv(path)
        b = load_feature_csv(path)
        assert np.array_equal(a.features.rows, b.features.rows)


class TestRawCsv:
    def test_muse_shape(self, tmp_path):
        header = "TP9,AF7,AF8,TP10"
        rows = "\n".join(",".join(str(float(r + c)) for c in range(4))
                         for r in range(512))
        path = tmp_path / "raw.csv"
        path.write_text(header + "\n" + rows + "\n", encoding="utf-8")
        rec = load_raw_csv(path)
        assert rec.n_channels == 4
        assert rec.n_samples == 512
        assert rec.channel_names == ("TP9", "AF7", "AF8", "TP10")
        assert rec.channels[0].duration == pytest.approx(2.0)

    def test_timestamp_column_dropped(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("timestamp,TP9,AF7\n0.0,1.0,2.0\n0.004,3.0,4.0\n",
                        encoding="utf-8")
        rec = load_raw_csv(path)
        assert rec.n_channels == 2
        assert np.array_equal(rec.channels[0].samples, [1.0, 3.0])

    @pytest.mark.parametrize("cell", ["NaN", "inf", "-Infinity"])
    def test_non_finite_sample_names_file_row_and_column(self, tmp_path,
                                                         cell):
        path = tmp_path / "raw.csv"
        path.write_text(f"a,b\n1.0,2.0\n1.0,{cell}\n3.0,inf\n",
                        encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_raw_csv(path)
        msg = str(err.value)
        assert str(path) in msg and "row 3: column 'b'" in msg

    def test_first_bad_row_named_past_a_block_boundary(self, tmp_path):
        # the first fault is reported, whichever kind it is
        n = 2 * _BLOCK_ROWS + 5
        lines = [f"{i}.0,{i}.0" for i in range(n)]
        lines[_BLOCK_ROWS + 3] = "1.0,inf"
        lines[_BLOCK_ROWS + 4] = "oops,2.0"
        lines[2 * _BLOCK_ROWS + 1] = "nan,2.0"
        path = tmp_path / "raw.csv"
        path.write_text("a,b\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError,
                           match=f"row {_BLOCK_ROWS + 5}: column 'b'"):
            load_raw_csv(path)

    def test_iso_date_timestamp_dropped_unparsed(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("Date,TP9\n2024-05-01T10:00:00,1.0\n"
                        "2024-05-01T10:00:01,2.0\n", encoding="utf-8")
        rec = load_raw_csv(path)
        assert rec.channel_names == ("TP9",)
        assert np.array_equal(rec.channels[0].samples, [1.0, 2.0])

    def test_duplicate_channel_names_named(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,b,a\n1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_raw_csv(path)
        assert str(path) in str(err.value) and "'a'" in str(err.value)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_raw_csv(path)

    def test_unparseable_cell_named(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,b\n1.0,oops\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_raw_csv(path)
        assert "b" in str(err.value)

    @pytest.mark.parametrize("data", [b"a,b\n1,2\n3,\xe94\n",
                                      b"a,\xe9\n1,2\n"],
                             ids=["data_row", "header"])
    def test_not_utf8_names_file(self, tmp_path, data):
        path = tmp_path / "raw.csv"
        path.write_bytes(data)
        with pytest.raises(DataFormatError) as err:
            load_raw_csv(path)
        assert str(err.value) == (f"{path}: not UTF-8 text: "
                                  f"invalid continuation byte")

    def test_fs_override_recorded(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a\n1.0\n2.0\n", encoding="utf-8")
        rec = load_raw_csv(path, fs=128.0)
        assert rec.fs == 128.0

    def test_round_trip(self, tmp_path):
        rec = Recording(
            channels=(Signal(samples=np.array([1.5, -0.25]), fs=256.0),
                      Signal(samples=np.array([0.0, 1e-12]), fs=256.0)),
            channel_names=("TP9", "AF7"),
        )
        path = tmp_path / "rt.csv"
        save_raw_csv(rec, path)
        back = load_raw_csv(path)
        assert back.channel_names == rec.channel_names
        for a, b in zip(back.channels, rec.channels):
            assert np.array_equal(a.samples, b.samples)


def test_twenty_minute_raw_load_stays_small(tmp_path):
    # 20 minutes of 4 channels at 256 Hz are 9.4 MiB of float64 samples; the
    # leading time column is dropped, and nothing is kept per row but floats
    n = 20 * 60 * 256
    rng = rng_stream(0, "raw-csv-rss")
    rec = Recording(
        channels=(Signal(np.arange(n) / 256.0, 256.0),
                  *(Signal(rng.normal(size=n), 256.0) for _ in range(4))),
        channel_names=("time", "TP9", "AF7", "AF8", "TP10"))
    path = tmp_path / "raw.csv"
    save_raw_csv(rec, path)
    rise = peak_rise_mib("from eegscrub import load_raw_csv",
                         f"rec = load_raw_csv({str(path)!r})")
    assert rise <= 3 * (4 * n * 8 / 2.0**20) + 8.0


def rng_values(shape):
    """Floats over many decades and both signs, with negative zeros."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
    values[..., ::4] = -0.0
    return values


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def per_row_writer_bytes(header, rows, texts=None) -> bytes:
    """The float-matrix writer formatting one row per loop: the row's reprs
    joined by commas, then csv.writer's row of nothing, or of one empty cell
    (when the row has cells) and the row's text cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    lead = [""] * min(rows.shape[1], 1)
    for i in range(len(rows)):
        buf.write(",".join(map(repr, rows[i].tolist())))
        writer.writerow([] if texts is None else lead + [texts[i]])
    return buf.getvalue().encode("utf-8")


# shortest and longest reprs, exponent forms, both zeros and non-finite
# values, which write_csv writes as they are
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1, 3.0,
               123456789012345678.0, np.inf, -np.inf, np.nan]


@st.composite
def matrices_and_texts(draw, texts):
    n_cols = draw(st.sampled_from([0, 1, 4, 40]))
    n_rows = draw(st.integers(0, 12))
    cells = draw(st.lists(st.sampled_from(EDGE_VALUES),
                          min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    rows = np.array(cells, dtype=float).reshape(n_rows, n_cols)
    row_texts = st.lists(st.sampled_from(texts), min_size=n_rows,
                         max_size=n_rows)
    return rows, draw(st.one_of(st.none(), row_texts))


class TestWriteCsv:
    ODD = ["a,b", 'say "hi"', "two\nlines", "cr\rend", "", " pad "]

    @pytest.mark.parametrize("block_cells", [1, 3, 7])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=matrices_and_texts(ODD))
    def test_blocks_bytes_equal_per_row_writer(self, tmp_path, monkeypatch,
                                               block_cells, table):
        monkeypatch.setattr(dataset, "_FORMAT_CELLS", block_cells)
        rows, texts = table
        header = [f"h{i}" for i in range(rows.shape[1])]
        if texts is not None:
            header.append("label")
        path = tmp_path / "w.csv"
        write_csv(path, header, rows, texts)
        assert path.read_bytes() == per_row_writer_bytes(header, rows, texts)

    @pytest.mark.parametrize("n_texts", [0, 2, 4])
    def test_texts_not_one_per_row_refused_before_writing(self, tmp_path,
                                                          n_texts):
        path = tmp_path / "w.csv"
        with pytest.raises(ValueError,
                           match=f"^{n_texts} text cells for 3 rows$"):
            write_csv(path, ["a", "label"], np.ones((3, 1)),
                      self.ODD[:n_texts])
        assert not path.exists()

    @pytest.mark.parametrize("n_cols", [0, 1, 3])
    def test_matrix_bytes_equal_csv_writer(self, tmp_path, n_cols):
        values = rng_values((5, n_cols))
        header = [f"h{i}" for i in range(n_cols)] + ["a,b"]
        texts = (self.ODD * 2)[:5]
        path = tmp_path / "w.csv"
        write_csv(path, header, values, texts)
        expected = csv_writer_bytes(
            header, (r + [t] for r, t in zip(values.tolist(), texts)))
        assert path.read_bytes() == expected
        write_csv(path, header[:-1], values)
        assert path.read_bytes() == csv_writer_bytes(header[:-1],
                                                     values.tolist())

    def test_odd_header_and_class_names_quoted_as_csv_writer(self, tmp_path):
        names = CLASS_NAMES
        matrix = FeatureMatrix(rows=rng_values((4, 3)),
                               feature_names=tuple(self.ODD[3:]),
                               labels=(0, 1, 2, 0))
        path = tmp_path / "f.csv"
        save_feature_csv(matrix, path)
        expected = csv_writer_bytes(
            list(matrix.feature_names) + ["label"],
            (r + [names[y]] for r, y in zip(matrix.rows.tolist(),
                                            matrix.labels)))
        assert path.read_bytes() == expected


@pytest.mark.parametrize("shape, labeled", [((400, 2548), True),
                                            ((153_600, 4), False)])
def test_matrix_write_stays_small(tmp_path, shape, labeled):
    # one process, so that the rise is the formatter's own: a block of cells
    # at a time, not the whole table (90 MiB for the 400 x 2548 one)
    setup = (
        "import numpy as np\n"
        "from eegscrub import CLASS_NAMES, dataset\n"
        "dataset._usable_cores = lambda: 1\n"
        f"rows = np.random.default_rng(0).normal(size={shape})\n"
        f"texts = [CLASS_NAMES[i % 3] for i in range(len(rows))] "
        f"if {labeled} else None\n"
        "header = [f'f{i}' for i in range(rows.shape[1])]\n"
        "header += ['label'] if texts else []\n"
        f"path = {str(tmp_path / 'w.csv')!r}\n"
        "dataset.write_csv(path, header, rows[:2], texts and texts[:2])\n"
    )
    rise = peak_rise_mib(setup, "dataset.write_csv(path, header, rows, texts)")
    assert rise <= 8.0


class TestReports:
    def test_round_trip_structures(self, tmp_path):
        report = {
            "accuracy": 0.9546,
            "confusion": [[10, 0, 0], [1, 9, 0], [0, 2, 8]],
            "f1": [1.0, 0.85, 0.8],
            "nested": {"flag": True, "name": "gru"},
        }
        path = tmp_path / "report.json"
        write_report(report, path)
        back = read_report(path)
        assert back == report

    def test_non_finite_sentinels(self, tmp_path):
        report = {"snr_db": float("inf"), "neg": float("-inf"),
                  "bad": float("nan")}
        path = tmp_path / "report.json"
        write_report(report, path)
        text = path.read_text(encoding="utf-8")
        assert "Infinity" not in text  # no bare JSON non-finite tokens
        back = read_report(path)
        assert back["snr_db"] == np.inf
        assert back["neg"] == -np.inf
        assert np.isnan(back["bad"])

    @pytest.mark.parametrize("data, message", [
        (b"[1, 2]", "not a JSON object"),
        (b'{"format_version": 1, "name": "\xe9"}', "'utf-8' codec"),
        (b"{", "Expecting property name"),
    ], ids=["list", "not_utf8", "truncated"])
    def test_unreadable_report_names_file(self, tmp_path, data, message):
        path = tmp_path / "report.json"
        path.write_bytes(data)
        with pytest.raises(DataFormatError) as err:
            read_report(path)
        assert str(err.value).startswith(f"{path}: bad report: {message}")

    def test_version_field_injected_and_checked(self, tmp_path):
        path = tmp_path / "report.json"
        write_report({"x": 1}, path)
        assert '"format_version": 1' in path.read_text(encoding="utf-8")
        path.write_text('{"format_version": 99, "x": 1}', encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_report(path)
