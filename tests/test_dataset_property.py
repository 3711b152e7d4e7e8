"""The CSV reader's plain-file path against its checked path on hostile
text."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eegscrub import dataset

TOKENS = ["0", "-1.5", "2.25e-3", "+.5", "7.", "1E5", "-0", " 3 ", "\t4",
          "5\xa0", "1_0", "0x10", "", "nan", "-Infinity", "inf", "1e400",
          "١٢", '"1"', "1 2", "abc", "NEUTRAL", "2024-05-01T10:00:00"]
ALPHABET = "0123456789.eE+-_ \t\","
NEWLINES = ["\n", "\r\n", "\r"]

cell = st.one_of(st.sampled_from(TOKENS), st.text(ALPHABET, max_size=6))
# mostly finite numbers, so that many files take the fast path
number = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["a", "b", " c ", "label", "time",
                                            'q"', '"d"', "a "]),
                           min_size=width, max_size=width,
                           unique=draw(st.booleans())))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 8 + ["hostile", "blank",
                                                   "space", "ragged"]))
        if kind == "row":
            lines.append(",".join(draw(st.lists(number, min_size=width,
                                                max_size=width))))
        elif kind == "hostile":
            lines.append(",".join(draw(st.lists(cell, min_size=width,
                                                max_size=width))))
        elif kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t"])))
        else:
            lines.append(",".join(draw(st.lists(number, max_size=width + 2))))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(NEWLINES))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def refuse_sevens(cell):
    """A text-cell parser that refuses any cell holding a 7."""
    if "7" in cell:
        raise ValueError(f"refused {cell!r}")
    return cell.upper()


def outcome(path, text_column, plain, parse_text=refuse_sevens):
    """_read_csv's result, or its exception; with ``plain`` false every file
    takes the checked path. Only the call is guarded, so a result of another
    shape fails here rather than compare equal as two errors."""
    off = mock.patch.object(dataset, "_read_plain", side_effect=ValueError)
    try:
        with contextlib.nullcontext() if plain else off:
            result = dataset._read_csv(path, text_column, parse_text)
    except Exception as exc:
        return type(exc), str(exc)
    names, values, texts = result
    assert values.dtype == np.float64
    return names, values.shape, values.tobytes(), texts


def test_plain_file_takes_the_loadtxt_path(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b,label\n1.5,-2,NEUTRAL\n\n3,4e-3,POSITIVE\n")
    names, values, texts = dataset._read_plain(path, lambda h: 2, str)
    assert (names, texts) == (["a", "b"], ["NEUTRAL", "POSITIVE"])
    assert values.tolist() == [[1.5, -2.0], [3.0, 4e-3]]
    path.write_text('a,b,label\n1.5,-2,"NEUTRAL"\n')
    with pytest.raises(ValueError):
        dataset._read_plain(path, lambda h: 2, str)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), text_idx=st.one_of(st.none(), st.integers(0, 3)),
       parse_text=st.sampled_from([refuse_sevens, None]))
@example(text="a,b,label\r\n1.0,2.0,NEUTRAL\r\n\r\n3,4,x\r\n", text_idx=2,
         parse_text=refuse_sevens)
@example(text="time,a\n0.5,1_0\n", text_idx=0, parse_text=None)
@example(text="a,b\n1,2\n3,4,5\n", text_idx=None, parse_text=None)
@example(text="a\n1\n  \n2\n", text_idx=None, parse_text=None)
@example(text="a,b\n1,2\r\r\n3,4", text_idx=None, parse_text=None)
@example(text="a,b\n1,١٢\n", text_idx=None, parse_text=None)
@example(text="a,b\n1,1e400\n", text_idx=None, parse_text=None)
@example(text="label,a\n\n\n", text_idx=0, parse_text=refuse_sevens)
@example(text='a,label\n1,"x"\n', text_idx=1, parse_text=refuse_sevens)
@example(text='"a",b\n1,2\n', text_idx=None, parse_text=None)
@example(text="\n1\n2\n", text_idx=None, parse_text=None)
@example(text="a,label\n1,x7\n2,y\n", text_idx=1, parse_text=refuse_sevens)
@example(text="a,label\n1,x7\n2,y\n3,z\n4,abc\n", text_idx=1,
         parse_text=refuse_sevens)  # a bad number is named before a label
@example(text="time,a\n7,1\n", text_idx=0, parse_text=None)
def test_plain_path_matches_checked_path(tmp_path, text, text_idx,
                                         parse_text):
    path = tmp_path / "hostile.csv"
    path.write_bytes(text.encode("utf-8"))

    def text_column(header):
        return None if text_idx is None or text_idx >= len(header) else text_idx

    assert (outcome(path, text_column, True, parse_text)
            == outcome(path, text_column, False, parse_text))
