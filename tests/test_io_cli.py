import argparse
import hashlib
import inspect
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import rca.cli
import rca.io
from oracles import float_cell_csv, percent_csv
from rca.cli import build_parser, main, parse_sigma_spec, parse_times
from rca.core import BlockDiagonal, Explicit, LowRankPlusNoise, ScaledIdentity, rca_fit
from rca.diffexpr import ScoredRanking, TimeSeriesPair, residual_scores, roc_curve
from rca.itrca import iterative_rca, predict_view1
from rca.kernels import FRACTION, KernelSpec
from rca.synth import make_diffexpr_pair, make_shared_private
from rca.io import atomic_write_text, format_manifest, load_csv, read_manifest, save_csv
from rca.linalg import _block_diag


# ---------------------------------------------------------------- load_csv

def test_load_with_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    values, header, labels = load_csv(p)
    np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
    assert header == ["a", "b"]
    assert labels is None


def test_load_with_row_labels(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("id,x,y\ng1,1,2\ng2,3,4\n")
    values, header, labels = load_csv(p)
    np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
    assert header == ["x", "y"]
    assert labels == ["g1", "g2"]


def test_load_errors(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(ragged)
    bad = tmp_path / "b.csv"
    bad.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="line 2, column 2.*oops"):
        load_csv(bad)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(empty)


@pytest.mark.parametrize("text, message", [
    ("1,2\n\n3,x\n", "line 3, column 2: not a number: 'x'"),
    ("a,b\n\n\n1,2\n3\n", "line 5: expected 2 columns, found 1"),
    ("id,x\ng1,1\ng2,2,3\n", "line 3: expected 2 columns, found 3"),  # a labeled row too wide
])
def test_load_errors_report_physical_line_numbers(tmp_path, text, message):
    p = tmp_path / "m.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_csv(p)


@pytest.fixture
def body_parses(monkeypatch):
    """The cell count given to each kernel parse, in call order."""
    calls = []
    parse = rca.io._parse

    def counted(data, lo, hi):
        calls.append(lo.size)
        return parse(data, lo, hi)

    monkeypatch.setattr(rca.io, "_parse", counted)
    return calls


_ROWS = [f"{i},{i / 7!r},-{i}e3" for i in range(40)]


@pytest.mark.parametrize("lines", [
    pytest.param(_ROWS, id="numbers_only"),
    pytest.param(["a,b,c"] + _ROWS, id="header"),
    pytest.param(["id,a,b,c"] + [f"g{i},{row}" for i, row in enumerate(_ROWS)],
                 id="header_and_labels"),
])
def test_a_valid_file_takes_one_kernel_parse_and_no_per_cell_parse(tmp_path, body_parses,
                                                                   lines):
    p = tmp_path / "m.csv"
    p.write_text("\n".join(lines) + "\n")
    values, _, _ = load_csv(p)
    assert values.shape == (len(_ROWS), 3)
    assert body_parses == [values.size]


def test_a_bad_last_cell_reaches_the_per_cell_parser_once(tmp_path, body_parses):
    p = tmp_path / "m.csv"
    p.write_text("\n".join(_ROWS + ["1,2,x"]) + "\n")
    with pytest.raises(ValueError, match="line 41, column 3: not a number: 'x'"):
        load_csv(p)
    # one parse of the whole file, whose float() fallback refuses its last
    # cell: the first line holds no refused cell, so it is data, not a
    # header, and the index that parse returns names the cell
    assert body_parses == [41 * 3]


def test_round_trip_bit_exact(tmp_path, monkeypatch):
    rng = np.random.default_rng(14)
    matrix = rng.standard_normal((20, 3)) * np.exp(rng.uniform(-30, 30, (20, 3)))
    p = tmp_path / "m.csv"
    save_csv(p, matrix, header=["u", "v", "w"])
    back, header, _ = load_csv(p)
    assert header == ["u", "v", "w"]
    assert np.array_equal(back, matrix)
    # and the written bytes are stable under a second round trip
    q = tmp_path / "m2.csv"
    save_csv(q, back, header=header)
    assert p.read_bytes() == q.read_bytes()
    # row labels come back as written, each beside its own row also when the
    # rows go out in several blocks
    labels = [f"g{i}" for i in range(20)]
    for block_cells in (1 << 16, 7):
        monkeypatch.setattr(rca.io, "_BLOCK_CELLS", block_cells)
        save_csv(q, matrix, header=["id", "u", "v", "w"], row_labels=labels)
        back, header, row_labels = load_csv(q)
        assert (header, row_labels) == (["u", "v", "w"], labels)
        assert np.array_equal(back, matrix)
        assert q.read_text().splitlines()[5] == "g4," + p.read_text().splitlines()[5]
    # a label count off the row count raises before any file is made, also
    # when the surplus label falls past the last block (20 rows of 2 per block)
    for rows, n_labels in ((20, 19), (20, 21), (0, 1)):
        with pytest.raises(ValueError, match=f"^{n_labels} row labels for {rows} rows$"):
            save_csv(tmp_path / "m3.csv", matrix[:rows], row_labels=labels[:1] * n_labels)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.csv", "m2.csv"]


def test_labeled_round_trip(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("id,x,y\ng1,1.5,2.5\ng2,3.5,4.5\n")
    values, header, labels = load_csv(p)
    assert header == ["x", "y"]
    assert labels == ["g1", "g2"]
    np.testing.assert_array_equal(values, [[1.5, 2.5], [3.5, 4.5]])
    # the numeric part saves back as the file without its label column
    q = tmp_path / "m2.csv"
    save_csv(q, values, header=header)
    assert q.read_text() == "x,y\n1.5,2.5\n3.5,4.5\n"
    # and with its labels as the file itself
    save_csv(q, values, header=["id", *header], row_labels=labels)
    assert q.read_bytes() == p.read_bytes()


# a number as save_csv or repr writes it, or a cell float() may or may not read
_NUMBER = st.builds(lambda x, fmt: fmt(x), st.floats(),
                    st.sampled_from([repr, "%.17g".__mod__]))
_ODD = st.sampled_from(["nan", "-inf", "Infinity", "1e500", "1_000", "\u0661",
                        "", "#", "#1", '"1"', "'1'", "0x10", "1.5e", "x"])
# "\x0b" and "\x0c" are line breaks to splitlines() only; "\x1c".."\x1f" are
# whitespace to str.strip() but not to float()
_PAD = st.sampled_from(["", "", "", "", " ", "\t", "\xa0", "\x0b", "\x0c", "\x1f"])
_LABEL = st.sampled_from(["g1", "id", " g 2 ", "x\xa0", "1", "nan", ""])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    labeled, odd, padded, ragged, blanks = (draw(st.booleans()) for _ in range(5))
    core = st.one_of(_NUMBER, _ODD) if odd else _NUMBER
    lines = []
    if draw(st.booleans()):
        names = ["id"] * (labeled and draw(st.booleans()))
        lines.append(",".join(names + [f"c{j}" for j in range(width)]))
    for _ in range(draw(st.integers(1, 5))):
        # a row one cell short, one cell long, or with a trailing comma
        size, tail = draw(st.sampled_from([(0, ""), (0, ""), (-1, ""), (1, ""), (0, ",")])
                          if ragged else st.just((0, "")))
        cells = [draw(_LABEL)] * labeled
        for _ in range(width + size):
            cell = draw(core)
            if padded:
                cell = draw(_PAD) + cell + draw(_PAD)
            cells.append(cell)
        lines.append(",".join(cells) + tail)
        if blanks:
            lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=1)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _outcome(read, path):
    try:
        values, header, labels = read(path)
    except ValueError as exc:
        return str(exc)
    return values.shape, values.tobytes(), header, labels


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
@example("g1,1,2\ng2,3,4,5\n")  # np.loadtxt's usecols would drop the 5
@example("id,a\ng1,1\ng2,2,\n")
@example("1\n \n2\n")
@example("\x1f1,2\n")
@example("g1\ng2\n")
@example("1_0,2\n3,4\n")  # a first line only float() reads
@example("nan,inf\n1,2\n")
@example(",".join(f"{j / 3!r}" for j in range(2000)) + "\n")  # 1 row x 2000 columns
@example("1\n\t\n2\n")
@example("\ufeff1,2\n3,4\n")  # a UTF-8 byte-order mark, as spreadsheets export
@example("id,x\n7157,1\nb,2\n")  # a numeric label under a header
@example("7157,1\nb,2\n")  # without a header the first row decides
@example("1,2\r\n3,4\r\n")  # a numbers-only file with \r\n line ends
@example("1,2\n\n3,4\n")  # a blank line inside a numbers body
@example("1,2\n3,4")  # a last line without "\n"
@example("c0,c1\n0.0,0.0,0.0\n0.0,0.0\nnan\x1f\n")  # a label probe beside a ragged row
@example("a,b\n1,x\n2,3,4\n")  # a refused cell before a ragged row
@example("1,2\n3\n4,x\n")  # a ragged row before a refused cell
@example("id,a\ng1,1\n\ng2,x\n")  # a blank line inside a labeled body
@example("1,2,")  # the last bound is len(data), the byte before it a comma
@example("1,2\r3,4")  # \r-only line ends
def test_load_matches_float_per_cell_reference(tmp_path, text):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(load_csv, p) == _outcome(float_cell_csv, p)


def test_a_byte_order_mark_is_not_data(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes("\ufeff1,2\n3,4\n".encode("utf-8"))
    values, header, _ = load_csv(p)
    assert values.shape == (2, 2) and header is None
    p.write_bytes("\ufeffa,b\n1,2\n".encode("utf-8"))
    assert load_csv(p)[1] == ["a", "b"]


@pytest.mark.parametrize("data", [b"1,\xff\n", b"a,b\n1,\xff\n", b"\xff,1\n2,3\n",
                                  b"a,b\ng\xc3,1\n"])
def test_a_cell_that_is_not_utf8_raises(tmp_path, data):
    p = tmp_path / "m.csv"
    p.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        load_csv(p)


@pytest.mark.parametrize("text, message", [
    ("a,b,c\n1,2\n3,4\n", "line 1: header has 3 names for 2 columns"),
    ("a\n1,2\n", "line 1: header has 1 names for 2 columns"),
    ("\nid,a,b,c\ng1,1,2\n", "line 2: header has 4 names for 2 columns"),
    ("a,b,c\ng1,1\n", "line 1: header has 3 names for 1 columns"),
])
def test_load_refuses_a_header_of_the_wrong_width(tmp_path, text, message):
    p = tmp_path / "m.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}$"):
        load_csv(p)


def test_a_header_may_omit_the_label_column(tmp_path):
    # R's write.table form: no name above the row labels
    p = tmp_path / "m.csv"
    p.write_text("a,b\ng1,1,2\ng2,3,4\n")
    assert load_csv(p)[1:] == (["a", "b"], ["g1", "g2"])


def test_save_golden_bytes(tmp_path):
    cases = [
        (np.array([[0.1, -0.0], [5e-324, 1e308]]), {},
         "0.10000000000000001,-0\n4.9406564584124654e-324,1e+308\n"),
        (np.array([np.nan, np.inf, -np.inf, 1 / 3]), {},
         "nan\ninf\n-inf\n0.33333333333333331\n"),
        (np.array([[1.0], [2.0]]), {"header": ["v"]}, "v\n1\n2\n"),
    ]
    for matrix, kwargs, expected in cases:
        p = tmp_path / "m.csv"
        save_csv(p, matrix, **kwargs)
        assert p.read_bytes() == expected.encode("ascii"), (matrix, kwargs)
    # a matrix with no rows or no columns has no text that load_csv reads back
    for shape, kwargs in (((0, 3), {}), ((0, 2), {"header": ["a", "b"]}), ((3, 0), {})):
        message = re.escape(f"no CSV form for a matrix of shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            save_csv(tmp_path / "empty.csv", np.zeros(shape), **kwargs)
    assert [f.name for f in tmp_path.iterdir()] == ["m.csv"]


def test_save_refuses_a_header_of_the_wrong_width(tmp_path):
    # one name per column written, the label column included, as load_csv reads
    matrix, labels = np.ones((2, 2)), ["r1", "r2"]
    for header, row_labels, width in ((["a", "b", "c"], None, 2), (["a"], None, 2),
                                      (["a", "b"], labels, 3), (["id", "a", "b", "c"], labels, 3)):
        with pytest.raises(ValueError, match=f"^header has {len(header)} names for {width} "
                                             "columns$"):
            save_csv(tmp_path / "m.csv", matrix, header=header, row_labels=row_labels)
    assert not any(tmp_path.iterdir())
    save_csv(tmp_path / "m.csv", matrix, header=["id", "a", "b"], row_labels=labels)
    assert load_csv(tmp_path / "m.csv")[1:] == (["a", "b"], labels)


_UNREADABLE = "does not read back: it holds a comma, a line break or surrounding whitespace"


@pytest.mark.parametrize("header, row_labels, message", [
    pytest.param(["a,b"], None, f"name or label 'a,b' {_UNREADABLE}", id="comma_in_name"),
    pytest.param(["id", "x"], ["g,1", "g2"], f"name or label 'g,1' {_UNREADABLE}",
                 id="comma_in_label"),
    pytest.param(["id", "x"], ["a\nb", "c"], f"name or label 'a\\nb' {_UNREADABLE}",
                 id="newline_in_label"),
    pytest.param(["a\rb"], None, f"name or label 'a\\rb' {_UNREADABLE}", id="return_in_name"),
    pytest.param([" v "], None, f"name or label ' v ' {_UNREADABLE}", id="spaced_name"),
    pytest.param(["id", "x"], ["g1", "g2\t"], f"name or label 'g2\\t' {_UNREADABLE}",
                 id="spaced_label"),
    pytest.param(["1", "2"], None, "header line '1,2' does not read back as written",
                 id="numeric_header"),
    pytest.param(["nan"], None, "header line 'nan' does not read back as written",
                 id="nan_header"),
    pytest.param([""], None, "header line '' does not read back as written", id="blank_header"),
    pytest.param(["\ufeffa"], None, "header line '\\ufeffa' does not read back as written",
                 id="byte_order_mark"),
    pytest.param(None, ["1", "2"], "row labels need a header", id="numeric_label_no_header"),
    pytest.param(None, ["g1", "g2"], "row labels need a header", id="label_no_header"),
])
def test_save_refuses_names_that_do_not_read_back(tmp_path, header, row_labels, message):
    n_cols = 1 if header is None else len(header) - (row_labels is not None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        save_csv(tmp_path / "m.csv", np.ones((2, n_cols)), header=header, row_labels=row_labels)
    assert not any(tmp_path.iterdir())


def test_header_names_are_written_as_str_gives_them(tmp_path):
    # as row labels are: a number among the names reads back as its text
    p = tmp_path / "m.csv"
    save_csv(p, np.ones((2, 2)), header=["a", 1])
    assert p.read_text() == "a,1\n1,1\n1,1\n"
    assert load_csv(p)[1] == ["a", "1"]
    with pytest.raises(ValueError, match="^header line '1,2' does not read back as written$"):
        save_csv(tmp_path / "n.csv", np.ones((2, 2)), header=[1, 2])
    assert [f.name for f in tmp_path.iterdir()] == ["m.csv"]


# names and labels: a plain name or number, or three parts, each empty, a
# character that can break a CSV cell or line, or one a name or number holds
_PART = st.sampled_from(["", "a", "g", "1", "0", ".", "e", "nan", ",", "\n", "\r", " ", "\t"])
_NAME = st.sampled_from(["", "a", "g1", "1", "nan"]) | st.builds(
    lambda *parts: "".join(parts), _PART, _PART, _PART)


@st.composite
def saved_tables(draw):
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = np.array(draw(st.lists(st.floats(allow_nan=False), min_size=n_rows * n_cols,
                                    max_size=n_rows * n_cols))).reshape(n_rows, n_cols)
    row_labels = draw(st.lists(_NAME, min_size=n_rows, max_size=n_rows) | st.none())
    labeled = row_labels is not None
    header = draw(st.lists(_NAME, min_size=n_cols + labeled, max_size=n_cols + labeled) |
                  st.none())
    return matrix, header, row_labels


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(saved_tables())
@example((np.ones((1, 1)), [""], None))  # a header line that is blank
@example((np.ones((2, 1)), ["\ufeffa"], None))  # utf-8-sig drops a leading mark
def test_save_refuses_or_reads_back_exactly(tmp_path, table):
    matrix, header, row_labels = table
    # numeric labels under a header read back as a data column, by design
    assume(header is None or row_labels is None or not all(map(_is_number, row_labels)))
    p = tmp_path / "m.csv"
    p.unlink(missing_ok=True)
    try:
        save_csv(p, matrix, header=header, row_labels=row_labels)
    except ValueError:
        assert not p.exists()
        return
    values, back_header, back_labels = load_csv(p)
    assert values.tobytes() == matrix.tobytes()
    assert back_header == (header[1:] if row_labels is not None else header)
    assert back_labels == row_labels


def _near_powers_of_ten():
    """10**k and its neighbours 1 and 2 ulp away, k in [-30, 30]."""
    out = []
    for k in range(-30, 31):
        down = up = float(f"1e{k}")
        out.append(down)
        for _ in range(2):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
            out += [down, up]
    return np.array(out)


def test_save_matches_a_per_cell_percent_writer(tmp_path, monkeypatch):
    # the block kernel against '%.17g' one cell at a time: 2**20 random bit
    # patterns of both signs (all exponents, nan and inf among them), the
    # neighbours of the powers of ten, zeros, integers, and the cells the
    # '%' fallback takes
    rng = np.random.default_rng(16)
    bits = rng.integers(0, 2 ** 64, 1 << 20, dtype=np.uint64, endpoint=False).view(float)
    # and random significands of both signs at every binary exponent the
    # exact range spans, where few of the patterns above land
    field = np.uint64(0x7FF) << np.uint64(52)
    exponents = rng.integers(1023 - 37, 1023 + 52, 1 << 18).astype(np.uint64) << np.uint64(52)
    ranged = (bits[: 1 << 18].view(np.uint64) & ~field | exponents).view(float)
    near = _near_powers_of_ten()
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                        2.2250738585072014e-308, np.inf, -np.inf, np.nan, 1e-11,
                        np.nextafter(1e-11, 1), 2.0 ** 51, np.nextafter(2.0 ** 51, 0),
                        2.0 ** 53, 9.5367431640625e-07, 0.5, 1.0, 1e22, -1e308])
    integers = np.arange(-1000.0, 1001.0) * rng.choice([1.0, 1e3, 1e6], 2001)
    # a block with no cell in the exact range, and roc.csv's block: one inf
    # threshold, then exact cells
    far = 1e-200 * rng.standard_normal((128, 64))
    roc = np.r_[np.inf, rng.random(8189)].reshape(-1, 3)
    p = tmp_path / "m.csv"
    for matrix in (bits.reshape(-1, 16), ranged.reshape(-1, 8),
                   np.concatenate([near, -near]).reshape(-1, 5), special[:, None],
                   integers.reshape(-1, 3), far, roc):
        save_csv(p, matrix)
        assert p.read_text() == percent_csv(matrix)
    save_csv(p, [1e-07])  # the double nearest 1e-7 lies just below it
    assert p.read_text() == "9.9999999999999995e-08\n"
    # blocks of 7 cells, under a header and beside labels, cut rows of
    # fallback cells apart from rows of exact ones
    monkeypatch.setattr(rca.io, "_BLOCK_CELLS", 7)
    matrix = np.concatenate([special, near[:29]]).reshape(-1, 3)
    labels = [f"r{i}" for i in range(len(matrix))]
    save_csv(p, matrix, header=["id", "a", "b", "c"], row_labels=labels)
    assert p.read_text() == percent_csv(matrix, ["id", "a", "b", "c"], labels)
    # blocks of 2 cells cut each row into parts, the label only before the first
    monkeypatch.setattr(rca.io, "_BLOCK_CELLS", 2)
    save_csv(p, matrix, header=["id", "a", "b", "c"], row_labels=labels)
    assert p.read_text() == percent_csv(matrix, ["id", "a", "b", "c"], labels)
    save_csv(p, matrix)
    assert p.read_text() == percent_csv(matrix)


def _read_back(tmp_path, monkeypatch, cells):
    """Check load_csv against float() one cell at a time, bitwise, on cells
    (a multiple of 16) written 16 to a line. Return how many cells the parse
    kernel read, and an iterator over the text and end offset of each cell it
    left to float()."""
    kernel, calls = rca.io._kernel, []

    def recorded_kernel(arr, windows, start, end):
        values, fast = kernel(arr, windows, start, end)
        calls.append((arr, start[~fast].tolist(), end[~fast].tolist(), np.count_nonzero(fast)))
        return values, fast

    p = tmp_path / "cells.csv"
    p.write_text("".join(",".join(cells[i:i + 16]) + "\n" for i in range(0, len(cells), 16)))
    with monkeypatch.context() as m:
        m.setattr(rca.io, "_kernel", recorded_kernel)
        values = load_csv(p)[0].ravel()
    expected = np.array([float(cell) for cell in cells])
    wrong = np.flatnonzero(values.view(np.uint64) != expected.view(np.uint64))
    assert not wrong.size, [(cells[i], values[i]) for i in wrong[:10]]
    left = ((arr[s:e].tobytes().decode(), e) for arr, starts, ends, _ in calls
            for s, e in zip(starts, ends))
    return sum(read for *_, read in calls), left


def _digit_strings(rng, n):
    """n cells -?digits[.digits] of 1 to 27 bytes, the point anywhere or
    nowhere: 24- and 25-byte cells, and 0 to 25 digits after the point."""
    cells = []
    for size, neg, point, digits in zip(rng.integers(1, 28, n), rng.integers(0, 2, n),
                                        rng.integers(-8, 27, n), rng.integers(0, 10, (n, 27))):
        text = "".join(map(str, digits[:size]))
        if 0 <= point <= size:
            text = text[:point] + "." + text[point:]
        cells.append("-" * neg + text)
    return cells


_KERNEL_FORM = re.compile(r"-?([0-9]*)\.?([0-9]*)")


def _kernel_form(cell):
    """Whether cell has the form the parse kernel reads: -?digits[.digits] in
    at most 24 bytes, its digits an integer below 2**62, at most 22 of them
    after the point."""
    match = len(cell) <= 24 and _KERNEL_FORM.fullmatch(cell)
    return bool(match) and 0 < len(match[1] + match[2]) and (
        int(match[1] + match[2]) < 2 ** 62 and len(match[2]) <= 22)


def _near_a_tie(cell):
    """Whether the decimal cell lies within 2**-30 ulp of a midpoint between
    float(cell) and a neighbour, by exact rational arithmetic."""
    exact, q = Fraction(cell), abs(float(cell))
    up, down = np.nextafter(q, np.inf) - q, q - np.nextafter(q, 0.0)
    off = abs(abs(exact) - Fraction(q))
    return any(abs(off - Fraction(gap) / 2) <= Fraction(up) * 2 ** -30 for gap in (up, down))


def test_load_matches_float_bitwise_on_the_kernel_path(tmp_path, monkeypatch):
    # the parse kernel against float() one cell at a time, bitwise: 2**20
    # random bit patterns (the finite ones) written with '%.17g' and repr,
    # most of which float() reads; then cells the kernel reads, where it must
    # read each one of its form: random significands at every binary exponent
    # that '%.17g' writes without an exponent, written also with repr and
    # '%.15g', and below 0.03 with '%.20f'; 10**k and its neighbours 1 and 2
    # ulp away; zeros, integers, and cells beside the kernel's limits; and
    # random digit strings with the point anywhere
    rng = np.random.default_rng(18)
    field = np.uint64(0x7FF) << np.uint64(52)

    def at_exponents(bits, low, high):
        exponents = rng.integers(1023 + low, 1023 + high, bits.size).astype(np.uint64)
        return (bits & ~field | exponents << np.uint64(52)).view(float).tolist()

    near = np.concatenate([_near_powers_of_ten(), -_near_powers_of_ten()]).tolist()
    edges = ["0", "-0", "0.0", "-0.0", "00", "1.", ".5", "-.5", "9007199254740993",
             "9007199254740995", "4611686018427387903", "4611686018427387904",
             "0.4611686018427387903", "0.0000000000000000000001", "1e5", "-1.5E-3", "+1",
             "123456789012345678901234", "1234567890123456789012345", "-12345678901234567890123",
             "0.1234567890123456789012", "0.12345678901234567890123"]
    batches = [[*(fmt % x for fmt in ("%.17g", "%.15g", "%.20f", "%r") for x in near),
                *("%d" % i for i in range(-1000, 1001)), *edges]]
    total = on_kernel = 0
    for _ in range(16):
        bits = rng.integers(0, 2 ** 64, 1 << 16, dtype=np.uint64, endpoint=False)
        finite = bits.view(float)[(bits & field) != field].tolist()
        cells = [*("%.17g" % x for x in finite), *map(repr, finite)]
        cells += ["0"] * (-len(cells) % 16)
        read, _ = _read_back(tmp_path, monkeypatch, cells)
        total, on_kernel = total + len(cells), on_kernel + read
        ranged = at_exponents(bits[:1 << 14], -17, 57)
        small = at_exponents(bits[-(1 << 10):], -75, -5)
        batches.append([*(fmt % x for fmt in ("%.17g", "%.15g", "%r") for x in ranged),
                        *("%.20f" % x for x in small), *_digit_strings(rng, 1 << 10)])
    for cells in batches:
        cells += ["0"] * (-len(cells) % 16)
        read, left = _read_back(tmp_path, monkeypatch, cells)
        # the kernel reads every cell of its form but one next to a tie
        # (9007199254740993 among them) or ending in the file's first 24
        # bytes, and no other cell
        missed = [(text, end) for text, end in left if _kernel_form(text)]
        assert all(end < 24 or _near_a_tie(text) for text, end in missed), missed
        assert read + len(missed) == sum(map(_kernel_form, cells))
        total, on_kernel = total + len(cells), on_kernel + read
    # a test that sent most cells to float() would show little of the kernel
    assert on_kernel > total / 4, (on_kernel, total)
    # ties and near ties go to float(): exact ones (2**54 - 1 lies below a
    # power of two), and V / 10**22 with (2k+1) * 5**22 = +-1 (mod 2**43),
    # which lies within 2**-43 * 10**-22 of the midpoint (2k+1) / 2**65
    odd = [(sign * pow(5 ** 22, -1, 2 ** 43)) % 2 ** 43 + 2 ** 53 for sign in (1, -1)]
    ties = ["9007199254740993", "9007199254740993.0", "4503599627370496.5",
            "18014398509481983", "-18014398509481983",
            *(f"0.000{(k * 5 ** 22 - sign) // 2 ** 43}" for k, sign in zip(odd, (1, -1)))]
    assert all(map(_near_a_tie, ties)) and all(map(_kernel_form, ties))
    cells = ["1." + "0" * 22] * 16 + ties  # a first line of fillers: each tie ends past byte 24
    _, left = _read_back(tmp_path, monkeypatch, cells + ["0"] * (-len(cells) % 16))
    assert set(ties) <= {text for text, _ in left}
    for cell in ("-", ".", "-.", ""):
        p = tmp_path / "edge.csv"
        p.write_text("1.0000000000,2\n" * 3 + f"1.0000000000,{cell}\n")
        message = f"line 4, column 2: not a number: '{re.escape(cell)}'"
        with pytest.raises(ValueError, match=message):
            load_csv(p)


# sha256 of every artifact of two runs (and of the gram the second reads),
# recorded when each cell was still written by its own '%': for each file,
# the digest of the numbers it holds maps to the digest of its bytes. The
# numbers come from BLAS, LAPACK and numpy's SIMD math, whose last bits vary
# with the CPU kernels they pick, so a file carries one entry per kernel
# family seen (OpenBLAS's SkylakeX and Haswell kernels differ here), and a
# run whose numbers match none of them is checked against '%' alone.
_GOLDEN_GRAM = {
    "gram.csv": {
        "fc496baa2e0716d408c71680d443d920a6bdb6f57d629de7acf7a1856e43ee06":
            "9fd98160cb837c0da6ac223b42e02dad680bc378f7cd8d7020e230b4aec5d4cf",
    },
}
_GOLDEN_RUNS = [
    (("synth-diffexpr", "--seed", "1", "--genes", "200", "--planted", "10"), {
        "labels.csv": {
            "21491896f376dc259d303d2b3e2b660e29e3eccc40f0d58c458306c91169d143":
                "fafe5efd9444aa08dae153be5ce91eaad6224a74be46c514930185591be443d3",
        },
        "manifest.txt": {
            "5a22c83a881e0909d76e6276d4769460bd6042e583fe6226849074549329fb53":
                "5a22c83a881e0909d76e6276d4769460bd6042e583fe6226849074549329fb53",
        },
        "t1.csv": {
            "edb757328028111a0e489ac071152f8237fadb13efcdb5b20030c12cd4d5f78a":
                "0f9122210395e722401a0fd54f8b9953d2b782aade5d2685ef03353c53c77cb1",
        },
        "t2.csv": {
            "ad1f02da25dbbea28a8dfefdf413ae4b36200f6e4a86fc817b978ea5bac463e1":
                "7a5b65cc809f6593b392542a4fdd173482fa251c276e14274822406d8e5497a0",
        },
        "y1.csv": {
            "9100f713c78a75816eb7cf9984fc9da22ada0714813b33cd570bd3683067bbb8":
                "51d56e1f2828c24d7010776b3cd248e72817aba1202d76929cda90ae47a461a5",
            "30ed9ec4437544b3d08ba5669ea22a1a0edf143f8b0c4d8f886231580f451a23":
                "e09e5587ab0652e7cb723835b255b6a310aa64b03e35f5bd958435ace5de8068",
        },
        "y2.csv": {
            "c158712159b3dae696751b1a74a3ea591f1ed483ed866e89f277344278b58f79":
                "8cf2be80e0e674ea06c0f7880b5500d04132cbbc6c2a8066812df8d70be15255",
            "5428d1efda2d70a72b718fab6c638985b00e698b82a5334f7d2630558d5a89d1":
                "e57c3d2fbe30becd838d522468ff77aa0d1e0b8dcd14898f716b2212b277541e",
        },
    }),
    (("rca", "--gram", "gram.csv", "--sigma", "identity:1"), {
        "eigvals.csv": {
            "d56e039a69e0fac199a927d05ca81e22ed386f6f43c10c06347426a541dc1754":
                "f76fbeac62f7551376adfac647f4064b1c078da2642d678d0364e6834c50a647",
            "4834613a0db712e856ad2528a5c546fe7666e257898c12fb367b9cffa48caa47":
                "60a9cdc80b4389ba64a37bd4b8e71e2a0eb3c46751fd36ea728684fc9082b37e",
        },
        "loadings.csv": {
            "0df6f9d99e90e7b7077737fe2eb6fc907c1c9f9c8b2685a476447c4b737fc4d2":
                "5af52e15bf3466a616802bada8a32c2244640cec7de0533a5cbfcfbda2a29463",
            "33581a08653f346b0b1c6936f2b987bcec69d2e6018d507365da880adf1683df":
                "78d9929a6b99f0648236ca1ba03e314d9cc9a59c7157bb8cbc259c210794ebbc",
        },
        "manifest.txt": {
            "d415373dd531000d599d67ffd4624a2828b83d6814726ada5077a8468d545a3d":
                "d415373dd531000d599d67ffd4624a2828b83d6814726ada5077a8468d545a3d",
        },
    }),
    *((("rca", "--gram", "gram.csv", "--sigma", sigma), {
        "eigvals.csv": {
            "027a0bf2b6bffe090ca815f00c16cdb31c846c23533fd879f273ef1a63369e30":
                "0ab339ac45a23de04cbefa5f02564258ff68b69ba3076a08c5eb48830859487e",
        },
        "loadings.csv": {
            "8e96c00feb00ac46bacfb093948f20b3e1adcfc5fb7f74780364afad9e06f617":
                "529126b8b9026a0e9f2820c430ae2b0e7670589081a1671a1932f359ca180d2f",
        },
        "manifest.txt": {manifest: manifest},
    }) for sigma, manifest in (
        ("file:sigma.csv", "afbfa388da016eab781fb4312653b8f1632d4daf367a6097acc1105587bf3b61"),
        ("blocks:b0.csv,b1.csv",
         "b681fc1b0b41c79815332933f8f96b1e2f2ffbd580d696ede4cb350485d88eba"))),
]
# the dense Sigma of the file: and blocks: runs, blockdiag(B0, B1)
_GOLDEN_BLOCKS = (np.array([[2.0, 1.0], [1.0, 2.0]]),
                  2.0 * np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1) + np.eye(4))


def _numbers_digest(path):
    """sha256 of what an artifact holds, apart from how its numbers are written."""
    if path.suffix != ".csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    values, header, labels = load_csv(path)
    return hashlib.sha256(values.tobytes() + repr((header, labels)).encode()).hexdigest()


@pytest.mark.parametrize("argv, golden", _GOLDEN_RUNS)
def test_cli_artifacts_keep_their_golden_bytes(tmp_path, monkeypatch, argv, golden):
    # relative paths keep the manifests free of the temporary directory; a
    # gram of small integers is the same whatever BLAS forms it
    monkeypatch.chdir(tmp_path)
    b = np.random.default_rng(17).integers(-3, 4, (9, 6)).astype(float)
    save_csv("gram.csv", b.T @ b + 2 * np.eye(6))
    save_csv("sigma.csv", _block_diag(_GOLDEN_BLOCKS))
    for i, block in enumerate(_GOLDEN_BLOCKS):
        save_csv(f"b{i}.csv", block)
    assert run_cli(*argv, "-o", "out") == 0
    files = sorted((tmp_path / "out").iterdir()) + [tmp_path / "gram.csv"]
    golden = {**golden, **_GOLDEN_GRAM}
    assert sorted(f.name for f in files) == sorted(golden)
    for f in files:
        if f.suffix == ".csv":
            values, header, labels = load_csv(f)
            body = f.read_text().split("\n", 1)[1] if header else f.read_text()
            assert body == percent_csv(values, row_labels=labels), f.name
        text = golden[f.name].get(_numbers_digest(f))
        assert text in (None, hashlib.sha256(f.read_bytes()).hexdigest()), f.name


def test_csv_memory_stays_within_a_few_file_sizes(tmp_path, peak_bytes):
    matrix = np.random.default_rng(15).standard_normal((600, 600))
    p = tmp_path / "m.csv"
    save_csv(p, matrix)
    size = p.stat().st_size
    assert peak_bytes(lambda: load_csv(p)) <= 2.5 * size
    # a byte-order mark, as spreadsheets write one, costs no decoded copy
    q = tmp_path / "bom.csv"
    q.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
    assert peak_bytes(lambda: load_csv(q)) <= 2.5 * size
    # one long row is written and parsed a part at a time
    assert peak_bytes(lambda: save_csv(q, matrix.reshape(1, -1))) <= 3.2 * size
    assert peak_bytes(lambda: load_csv(q)) <= 2.5 * size
    # a header, and row labels besides, keep the body on views of the bounds
    names = [f"c{j}" for j in range(600)]
    save_csv(q, matrix, header=names)
    assert peak_bytes(lambda: load_csv(q)) <= 2.5 * size
    save_csv(q, matrix, header=["id"] + names, row_labels=[f"g{i}" for i in range(600)])
    assert peak_bytes(lambda: load_csv(q)) <= 2.5 * size
    assert peak_bytes(lambda: save_csv(p, matrix)) <= 3.2 * size


def test_split_keeps_cell_bounds_in_int32_below_2_gib(tmp_path, monkeypatch):
    # a bound is at most the file size, so files below 2 GiB take 4 bytes a
    # cell; larger ones (here, a threshold patched below the size) take 8 and
    # the same values, and load_csv reads the same matrix through either
    matrix = np.random.default_rng(16).standard_normal((40, 30))
    p = tmp_path / "m.csv"
    save_csv(p, matrix, header=["id", *(f"c{j}" for j in range(30))],
             row_labels=[f"g{i}" for i in range(40)])
    data = rca.io._read(p)
    monkeypatch.setattr(rca.io, "_BLOCK_BYTES", 1000)  # several scan steps
    bounds, last = rca.io._split(data)
    assert bounds.dtype == np.int32
    monkeypatch.setattr(rca.io, "_INT32_BYTES", len(data) - 1)
    wide, wide_last = rca.io._split(data)
    assert wide.dtype == np.int64
    assert np.array_equal(wide, bounds) and np.array_equal(wide_last, last)
    back, header, labels = load_csv(p)
    assert np.array_equal(back, matrix) and len(header) == 30 and len(labels) == 40


_LABELS = [f"g{i}" for i in range(1000)]


@pytest.mark.parametrize("header, row_labels, first", [
    (["id", "x"], [*_LABELS, " g", "a,b"], " g"),
    (["id", "x"], [*_LABELS, "a\nb", "c "], "a\nb"),
    (["id", "x"], [1, " 2", "a,b"], " 2"),
    (["id", "x,y"], [" g"], "x,y"),
])
def test_name_check_names_the_first_offender(header, row_labels, first):
    # one pass over every name decides; only a refusal looks for the name
    rca.io._check_names(header[:1] + ["x"], _LABELS)
    rca.io._check_names(["id", "x"], [1, 2])  # a label that is no str reads as str() writes it
    with pytest.raises(ValueError, match=f"^name or label {re.escape(repr(first))} "):
        rca.io._check_names(header, row_labels)


def test_an_interrupt_after_the_rename_propagates_and_keeps_the_file(tmp_path, monkeypatch):
    # the rename is done when the interrupt lands: the file stays in place, no
    # temporary is left to remove, and the interrupt itself propagates
    class Interrupt(BaseException):
        pass

    replace = os.replace

    def replace_then_interrupt(src, dst):
        replace(src, dst)
        raise Interrupt

    monkeypatch.setattr(rca.io.os, "replace", replace_then_interrupt)
    p = tmp_path / "m.txt"
    with pytest.raises(Interrupt):
        atomic_write_text(p, "new\n")
    assert p.read_text() == "new\n"
    assert [f.name for f in tmp_path.iterdir()] == ["m.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_the_mode_of_a_plain_open(tmp_path, monkeypatch, umask, mode):
    # the writes leave the process umask alone: they never even read it
    set_umask = os.umask
    saved = set_umask(umask)

    def no_umask(mask):
        raise AssertionError("an artifact write called os.umask")

    monkeypatch.setattr(os, "umask", no_umask)
    try:
        save_csv(tmp_path / "m.csv", np.eye(2))
        atomic_write_text(tmp_path / "t.txt", "x\n")
    finally:
        set_umask(saved)
    assert (tmp_path / "m.csv").stat().st_mode & 0o777 == mode
    assert (tmp_path / "t.txt").stat().st_mode & 0o777 == mode


def test_manifest_round_trip(tmp_path):
    p = tmp_path / "manifest.txt"
    atomic_write_text(p, format_manifest({"alpha": 0.1, "q": 3, "command": "itrca"}))
    entries = read_manifest(p)
    assert entries["command"] == "itrca"
    assert float(entries["alpha"]) == 0.1
    assert int(entries["q"]) == 3
    # sorted keys -> deterministic bytes
    assert p.read_text().splitlines()[0].startswith("alpha=")
    # blank lines, as a hand edit may leave, are skipped
    p.write_text("q=3\n\n  \ncommand=itrca\n")
    assert read_manifest(p) == {"q": "3", "command": "itrca"}


@pytest.mark.parametrize("entry", [{"y2": "a\nq1=0"}, {"y2": "a\rb"}, {"y\n2": "a"}])
def test_manifest_rejects_a_line_break(entry):
    with pytest.raises(ValueError, match="manifest entry 'y"):
        format_manifest({"command": "itrca", **entry})


# ---------------------------------------------------------------- arg parsing

def test_parse_sigma_spec(tmp_path):
    assert isinstance(parse_sigma_spec("identity:2.0"), ScaledIdentity)
    m = tmp_path / "s.csv"
    save_csv(m, np.eye(2))
    assert isinstance(parse_sigma_spec(f"file:{m}"), Explicit)
    assert isinstance(parse_sigma_spec(f"lowrank:{m}:0.5"), LowRankPlusNoise)
    assert isinstance(parse_sigma_spec(f"blocks:{m},{m}"), BlockDiagonal)
    with pytest.raises(ValueError, match="unknown covariance spec"):
        parse_sigma_spec("wat:1")


def subcommands(parser):
    """Each subcommand's name and parser, read off the parser itself."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", list(subcommands(build_parser())))
def test_every_subcommand_takes_an_outdir(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert "-o OUTDIR, --outdir OUTDIR" in capsys.readouterr().out


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # parse_args leaves a parser as it was, so main reuses one per process:
    # a later call sees its own arguments and defaults, and the same help
    built = []
    monkeypatch.setattr(rca.cli, "build_parser", lambda: built.append(1) or build_parser())
    rca.cli._parser.cache_clear()
    try:
        for argv in (["--n", "20"], []):
            assert main(["synth-shared", "--seed", "1", *argv, "-o", str(tmp_path)]) == 0
            assert read_manifest(tmp_path / "manifest.txt")["n"] == (argv or ["", "500"])[1]
        with pytest.raises(SystemExit):
            main(["--help"])
    finally:
        rca.cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().out == build_parser().format_help()


# each CLI option with a default, the library callable it feeds and that
# callable's parameter; a --no-X flag's default is the negation of X's
LIBRARY_DEFAULTS = [
    ("rca", "n_obs", rca_fit, "n_obs"),
    ("diffexpr", "lengthscale", KernelSpec, "lengthscale"),
    ("diffexpr", "noise_fraction", KernelSpec, "noise"),
    ("diffexpr", "no_standardize", residual_scores, "standardize"),
    ("itrca", "tol", iterative_rca, "tol"),
    ("itrca", "max_iter", iterative_rca, "max_iter"),
    ("predict", "mode", predict_view1, "mode"),
    ("synth-diffexpr", "genes", make_diffexpr_pair, "n_genes"),
    ("synth-diffexpr", "planted", make_diffexpr_pair, "n_planted"),
    ("synth-diffexpr", "noise_sd", make_diffexpr_pair, "noise_sd"),
] + [("synth-shared", dest, make_shared_private, dest)
     for dest in ("n", "d1", "d2", "q_shared", "q1", "q2", "noise_sd")]


@pytest.mark.parametrize("command, dest, function, param", LIBRARY_DEFAULTS,
                         ids=[f"{c}-{d}" for c, d, _, _ in LIBRARY_DEFAULTS])
def test_cli_defaults_are_the_library_defaults(command, dest, function, param):
    cli = subcommands(build_parser())[command].get_default(dest)
    if dest.startswith("no_"):
        cli = not cli
    assert cli == inspect.signature(function).parameters[param].default


def test_parse_times(tmp_path):
    np.testing.assert_array_equal(parse_times("0,10,20"), [0.0, 10.0, 20.0])
    p = tmp_path / "t.csv"
    save_csv(p, np.array([1.0, 2.0]))
    np.testing.assert_array_equal(parse_times(str(p)), [1.0, 2.0])
    with pytest.raises(ValueError, match="neither"):
        parse_times("no/such/file")


# ---------------------------------------------------------------- commands

def run_cli(*argv):
    return main(list(argv))


def test_rca_command_artifacts(tmp_path):
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 5))
    gram = tmp_path / "g.csv"
    save_csv(gram, b.T @ b + 2 * np.eye(5))
    out = tmp_path / "out"
    assert run_cli("rca", "--gram", str(gram), "--sigma", "identity:1.0",
                   "-o", str(out)) == 0
    eig, header, _ = load_csv(out / "eigvals.csv")
    assert header == ["eigenvalue"]
    assert eig.shape == (5, 1)
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["command"] == "rca"
    assert int(manifest["q"]) == int(np.sum(eig > 1.0))


@pytest.mark.parametrize("form", ["file", "blocks"])
def test_dense_sigma_forms_write_the_library_fit(tmp_path, form):
    # file: and blocks: reach rca_fit as an Explicit and a BlockDiagonal, and
    # the run's artifacts are save_csv's bytes of that library fit
    rng = np.random.default_rng(23)
    blocks = [c @ c.T + np.eye(len(c)) for c in (rng.standard_normal((k, k)) for k in (3, 4))]
    w = rng.standard_normal((7, 2))
    paths = [tmp_path / f"{name}.csv" for name in ("gram", "sigma", "b0", "b1")]
    for path, value in zip(paths, [w @ w.T + _block_diag(blocks), _block_diag(blocks), *blocks]):
        save_csv(path, value)
    gram, sigma, *parts = (load_csv(path)[0] for path in paths)
    spec, arg = ((Explicit(sigma), f"file:{paths[1]}") if form == "file" else
                 (BlockDiagonal(tuple(parts)), f"blocks:{paths[2]},{paths[3]}"))
    out = tmp_path / "out"
    assert run_cli("rca", "--gram", str(paths[0]), "--sigma", arg, "-o", str(out)) == 0
    fit = rca_fit(gram, spec)
    assert fit.q == 2 and read_manifest(out / "manifest.txt")["q"] == "2"
    save_csv(tmp_path / "eigvals.csv", fit.eig.values, ["eigenvalue"])
    save_csv(tmp_path / "loadings.csv", fit.loadings)
    for name in ("eigvals.csv", "loadings.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_cli_failure_is_single_line(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("rca", "--gram", "missing.csv", "--sigma", "identity:1.0",
                   "-o", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: rca:")
    assert not out.exists()


def run_module(tmp_path, *argv):
    """`python -m rca.cli argv` in a child process, with src on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(rca.cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "RCA_OUTDIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run([sys.executable, "-m", "rca.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_exits_with_mains_code(tmp_path):
    done = run_module(tmp_path, "synth-shared", "--seed", "1", "--n", "40", "-o", "shr")
    assert (done.returncode, done.stderr) == (0, "")
    assert read_manifest(tmp_path / "shr" / "manifest.txt")["command"] == "synth-shared"
    assert load_csv(tmp_path / "shr" / "y1.csv")[0].shape == (40, 15)

    done = run_module(tmp_path, "rca", "--gram", "missing.csv", "--sigma", "identity:1",
                      "-o", "out")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: rca: FileNotFoundError:")
    assert not (tmp_path / "out").exists()

    done = run_module(tmp_path, "rca", "--sigma", "identity:1")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: ")
    assert "the following arguments are required: --gram" in done.stderr


@pytest.mark.parametrize("argv,message", [
    (("synth-diffexpr", "--genes", "5", "--planted", "10"),
     "n_planted must be between 0 and n_genes = 5, got 10"),
    (("synth-shared", "--n", "3"), "n must exceed q_shared + q1 + q2 = 4, got 3"),
    (("synth-diffexpr", "--genes", "5", "--planted", "2", "--noise-sd", "nan"),
     "noise_sd must be finite, got nan")])
def test_synth_commands_name_an_out_of_range_size(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "--seed", "1", "-o", str(out)) == 1
    assert capsys.readouterr().err == f"error: {argv[0]}: ValueError: {message}\n"
    assert not out.exists()


def test_failed_diffexpr_leaves_no_artifacts(tmp_path):
    syn = tmp_path / "syn"
    assert run_cli("synth-diffexpr", "--seed", "1", "--genes", "30",
                   "--planted", "3", "-o", str(syn)) == 0
    out = tmp_path / "out"
    code = run_cli("diffexpr", "--y1", str(syn / "y1.csv"),
                   "--y2", str(syn / "y2.csv"),
                   "--t1", str(syn / "t1.csv"), "--t2", str(syn / "t2.csv"),
                   "--labels", "nonexistent.csv", "-o", str(out))
    assert code == 1
    assert not (out / "scores.csv").exists()
    assert not (out / "manifest.txt").exists()


def test_diffexpr_and_roc_outputs(tmp_path):
    syn = tmp_path / "syn"
    run_cli("synth-diffexpr", "--seed", "2", "--genes", "40", "--planted", "4",
            "-o", str(syn))
    out = tmp_path / "out"
    assert run_cli("diffexpr", "--y1", str(syn / "y1.csv"),
                   "--y2", str(syn / "y2.csv"),
                   "--t1", str(syn / "t1.csv"), "--t2", str(syn / "t2.csv"),
                   "--labels", str(syn / "labels.csv"), "-o", str(out)) == 0
    lines = (out / "scores.csv").read_text().splitlines()
    assert lines[0] == "gene_id,score,rank"
    assert len(lines) == 41
    ranks = sorted(int(line.split(",")[2]) for line in lines[1:])
    assert ranks == list(range(1, 41))
    roc_lines = (out / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "threshold,fpr,tpr"
    # a table the reader takes back whole; the AUC is the manifest's auc=
    assert load_csv(out / "roc.csv")[0].shape == (len(roc_lines) - 1, 3)
    assert "auc" in read_manifest(out / "manifest.txt")


def test_diffexpr_golden_bytes(tmp_path, monkeypatch):
    # fixed scores (ties, zero, subnormal-range and huge values) pin the
    # bytes of both artifacts, header gene names included
    scores = np.array([0.1, 1 / 3, 0.0, 1 / 3, 2.5e-300, 7.0, 1e22])
    monkeypatch.setattr(rca.cli, "residual_scores", lambda pair, spec, standardize:
                        ScoredRanking(scores, np.argsort(-scores, kind="stable"), 2))
    (tmp_path / "y1.csv").write_text("alpha,b,c,d,e,f,g\n1,2,3,4,5,6,7\n2,3,4,5,6,7,8\n")
    save_csv(tmp_path / "y2.csv", np.ones((2, 7)))
    save_csv(tmp_path / "labels.csv", np.array([1.0, 0, 0, 1, 0, 1, 0]))
    out = tmp_path / "out"
    assert run_cli("diffexpr", "--y1", str(tmp_path / "y1.csv"),
                   "--y2", str(tmp_path / "y2.csv"), "--t1", "0,1", "--t2", "0,1",
                   "--labels", str(tmp_path / "labels.csv"), "-o", str(out)) == 0
    assert (out / "scores.csv").read_bytes() == (
        b"gene_id,score,rank\n"
        b"alpha,0.10000000000000001,5\nb,0.33333333333333331,3\nc,0,7\n"
        b"d,0.33333333333333331,4\ne,2.5e-300,6\nf,7,2\ng,1e+22,1\n")
    assert (out / "roc.csv").read_bytes() == (
        b"threshold,fpr,tpr\ninf,0,0\n1e+22,0.25,0\n7,0.25,0.33333333333333331\n"
        b"0.33333333333333331,0.5,0.66666666666666663\n0.10000000000000001,0.5,1\n"
        b"2.5e-300,0.75,1\n0,1,1\n")


def test_numeric_gene_ids_read_back_as_labels(tmp_path):
    # Entrez-style ids: the first label reads as a number, the others do not
    ids = ["7157", "b", "c", "672"]
    (tmp_path / "y1.csv").write_text(",".join(ids) + "\n1,2,3,4\n2,3,4,6\n4,1,2,3\n")
    save_csv(tmp_path / "y2.csv", np.array([[1.0, 2, 3, 5], [3, 3, 1, 4], [2, 0, 2, 2]]))
    out = tmp_path / "out"
    assert run_cli("diffexpr", "--y1", str(tmp_path / "y1.csv"), "--y2", str(tmp_path / "y2.csv"),
                   "--t1", "0,1,2", "--t2", "0,1,2", "-o", str(out)) == 0
    scores, header, labels = load_csv(out / "scores.csv")
    assert (header, labels, scores.shape) == (["score", "rank"], ids, (4, 2))
    assert sorted(scores[:, 1]) == [1, 2, 3, 4]


def test_all_numeric_gene_ids_are_written_and_read_back_as_data(tmp_path):
    # ids under a labeled y1.csv's header, every one a number: save_csv keeps
    # them, and scores.csv reads back with them as its first data column
    ids = ["7157", "7158", "672", "675"]
    (tmp_path / "y1.csv").write_text("time," + ",".join(ids) +
                                     "\nt0,1,2,3,4\nt1,2,3,4,6\nt2,4,1,2,3\n")
    save_csv(tmp_path / "y2.csv", np.array([[1.0, 2, 3, 5], [3, 3, 1, 4], [2, 0, 2, 2]]))
    out = tmp_path / "out"
    assert run_cli("diffexpr", "--y1", str(tmp_path / "y1.csv"), "--y2", str(tmp_path / "y2.csv"),
                   "--t1", "0,1,2", "--t2", "0,1,2", "-o", str(out)) == 0
    scores, header, labels = load_csv(out / "scores.csv")
    assert (header, labels, scores.shape) == (["gene_id", "score", "rank"], None, (4, 3))
    assert scores[:, 0].tolist() == [float(i) for i in ids]


def test_diffexpr_refuses_a_header_wider_than_its_data(tmp_path, capsys):
    # a name too many would otherwise shift every gene id off its column
    (tmp_path / "y1.csv").write_text("a,b,c,d\n1,2,3\n2,3,5\n4,1,2\n")
    save_csv(tmp_path / "y2.csv", np.array([[1.0, 2, 3], [3, 3, 1], [2, 0, 2]]))
    out = tmp_path / "out"
    assert run_cli("diffexpr", "--y1", str(tmp_path / "y1.csv"), "--y2", str(tmp_path / "y2.csv"),
                   "--t1", "0,1,2", "--t2", "0,1,2", "-o", str(out)) == 1
    assert capsys.readouterr().err == (f"error: diffexpr: ValueError: {tmp_path / 'y1.csv'}: "
                                       "line 1: header has 4 names for 3 columns\n")
    assert not out.exists()


def test_diffexpr_bytes_match_a_per_row_format(tmp_path):
    # a seeded run against its own numbers formatted one row at a time: the
    # bytes hold on any BLAS, where a recorded digest of the scores would not
    syn, out = tmp_path / "syn", tmp_path / "out"
    run_cli("synth-diffexpr", "--seed", "2", "--genes", "40", "--planted", "4",
            "--noise-sd", "1.0", "-o", str(syn))
    files = [str(syn / f"{name}.csv") for name in ("y1", "y2", "t1", "t2", "labels")]
    assert run_cli("diffexpr", "--y1", files[0], "--y2", files[1], "--t1", files[2],
                   "--t2", files[3], "--labels", files[4], "-o", str(out)) == 0
    y1, y2, t1, t2, labels = (load_csv(f)[0] for f in files)
    ranking = residual_scores(TimeSeriesPair(y1, y2, t1.ravel(), t2.ravel()),
                              KernelSpec(20.0, 0.01, FRACTION))
    rank = np.argsort(ranking.order) + 1
    assert (out / "scores.csv").read_text() == "gene_id,score,rank\n" + "".join(
        f"g{j},{s:.17g},{r}\n" for j, (s, r) in enumerate(zip(ranking.scores, rank)))
    roc = roc_curve(ranking.scores, labels.ravel())
    assert 0 < roc.auc < 1
    assert (out / "roc.csv").read_text() == "threshold,fpr,tpr\n" + "".join(
        f"{thr:.17g},{fpr:.17g},{tpr:.17g}\n"
        for thr, (fpr, tpr) in zip(roc.thresholds, roc.points))


def test_diffexpr_rejects_non_binary_labels(tmp_path, capsys):
    # labels 0.4 and 1.7 are not 0 and 1: no ROC, and the outdir is untouched
    syn = tmp_path / "syn"
    assert run_cli("synth-diffexpr", "--seed", "2", "--genes", "40", "--planted", "4",
                   "-o", str(syn)) == 0
    inputs = ("--y1", str(syn / "y1.csv"), "--y2", str(syn / "y2.csv"),
              "--t1", str(syn / "t1.csv"), "--t2", str(syn / "t2.csv"))
    out = tmp_path / "out"
    assert run_cli("diffexpr", *inputs, "--labels", str(syn / "labels.csv"),
                   "-o", str(out)) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    labels, _, _ = load_csv(syn / "labels.csv")
    fuzzy = tmp_path / "fuzzy.csv"
    save_csv(fuzzy, np.where(labels > 0.5, 1.7, 0.4))
    capsys.readouterr()
    assert run_cli("diffexpr", *inputs, "--labels", str(fuzzy), "-o", str(out)) == 1
    assert "labels must be binary" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_itrca_predict_flow(tmp_path):
    shr = tmp_path / "shr"
    run_cli("synth-shared", "--seed", "4", "--n", "250", "-o", str(shr))
    fit = tmp_path / "fit"
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"),
                   "--y2", str(shr / "y2.csv"), "--alpha", "0.1",
                   "-o", str(fit)) == 0
    manifest = read_manifest(fit / "manifest.txt")
    assert manifest["converged"] == "True"
    # the start fired: it found the planted shared directions
    assert manifest["q_start"] == manifest["q_shared"] == "2"
    iter_lines = (fit / "iterations.csv").read_text().splitlines()
    assert iter_lines[0] == "iteration,log_likelihood,q1,q2,q_shared"
    assert len(iter_lines) == int(manifest["n_iter"]) + 1

    pred = tmp_path / "pred"
    assert run_cli("predict", "--model-dir", str(fit),
                   "--y2", str(shr / "y2.csv"), "--mode", "exact",
                   "--truth", str(shr / "y1.csv"), "-o", str(pred)) == 0
    values, _, _ = load_csv(pred / "predictions.csv")
    truth, _, _ = load_csv(shr / "y1.csv")
    assert values.shape == truth.shape
    rms_line = (pred / "rms.txt").read_text()
    assert rms_line.startswith("rms=")
    # exact-mode prediction should beat predicting the mean
    assert float(rms_line.split("=")[1]) < np.std(truth)


@pytest.mark.parametrize("seed,n,alpha,falls", [
    pytest.param(5, 500, 0.3, True, id="falling"),
    pytest.param(4, 250, 0.1, False, id="monotone")])
def test_itrca_manifest_reports_the_largest_history_fall(tmp_path, seed, n, alpha, falls):
    # the CCA start can put pass 1 above the fixed point the later passes
    # settle on; the manifest records the largest fall between passes
    shr, fit = tmp_path / "shr", tmp_path / "fit"
    run_cli("synth-shared", "--seed", str(seed), "--n", str(n), "-o", str(shr))
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"), "--y2", str(shr / "y2.csv"),
                   "--alpha", str(alpha), "-o", str(fit)) == 0
    drop = float(read_manifest(fit / "manifest.txt")["history_max_drop"])
    history = load_csv(fit / "iterations.csv")[0][:, 1]
    assert drop == max(0.0, *(history[:-1] - history[1:]))
    if falls:
        assert drop == pytest.approx(0.1615, abs=1e-3)
    else:
        assert (np.diff(history) > 0).all() and drop == 0.0


def test_predict_with_empty_model_blocks(tmp_path):
    rng = np.random.default_rng(9)
    basis, _ = np.linalg.qr(rng.standard_normal((100, 9)))
    y = basis * 10.0
    y1p, y2p = tmp_path / "y1.csv", tmp_path / "y2.csv"
    save_csv(y1p, y[:, :5])
    save_csv(y2p, y[:, 5:])
    fit = tmp_path / "fit"
    assert run_cli("itrca", "--y1", str(y1p), "--y2", str(y2p),
                   "--alpha", "0.9", "-o", str(fit)) == 0
    manifest = read_manifest(fit / "manifest.txt")
    assert (manifest["q1"], manifest["q2"], manifest["q_shared"]) == ("0", "0", "0")
    assert manifest["q_start"] == "0"
    assert not (fit / "w1.csv").exists()
    pred = tmp_path / "pred"
    assert run_cli("predict", "--model-dir", str(fit), "--y2", str(y2p),
                   "-o", str(pred)) == 0
    values, _, _ = load_csv(pred / "predictions.csv")
    mu1, _, _ = load_csv(fit / "mu1.csv")
    np.testing.assert_allclose(values, np.tile(mu1.ravel(), (100, 1)))


def test_outdir_from_environment(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    gram = tmp_path / "g.csv"
    b = rng.standard_normal((3, 3))
    save_csv(gram, b.T @ b + np.eye(3))
    envdir = tmp_path / "envout"
    monkeypatch.setenv("RCA_OUTDIR", str(envdir))
    assert run_cli("rca", "--gram", str(gram), "--sigma", "identity:1.0") == 0
    assert (envdir / "manifest.txt").exists()


def test_rca_rerun_with_zero_rank_removes_stale_loadings(tmp_path):
    rng = np.random.default_rng(12)
    w = rng.standard_normal((4, 2)) * 3.0
    planted, flat = tmp_path / "planted.csv", tmp_path / "flat.csv"
    save_csv(planted, np.eye(4) + w @ w.T)
    save_csv(flat, np.eye(4))
    out = tmp_path / "out"
    assert run_cli("rca", "--gram", str(planted), "--sigma", "identity:1.0",
                   "-o", str(out)) == 0
    assert read_manifest(out / "manifest.txt")["q"] == "2"
    assert (out / "loadings.csv").exists()
    assert run_cli("rca", "--gram", str(flat), "--sigma", "identity:1.0",
                   "-o", str(out)) == 0
    assert read_manifest(out / "manifest.txt")["q"] == "0"
    assert not (out / "loadings.csv").exists()


def test_itrca_rerun_with_empty_model_removes_stale_blocks(tmp_path):
    shr = tmp_path / "shr"
    assert run_cli("synth-shared", "--seed", "4", "--n", "250", "-o", str(shr)) == 0
    fit = tmp_path / "fit"
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"), "--y2", str(shr / "y2.csv"),
                   "--alpha", "0.1", "-o", str(fit)) == 0
    blocks = ("w1.csv", "w2.csv", "v1.csv", "v2.csv")
    assert all((fit / name).exists() for name in blocks)

    rng = np.random.default_rng(9)
    basis, _ = np.linalg.qr(rng.standard_normal((100, 9)))
    y = basis * 10.0
    y1p, y2p = tmp_path / "y1.csv", tmp_path / "y2.csv"
    save_csv(y1p, y[:, :5])
    save_csv(y2p, y[:, 5:])
    assert run_cli("itrca", "--y1", str(y1p), "--y2", str(y2p),
                   "--alpha", "0.9", "-o", str(fit)) == 0
    manifest = read_manifest(fit / "manifest.txt")
    assert (manifest["q1"], manifest["q2"], manifest["q_shared"]) == ("0", "0", "0")
    assert not any((fit / name).exists() for name in blocks)
    pred = tmp_path / "pred"
    assert run_cli("predict", "--model-dir", str(fit), "--y2", str(y2p),
                   "-o", str(pred)) == 0


def test_diffexpr_rerun_without_labels_removes_stale_roc(tmp_path):
    syn = tmp_path / "syn"
    assert run_cli("synth-diffexpr", "--seed", "2", "--genes", "40", "--planted", "4",
                   "-o", str(syn)) == 0
    inputs = ("--y1", str(syn / "y1.csv"), "--y2", str(syn / "y2.csv"),
              "--t1", str(syn / "t1.csv"), "--t2", str(syn / "t2.csv"))
    out = tmp_path / "out"
    assert run_cli("diffexpr", *inputs, "--labels", str(syn / "labels.csv"),
                   "-o", str(out)) == 0
    assert (out / "roc.csv").exists()
    assert run_cli("diffexpr", *inputs, "-o", str(out)) == 0
    assert "auc" not in read_manifest(out / "manifest.txt")
    assert not (out / "roc.csv").exists()


def test_predict_rerun_without_truth_removes_stale_rms(tmp_path):
    shr = tmp_path / "shr"
    assert run_cli("synth-shared", "--seed", "4", "--n", "250", "-o", str(shr)) == 0
    fit = tmp_path / "fit"
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"), "--y2", str(shr / "y2.csv"),
                   "--alpha", "0.1", "-o", str(fit)) == 0
    inputs = ("--model-dir", str(fit), "--y2", str(shr / "y2.csv"))
    pred = tmp_path / "pred"
    assert run_cli("predict", *inputs, "--truth", str(shr / "y1.csv"),
                   "-o", str(pred)) == 0
    assert (pred / "rms.txt").exists()
    assert run_cli("predict", *inputs, "-o", str(pred)) == 0
    assert "rms" not in read_manifest(pred / "manifest.txt")
    assert not (pred / "rms.txt").exists()


@pytest.mark.parametrize("truth", ["missing", "mismatched"])
def test_failed_predict_leaves_outdir_unchanged(tmp_path, truth):
    shr = tmp_path / "shr"
    assert run_cli("synth-shared", "--seed", "4", "--n", "250", "-o", str(shr)) == 0
    fit = tmp_path / "fit"
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"), "--y2", str(shr / "y2.csv"),
                   "--alpha", "0.1", "-o", str(fit)) == 0
    y2, _, _ = load_csv(shr / "y2.csv")
    pred = tmp_path / "pred"
    assert run_cli("predict", "--model-dir", str(fit), "--y2", str(shr / "y2.csv"),
                   "--truth", str(shr / "y1.csv"), "-o", str(pred)) == 0
    before = {f.name: f.read_bytes() for f in pred.iterdir()}

    other_y2 = tmp_path / "y2_head.csv"
    save_csv(other_y2, y2[:50])
    bad_truth = tmp_path / "truth.csv"
    if truth == "mismatched":
        save_csv(bad_truth, np.zeros((50, 1)))
    assert run_cli("predict", "--model-dir", str(fit), "--y2", str(other_y2),
                   "--truth", str(bad_truth), "-o", str(pred)) == 1
    assert {f.name: f.read_bytes() for f in pred.iterdir()} == before


@pytest.mark.parametrize("name", ["v1.csv", "w2.csv", "mu1.csv"])
def test_predict_rejects_a_model_block_the_manifest_contradicts(tmp_path, capsys, name):
    # a model file cut to its first row would broadcast into a prediction
    # of copied columns; its shape is checked against the manifest instead
    shr = tmp_path / "shr"
    assert run_cli("synth-shared", "--seed", "3", "-o", str(shr)) == 0
    fit = tmp_path / "fit"
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"), "--y2", str(shr / "y2.csv"),
                   "--alpha", "0.1", "-o", str(fit)) == 0
    args = ("predict", "--model-dir", str(fit), "--y2", str(shr / "y2.csv"),
            "--truth", str(shr / "y1.csv"), "-o", str(tmp_path / "pred"))
    assert run_cli(*args) == 0
    before = {f.name: f.read_bytes() for f in (tmp_path / "pred").iterdir()}
    block = fit / name
    block.write_text(block.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert f"ValueError: {name} has shape (1, " in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in (tmp_path / "pred").iterdir()} == before


def predict_after_editing_the_model_manifest(tmp_path, capsys, key, line):
    """Run predict, replace the model manifest's key= line by line and rerun
    it: the rerun fails and leaves -o as it was. Returns its stderr."""
    shr = tmp_path / "shr"
    assert run_cli("synth-shared", "--seed", "3", "-o", str(shr)) == 0
    fit = tmp_path / "fit"
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"), "--y2", str(shr / "y2.csv"),
                   "--alpha", "0.1", "-o", str(fit)) == 0
    args = ("predict", "--model-dir", str(fit), "--y2", str(shr / "y2.csv"),
            "-o", str(tmp_path / "pred"))
    assert run_cli(*args) == 0
    before = {f.name: f.read_bytes() for f in (tmp_path / "pred").iterdir()}
    manifest = fit / "manifest.txt"
    manifest.write_text("".join(line if old.startswith(f"{key}=") else old
                                for old in manifest.read_text().splitlines(True)))
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert {f.name: f.read_bytes() for f in (tmp_path / "pred").iterdir()} == before
    return capsys.readouterr().err


@pytest.mark.parametrize("key", ["q1", "n_iter"])
def test_predict_names_a_key_missing_from_the_manifest(tmp_path, capsys, key):
    err = predict_after_editing_the_model_manifest(tmp_path, capsys, key, "")
    assert f"ValueError: {tmp_path / 'fit' / 'manifest.txt'} has no {key}= entry" in err


@pytest.mark.parametrize("key, value", [("q1", "one"), ("alpha", ""), ("converged", "yes")])
def test_predict_names_a_malformed_manifest_value(tmp_path, capsys, key, value):
    err = predict_after_editing_the_model_manifest(tmp_path, capsys, key, f"{key}={value}\n")
    manifest = tmp_path / "fit" / "manifest.txt"
    assert f"ValueError: {manifest} has a malformed {key}= entry: {value!r}" in err


def test_a_line_break_in_an_argument_leaves_the_outdir_as_it_was(tmp_path, capsys):
    # a y2 path holding "\nq1=0\n" would forge a q1 entry that predict reads back
    shr = tmp_path / "shr"
    assert run_cli("synth-shared", "--seed", "4", "--n", "250", "-o", str(shr)) == 0
    forged = shr / "y2\nq1=0\nz"
    forged.write_bytes((shr / "y2.csv").read_bytes())
    fit = tmp_path / "fit"
    args = ("itrca", "--y1", str(shr / "y1.csv"), "--alpha", "0.1", "-o", str(fit))
    assert run_cli(*args, "--y2", str(shr / "y2.csv")) == 0
    before = {f.name: f.read_bytes() for f in fit.iterdir()}
    capsys.readouterr()
    assert run_cli(*args, "--y2", str(forged)) == 1
    assert "ValueError: manifest entry 'y2' holds a line break" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in fit.iterdir()} == before


def test_itrca_with_no_iterations_fails_without_outdir(tmp_path, capsys):
    shr = tmp_path / "shr"
    assert run_cli("synth-shared", "--seed", "4", "--n", "250", "-o", str(shr)) == 0
    out = tmp_path / "out"
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"), "--y2", str(shr / "y2.csv"),
                   "--alpha", "0.1", "--max-iter", "0", "-o", str(out)) == 1
    assert "ValueError: max_iter must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_itrca_rejects_a_nan_tol(tmp_path, capsys):
    # NaN fails every comparison, so it would run all max_iter passes and
    # report converged=False
    shr = tmp_path / "shr"
    assert run_cli("synth-shared", "--seed", "4", "--n", "250", "-o", str(shr)) == 0
    out = tmp_path / "out"
    assert run_cli("itrca", "--y1", str(shr / "y1.csv"), "--y2", str(shr / "y2.csv"),
                   "--alpha", "0.1", "--tol", "nan", "-o", str(out)) == 1
    assert "ValueError: tol must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_obs", ["-4", "0"])
def test_rca_rejects_a_non_positive_n_obs(tmp_path, capsys, n_obs):
    gram = tmp_path / "g.csv"
    save_csv(gram, 2 * np.eye(3))
    args = ("rca", "--gram", str(gram), "--sigma", "identity:1.0", "-o", str(tmp_path / "out"))
    assert run_cli(*args) == 0
    before = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    capsys.readouterr()
    assert run_cli(*args, "--n-obs", n_obs) == 1
    assert "ValueError: n_obs must be finite and positive" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()} == before


@pytest.mark.parametrize("flag,name", [("--lengthscale", "lengthscale"),
                                       ("--noise-variance", "noise"),
                                       ("--noise-fraction", "noise")])
def test_diffexpr_names_a_nan_kernel_parameter(tmp_path, capsys, flag, name):
    syn = tmp_path / "syn"
    assert run_cli("synth-diffexpr", "--seed", "1", "--genes", "30",
                   "--planted", "3", "-o", str(syn)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("diffexpr", "--y1", str(syn / "y1.csv"), "--y2", str(syn / "y2.csv"),
                   "--t1", str(syn / "t1.csv"), "--t2", str(syn / "t2.csv"),
                   flag, "nan", "-o", str(out)) == 1
    assert f"ValueError: {name} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("kind", ["ppca", "identity", "lowrank"])
def test_a_non_finite_variance_is_named(tmp_path, capsys, kind, value):
    message = {"ppca": "sigma2 must be finite and positive",
               "identity": "variance must be finite and positive",
               "lowrank": "noise variance must be finite and nonnegative"}[kind]
    rng = np.random.default_rng(5)
    data, gram, factors = tmp_path / "y.csv", tmp_path / "g.csv", tmp_path / "f.csv"
    save_csv(data, rng.standard_normal((20, 4)))
    save_csv(gram, 2 * np.eye(3))
    save_csv(factors, np.ones((3, 1)))
    out = str(tmp_path / "out")

    def args(var):
        if kind == "ppca":
            return ("ppca", "--data", str(data), "--sigma2", var, "-o", out)
        spec = f"identity:{var}" if kind == "identity" else f"lowrank:{factors}:{var}"
        return ("rca", "--gram", str(gram), "--sigma", spec, "-o", out)

    assert run_cli(*args("1.0")) == 0
    before = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*args(value)) == 1
    assert f"ValueError: {message}, got {value}" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()} == before


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_lowrank_factors_are_named(tmp_path, capsys, value):
    gram, factors = tmp_path / "g.csv", tmp_path / "f.csv"
    save_csv(gram, 2 * np.eye(3))
    factors.write_text(f"1,0\n0,{value}\n1,1\n")
    out = tmp_path / "out"
    assert run_cli("rca", "--gram", str(gram), "--sigma", f"lowrank:{factors}:0.5",
                   "-o", str(out)) == 1
    assert "ValueError: factors contain non-finite entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, form", [("lowrank:{f}", "lowrank:PATH:VAR"),
                                        ("lowrank:{f}:", "lowrank:PATH:VAR"),
                                        ("file:", "file:PATH"),
                                        ("blocks:", "blocks:PATH[,PATH...]"),
                                        ("blocks:{f},", "blocks:PATH[,PATH...]"),
                                        ("identity:", "identity:VAR")])
def test_an_empty_sigma_field_names_the_expected_form(tmp_path, capsys, spec, form):
    gram, factors = tmp_path / "g.csv", tmp_path / "f.csv"
    save_csv(gram, 2 * np.eye(3))
    save_csv(factors, np.eye(3))
    out = tmp_path / "out"
    assert run_cli("rca", "--gram", str(gram), "--sigma", spec.format(f=factors),
                   "-o", str(out)) == 1
    err = capsys.readouterr().err
    assert "ValueError: incomplete covariance spec" in err and f"(expected {form})" in err
    assert not out.exists()


def test_diffexpr_names_an_infinite_noise_variance(tmp_path, capsys):
    syn = tmp_path / "syn"
    assert run_cli("synth-diffexpr", "--seed", "1", "--genes", "30",
                   "--planted", "3", "-o", str(syn)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("diffexpr", "--y1", str(syn / "y1.csv"), "--y2", str(syn / "y2.csv"),
                   "--t1", str(syn / "t1.csv"), "--t2", str(syn / "t2.csv"),
                   "--noise-variance", "inf", "-o", str(out)) == 1
    assert "ValueError: noise must be nonnegative and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_predict_rejects_a_model_dir_from_another_command(tmp_path, capsys):
    gram = tmp_path / "g.csv"
    save_csv(gram, 2 * np.eye(3))
    model = tmp_path / "model"
    assert run_cli("rca", "--gram", str(gram), "--sigma", "identity:1.0",
                   "-o", str(model)) == 0
    y2 = tmp_path / "y2.csv"
    save_csv(y2, np.ones((4, 2)))
    assert run_cli("predict", "--model-dir", str(model), "--y2", str(y2),
                   "-o", str(tmp_path / "pred")) == 1
    err = capsys.readouterr().err
    assert f"ValueError: {model} is not an itrca output directory" in err
    assert "'rca'" in err


# ---------------------------------------------------------------- artifact sets

@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files for every subcommand, plus an itrca model for predict."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(12)
    w = rng.standard_normal((4, 2)) * 3.0
    save_csv(root / "planted.csv", np.eye(4) + w @ w.T)
    save_csv(root / "flat.csv", np.eye(4))
    # cross-covariance exactly 0: no canonical correlations
    save_csv(root / "ortho1.csv", np.array([[1.0], [-1.0], [1.0], [-1.0]]))
    save_csv(root / "ortho2.csv",
             np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]))
    # orthogonal views with no residual structure: an all-empty itrca model
    basis, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((100, 9)))
    save_csv(root / "e1.csv", basis[:, :5] * 10.0)
    save_csv(root / "e2.csv", basis[:, 5:] * 10.0)
    assert run_cli("synth-diffexpr", "--seed", "2", "--genes", "40", "--planted", "4",
                   "-o", str(root / "syn")) == 0
    assert run_cli("synth-shared", "--seed", "4", "--n", "250",
                   "-o", str(root / "shr")) == 0
    assert run_cli(*COMMANDS["itrca"].format(root).split(),
                   "-o", str(root / "fit")) == 0
    return root


COMMANDS = {
    "rca": "rca --gram {0}/planted.csv --sigma identity:1.0",
    "rca-q0": "rca --gram {0}/flat.csv --sigma identity:1.0",
    "ppca": "ppca --data {0}/shr/y1.csv --sigma2 0.01",
    "ppca-q0": "ppca --data {0}/shr/y1.csv --sigma2 1000",
    "cca": "cca --y1 {0}/shr/y1.csv --y2 {0}/shr/y2.csv",
    "cca-q0": "cca --y1 {0}/ortho1.csv --y2 {0}/ortho2.csv",
    "diffexpr": "diffexpr --y1 {0}/syn/y1.csv --y2 {0}/syn/y2.csv --t1 {0}/syn/t1.csv "
                "--t2 {0}/syn/t2.csv --labels {0}/syn/labels.csv",
    "diffexpr-no-labels": "diffexpr --y1 {0}/syn/y1.csv --y2 {0}/syn/y2.csv "
                          "--t1 {0}/syn/t1.csv --t2 {0}/syn/t2.csv",
    "itrca": "itrca --y1 {0}/shr/y1.csv --y2 {0}/shr/y2.csv --alpha 0.1",
    "itrca-q0": "itrca --y1 {0}/e1.csv --y2 {0}/e2.csv --alpha 0.9",
    "predict": "predict --model-dir {0}/fit --y2 {0}/shr/y2.csv --truth {0}/shr/y1.csv",
    "predict-no-truth": "predict --model-dir {0}/fit --y2 {0}/shr/y2.csv",
    "synth-diffexpr": "synth-diffexpr --seed 3 --genes 20 --planted 2",
    "synth-shared": "synth-shared --seed 5 --n 60",
    "synth-diffexpr-reseed": "synth-diffexpr --seed 4 --genes 20 --planted 2",
    "synth-shared-reseed": "synth-shared --seed 6 --n 60",
}

LOADINGS = {"eigvals.csv", "loadings.csv", "manifest.txt"}
DIRECTIONS = {"correlations.csv", "s1.csv", "s2.csv", "v1.csv", "v2.csv", "manifest.txt"}
MODEL = {"w1.csv", "w2.csv", "v1.csv", "v2.csv", "mu1.csv", "mu2.csv",
         "iterations.csv", "manifest.txt"}


# each run goes into the outdir the runs before it used
ARTIFACT_SETS = [
    (["rca"], LOADINGS),
    (["rca", "rca-q0"], LOADINGS - {"loadings.csv"}),
    (["ppca"], LOADINGS | {"mean.csv"}),
    (["ppca", "ppca-q0"], LOADINGS - {"loadings.csv"} | {"mean.csv"}),
    (["cca"], DIRECTIONS),
    (["cca", "cca-q0"], {"manifest.txt"}),
    (["diffexpr"], {"scores.csv", "roc.csv", "manifest.txt"}),
    (["diffexpr", "diffexpr-no-labels"], {"scores.csv", "manifest.txt"}),
    (["itrca"], MODEL),
    (["itrca", "itrca-q0"], MODEL - {"w1.csv", "w2.csv", "v1.csv", "v2.csv"}),
    (["predict"], {"predictions.csv", "rms.txt", "manifest.txt"}),
    (["predict", "predict-no-truth"], {"predictions.csv", "manifest.txt"}),
    (["synth-diffexpr"], {"y1.csv", "y2.csv", "t1.csv", "t2.csv", "labels.csv",
                          "manifest.txt"}),
    (["synth-shared"], {"y1.csv", "y2.csv", "v1_true.csv", "v2_true.csv",
                        "w1_true.csv", "w2_true.csv", "manifest.txt"}),
]


@pytest.mark.parametrize("runs, files", ARTIFACT_SETS,
                         ids=["+".join(runs) for runs, _ in ARTIFACT_SETS])
def test_outdir_holds_exactly_the_last_runs_artifacts(inputs, tmp_path, runs, files):
    out = tmp_path / "out"
    for run in runs:
        assert run_cli(*COMMANDS[run].format(inputs).split(), "-o", str(out)) == 0
    assert {f.name for f in out.iterdir()} == files
    assert read_manifest(out / "manifest.txt")["command"] == runs[0]


def test_commands_compute_without_writing(inputs, tmp_path):
    parser = build_parser()
    commands = subcommands(parser)
    assert set(commands) <= set(COMMANDS)
    out = tmp_path / "never"
    for name in commands:
        args = parser.parse_args(COMMANDS[name].format(inputs).split() + ["-o", str(out)])
        artifacts, results = args.func(args)
        assert isinstance(artifacts, dict) and isinstance(results, dict)
        assert not set(results) & set(vars(args))  # results never restate an argument
        assert not out.exists()


@pytest.mark.parametrize("name", COMMANDS)
def test_manifest_records_every_given_argument(inputs, tmp_path, name):
    argv = COMMANDS[name].format(inputs).split()
    assert run_cli(*argv, "-o", str(tmp_path / "out")) == 0
    given = {key: value for key, value in vars(build_parser().parse_args(argv)).items()
             if key not in ("func", "outdir") and value is not None}
    written = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert set(format_manifest(given).splitlines()) <= set(written)


@pytest.mark.parametrize("name", COMMANDS)
def test_every_csv_artifact_reads_back(inputs, tmp_path, name):
    # load_csv gives back each table as written: its array (a vector as one
    # column), and the header and row labels its tuple gave save_csv
    args = build_parser().parse_args(COMMANDS[name].format(inputs).split() + ["-o", str(tmp_path)])
    artifacts, results = args.func(args)
    rca.cli._commit(args, artifacts, results)
    for path in tmp_path.glob("*.csv"):
        value, *table = artifacts[path.name] if isinstance(artifacts[path.name], tuple) else \
            (artifacts[path.name],)
        header, labels = (table + [None, None])[:2]
        back = load_csv(path)
        np.testing.assert_array_equal(back[0], np.reshape(value, (len(value), -1)))
        assert back[1:] == (header if labels is None else header[1:], labels), path.name


# ---------------------------------------------------------------- crash mid-commit

def file_hashes(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


# each subcommand's run and its variant that writes fewer files, in both orders,
# and the two synth commands rerun with another seed
RERUNS = [pair for a, b in [("rca", "rca-q0"), ("itrca", "itrca-q0"), ("ppca", "ppca-q0"),
                            ("cca", "cca-q0"), ("diffexpr", "diffexpr-no-labels"),
                            ("predict", "predict-no-truth")] for pair in ((a, b), (b, a))]
RERUNS += [("synth-diffexpr", "synth-diffexpr-reseed"), ("synth-shared", "synth-shared-reseed")]


@pytest.mark.parametrize("first, rerun", RERUNS)
def test_failed_rename_leaves_the_previous_run_or_no_manifest(
        inputs, tmp_path, monkeypatch, first, rerun):
    # fail the k-th os.replace of the rerun, for every k the rerun reaches
    replace = os.replace
    for k in range(1, 20):
        out = tmp_path / f"out{k}"
        assert run_cli(*COMMANDS[first].format(inputs).split(), "-o", str(out)) == 0
        before = file_hashes(out)
        calls = [0]

        def failing(src, dst, _k=k):
            calls[0] += 1
            if calls[0] == _k:
                raise OSError("injected rename failure")
            return replace(src, dst)

        with monkeypatch.context() as m:
            m.setattr(os, "replace", failing)
            code = run_cli(*COMMANDS[rerun].format(inputs).split(), "-o", str(out))
        if code == 0:  # k is past the rerun's last rename, one per file it wrote
            assert k == len(list(out.iterdir())) + 1
            break
        after = file_hashes(out)
        assert not any(name.startswith(".tmp-") for name in after)
        assert after == before or "manifest.txt" not in after, k
    else:
        pytest.fail("the rerun never completed")
