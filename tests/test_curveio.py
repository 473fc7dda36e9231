import os
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ecc import (
    DgpConfig,
    DomainError,
    EmptyInputError,
    ParseError,
    generate_paired,
    parse_curve_file,
    resample_linear,
    write_curve_file,
)
from ecc.curves import _row_blocks
from ecc.curveio import _csv_blocks, format_curves


@contextmanager
def file_of(data: bytes):
    """The path of a temporary file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        path.write_bytes(data)
        yield path


@contextmanager
def fifo_of(data: bytes):
    """The path of a FIFO that a thread feeds ``data`` into once a reader opens it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        os.mkfifo(path)

        def feed():
            try:
                with open(path, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:  # the parser stopped at a defect and closed its end
                pass

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            yield path
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()


def parse_text(text: str):
    """Parse CSV text the way every caller does: from a file holding its UTF-8 bytes."""
    with file_of(text.encode()) as path:
        return parse_curve_file(path)


def test_parse_two_rows():
    sample = parse_text("1,2\n3,4\n")
    assert sample.shape == (2, 2)
    assert np.array_equal(sample, [[1.0, 2.0], [3.0, 4.0]])


def test_parse_header_detected():
    sample = parse_text("t1,t2\n1,2\n3,4\n")
    assert sample.shape == (2, 2)


def test_parse_ragged_row_reports_row_number():
    with pytest.raises(ParseError) as err:
        parse_text("1,2\n3\n")
    assert err.value.row == 2


def test_parse_non_numeric_cell_reports_position():
    with pytest.raises(ParseError) as err:
        parse_text("1,2\n3,x\n")
    assert err.value.row == 2
    assert err.value.column == 2


def test_parse_mixed_first_row_rejected():
    with pytest.raises(ParseError):
        parse_text("a,2\n3,4\n")


def test_parse_non_finite_rejected():
    with pytest.raises(ParseError):
        parse_text("1,nan\n")
    with pytest.raises(ParseError):
        parse_text("1,inf\n")


@pytest.mark.parametrize(
    "text, row, column",
    [
        ("1_0,2\n3,4\n", 1, 1),  # float() reads 1_0 as 10, and the row is data, not a header
        ("1,2\n\u0663,4\n", 2, 1),  # float() reads the Arabic-Indic digit as 3
        ("1,2\n3,\xa04\n", 2, 2),  # non-ASCII space
        ('"a\n1,2\n', 2, None),  # an unclosed quote runs to the end, reported at the last line
        ('1,2\n3,"4\n', 2, None),
    ],
)
def test_parse_strict_cells_and_quotes(text, row, column):
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert (err.value.row, err.value.column) == (row, column)


def test_parse_empty_file():
    with pytest.raises(EmptyInputError):
        parse_text("")
    with pytest.raises(EmptyInputError):
        parse_text("h1,h2\n")


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_curve_file("/nonexistent/place/file.csv")


def test_parse_csv_reader_error_is_parse_error():
    # text after a closing quote makes the strict csv module raise csv.Error
    with pytest.raises(ParseError, match="row 2") as err:
        parse_text('1,2\n"3"x,4\n')
    assert "',' expected after '\"'" in str(err.value)


def test_unreadable_files_are_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1,2\n\xff,3\n")
    with pytest.raises(ParseError, match="UTF-8"):
        parse_curve_file(bad)
    with pytest.raises(ParseError):
        parse_curve_file(tmp_path)


def test_round_trip_bit_identical(tmp_path):
    cfg = DgpConfig(rho=0.4, alpha=3.0, n=25, J=30, seed=77)
    x, _ = generate_paired(cfg)
    path = tmp_path / "x.csv"
    write_curve_file(path, x)
    back = parse_curve_file(path)
    assert np.array_equal(back, x)


def test_round_trip_with_header(tmp_path):
    sample = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "s.csv"
    path.write_text("a,b\n" + format_curves(sample))
    assert parse_curve_file(path).shape == (2, 2)


finite_samples = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(finite_samples, st.booleans())
@example(np.array([[-0.0], [5e-324], [1e308], [-1e308]]), True)
@example(np.array([[-0.0, 2.2250738585072014e-308, -1.7976931348623157e308]]), False)
def test_format_parse_round_trip_is_bit_identical(sample, with_header):
    header = ",".join(f"t{j}" for j in range(sample.shape[1])) + "\n" if with_header else ""
    back = parse_text(header + format_curves(sample))
    assert np.array_equal(back, sample)
    assert back.tobytes() == sample.tobytes()


# a defective cell's text; None makes its row ragged instead
DEFECTS = [None, "x", "inf", "-1e400", "nan", "1_0", "\u0663"]


@st.composite
def defective_texts(draw, n_defects):
    """A valid CSV body with defects at distinct cells, plus the first defect's (row, column)."""
    n, J = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rows = [[repr(float(draw(st.integers(-50, 50))) / 4) for _ in range(J)] for _ in range(n)]
    spots = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, J - 1)),
                          min_size=n_defects, max_size=n_defects, unique=True))
    header = draw(st.booleans())
    first = None
    for r, c in spots:
        cell = draw(st.sampled_from(DEFECTS))
        if cell is None:
            assume(r > 0)  # the first data row sets the width
            rows[r].append("1")
            key = (r, 0, None)  # the width check precedes the cells
        else:
            rows[r][c] = cell
            key = (r, c + 1, c + 1)
        first = key if first is None else min(first, key)
    # a first row that float() rejects entirely is a header, not a defect
    assume(header or any(cell != "x" for cell in rows[0]))
    lines = ([",".join(f"t{j}" for j in range(J))] if header else []) + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", ",,"])))
    return "\n".join(lines) + "\n", first[0] + 1 + header, first[2]


@settings(max_examples=150, deadline=None)
@given(st.one_of(defective_texts(1), defective_texts(2)))
def test_first_defect_in_file_order_is_reported(case):
    text, row, column = case
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert (err.value.row, err.value.column) == (row, column)


# cells and line ends of the texts a line-at-a-time file read must parse as a whole-text read does
CELLS = ["1", "-2.5", "3e2", "0x1", "x", "inf", "", " ", '"4"', '"5', '"6,7"', "1_0", "\u0663", "\xe9"]
LINE_ENDS = ["\n", "\r\n", "\r", "\r\r\n", "\n\n"]


@st.composite
def csv_texts(draw):
    """CSV text, mostly defective, with mixed line ends, blank lines, quotes and header-like rows."""
    rows = draw(st.lists(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4), max_size=6))
    text = "".join(",".join(row) + draw(st.sampled_from(LINE_ENDS)) for row in rows)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@st.composite
def valid_csv_texts(draw):
    """A sample's CSV text with mixed line ends and blank lines, perhaps a header."""
    sample = draw(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4),
                         elements=st.floats(-1e6, 1e6)))
    header = ",".join(f"t{j}" for j in range(sample.shape[1])) + "\n" if draw(st.booleans()) else ""
    lines = (header + format_curves(sample)).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", ","])))
    return "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)


def _lf(text: str) -> str:
    """``text`` with every CRLF and lone CR line end turned into LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parsed(parse, *args):
    try:
        sample = parse(*args)
        return sample.shape, sample.tobytes()
    except ParseError as exc:
        return type(exc), str(exc), exc.row, exc.column


@settings(max_examples=200, deadline=None)
@given(st.one_of(csv_texts(), valid_csv_texts()))
@example("1,2\r3,4\r\n\r\n5,6")
@example("1,2\n3\r4,5\n")
@example('"a\r\nb",1\n2,3\n')
def test_mixed_line_ends_parse_like_the_same_text_with_lf_ends(text):
    with file_of(text.encode()) as path:
        mixed = _parsed(parse_curve_file, path)
        path.write_bytes(_lf(text).encode())
        assert mixed == _parsed(parse_curve_file, path)


def _outcome_at(path):
    """``_parsed`` of the file at ``path``, with ``path`` in an error's text written as ``<source>``."""
    return tuple(part.replace(str(path), "<source>") if isinstance(part, str) else part
                 for part in _parsed(parse_curve_file, path))


@settings(max_examples=150, deadline=None)
@given(st.one_of(csv_texts(), valid_csv_texts(), defective_texts(1).map(lambda case: case[0])))
@example("1,2\n" * 20000)  # more than a 64 KiB pipe buffer holds: the writer waits for the parser
def test_a_pipe_parses_as_a_file_of_the_same_bytes(text):
    data = text.encode()
    with file_of(data) as path:
        from_file = _outcome_at(path)
    with fifo_of(data) as fifo:
        assert _outcome_at(fifo) == from_file


def test_piped_input_grows_its_buffer_and_parses_as_the_file_does(tmp_path):
    sample = np.random.default_rng(3).standard_normal((3073, 5))  # several pipe buffers of text
    data = (",".join(f"t{j}" for j in range(5)) + "\n" + format_curves(sample)).encode()
    (tmp_path / "s.csv").write_bytes(data)
    from_file = parse_curve_file(tmp_path / "s.csv")
    with fifo_of(data) as fifo:
        piped = parse_curve_file(fifo)
    assert piped.shape == sample.shape
    assert piped.tobytes() == sample.tobytes() == from_file.tobytes()
    assert piped.flags.c_contiguous and piped.flags.writeable


@pytest.mark.parametrize("content, row, column, utf8", [
    (b"1,2\nx,3\n\xff\n", 2, 1, False),  # a defect before the invalid UTF-8 is reported
    (b"1,2\n3\n\xff,3\n", 2, None, False),
    (b"1,2\n\xff,3\nx,4\n", 2, None, True),  # invalid UTF-8 before a defect is reported, with its line
    (b"h1,h2\r\n\r\n1,2\r\n\xc3,4\r\n", 4, None, True),
    (b"1,2\r3,4\r\xff", 3, None, True),
])
def test_invalid_utf8_is_reported_where_the_parser_reaches_it(tmp_path, content, row, column, utf8):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        parse_curve_file(path)
    assert (err.value.row, err.value.column) == (row, column)
    assert str(err.value).startswith(str(path))
    assert ("cannot read as UTF-8 text" in str(err.value)) == utf8


def test_file_bytes_equal_the_formatted_text_at_block_edges(tmp_path):
    J = 50
    B = _row_blocks(1, J)[0].stop  # rows per formatted block
    rng = np.random.default_rng(5)
    line = ",".join(["{:.17g}"] * J) + "\n"
    for n in (1, B - 1, B, B + 1, 3 * B + 2):
        sample = rng.standard_normal((n, J)) * 10.0 ** rng.integers(-300, 300, size=(n, 1))
        text = format_curves(sample)
        # one row template over the whole sample: the text the blocks must add up to
        assert text == "".join([line.format(*row) for row in sample.tolist()])
        write_curve_file(tmp_path / "s.csv", sample)
        assert (tmp_path / "s.csv").read_bytes() == text.encode()
        assert parse_curve_file(tmp_path / "s.csv").tobytes() == sample.tobytes()


def test_streamed_blocks_are_each_checked_before_their_text():
    first = np.arange(6.0).reshape(2, 3)
    for bad, message in ((np.array([[1.0, np.inf, 2.0]]), "finite"), (np.ones((1, 4)), "has 4 columns")):
        blocks = _csv_blocks(iter([first, bad]))
        assert next(blocks) == format_curves(first)
        with pytest.raises(DomainError, match=message):
            next(blocks)


def test_resample_identity():
    s = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(resample_linear(s, 3), s)


def test_resample_hand_example():
    out = resample_linear(np.array([[0.0, 1.0]]), 4)
    assert np.allclose(out, [[0.0, 0.0, 0.5, 1.0]])


def test_resample_constant_curve():
    out = resample_linear(np.full((2, 5), 3.5), 17)
    assert np.allclose(out, 3.5)


def test_resample_rejects_bad_targets():
    with pytest.raises(DomainError):
        resample_linear(np.ones((1, 4)), 1)
    with pytest.raises(DomainError):
        resample_linear(np.ones((1, 1)), 4)


def test_resample_preserves_row_count():
    rng = np.random.default_rng(2)
    s = rng.normal(size=(7, 24))
    out = resample_linear(s, 390)
    assert out.shape == (7, 390)
