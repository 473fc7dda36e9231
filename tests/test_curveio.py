import numpy as np
import pytest

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
from ecc.curveio import format_curves, parse_curve_text


def test_parse_two_rows():
    sample = parse_curve_text("1,2\n3,4\n")
    assert sample.shape == (2, 2)
    assert np.array_equal(sample, [[1.0, 2.0], [3.0, 4.0]])


def test_parse_header_detected():
    sample = parse_curve_text("t1,t2\n1,2\n3,4\n")
    assert sample.shape == (2, 2)


def test_parse_ragged_row_reports_row_number():
    with pytest.raises(ParseError) as err:
        parse_curve_text("1,2\n3\n")
    assert err.value.row == 2


def test_parse_non_numeric_cell_reports_position():
    with pytest.raises(ParseError) as err:
        parse_curve_text("1,2\n3,x\n")
    assert err.value.row == 2
    assert err.value.column == 2


def test_parse_mixed_first_row_rejected():
    with pytest.raises(ParseError):
        parse_curve_text("a,2\n3,4\n")


def test_parse_non_finite_rejected():
    with pytest.raises(ParseError):
        parse_curve_text("1,nan\n")
    with pytest.raises(ParseError):
        parse_curve_text("1,inf\n")


def test_parse_empty_file():
    with pytest.raises(EmptyInputError):
        parse_curve_text("")
    with pytest.raises(EmptyInputError):
        parse_curve_text("h1,h2\n")


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_curve_file("/nonexistent/place/file.csv")


def test_parse_csv_reader_error_is_parse_error():
    # a bare carriage return inside an unquoted field makes the csv module raise csv.Error
    with pytest.raises(ParseError, match="row 2"):
        parse_curve_text("1,2\n3\r4,5\n")


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
    write_curve_file(path, sample, header=["a", "b"])
    assert parse_curve_file(path).shape == (2, 2)


def test_format_header_length_checked():
    with pytest.raises(DomainError):
        format_curves(np.ones((2, 3)), header=["only", "two"])


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
