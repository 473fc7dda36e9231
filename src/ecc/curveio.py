"""Curve-file reading and writing plus grid resampling.

The interchange format is plain CSV: one curve per row, one grid point per
column, comma delimiter, period decimals, UTF-8. A single header row is
allowed and auto-detected (``float`` rejects every cell); a data cell is a
finite ``float`` literal of ASCII characters without ``_``. Values are written
with 17 significant digits so a write/read round trip is bit-identical. A file
is read a line at a time and written a block of rows at a time, so its whole
text is never held in memory.
"""
from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .curves import _row_blocks, as_sample, grid
from .errors import DomainError, EmptyInputError, ParseError


def _try_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _plain(text: str) -> bool:
    """Whether text has no ``_`` and no non-ASCII character, both of which float() accepts."""
    return text.isascii() and "_" not in text


def _raise_bad_row(cells: list[str], width: int, row: int, source: str) -> None:
    """Raise the ParseError naming the first defect of a data row that failed to convert."""
    if len(cells) != width:
        raise ParseError(f"{source}: expected {width} columns, found {len(cells)}", row=row)
    for col, cell in enumerate(cells, start=1):
        value = _try_float(cell) if _plain(cell) else None
        if value is None or not math.isfinite(value):
            kind = "non-numeric" if value is None else "non-finite"
            raise ParseError(f"{source}: {kind} cell {cell!r}", row=row, column=col)


# the lines io.StringIO(text) would yield, without its four-bytes-per-character copy
_LINES = re.compile(r"[^\n]+\n?|\n")


def _parse_lines(lines, source: str) -> np.ndarray:
    """Parse CSV lines (line ends kept) into an (n, J) sample; the first defect in file order is reported."""
    reader = csv.reader(lines, strict=True)
    data, row, width = [], 0, None
    try:
        for cells in reader:
            if not any(cell.strip() for cell in cells):
                continue
            row += 1
            if row == 1 and all(_try_float(cell) is None for cell in cells):
                continue  # header row
            width = width or len(cells)
            try:
                values = np.array(cells, dtype=float)
                ok = len(cells) == width and _plain("".join(cells)) and np.isfinite(values).all()
            except ValueError:
                ok = False
            if not ok:
                _raise_bad_row(cells, width, row, source)
            data.append(values)
    except csv.Error as exc:
        raise ParseError(f"{source}: {exc}", row=reader.line_num) from None
    if not data:
        raise EmptyInputError(f"{source}: header only, no data rows" if row else f"{source}: no data rows")
    return np.array(data)


def parse_curve_text(text: str, source: str = "<string>") -> np.ndarray:
    """Parse CSV text into an (n, J) sample; the first defect in file order is reported."""
    return _parse_lines((m.group() for m in _LINES.finditer(text)), source)


@contextmanager
def _reading(path: Path):
    """Turn a file that cannot be opened, read or decoded into a ParseError naming it."""
    try:
        yield
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read as UTF-8 text ({exc})") from None


def _text_lines(fh, source: str):
    """The lines text mode gives (UTF-8, universal newlines) of a binary file, decoded one at a time.

    A line that is not UTF-8 is a ParseError naming it, raised when the
    parser reaches it.
    """
    line_num = 0
    for raw in fh:
        lines = (raw,)
        if b"\r" in raw:  # \r\n and a lone \r end a line too, both read as \n
            lines = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(keepends=True)
        for line in lines:
            line_num += 1
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{source}: cannot read as UTF-8 text ({exc})", row=line_num) from None
            yield text


def read_text(path) -> str:
    """Read a UTF-8 text file; a file that cannot be read or decoded is a ParseError."""
    p = Path(path)
    with _reading(p):
        return p.read_text(encoding="utf-8")


def parse_curve_file(path) -> np.ndarray:
    """Read a curve file into an (n, J) sample, one curve per data row, a line at a time."""
    p = Path(path)
    with _reading(p), open(p, "rb") as fh:
        return _parse_lines(_text_lines(fh, str(p)), str(p))


def _csv_blocks(sample, header: list[str] | None = None):
    """The CSV text of a sample (17 significant digits, exact round trip) as an iterator of row blocks.

    The sample and header are checked at the call, before any text is made.
    """
    arr = as_sample(sample)
    if header is not None and len(header) != arr.shape[1]:
        raise DomainError("header length must match the number of grid points")
    line = ",".join(["{:.17g}"] * arr.shape[1]) + "\n"

    def blocks():
        if header is not None:
            yield ",".join(header) + "\n"
        for rows in _row_blocks(*arr.shape):
            yield "".join([line.format(*values) for values in arr[rows].tolist()])

    return blocks()


def format_curves(sample, header: list[str] | None = None) -> str:
    """Render a sample as CSV text (17 significant digits, exact round trip)."""
    return "".join(_csv_blocks(sample, header))


def write_curve_file(path, sample, header: list[str] | None = None) -> None:
    """Write a sample to a curve file, a block of rows at a time."""
    blocks = _csv_blocks(sample, header)  # a bad sample or header raises before the file is made
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(blocks)


def resample_linear(s, J_target: int) -> np.ndarray:
    """Linearly interpolate every curve from its grid onto j/J_target, j=1..J_target.

    Query points outside the source knots (below 1/J) take the nearest knot
    value. Curves must have at least two points.
    """
    arr = as_sample(s)
    J = arr.shape[1]
    if J < 2:
        raise DomainError("resampling needs J >= 2")
    if J_target < 2:
        raise DomainError("J_target must be >= 2")
    t_src, t_dst = grid(J), grid(J_target)
    return np.stack([np.interp(t_dst, t_src, row) for row in arr])
