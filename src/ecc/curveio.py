"""Curve-file reading and writing plus grid resampling.

The interchange format is plain CSV: one curve per row, one grid point per
column, comma delimiter, period decimals, UTF-8. A single header row is
allowed and auto-detected (``float`` rejects every cell), though none is
written; a data cell is a finite ``float`` literal of ASCII characters without
``_``. Values are written with 17 significant digits so a write/read round
trip is bit-identical. A file is read a line at a time through Python's text
layer (``_reading``, which config files go through too) and written a block
of rows at a time, so its whole text is never held in memory. Each data row
is appended to one float buffer (``array.array``) that grows in place by
about 1/16 at a time and that the result shares, so a file or pipe is held
once; the up-to-1/16 slack past the last row is never written, so it is not
resident.
"""
from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .curves import _fits, _row_blocks, as_sample, grid
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


def _parse_lines(lines, source: str) -> np.ndarray:
    """Parse CSV lines (line ends kept) into an (n, J) sample; the first defect in file order is reported.

    The rows go into one growing buffer, which the result shares instead of copying.
    """
    reader = csv.reader(lines, strict=True)
    buf, row, width = array("d"), 0, None
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
            buf.frombytes(values.tobytes())
    except csv.Error as exc:
        raise ParseError(f"{source}: {exc}", row=reader.line_num) from None
    if not buf:
        raise EmptyInputError(f"{source}: header only, no data rows" if row else f"{source}: no data rows")
    return np.frombuffer(buf).reshape(-1, width)


@contextmanager
def _reading(path):
    """Open a file as UTF-8 text with universal newlines, invalid bytes passed on for ``_text_lines`` to report.

    A file that cannot be opened or read is a ParseError naming it.
    """
    p = Path(path)
    try:
        with open(p, encoding="utf-8", errors="surrogateescape") as text:
            yield text
    except FileNotFoundError:
        raise ParseError(f"{p}: file not found") from None
    except OSError as exc:
        raise ParseError(f"{p}: cannot read as UTF-8 text ({exc})") from None


def _text_lines(text, source: str):
    """The lines of a file ``_reading`` opened, read one at a time and each checked to be UTF-8.

    A line that is not UTF-8 is a ParseError naming it, raised when the
    reader reaches it.
    """
    for row, line in enumerate(text, start=1):
        if not line.isascii():  # invalid bytes came through as surrogates: decode them strictly
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{source}: cannot read as UTF-8 text ({exc})", row=row) from None
        yield line


def parse_curve_file(path) -> np.ndarray:
    """Read a curve file into an (n, J) sample, one curve per data row, a line at a time."""
    source = str(Path(path))
    with _reading(path) as text:
        return _parse_lines(_text_lines(text, source), source)


def _csv_blocks(sample):
    """The CSV text of a sample (17 significant digits, exact round trip) as an iterator of row blocks.

    ``sample`` is an array, checked whole at the call and cut into
    ``_row_blocks``, or an iterator of row blocks, which ``ecc simulate``
    streams and whose blocks are each checked by ``as_sample`` before their
    text is made. Every block must be as wide as the first.
    """
    if isinstance(sample, Iterator):
        checked = map(as_sample, sample)
    else:
        arr = as_sample(sample)
        checked = (arr[rows] for rows in _row_blocks(*arr.shape))

    def blocks():
        width = None
        for block in checked:
            if width is None:
                width = block.shape[1]
                line = ",".join(["{:.17g}"] * width) + "\n"
            elif block.shape[1] != width:
                raise DomainError(f"a row block has {block.shape[1]} columns, the first had {width}")
            yield "".join([line.format(*values) for values in block.tolist()])

    return blocks()


def format_curves(sample) -> str:
    """Render a sample as CSV text (17 significant digits, exact round trip), with no header row."""
    return "".join(_csv_blocks(sample))


def write_curve_file(path, sample) -> None:
    """Write a sample to a curve file, a block of rows at a time, with no header row."""
    blocks = _csv_blocks(sample)  # a bad sample raises before the file is made
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
    with _fits(f"J_target = {J_target} grid points"):
        t_src, t_dst = grid(J), grid(J_target)
        return np.stack([np.interp(t_dst, t_src, row) for row in arr])
