"""Curve-file reading and writing plus grid resampling.

The interchange format is plain CSV: one curve per row, one grid point per
column, comma delimiter, period decimals, UTF-8. A single header row is
allowed and auto-detected (``float`` rejects every cell); a data cell is a
finite ``float`` literal of ASCII characters without ``_``. Values are written
with 17 significant digits so a write/read round trip is bit-identical.
"""
from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

from .curves import as_sample, grid
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


def parse_curve_text(text: str, source: str = "<string>") -> np.ndarray:
    """Parse CSV text into an (n, J) sample; the first defect in file order is reported."""
    # the lines io.StringIO(text) would yield, without its four-bytes-per-character copy
    reader = csv.reader((m.group() for m in re.finditer(r"[^\n]+\n?|\n", text)), strict=True)
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


def read_text(path) -> str:
    """Read a UTF-8 text file; a file that cannot be read or decoded is a ParseError."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(f"{p}: file not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{p}: cannot read as UTF-8 text ({exc})") from None


def parse_curve_file(path) -> np.ndarray:
    """Read a curve file into an (n, J) sample, one curve per data row."""
    return parse_curve_text(read_text(path), source=str(Path(path)))


def format_curves(sample, header: list[str] | None = None) -> str:
    """Render a sample as CSV text (17 significant digits, exact round trip)."""
    arr = as_sample(sample)
    if header is not None and len(header) != arr.shape[1]:
        raise DomainError("header length must match the number of grid points")
    head = [] if header is None else [",".join(header) + "\n"]
    line = ",".join(["{:.17g}"] * arr.shape[1]) + "\n"
    return "".join(head + [line.format(*values) for values in arr.tolist()])


def write_curve_file(path, sample, header: list[str] | None = None) -> None:
    """Write a sample to a curve file."""
    Path(path).write_text(format_curves(sample, header), encoding="utf-8")


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
