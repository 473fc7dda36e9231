"""Curve-file reading and writing plus grid resampling.

The interchange format is plain CSV: one curve per row, one grid point per
column, comma delimiter, period decimals, UTF-8. A single header row is
allowed and auto-detected (every cell non-numeric). Values are written with
17 significant digits so a write/read round trip is bit-identical.
"""
from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .curves import as_sample
from .errors import DomainError, EmptyInputError, ParseError


def _try_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def parse_curve_text(text: str, source: str = "<string>") -> np.ndarray:
    """Parse CSV text into an (n, J) sample; see parse_curve_file."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ParseError(f"{source}: {exc}", row=reader.line_num) from None
    if not rows:
        raise EmptyInputError(f"{source}: no data rows")

    start = 0
    first = [_try_float(c) for c in rows[0]]
    if all(v is None for v in first):
        start = 1  # header row
    elif any(v is None for v in first):
        bad = first.index(None)
        raise ParseError(f"{source}: non-numeric cell {rows[0][bad]!r}", row=1, column=bad + 1)
    if start == len(rows):
        raise EmptyInputError(f"{source}: header only, no data rows")

    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for r in range(start, len(rows)):
        row = rows[r]
        if len(row) != width:
            raise ParseError(
                f"{source}: expected {width} columns, found {len(row)}", row=r + 1
            )
        for c, cell in enumerate(row):
            val = _try_float(cell)
            if val is None:
                raise ParseError(f"{source}: non-numeric cell {cell!r}", row=r + 1, column=c + 1)
            if not np.isfinite(val):
                raise ParseError(f"{source}: non-finite cell {cell!r}", row=r + 1, column=c + 1)
            data[r - start, c] = val
    return data


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
    lines = []
    if header is not None:
        if len(header) != arr.shape[1]:
            raise DomainError("header length must match the number of grid points")
        lines.append(",".join(header))
    for row in arr:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


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
    t_src = np.arange(1, J + 1) / J
    t_dst = np.arange(1, J_target + 1) / J_target
    return np.stack([np.interp(t_dst, t_src, row) for row in arr])
