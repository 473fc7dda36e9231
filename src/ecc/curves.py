"""Discretized-curve arithmetic.

A curve is a 1-d float array of values sampled at the regular grid
t = 1/J, 2/J, ..., 1 on the unit interval; a functional sample is a 2-d
array of shape (n, J) holding one curve per row. All inner products and
norms carry the uniform grid weight 1/J, so they approximate the usual
integrals on [0, 1]. Summations run through ``np.sum`` (pairwise
accumulation), which keeps results stable for grids up to ~1e6 points.

The estimators' curve arithmetic is all here: ``_margin_rows`` forms their rows
``(x - mean) * factor`` a block at a time, the row kernels ``_norms`` and
``_inner_products`` (``norm`` and ``inner_product`` are one-row views) reduce
them, and an overflow in any of them raises DomainError (``_overflow_raises``).
The blocked readers ``_centered_norms`` (every row of one margin) and
``_margin_inner_products`` (the exceedance rows ``idx`` of two margins) hold
one ``_row_blocks`` block of rows at a time, never a centered or transformed
copy of a sample, and give the bits of the whole-array expression.

All functions are pure and never mutate their inputs.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DomainError, GridMismatchError

# values per row block of the blocked kernels and the CSV writer; by peak RSS of
# pair_cli, 2**12 to 2**14 read alike and 2**16 cost 2 MB more
_BLOCK_VALUES = 1 << 14


def as_curve(x) -> np.ndarray:
    """Validate and return a 1-d float64 curve."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError(f"a curve must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("curve values must be finite")
    return arr


def as_sample(s) -> np.ndarray:
    """Validate and return a functional sample as a C-contiguous (n, J) float64 array.

    An array that already is one is returned as is, without a copy.
    """
    arr = np.asarray(s, dtype=float, order="C")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DomainError(f"a functional sample must be a non-empty 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample values must be finite")
    return arr


def check_paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate an index-aligned pair of samples (same n, same J)."""
    xs = as_sample(x)
    ys = as_sample(y)
    if xs.shape != ys.shape:
        raise GridMismatchError(
            f"paired samples must share n and J, got {xs.shape} vs {ys.shape}"
        )
    return xs, ys


def grid(J: int) -> np.ndarray:
    """Grid points 1/J, ..., J/J the curves are sampled on."""
    if J < 1:
        raise DomainError("J must be >= 1")
    return np.arange(1, J + 1) / J


@contextmanager
def _overflow_raises(message: str):
    """Raise DomainError(message), and no warning, where a float operation inside overflows."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise DomainError(message) from None


@contextmanager
def _fits(what: str):
    """Raise DomainError("<what> do not fit in memory") where an allocation inside cannot be made."""
    try:
        yield
    except MemoryError:
        raise DomainError(f"{what} do not fit in memory") from None


def inner_product(x, y) -> float:
    """Discrete L2 inner product (1/J) * sum_j x(j/J) y(j/J)."""
    xc = as_curve(x)
    yc = as_curve(y)
    if xc.shape != yc.shape:
        raise GridMismatchError(f"grids differ: J={xc.size} vs J={yc.size}")
    return float(_inner_products(xc[None], yc[None])[0])


def norm(x) -> float:
    """Discrete L2 norm, sqrt(inner_product(x, x))."""
    return float(_norms(as_curve(x)[None])[0])


def inner_products(x, y) -> np.ndarray:
    """Row-wise inner products of two aligned samples, shape (n,)."""
    return _inner_products(*check_paired(x, y))


def _inner_products(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``inner_products`` of a pair ``check_paired`` already returned, without checking it again."""
    with _overflow_raises("curve inner products overflow"):
        return np.sum(xs * ys, axis=1) / xs.shape[1]


def _norms(arr: np.ndarray) -> np.ndarray:
    """``norms`` of a sample ``as_sample`` already returned, without checking it again."""
    with _overflow_raises("curve norms overflow"):
        return np.sqrt(np.sum(arr * arr, axis=1) / arr.shape[1])


def _margin_rows(arr: np.ndarray, mean: np.ndarray | None, factors: np.ndarray | None, rows) -> np.ndarray:
    """Rows ``rows`` of ``(arr - mean) * factors[:, None]``; None skips a step, and either step's overflow raises."""
    block = arr[rows]
    if mean is not None:
        with _overflow_raises("centered curves overflow"):
            block = block - mean
    if factors is None:
        return block
    with _overflow_raises("transformed curves overflow"):
        return block * factors[rows, None]


def _row_blocks(n: int, J: int) -> list[slice]:
    """Consecutive row slices of an (n, J) array, each of at most ``_BLOCK_VALUES`` values (one row at least)."""
    step = max(1, _BLOCK_VALUES // J)
    return [slice(i, i + step) for i in range(0, n, step)]


def _centered_norms(arr: np.ndarray, mean: np.ndarray | None, factors: np.ndarray | None = None) -> np.ndarray:
    """``_norms`` of the ``_margin_rows`` of ``arr`` a row block at a time, with the whole-array expression's bits."""
    out = np.empty(arr.shape[0])
    for rows in _row_blocks(*arr.shape):
        out[rows] = _norms(_margin_rows(arr, mean, factors, rows))
    return out


def _margin_inner_products(x, y, idx) -> np.ndarray:
    """``_inner_products`` of the ``_margin_rows`` ``idx`` of two margins, each an ``(arr, mean, factors)``.

    Rows are formed a ``_row_blocks`` block of ``idx`` at a time, so the
    result has the whole-array expression's bits (a row's sum does not depend
    on its block) and holds no copy of the exceedance rows.
    """
    idx = np.asarray(idx)
    out = np.empty(idx.size)
    for rows in _row_blocks(idx.size, x[0].shape[1]):
        out[rows] = _inner_products(_margin_rows(*x, idx[rows]), _margin_rows(*y, idx[rows]))
    return out


def _mean_curve(arr: np.ndarray) -> np.ndarray:
    """The pointwise mean curve of a sample ``as_sample`` already returned; a sum that overflows raises."""
    with _overflow_raises("the mean curve overflows"):
        return arr.mean(axis=0)


def norms(s) -> np.ndarray:
    """Row-wise norms of a sample, shape (n,)."""
    return _norms(as_sample(s))


def center(s) -> np.ndarray:
    """Subtract the pointwise sample mean curve from every curve."""
    arr = as_sample(s)
    return _margin_rows(arr, _mean_curve(arr), None, slice(None))


def pair_radii(x, y) -> np.ndarray:
    """Per-pair radii R_i = max(||x_i||, ||y_i||), shape (n,)."""
    xs, ys = check_paired(x, y)
    return np.maximum(_norms(xs), _norms(ys))
