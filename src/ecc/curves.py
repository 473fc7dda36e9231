"""Discretized-curve arithmetic.

A curve is a 1-d float array of values sampled at the regular grid
t = 1/J, 2/J, ..., 1 on the unit interval; a functional sample is a 2-d
array of shape (n, J) holding one curve per row. All inner products and
norms carry the uniform grid weight 1/J, so they approximate the usual
integrals on [0, 1]. Summations run through ``np.sum`` (pairwise
accumulation), which keeps results stable for grids up to ~1e6 points.

All functions are pure and never mutate their inputs.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, GridMismatchError


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


def inner_product(x, y) -> float:
    """Discrete L2 inner product (1/J) * sum_j x(j/J) y(j/J)."""
    xc = as_curve(x)
    yc = as_curve(y)
    if xc.shape != yc.shape:
        raise GridMismatchError(f"grids differ: J={xc.size} vs J={yc.size}")
    return float(np.sum(xc * yc) / xc.size)


def norm(x) -> float:
    """Discrete L2 norm, sqrt(inner_product(x, x))."""
    xc = as_curve(x)
    return float(np.sqrt(np.sum(xc * xc) / xc.size))


def inner_products(x, y) -> np.ndarray:
    """Row-wise inner products of two aligned samples, shape (n,)."""
    return _inner_products(*check_paired(x, y))


def _inner_products(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``inner_products`` of a pair ``check_paired`` already returned, without checking it again."""
    return np.sum(xs * ys, axis=1) / xs.shape[1]


def _norms(arr: np.ndarray) -> np.ndarray:
    """``norms`` of a sample ``as_sample`` already returned, without checking it again."""
    try:
        with np.errstate(over="raise"):
            return np.sqrt(np.sum(arr * arr, axis=1) / arr.shape[1])
    except FloatingPointError:
        raise DomainError("curve norms overflow") from None


def _center(arr: np.ndarray) -> np.ndarray:
    """``center`` of a sample ``as_sample`` already returned, without checking it again."""
    return arr - arr.mean(axis=0)


def norms(s) -> np.ndarray:
    """Row-wise norms of a sample, shape (n,)."""
    return _norms(as_sample(s))


def center(s) -> np.ndarray:
    """Subtract the pointwise sample mean curve from every curve."""
    return _center(as_sample(s))


def pair_radii(x, y) -> np.ndarray:
    """Per-pair radii R_i = max(||x_i||, ||y_i||), shape (n,)."""
    xs, ys = check_paired(x, y)
    return np.maximum(_norms(xs), _norms(ys))
