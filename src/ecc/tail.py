"""Tail-index estimation for scalar radii and data-driven exceedance counts.

The Hill estimator is used throughout:

    alpha_hat(k) = k / sum_{i=1..k} log(V_(i) / V_(k+1)),

with V_(1) >= V_(2) >= ... the descending order statistics. Two automatic
choices of k are provided: a quantile minimum-distance rule (pick the k whose
fitted Pareto quantiles stay closest, in sup norm, to the empirical ones) and
a distribution-side Kolmogorov-Smirnov rule (scan thresholds, fit the
continuous power-law exponent by maximum likelihood, keep the threshold with
the smallest KS distance). Both scans are deterministic: exact distance ties
keep the first candidate visited (smallest k for the quantile rule, smallest
threshold for the KS rule).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTailError, DomainError

# Block size (in matrix cells) for the chunked candidate scans; keeps peak
# memory around a few hundred MB even for n ~ 1e5.
_SCAN_CELLS = 4_000_000

K_METHODS = ("fixed", "mindist", "ks")  # the k rules of select_k


@dataclass(frozen=True)
class TailFit:
    """Result of a tail-index fit: the index, the k used, and the threshold V_(k+1)."""

    alpha_hat: float
    k: int
    threshold: float
    method: str  # "fixed", "mindist" or "ks"


@dataclass(frozen=True)
class HillSeries:
    """Hill estimates over k = 1..k_max with pointwise 95% confidence bounds."""

    k: np.ndarray
    alpha_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray

    def __len__(self) -> int:
        return self.k.size


def _sorted_desc(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError("values must be a 1-d sequence")
    return np.sort(arr, kind="stable")[::-1]


def _check_top_positive(v: np.ndarray, count: int) -> None:
    if v.size < count or v[count - 1] <= 0:
        raise DomainError(f"the top {count} values must be strictly positive")


def hill(values, k: int) -> TailFit:
    """Hill estimate of the tail index from the k largest values.

    Raises DomainError if k is out of [1, n-1] or any of the top k+1 values is
    nonpositive, and DegenerateTailError when the top k values all equal the
    threshold (zero log-sum).
    """
    v = _sorted_desc(values)
    n = v.size
    if n < 2:
        raise DomainError("need at least 2 values")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k={k} out of range [1, {n - 1}]")
    _check_top_positive(v, k + 1)
    threshold = v[k]
    log_sum = float(np.sum(np.log(v[:k] / threshold)))
    if log_sum <= 0.0:
        raise DegenerateTailError("top order statistics are all equal; tail index undefined")
    return TailFit(alpha_hat=k / log_sum, k=k, threshold=float(threshold), method="fixed")


def hill_series(values, k_max: int) -> HillSeries:
    """Hill estimates for every k in 1..k_max, with alpha_hat +- 1.96 alpha_hat/sqrt(k) bounds."""
    v = _sorted_desc(values)
    n = v.size
    if not 2 <= k_max <= n - 1:
        raise DomainError(f"k_max={k_max} out of range [2, {n - 1}]")
    _check_top_positive(v, k_max + 1)
    logs = np.log(v[: k_max + 1])
    ks = np.arange(1, k_max + 1)
    log_sums = np.cumsum(logs[:-1]) - ks * logs[1:]
    if np.any(log_sums <= 0.0):
        raise DegenerateTailError("tied top order statistics; tail index undefined for some k")
    alpha = ks / log_sums
    half_width = 1.96 * alpha / np.sqrt(ks)
    return HillSeries(k=ks, alpha_hat=alpha, ci_low=alpha - half_width, ci_high=alpha + half_width)


def _hill_gammas(v: np.ndarray, k_max: int) -> np.ndarray:
    """1/alpha_hat(k) for k = 1..k_max on descending data (no validity checks)."""
    logs = np.log(v[: k_max + 1])
    ks = np.arange(1, k_max + 1)
    return (np.cumsum(logs[:-1]) - ks * logs[1:]) / ks


def mindist_distances(values, k_min: int = 2, k_max: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Quantile-fit distances behind select_k_mindist, one per candidate k.

    The top ``k_max`` order statistics form the comparison block. For each
    candidate k in [k_min, k_max] the Hill fit at k implies the Pareto
    quantiles V_(k+1) * (k/i)^(1/alpha_hat(k)); the candidate's distance is
    the sup over the whole block of the absolute log-quantile deviations
    |log V_(i) - log fitted_i|, i = 1..k_max. Returns (candidate ks,
    distances).
    """
    v = _sorted_desc(values)
    n = v.size
    if n < 20:
        raise DomainError(f"need at least 20 values, got {n}")
    if k_max is None:
        k_max = min(max(3, int(0.15 * n)), n - 1)
    if not (2 <= k_min < k_max <= n - 1):
        raise DomainError(f"invalid candidate range [{k_min}, {k_max}] for n={n}")
    _check_top_positive(v, k_max + 1)

    gammas = _hill_gammas(v, k_max)
    if np.any(gammas[k_min - 1 :] <= 0.0):
        raise DegenerateTailError("tied top order statistics in the candidate range")

    ks = np.arange(k_min, k_max + 1)
    logs = np.log(v[: k_max + 1])
    log_i = np.log(np.arange(1, k_max + 1))
    gam = gammas[ks - 1]

    dists = np.empty(ks.size)
    rows_per_block = max(1, _SCAN_CELLS // k_max)
    for start in range(0, ks.size, rows_per_block):
        sel = slice(start, min(start + rows_per_block, ks.size))
        kb = ks[sel]
        log_fit = logs[kb][:, None] + gam[sel, None] * (np.log(kb)[:, None] - log_i[None, :])
        dists[sel] = np.abs(logs[None, :k_max] - log_fit).max(axis=1)
    return ks, dists


def select_k_mindist(values, k_min: int = 2, k_max: int | None = None) -> TailFit:
    """Pick k by minimizing the distance between empirical and fitted tail quantiles.

    See ``mindist_distances`` for the criterion; ties break toward smaller k.
    Candidates default to [2, 0.15 n]; the top 15% of the sample is the
    customary scan region for this rule.
    """
    ks, dists = mindist_distances(values, k_min=k_min, k_max=k_max)
    best_k = int(ks[int(np.argmin(dists))])
    fit = hill(values, best_k)
    return TailFit(alpha_hat=fit.alpha_hat, k=best_k, threshold=fit.threshold, method="mindist")


def select_k_ks(values, min_exceedances: int = 10) -> TailFit:
    """Pick the tail threshold by minimizing the KS distance to a fitted power law.

    Every distinct positive value that leaves at least ``min_exceedances``
    observations at or above it is a candidate threshold. For each candidate
    the continuous power-law density exponent is fitted by maximum likelihood
    over the exceedances and the KS distance between their empirical
    distribution and the fitted one is computed. The reported alpha_hat is the
    survival-function tail index, i.e. the ML density exponent minus one; k is
    the number of values at or above the winning threshold.
    """
    if min_exceedances < 1:
        raise DomainError(f"min_exceedances must be >= 1, got {min_exceedances}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError("values must be a 1-d sequence")
    n = arr.size
    if n < 20:
        raise DomainError(f"need at least 20 values, got {n}")
    pos = np.sort(arr[arr > 0])
    distinct = np.unique(pos)
    if distinct.size < min_exceedances:
        raise DegenerateTailError(
            f"need at least {min_exceedances} distinct positive values, got {distinct.size}"
        )

    m_total = pos.size
    log_pos = np.log(pos)
    suffix_log_sum = np.concatenate([np.cumsum(log_pos[::-1])[::-1], [0.0]])
    # first index of each distinct value in the ascending sorted array
    first_idx = np.searchsorted(pos, distinct, side="left")
    counts = m_total - first_idx
    ok = counts >= min_exceedances
    cand_idx = first_idx[ok]
    cand_val = distinct[ok]
    cand_m = counts[ok]

    # ML exponent per candidate; zero log-sum candidates (all exceedances tied) are skipped
    log_sums = suffix_log_sum[cand_idx] - cand_m * np.log(cand_val)
    usable = log_sums > 0.0
    if not np.any(usable):
        raise DegenerateTailError("no usable threshold: exceedances carry no log spread")
    cand_idx = cand_idx[usable]
    cand_val = cand_val[usable]
    cand_m = cand_m[usable]
    a_hat = 1.0 + cand_m / log_sums[usable]

    best = (np.inf, -1)
    rows_per_block = max(1, _SCAN_CELLS // m_total)
    for start in range(0, cand_val.size, rows_per_block):
        sel = slice(start, min(start + rows_per_block, cand_val.size))
        idx = cand_idx[sel]
        lo = int(idx.min())
        block = pos[None, lo:]  # exceedances live in the tail of this slice
        with np.errstate(divide="ignore", invalid="ignore"):
            fit_cdf = 1.0 - (cand_val[sel, None] / block) ** (a_hat[sel] - 1.0)[:, None]
        pos_rank = np.arange(lo, m_total)[None, :]
        within = pos_rank >= idx[:, None]
        rank_in_tail = pos_rank - idx[:, None] + 1
        m_col = cand_m[sel][:, None]
        emp_hi = rank_in_tail / m_col
        emp_lo = (rank_in_tail - 1) / m_col
        dev = np.maximum(np.abs(emp_hi - fit_cdf), np.abs(emp_lo - fit_cdf))
        dev[~within] = -np.inf
        dists = dev.max(axis=1)
        j = int(np.argmin(dists))
        if dists[j] < best[0]:
            best = (float(dists[j]), start + j)

    i = best[1]
    return TailFit(
        alpha_hat=float(a_hat[i] - 1.0),
        k=int(cand_m[i]),
        threshold=float(cand_val[i]),
        method="ks",
    )


def _check_k_method(method: str, k: int | None) -> None:
    if method not in K_METHODS:
        raise DomainError(f"unknown k_method {method!r}")
    if method == "fixed" and k is None:
        raise DomainError("k_method='fixed' requires k")


def select_k(values, method: str, k: int | None = None) -> TailFit:
    """Tail fit with k chosen by ``method``: "fixed" (Hill at the given k), "mindist" or "ks"."""
    _check_k_method(method, k)
    if method == "fixed":
        return hill(values, k)
    return select_k_mindist(values) if method == "mindist" else select_k_ks(values)
