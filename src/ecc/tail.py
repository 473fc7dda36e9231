"""Tail-index estimation for scalar radii and data-driven exceedance counts.

The Hill estimator is used throughout:

    alpha_hat(k) = k / sum_{i=1..k} log(V_(i) / V_(k+1)),

with V_(1) >= V_(2) >= ... the descending order statistics. Two automatic
choices of k are provided: a quantile minimum-distance rule (pick the k whose
fitted Pareto quantiles stay closest, in sup norm, to the empirical ones) and
a distribution-side Kolmogorov-Smirnov rule (scan thresholds, fit the
continuous power-law exponent by maximum likelihood, keep the threshold with
the smallest KS distance). Both are deterministic: exact distance ties keep
the first candidate (smallest k for the quantile rule, smallest threshold for
the KS rule).

Neither rule computes every candidate's distance. A candidate's lower bound
is the largest of its deviations at ``_PROBES`` probe columns (geometrically
spaced order statistics for the quantile rule, rank-spaced exceedances for KS).
``_prune_argmin`` visits candidates in increasing bound order and computes a
full distance only while the bound can still win. The bound takes its max over
a subset of the very floating-point terms of the full distance, so it never
exceeds it, and the search returns exactly the candidate a full scan would.

Every entry point validates and sorts its input once (``_sorted_desc``), then
works on that array through private kernels only; the pipeline's marginal
stage reads a margin's fit and Hill series from one sorted array. One
dispatcher, ``_k_rule``, chooses k on rows of descending values: one sorted
vector, or the estimators' block of sorted radii. The quantile rule's kernel,
``_mindist_rows``, takes all rows at once.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTailError, DomainError

# Probe columns per candidate in the lower bounds that prune the k searches.
_PROBES = 64
# Deviations computed at once for the mindist bounds (candidates x probe columns x rows), capping their memory.
_BOUND_CELLS = 1 << 14
# The fewest observations at or above a KS candidate threshold (Clauset, Shalizi & Newman 2009).
_MIN_EXCEEDANCES = 10

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


def _finite_vector(values) -> np.ndarray:
    """``values`` as a float array, checked to be a finite 1-d sequence."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError("values must be a 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainError("values must be finite")
    return arr


def _sorted_desc(values) -> np.ndarray:
    """Validate values as a finite 1-d sequence and sort them descending: each vector's one sort."""
    return np.sort(_finite_vector(values))[::-1]


def _index(value, name: str) -> int:
    """An integer parameter as an int (NumPy integers too); anything else raises DomainError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _check_top_positive(v: np.ndarray, count: int) -> None:
    """Raise unless the top ``count`` values of descending ``v`` (one sample, or one per row) are > 0."""
    if v.shape[-1] < count or np.any(v[..., count - 1] <= 0):
        raise DomainError(f"the top {count} values must be strictly positive")


def _hill_fit(v: np.ndarray, k: int, method: str) -> TailFit:
    """``hill`` on descending finite data ``_sorted_desc`` returned (or a row of them), reported under ``method``."""
    n = v.size
    if n < 2:
        raise DomainError("need at least 2 values")
    if not 1 <= k <= n - 1:
        raise DomainError(f"k={k} out of range [1, {n - 1}]")
    _check_top_positive(v, k + 1)
    threshold = v[k]
    with np.errstate(over="ignore"):  # an overflowing ratio's log is taken as a difference of logs
        logs = np.log(v[:k] / threshold)
    if np.isinf(logs[0]):  # the largest ratio overflows first
        logs = np.where(np.isinf(logs), np.log(v[:k]) - np.log(threshold), logs)
    log_sum = float(np.sum(logs))
    if log_sum <= 0.0:
        raise DegenerateTailError("top order statistics are all equal; tail index undefined")
    return TailFit(alpha_hat=k / log_sum, k=k, threshold=float(threshold), method=method)


def _hill_log_sums(vs: np.ndarray, k_max: int):
    """log V_(1..k_max+1), k = 1..k_max and the log-sums k/alpha_hat(k), per row of descending ``vs``.

    The top k_max+1 values of each row are > 0. The logs are taken a row at a
    time: np.log of a 2-d reversed view runs another loop than of a 1-d one,
    and the two can differ in the last ulp.
    """
    logs = np.stack([np.log(v[: k_max + 1]) for v in vs])
    ks = np.arange(1, k_max + 1)
    return logs, ks, np.cumsum(logs[:, :-1], axis=1) - ks * logs[:, 1:]


def hill(values, k: int) -> TailFit:
    """Hill estimate of the tail index from the k largest values.

    Raises DomainError if k is not an integer in [1, n-1], a value is not
    finite or any of the top k+1 values is nonpositive, and DegenerateTailError
    when the top k values all equal the threshold (zero log-sum).
    """
    return _hill_fit(_sorted_desc(values), _index(k, "k"), "fixed")


def _hill_series(v: np.ndarray, k_max: int | None) -> HillSeries:
    """``hill_series`` on descending finite data ``_sorted_desc`` returned."""
    n = v.size
    if k_max is None:
        positive = int(np.count_nonzero(v > 0))
        if positive < 3:
            raise DomainError(f"need at least 3 positive values, got {positive}")
        k_max = positive - 1
    k_max = _index(k_max, "k_max")
    if not 2 <= k_max <= n - 1:
        raise DomainError(f"k_max={k_max} out of range [2, {n - 1}]")
    _check_top_positive(v, k_max + 1)
    _, ks, (log_sums,) = _hill_log_sums(v[None, :], k_max)
    if np.any(log_sums <= 0.0):
        raise DegenerateTailError("tied top order statistics; tail index undefined for some k")
    alpha = ks / log_sums
    half_width = 1.96 * alpha / np.sqrt(ks)
    return HillSeries(k=ks, alpha_hat=alpha, ci_low=alpha - half_width, ci_high=alpha + half_width)


def hill_series(values, k_max: int | None = None) -> HillSeries:
    """Hill estimates for k = 1..k_max (default: positive values - 1), alpha_hat +- 1.96 alpha_hat/sqrt(k) bounds."""
    return _hill_series(_sorted_desc(values), k_max)


def _prune_argmin(bounds: np.ndarray, distance) -> tuple[int, float]:
    """Exact argmin of ``distance(i)`` over the candidates i = 0..len(bounds)-1, and its distance.

    ``bounds[i]`` must not exceed ``distance(i)``. Candidates are visited in
    increasing bound order, index order among equal bounds; the search stops
    at the first bound above the best distance found and skips a bound equal
    to it at a later index, as neither can win. Exact distance ties keep the
    smallest index.
    """
    best_i, best_d = -1, np.inf
    for i in np.argsort(bounds, kind="stable").tolist():
        b = bounds[i]
        if b > best_d:
            break
        if b == best_d and i > best_i:
            continue
        d = distance(i)
        if d < best_d or (d == best_d and i < best_i):
            best_i, best_d = i, d
    return best_i, best_d


def _mindist_dev(log_v, log_vk, gamma, log_ratio):
    """|log V_(i) - (log V_(k+1) + gamma_k (log k - log i))|, ``log_ratio`` = log k - log i, over candidates and columns i.

    ``gamma * log_ratio`` has the full broadcast shape; the rest runs in place on it.
    """
    dev = gamma * log_ratio
    dev += log_vk
    np.subtract(log_v, dev, out=dev)
    return np.abs(dev, out=dev)


def _mindist_rows(vs: np.ndarray):
    """The k select_k_mindist picks on each row of ``vs`` (rows of descending finite data), its distance, and the bounds.

    A row with tied top order statistics in the candidate range gets k = 0
    (and distance 0; ``_k_rule`` raises for it). A candidate's bound is its
    largest deviation over about ``_PROBES`` geometrically spaced columns i;
    the bounds of all rows are taken at once. Each row then runs
    ``_prune_argmin`` on its bounds, which computes a candidate's full row
    i = 1..k_max only when its bound can still win.
    """
    rows, n = vs.shape
    if n < 20:
        raise DomainError(f"need at least 20 values, got {n}")
    k_max = min(max(3, int(0.15 * n)), n - 1)  # the candidates are k = 2..k_max
    _check_top_positive(vs, k_max + 1)

    logs, k_all, log_sums = _hill_log_sums(vs, k_max)
    gammas = log_sums / k_all  # 1/alpha_hat(k)
    tied = np.any(gammas[:, 1:] <= 0.0, axis=1)
    cols = np.unique((k_max ** np.linspace(0.0, 1.0, _PROBES)).round().astype(np.int64)) - 1
    log_i, log_k = np.log(np.arange(1, k_max + 1)), np.log(np.arange(2, k_max + 1))
    log_v, log_vk, gam = logs[:, :k_max], logs[:, 2:], gammas[:, 1:]

    # probe columns a chunk at a time, so a chunk's deviations hold at most about _BOUND_CELLS values
    step = max(1, _BOUND_CELLS // (rows * log_k.size))
    bounds = np.zeros((rows, log_k.size))  # deviations are >= 0
    for lo in range(0, cols.size, step):
        probes = cols[lo : lo + step]
        dev = _mindist_dev(log_v[:, probes, None], log_vk[:, None, :], gam[:, None, :], log_k - log_i[probes, None])
        np.maximum(bounds, dev.max(axis=1), out=bounds)

    best, dists = np.zeros(rows, dtype=np.int64), np.zeros(rows)
    for b in np.flatnonzero(~tied).tolist():
        def distance(c):
            return float(_mindist_dev(log_v[b], log_vk[b, c], gam[b, c], log_k[c] - log_i).max())

        best[b], dists[b] = _prune_argmin(bounds[b], distance)
    return np.where(tied, 0, best + 2), dists, bounds


def select_k_mindist(values) -> TailFit:
    """Pick k by minimizing the distance between empirical and fitted tail quantiles.

    The candidates are k = 2..k_max, k_max = min(max(3, 0.15 n), n - 1): the
    top 15% of the sample is the customary scan region for this rule. The top
    k_max order statistics form the comparison block. For each candidate k
    the Hill fit at k implies the Pareto quantiles
    V_(k+1) * (k/i)^(1/alpha_hat(k)); the candidate's distance is the sup over
    the whole block of the absolute log-quantile deviations
    |log V_(i) - log fitted_i|, i = 1..k_max. Ties break toward smaller k.
    """
    return select_k(values, "mindist")


def _ks_dev(val, a1, m, r, w):
    """KS deviations max(|r/m - F|, |(r-1)/m - F|), F = 1 - (val/w)^a1, of a fitted power law.

    ``val`` is the threshold, ``a1`` the fitted density exponent minus one,
    ``m`` the exceedance count and ``w`` the exceedance of rank ``r``
    (ascending, 1..m); the arguments broadcast over candidates and ranks.
    """
    f = 1.0 - np.power(val / w, a1)
    return np.maximum(np.abs(r / m - f), np.abs((r - 1) / m - f))


def _ks_fit(v: np.ndarray) -> TailFit:
    """``select_k_ks`` on descending finite data ``_sorted_desc`` returned (or a row of them)."""
    n = v.size
    if n < 20:
        raise DomainError(f"need at least 20 values, got {n}")
    # ascending positives as a slice of the sorted array: np.log of a reversed view may differ by an ulp
    pos = v[::-1][n - np.count_nonzero(v > 0) :]
    starts = np.ones(pos.size, dtype=bool)  # the first of each run of equal values in ``pos``
    starts[1:] = pos[1:] != pos[:-1]
    first_idx = np.flatnonzero(starts)
    if first_idx.size < _MIN_EXCEEDANCES:
        raise DegenerateTailError(
            f"need at least {_MIN_EXCEEDANCES} distinct positive values, got {first_idx.size}"
        )

    m_total = pos.size
    log_pos = np.log(pos)
    suffix_log_sum = np.cumsum(log_pos[::-1])[::-1]
    counts = m_total - first_idx
    ok = counts >= _MIN_EXCEEDANCES
    cand_idx = first_idx[ok]
    cand_val = pos[cand_idx]
    cand_m = counts[ok]

    # ML exponent per candidate; zero log-sum candidates (all exceedances tied) are skipped
    log_sums = suffix_log_sum[cand_idx] - cand_m * np.log(cand_val)
    usable = log_sums > 0.0
    if not np.any(usable):
        raise DegenerateTailError("no usable threshold: exceedances carry no log spread")
    cand_idx = cand_idx[usable]
    cand_val = cand_val[usable]
    cand_m = cand_m[usable]
    a1 = (1.0 + cand_m / log_sums[usable]) - 1.0  # ML density exponent minus one

    # ranks and counts as floats: r / m is the same double as for integers, without the casts
    m = cand_m.astype(float)
    # bound: the largest deviation at _PROBES rank-spaced exceedances of each candidate,
    # taken one probe rank at a time so memory stays O(candidates)
    bounds = np.zeros(cand_m.size)  # deviations are >= 0
    for q in np.linspace(0.0, 1.0, _PROBES):
        offset = (q * (cand_m - 1)).astype(np.int64)  # rank - 1
        np.maximum(bounds, _ks_dev(cand_val, a1, m, offset + 1.0, pos[cand_idx + offset]), out=bounds)

    def distance(c):
        return float(_ks_dev(cand_val[c], a1[c], m[c], np.arange(1.0, m[c] + 1.0), pos[cand_idx[c]:]).max())

    i, _ = _prune_argmin(bounds, distance)
    return TailFit(
        alpha_hat=float(a1[i]),
        k=int(cand_m[i]),
        threshold=float(cand_val[i]),
        method="ks",
    )


def select_k_ks(values) -> TailFit:
    """Pick the tail threshold by minimizing the KS distance to a fitted power law.

    Every distinct positive value that leaves at least 10 observations at or
    above it is a candidate threshold. For each candidate the continuous
    power-law density exponent is fitted by maximum likelihood over the
    exceedances and the KS distance between their empirical distribution and
    the fitted one is computed. The reported alpha_hat is the
    survival-function tail index, i.e. the ML density exponent minus one; k is
    the number of values at or above the winning threshold.
    """
    return select_k(values, "ks")


def _check_k_method(method: str, k) -> tuple[str, int | None]:
    """The k rule and k (an int) that run for ``method`` and ``k``: an unknown method raises, then a given k fixes k."""
    if method not in K_METHODS:
        raise DomainError(f"unknown k_method {method!r}")
    if k is not None:
        return "fixed", _index(k, "k")
    if method == "fixed":
        raise DomainError("k_method='fixed' requires k")
    return method, None


def _k_rule(vs: np.ndarray, method: str, k: int | None):
    """Row b's k, and the TailFit the rule made for it, as a function of b: rows of descending finite ``vs``.

    ``method`` and ``k`` are as ``_check_k_method`` returns them. mindist
    chooses every row's k here, at once, and makes no fit (None); the other
    rules fit a row when it is asked for.
    """
    if method == "mindist":
        ks = _mindist_rows(vs)[0]

        def mindist(b):
            if not ks[b]:
                raise DegenerateTailError("tied top order statistics in the candidate range")
            return int(ks[b]), None
        return mindist

    def fitted(b):
        fit = _hill_fit(vs[b], k, "fixed") if method == "fixed" else _ks_fit(vs[b])
        return fit.k, fit
    return fitted


def _select_k(v: np.ndarray, method: str, k: int | None) -> TailFit:
    """``select_k`` on descending finite data ``_sorted_desc`` returned, for a ``_check_k_method`` result."""
    k, fit = _k_rule(v[None, :], method, k)(0)
    return _hill_fit(v, k, "mindist") if fit is None else fit


def select_k(values, method: str, k: int | None = None) -> TailFit:
    """Tail fit with k chosen by ``method``: "fixed" (Hill at the given k), "mindist" or "ks".

    A given k fixes k whatever the method.
    """
    method, k = _check_k_method(method, k)
    return _select_k(_sorted_desc(values), method, k)
