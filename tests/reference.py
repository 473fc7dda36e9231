"""Plain re-implementations of the estimators: the oracles the library is checked against.

Nothing here is fast or shared with the library's kernels. The k rules are
block scans over every candidate (``full_scan_mindist``, ``full_scan_ks``);
the exceedance estimators are loops (``naive_reports``); and ``pipeline`` is
``estimate_pipeline`` step by step on explicit copies: centered on the mean
curve, norms as exactly rounded sums, a transformed copy of each margin. The
library sums in another order, so its numbers may differ in the last ulps,
and a k rule whose best and runner-up distances nearly tie may pick another
k; ``pipeline`` reports the smallest such gap.

``tail_sample`` draws the value shapes the tests run these oracles on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ecc import DegenerateSampleError, DegenerateTailError, DomainError, TailFit, hill

REFERENCE_CELLS = 4_000_000  # block size of the reference scans, in matrix cells


def full_scan_mindist_distances(values, k_min=2, k_max=None):
    """Every candidate k of select_k_mindist and its distance, by a block scan over every column."""
    v = np.sort(np.asarray(values, dtype=float), kind="stable")[::-1]
    n = v.size
    if n < 20:
        raise DomainError(f"need at least 20 values, got {n}")
    if k_max is None:
        k_max = min(max(3, int(0.15 * n)), n - 1)
    if not (2 <= k_min < k_max <= n - 1):
        raise DomainError(f"invalid candidate range [{k_min}, {k_max}] for n={n}")
    if v[k_max] <= 0:
        raise DomainError(f"the top {k_max + 1} values must be strictly positive")
    logs = np.log(v[: k_max + 1])
    ks_all = np.arange(1, k_max + 1)
    gammas = (np.cumsum(logs[:-1]) - ks_all * logs[1:]) / ks_all
    if np.any(gammas[k_min - 1 :] <= 0.0):
        raise DegenerateTailError("tied top order statistics in the candidate range")

    ks = np.arange(k_min, k_max + 1)
    log_i = np.log(np.arange(1, k_max + 1))
    gam = gammas[ks - 1]
    dists = np.empty(ks.size)
    rows_per_block = max(1, REFERENCE_CELLS // k_max)
    for start in range(0, ks.size, rows_per_block):
        sel = slice(start, min(start + rows_per_block, ks.size))
        kb = ks[sel]
        log_fit = logs[kb][:, None] + gam[sel, None] * (np.log(kb)[:, None] - log_i[None, :])
        dists[sel] = np.abs(logs[None, :k_max] - log_fit).max(axis=1)
    return ks, dists


def full_scan_mindist(values, k_min=2, k_max=None) -> TailFit:
    """select_k_mindist as a block scan over every candidate and every column."""
    ks, dists = full_scan_mindist_distances(values, k_min, k_max)
    best_k = int(ks[int(np.argmin(dists))])
    fit = hill(values, best_k)
    return TailFit(alpha_hat=fit.alpha_hat, k=best_k, threshold=fit.threshold, method="mindist")


def full_scan_ks_distances(values, min_exceedances=10):
    """Every candidate threshold of select_k_ks: its fitted alpha_hat, exceedance count, value and KS distance."""
    arr = np.asarray(values, dtype=float)
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
    first_idx = np.searchsorted(pos, distinct, side="left")
    counts = m_total - first_idx
    ok = counts >= min_exceedances
    cand_idx, cand_val, cand_m = first_idx[ok], distinct[ok], counts[ok]
    log_sums = suffix_log_sum[cand_idx] - cand_m * np.log(cand_val)
    usable = log_sums > 0.0
    if not np.any(usable):
        raise DegenerateTailError("no usable threshold: exceedances carry no log spread")
    cand_idx, cand_val, cand_m = cand_idx[usable], cand_val[usable], cand_m[usable]
    a_hat = 1.0 + cand_m / log_sums[usable]

    dists = np.empty(cand_val.size)
    rows_per_block = max(1, REFERENCE_CELLS // m_total)
    for start in range(0, cand_val.size, rows_per_block):
        sel = slice(start, min(start + rows_per_block, cand_val.size))
        idx = cand_idx[sel]
        lo = int(idx.min())
        block = pos[None, lo:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fit_cdf = 1.0 - (cand_val[sel, None] / block) ** (a_hat[sel] - 1.0)[:, None]
        pos_rank = np.arange(lo, m_total)[None, :]
        within = pos_rank >= idx[:, None]
        rank_in_tail = pos_rank - idx[:, None] + 1
        m_col = cand_m[sel][:, None]
        dev = np.maximum(np.abs(rank_in_tail / m_col - fit_cdf), np.abs((rank_in_tail - 1) / m_col - fit_cdf))
        dev[~within] = -np.inf
        dists[sel] = dev.max(axis=1)
    return a_hat - 1.0, cand_m, cand_val, dists


def full_scan_ks(values, min_exceedances=10) -> TailFit:
    """select_k_ks as a block scan over every candidate and every exceedance."""
    alphas, ms, vals, dists = full_scan_ks_distances(values, min_exceedances)
    i = int(np.argmin(dists))
    return TailFit(alpha_hat=float(alphas[i]), k=int(ms[i]), threshold=float(vals[i]), method="ks")


SHAPES = ("pareto", "rounded", "flat", "quantiles", "ties")


def tail_sample(shape, n, alpha, seed, decimals=1):
    """n positive values of one of the SHAPES, with Pareto(alpha) tails where the shape has one."""
    rng = np.random.default_rng(seed)
    v = (1 - rng.random(n)) ** (-1 / alpha)
    if shape == "rounded":
        return np.round(v, decimals)
    if shape == "flat":  # an exact Pareto top glued onto a flat body
        top = max(1, n // 10)
        return np.concatenate([(top / np.arange(1, top + 1)) ** (1 / alpha), np.full(n - top, 0.9)])
    if shape == "quantiles":
        return (np.arange(1, n + 1) / n) ** (-1 / alpha)
    if shape == "ties":
        return rng.choice(np.round(v[:12], 2), size=n)
    return v


def naive_reports(x, y, k):
    """Loop re-implementation of all three estimators."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    J = x.shape[1]
    radii = [max(np.sqrt(np.sum(a * a) / J), np.sqrt(np.sum(b * b) / J)) for a, b in zip(x, y)]
    r_k = sorted(radii, reverse=True)[k - 1]
    if r_k <= 0.0:
        raise DegenerateSampleError(f"fewer than k={k} pairs with a nonzero curve")
    idx = [i for i, r in enumerate(radii) if r >= r_k]
    ips = [np.sum(x[i] * y[i]) / J for i in idx]
    sigma = sum(ips) / (k * r_k**2)
    sx = sum(np.sum(x[i] ** 2) / J for i in idx)
    sy = sum(np.sum(y[i] ** 2) / J for i in idx)
    if sx <= 0.0 or sy <= 0.0:
        raise DegenerateSampleError("a margin is identically zero on the exceedance set")
    rho = sum(ips) / np.sqrt(sx * sy)
    gamma = sum(ip / radii[i] ** 2 for ip, i in zip(ips, idx)) / k
    return sigma, rho, gamma


def norms(x) -> np.ndarray:
    """Curve norms as exactly rounded sums, sqrt(fsum_j x_ij^2 / J)."""
    out = np.array([math.sqrt(math.fsum(v * v for v in row) / len(row)) for row in np.asarray(x).tolist()])
    if not np.all(np.isfinite(out)):
        raise DomainError("curve norms overflow")
    return out


def transformed_copy(x, alpha_source, alpha_target) -> np.ndarray:
    """Each curve times ||x_i||^(alpha_source/alpha_target - 1); a zero curve stays zero."""
    out = np.zeros_like(x)
    try:
        with np.errstate(over="raise"):
            for i, r in enumerate(norms(x)):
                if r > 0.0:
                    out[i] = x[i] * r ** (alpha_source / alpha_target - 1.0)
    except FloatingPointError:
        raise DomainError("the transformed curves overflow") from None
    return out


def _runner_up_gap(dists) -> float:
    return float(np.diff(np.sort(dists)[:2])[0]) if len(dists) > 1 else math.inf


def tail_fit(values, k_method, k=None) -> tuple[TailFit, float]:
    """The tail fit of select_k by the full scans, and the gap between its best and runner-up distances."""
    if k is not None:
        return hill(values, k), math.inf
    if k_method == "mindist":
        return full_scan_mindist(values), _runner_up_gap(full_scan_mindist_distances(values)[1])
    return full_scan_ks(values), _runner_up_gap(full_scan_ks_distances(values)[3])


@dataclass(frozen=True)
class Reference:
    """What ``pipeline`` computed, and the smallest gap between a k rule's best and runner-up distances."""

    tail_x: TailFit
    tail_y: TailFit
    transformed: bool
    k: int
    sigma_xy: float
    rho_xy: float
    gamma_xy: float
    gap: float


def pipeline(x, y, k=None, k_method="mindist", alpha_target=3.0, tau=0.5, do_center=True) -> Reference:
    """estimate_pipeline step by step on explicit copies of the two samples."""
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    if do_center:
        x, y = x - x.mean(axis=0), y - y.mean(axis=0)
    (tail_x, gap_x), (tail_y, gap_y) = tail_fit(norms(x), k_method, k), tail_fit(norms(y), k_method, k)
    transformed = abs(tail_x.alpha_hat - tail_y.alpha_hat) > tau
    if transformed:
        x = transformed_copy(x, tail_x.alpha_hat, alpha_target)
        y = transformed_copy(y, tail_y.alpha_hat, alpha_target)
    fit, gap = tail_fit(np.maximum(norms(x), norms(y)), k_method, k)
    return Reference(tail_x, tail_y, transformed, fit.k, *naive_reports(x, y, fit.k), min(gap_x, gap_y, gap))
