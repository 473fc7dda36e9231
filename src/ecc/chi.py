"""Scalar tail-dependence diagnostics chi(q) and chibar(q) for norm pairs.

Both quantities are estimated from empirical ranks (F_hat = rank/n, average
ranks on ties), so they are invariant under strictly increasing marginal
transformations:

    chi(q)    = P(F_U(U) > q | F_V(V) > q)
    chibar(q) = 2 log P(F_U(U) > q) / log P(F_U(U) > q, F_V(V) > q) - 1

chi_hat always lies in [0, 1]. The raw chibar_hat can escape [-1, 1] in
finite samples; the series carries a clamped copy alongside the raw value.
95% pointwise bands use the binomial normal approximation for chi and the
delta method on the log joint proportion for chibar (the marginal proportion
is a deterministic function of q under empirical ranks and is held fixed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_Z95 = 1.959963984540054  # standard normal 97.5% quantile


@dataclass(frozen=True)
class ChiSeries:
    """Per-quantile chi and chibar estimates with 95% bands.

    Entries where the conditioning event is empty (no v-exceedances) are NaN
    rather than an error. ``chibar`` is the clamped estimate; ``raw_chibar``
    keeps the unclamped value.
    """

    q: np.ndarray
    chi: np.ndarray
    chibar: np.ndarray
    chi_lo: np.ndarray
    chi_hi: np.ndarray
    chibar_lo: np.ndarray
    chibar_hi: np.ndarray
    raw_chibar: np.ndarray

    def __len__(self) -> int:
        return self.q.size


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a finite 1-d array, tied values sharing the mean of their ranks."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    new_group = np.concatenate(([True], s[1:] != s[:-1]))
    bounds = np.append(np.flatnonzero(new_group), a.size)  # start of each tie group, then n
    g = np.cumsum(new_group) - 1
    ranks = np.empty(a.size)
    ranks[order] = 0.5 * (bounds[g] + bounds[g + 1] + 1)
    return ranks


def chi_curve(u, v, q_grid) -> ChiSeries:
    """Empirical chi(q) and chibar(q) for two aligned scalar sequences."""
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if u_arr.ndim != 1 or v_arr.ndim != 1 or u_arr.size != v_arr.size:
        raise DomainError("u and v must be 1-d sequences of equal length")
    for name, arr in (("u", u_arr), ("v", v_arr)):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} values must be finite")
    n = u_arr.size
    if n < 20:
        raise DomainError(f"need at least 20 observations, got {n}")
    q = np.asarray(q_grid, dtype=float)
    if q.ndim != 1 or q.size < 1 or np.any(q <= 0.0) or np.any(q >= 1.0):
        raise DomainError("q_grid values must lie strictly inside (0, 1)")
    if np.any(np.diff(q) <= 0.0):
        raise DomainError("q_grid must be strictly increasing")

    fu = _average_ranks(u_arr) / n
    fv = _average_ranks(v_arr) / n

    # exceedance counts #{f > q} from sorted copies: both margins exceed q exactly when their minimum does
    m_u, m_v, m_joint = (n - np.searchsorted(np.sort(f), q, side="right") for f in (fu, fv, np.minimum(fu, fv)))

    with np.errstate(divide="ignore", invalid="ignore"):
        chi = np.where(m_v > 0, m_joint / np.maximum(m_v, 1), np.nan)
        se_chi = np.sqrt(np.clip(chi * (1.0 - chi), 0.0, None) / np.maximum(m_v, 1))

        p_u = m_u / n
        p_joint = m_joint / n
        log_pu = np.log(p_u)
        log_pj = np.log(p_joint)
        raw = 2.0 * log_pu / log_pj - 1.0
        # p_joint == 0: log ratio tends to 0 from below, so chibar -> -1 exactly
        raw = np.where((m_joint == 0) & (m_u > 0), -1.0, raw)
        deriv = -2.0 * log_pu / (p_joint * log_pj * log_pj)
        se_raw = np.abs(deriv) * np.sqrt(p_joint * (1.0 - p_joint) / n)

    raw = np.where((m_v == 0) | (m_u == 0), np.nan, raw)  # chi and se_chi are already nan where m_v == 0
    se_raw = np.where(np.isnan(raw), np.nan, se_raw)

    return ChiSeries(
        q=q,
        chi=chi,
        chibar=np.clip(raw, -1.0, 1.0),
        chi_lo=chi - _Z95 * se_chi,
        chi_hi=chi + _Z95 * se_chi,
        chibar_lo=raw - _Z95 * se_raw,
        chibar_hi=raw + _Z95 * se_raw,
        raw_chibar=raw,
    )
