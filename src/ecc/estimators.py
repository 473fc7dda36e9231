"""Peaks-over-threshold estimators of extremal dependence between paired curves.

Given index-aligned samples (x_i, y_i) with radii R_i = ||x_i|| v ||y_i|| and
the k-th largest radius R_(k), the exceedance set is {i : R_i >= R_(k)} and

    sigma_hat = (1/k) sum_exc <x_i, y_i> / R_(k)^2
    rho_hat   = sum_exc <x_i, y_i> / sqrt(sum_exc ||x_i||^2 * sum_exc ||y_i||^2)
    gamma_hat = (1/k) sum_exc <x_i/R_i, y_i/R_i>

Ties at R_(k) all enter the sums while sigma_hat and gamma_hat keep k as the
divisor. rho_hat restricts numerator and both denominator sums to the same
exceedance set, which keeps it in [-1, 1] by Cauchy-Schwarz; it is clamped to
that interval to absorb last-ulp rounding.

One pass, ``_exceedances``, computes all three. It reads a sample only through
the margins' norms, the radii and ``inner_products(idx)``, the <x_i, y_i> of
the exceedances, which each caller reads from its own storage: grid rows,
transformed rows or basis scores. One radius stage, ``_radius_rows`` (each
row's radii sorted once, k chosen on them by ``select_k``'s dispatcher, then
the pass with the r_k read there), ends every estimate: ``estimate_pipeline``
and each ``pairwise_matrix`` pair are one row of it, and a block of Monte
Carlo replications is one call. The public estimators take r_k from ``order_statistic``.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .curves import _centered_norms, _margin_inner_products, _mean_curve, as_sample, check_paired
from .errors import DegenerateSampleError, DegenerateTailError, DomainError, EccError, GridMismatchError
from .tail import (HillSeries, TailFit, _check_k_method, _finite_vector, _hill_series, _index, _k_rule, _select_k,
                   _sorted_desc)
from .transform import _power_scales

_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class EccReport:
    """The three extremal-dependence estimates plus the selection metadata."""

    sigma_xy: float
    rho_xy: float
    gamma_xy: float
    k: int
    r_k: float
    exceedance_indices: np.ndarray


@dataclass(frozen=True)
class PipelineReport:
    """Everything the estimation pipeline computed along the way."""

    ecc: EccReport
    k_method: str
    centered: bool
    tail_x: TailFit
    tail_y: TailFit
    hill_x: HillSeries | None
    hill_y: HillSeries | None
    transformed: bool
    alpha_target: float
    tau: float


def order_statistic(values, k: int) -> float:
    """The k-th largest of finite values, k = 1..n, duplicates counted with multiplicity."""
    arr = _finite_vector(values)
    k = _index(k, "k")
    if not 1 <= k <= arr.size:
        raise DomainError(f"k={k} out of range [1, {arr.size}]")
    return float(np.partition(arr, arr.size - k)[arr.size - k])


def _paired(x, y, k):
    """Validate a pair, then k, once; return what ``_exceedances`` reads of them, r_k by ``order_statistic``."""
    xs, ys = check_paired(x, y)
    nx, ny = _centered_norms(xs, None), _centered_norms(ys, None)
    radii, k = np.maximum(nx, ny), _index(k, "k")
    inner_products = partial(_margin_inner_products, (xs, None, None), (ys, None, None))
    return nx, ny, radii, inner_products, k, order_statistic(radii, k)


def _over_root(num: float, a: float, b: float) -> float:
    """num / sqrt(a * b) for positive a and b, rounded as if a * b could not under- or overflow.

    a and b are split into mantissas and powers of two, which scale exactly:
    where a * b is a normal float the result has the plain expression's bits
    (unless |num / sqrt(a * b)| < 2^-1022), and elsewhere the bits the plain
    expression gives on 2^e a, 2^e b and 2^e num for an e that brings a * b
    into range.
    """
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    h = (ea + eb) // 2  # a * b = (ma * mb * 2^(ea + eb - 2h)) * 4^h
    return math.ldexp(num, -h) / np.sqrt(math.ldexp(ma * mb, ea + eb - 2 * h))


def _exceedances(nx, ny, radii, inner_products, k: int, r_k: float, rho_required: bool = True) -> EccReport:
    """The pass over radii >= r_k, the k-th largest; with ``rho_required=False`` a zero rho denominator gives nan.

    Sums that overflow, and a sigma denominator k r_k^2 that is not a normal
    float, raise DomainError; rho is exact for any finite sums.
    """
    if r_k <= 0.0:
        raise DegenerateSampleError(f"fewer than k={k} pairs with a nonzero curve")
    idx = np.flatnonzero(radii >= r_k)
    ips = inner_products(idx)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        sum_ip = float(ips.sum())
        sum_x2 = float(np.sum(nx[idx] ** 2))
        sum_y2 = float(np.sum(ny[idx] ** 2))
    if not (math.isfinite(sum_ip) and math.isfinite(sum_x2) and math.isfinite(sum_y2)):
        raise DomainError("the sums over the exceedance set overflow")
    scale = k * r_k * r_k
    if not _TINY <= scale < math.inf:
        raise DomainError(f"k * r_k^2 = {scale!r} is not a normal float (r_k = {r_k!r})")
    if sum_x2 <= 0.0 or sum_y2 <= 0.0:
        if rho_required:
            raise DegenerateSampleError("a margin is identically zero on the exceedance set")
        rho = float("nan")
    else:
        rho = float(np.clip(_over_root(sum_ip, sum_x2, sum_y2), -1.0, 1.0))
    gamma = float(np.sum(ips / radii[idx] ** 2) / k)
    return EccReport(sum_ip / scale, rho, gamma, k, r_k, idx)


def _radius_rows(nx, ny, inner_products, k_method: str, k: int | None) -> list[EccReport | EccError]:
    """The radius stage on rows of paired samples: each row's radii sorted once, k chosen on them, then the pass.

    Row b is one paired sample: its norms ``nx[b]``, ``ny[b]`` and its reader
    ``inner_products[b]``. ``_k_rule`` chooses k (mindist every row's at once)
    and r_k is read from the sorted row. Returns each row's EccReport, or the
    DegenerateSampleError or DegenerateTailError the row raised; a DomainError
    aborts the stage.
    """
    radii = np.maximum(nx, ny)
    vs = np.sort(radii, axis=1)[:, ::-1]
    k_rule = _k_rule(vs, k_method, k)
    out = []
    for b, ips in enumerate(inner_products):
        try:
            k_b, _ = k_rule(b)
            out.append(_exceedances(nx[b], ny[b], radii[b], ips, k_b, float(vs[b, k_b - 1])))
        except (DegenerateSampleError, DegenerateTailError) as exc:
            out.append(exc)
    return out


def extremal_covariance(x, y, k: int) -> float:
    """sigma_hat: mean scaled inner product over the k largest pairs."""
    return _exceedances(*_paired(x, y, k), rho_required=False).sigma_xy


def extremal_correlation(x, y, k: int) -> float:
    """rho_hat: correlation-normalized inner products over the k largest pairs."""
    return ecc_report(x, y, k).rho_xy


def angular_dependence(x, y, k: int) -> float:
    """gamma_hat: mean inner product of radius-normalized pairs over the exceedances."""
    return _exceedances(*_paired(x, y, k), rho_required=False).gamma_xy


def ecc_report(x, y, k: int) -> EccReport:
    """All three estimates on one exceedance set."""
    return _exceedances(*_paired(x, y, k))


@contextmanager
def _naming(name: str):
    """Prefix the message of an EccError raised inside with the failing sample's name."""
    try:
        yield
    except EccError as exc:
        raise type(exc)(f"{name}: {exc}").with_traceback(exc.__traceback__) from None


def _margin_norms(arr, name: str, do_center: bool):
    """A validated sample's mean curve (None unless ``do_center``) and its curves' norms about it.

    Errors name the margin ``name``.
    """
    with _naming(name):
        mean = _mean_curve(arr) if do_center else None
        return mean, _centered_norms(arr, mean)


def _pipelines(
    samples, names, k=None, k_method="mindist", alpha_target=3.0, tau=0.5, do_center=True
) -> dict[tuple[int, int], PipelineReport]:
    """``estimate_pipeline`` on each pair (a, b), a < b, of ``samples``; see ``pairwise_matrix``."""
    if not 0 < alpha_target < np.inf:
        raise DomainError(f"alpha_target must be positive and finite, got {alpha_target}")
    if not tau >= 0:  # tau = inf is legal: the transform never fires
        raise DomainError(f"tau must be nonnegative, got {tau}")
    k_method, k = _check_k_method(k_method, k)

    arrs = []
    for s, name in zip(samples, names):
        with _naming(name):
            arrs.append(as_sample(s))
    for arr, name in zip(arrs[1:], names[1:]):
        if arr.shape != arrs[0].shape:
            raise GridMismatchError(
                f"{names[0]} and {name} must share n and J, got {arrs[0].shape} vs {arr.shape}"
            )

    # a margin is its parsed sample and mean curve: no centered or transformed copy, nor
    # its sorted norms, is kept (peak memory); the norms and the exceedance pass read
    # row blocks
    def marginal_stage(arr, name):
        mean, nrm = _margin_norms(arr, name, do_center)
        with _naming(name):
            v = _sorted_desc(nrm)
            fit = _select_k(v, k_method, k)
        try:  # the series, read from the fit's sorted norms, is advisory: one that cannot be computed is omitted
            series = _hill_series(v, None)
        except (DomainError, DegenerateTailError):
            series = None
        return arr, mean, nrm, fit, series, name

    margins = [marginal_stage(arr, name) for arr, name in zip(arrs, names)]

    @cache  # a sample's transform factors and transformed norms, computed on the first pair that fires
    def transformed_norms(a):
        arr, mean, nrm, fit, _, name = margins[a]
        with _naming(name):
            factors = _power_scales(nrm, fit.alpha_hat, alpha_target)
            return factors, _centered_norms(arr, mean, factors)

    def paired_stage(a, b):
        (xs, mean_x, nx, tail_x, hill_x, name_x), (ys, mean_y, ny, tail_y, hill_y, name_y) = margins[a], margins[b]
        transformed = abs(tail_x.alpha_hat - tail_y.alpha_hat) > tau
        sx = sy = None
        if transformed:
            (sx, nx), (sy, ny) = transformed_norms(a), transformed_norms(b)
        # of the transformed rows when the transform fired
        inner_products = partial(_margin_inner_products, (xs, mean_x, sx), (ys, mean_y, sy))
        with _naming(f"{name_x} and {name_y}"):
            (report,) = _radius_rows(nx[None], ny[None], [inner_products], k_method, k)
            if isinstance(report, EccError):
                raise report
        return PipelineReport(report, k_method, do_center, tail_x, tail_y, hill_x, hill_y,
                              transformed, alpha_target, tau)

    return {(a, b): paired_stage(a, b) for a in range(len(margins)) for b in range(a + 1, len(margins))}


def estimate_pipeline(
    x,
    y,
    k: int | None = None,
    k_method: str = "mindist",
    alpha_target: float = 3.0,
    tau: float = 0.5,
    do_center: bool = True,
) -> PipelineReport:
    """Run the full estimation workflow on a paired sample.

    Steps: (1) center both margins around their sample mean curves; (2) fit a
    marginal tail index to each margin's norms, with k chosen by ``k_method``
    (pass ``k`` to fix it); (3) if the marginal indexes differ by more than
    ``tau``, power-transform both margins to ``alpha_target``; (4) choose k on
    the pair radii by the same method and compute the three estimators.
    Errors in steps (1)-(3) name the failing margin, ``x`` or ``y``, and
    errors in step (4) name the pair, ``x and y``.

    Hill series for both margins are attached for visual regular-variation
    checks; nothing is auto-rejected on their account.
    """
    return _pipelines((x, y), ("x", "y"), k, k_method, alpha_target, tau, do_center)[(0, 1)]


def pairwise_matrix(samples, return_reports: bool = False, **options):
    """Pairwise rho_hat matrix across m functional samples.

    ``options`` are those of ``estimate_pipeline``. Each sample's marginal
    stage (validation, centering, norms, tail fit, Hill series) runs once, and
    its errors name the sample's index; so do its transform factors and
    transformed norms, computed once, on the first pair that fires. Each pair
    then runs only the transform decision, the radius fit and the exceedance
    pass, whose errors name both samples, so entry (a, b) equals
    ``estimate_pipeline(samples[a], samples[b], **options)`` field for field.
    The result is exactly symmetric (the radii and all sums are), so each
    pair is computed once. The diagonal is 1 by definition. With
    ``return_reports=True`` also returns a dict mapping (a, b), a < b, to the
    PipelineReport.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise DomainError("need at least two samples")
    reports = _pipelines(samples, [f"sample {i}" for i in range(len(samples))], **options)
    out = np.eye(len(samples))
    for (a, b), rep in reports.items():
        out[a, b] = out[b, a] = rep.ecc.rho_xy
    if return_reports:
        return out, reports
    return out
