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
transformed rows or basis scores. ``_radius_fit`` (k chosen on the radii, then
the pass) ends ``estimate_pipeline`` and the Monte Carlo replications of the
fixed and KS rules; mindist replications choose k a block at a time and call
the pass themselves.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .curves import _centered_norms, _inner_products, _norms, as_sample, check_paired
from .errors import DegenerateSampleError, DegenerateTailError, DomainError, EccError, GridMismatchError
from .tail import HillSeries, TailFit, _check_k_method, hill_series, select_k
from .transform import _power_scales


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
    """The k-th largest value, k = 1..n, duplicates counted with multiplicity."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError("values must be a 1-d sequence")
    if not 1 <= k <= arr.size:
        raise DomainError(f"k={k} out of range [1, {arr.size}]")
    return float(np.partition(arr, arr.size - k)[arr.size - k])


def _paired(x, y):
    """Validate a pair once; return what ``_exceedances`` reads of it."""
    xs, ys = check_paired(x, y)
    nx, ny = _norms(xs), _norms(ys)
    return nx, ny, np.maximum(nx, ny), lambda idx: _inner_products(xs[idx], ys[idx])


def _exceedances(nx, ny, radii, inner_products, k: int, rho_required: bool = True) -> EccReport:
    """The exceedance pass; with ``rho_required=False`` a vanishing rho denominator gives rho_xy = nan."""
    r_k = order_statistic(radii, k)
    if r_k <= 0.0:
        raise DegenerateSampleError(f"fewer than k={k} pairs with a nonzero curve")
    idx = np.flatnonzero(radii >= r_k)
    ips = inner_products(idx)
    sum_ip = float(ips.sum())
    sum_x2 = float(np.sum(nx[idx] ** 2))
    sum_y2 = float(np.sum(ny[idx] ** 2))
    if sum_x2 <= 0.0 or sum_y2 <= 0.0:
        if rho_required:
            raise DegenerateSampleError("a margin is identically zero on the exceedance set")
        rho = float("nan")
    else:
        rho = float(np.clip(sum_ip / np.sqrt(sum_x2 * sum_y2), -1.0, 1.0))
    gamma = float(np.sum(ips / radii[idx] ** 2) / k)
    return EccReport(sum_ip / (k * r_k * r_k), rho, gamma, k, r_k, idx)


def _radius_fit(nx, ny, inner_products, k_method: str, k: int | None) -> EccReport:
    """The radius stage: the radii, k chosen on them by ``k_method``, then the exceedance pass."""
    radii = np.maximum(nx, ny)
    return _exceedances(nx, ny, radii, inner_products, select_k(radii, k_method, k).k)


def extremal_covariance(x, y, k: int) -> float:
    """sigma_hat: mean scaled inner product over the k largest pairs."""
    return _exceedances(*_paired(x, y), k, rho_required=False).sigma_xy


def extremal_correlation(x, y, k: int) -> float:
    """rho_hat: correlation-normalized inner products over the k largest pairs."""
    return ecc_report(x, y, k).rho_xy


def angular_dependence(x, y, k: int) -> float:
    """gamma_hat: mean inner product of radius-normalized pairs over the exceedances."""
    return _exceedances(*_paired(x, y), k, rho_required=False).gamma_xy


def ecc_report(x, y, k: int) -> EccReport:
    """All three estimates on one exceedance set."""
    return _exceedances(*_paired(x, y), k)


@contextmanager
def _naming(name: str):
    """Prefix the message of an EccError raised inside with the failing sample's name."""
    try:
        yield
    except EccError as exc:
        raise type(exc)(f"{name}: {exc}").with_traceback(exc.__traceback__) from None


def _pipelines(
    samples, names, k=None, k_method="mindist", alpha_target=3.0, tau=0.5, do_center=True
) -> dict[tuple[int, int], PipelineReport]:
    """``estimate_pipeline`` on each pair (a, b), a < b, of ``samples``; see ``pairwise_matrix``."""
    if not 0 < alpha_target < np.inf:
        raise DomainError(f"alpha_target must be positive and finite, got {alpha_target}")
    if not tau >= 0:  # tau = inf is legal: the transform never fires
        raise DomainError(f"tau must be nonnegative, got {tau}")
    if k is not None:
        k_method = "fixed"
    _check_k_method(k_method, k)

    arrs = []
    for s, name in zip(samples, names):
        with _naming(name):
            arrs.append(as_sample(s))
    for arr, name in zip(arrs[1:], names[1:]):
        if arr.shape != arrs[0].shape:
            raise GridMismatchError(
                f"{names[0]} and {name} must share n and J, got {arrs[0].shape} vs {arr.shape}"
            )

    # a margin is its parsed sample and mean curve: no centered or transformed copy is
    # made (peak memory); the norms read row blocks and the exceedance pass its own rows
    def marginal_stage(arr, name):
        mean = arr.mean(axis=0) if do_center else None
        with _naming(name):
            nrm = _centered_norms(arr, mean)
            fit = select_k(nrm, k_method, k)
        return arr, mean, nrm, fit, _hill_series_or_none(nrm), name

    def transformed_norms(arr, mean, nrm, fit, name):
        with _naming(name):
            factors = _power_scales(nrm, fit.alpha_hat, alpha_target)
            return factors, _centered_norms(arr, mean, factors)

    def rows(arr, mean, idx):
        return arr[idx] if mean is None else arr[idx] - mean

    def paired_stage(mx, my):
        (xs, mean_x, nx, tail_x, hill_x, name_x), (ys, mean_y, ny, tail_y, hill_y, name_y) = mx, my
        transformed = abs(tail_x.alpha_hat - tail_y.alpha_hat) > tau
        if transformed:
            (sx, nx), (sy, ny) = (transformed_norms(xs, mean_x, nx, tail_x, name_x),
                                  transformed_norms(ys, mean_y, ny, tail_y, name_y))

        def inner_products(idx):  # of the transformed rows when the transform fired
            xe, ye = rows(xs, mean_x, idx), rows(ys, mean_y, idx)
            if transformed:
                xe, ye = xe * sx[idx, None], ye * sy[idx, None]
            return _inner_products(xe, ye)

        report = _radius_fit(nx, ny, inner_products, k_method, k)
        return PipelineReport(report, k_method, do_center, tail_x, tail_y, hill_x, hill_y,
                              transformed, alpha_target, tau)

    margins = [marginal_stage(arr, name) for arr, name in zip(arrs, names)]
    return {(a, b): paired_stage(margins[a], margins[b])
            for a in range(len(margins)) for b in range(a + 1, len(margins))}


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
    Errors in steps (1)-(2) name the failing margin, ``x`` or ``y``.

    Hill series for both margins are attached for visual regular-variation
    checks; nothing is auto-rejected on their account.
    """
    return _pipelines((x, y), ("x", "y"), k, k_method, alpha_target, tau, do_center)[(0, 1)]


def _hill_series_or_none(values: np.ndarray) -> HillSeries | None:
    # advisory attachment: a series that cannot be computed is simply omitted
    try:
        return hill_series(values, np.count_nonzero(values > 0) - 1)
    except (DomainError, DegenerateTailError):
        return None


def pairwise_matrix(samples, return_reports: bool = False, **options):
    """Pairwise rho_hat matrix across m functional samples.

    ``options`` are those of ``estimate_pipeline``. Each sample's marginal
    stage (validation, centering, norms, tail fit, Hill series) runs once, and
    its errors name the sample's index; each pair then runs only the transform
    decision, the radius fit and the exceedance pass, so entry (a, b) equals
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
