"""Synthetic data generators, closed-form oracles, and the bias experiment.

The base generator builds paired curves on the orthonormal sine basis
phi_j(t) = sqrt(2) sin((j - 1/2) pi t):

    X = Z1 phi1 + N1 phi2 + N2 phi3
    Y = rho Z1 phi1 + sqrt(1 - rho^2) Z2 phi2 + N3 phi3

with Z's symmetric Pareto (P(|Z| > z) = z^-alpha, random sign) and N's
centered normals with standard deviation 0.5 by default (exposed as the
noise_variance knob). The population extremal correlation has the closed form
rho / sqrt(rho^2 + (1 - rho^2)^(alpha/2)), which the bias experiment inverts
to hit requested population targets.

Two more generators cover the special regimes: `variant="bernoulli"` gates
each of two heavy-tailed components on and off independently per margin
(population coefficient sqrt(p_a p_b)), and `variant="phase"` delays the Y
margin on the grid, attenuating the coefficient.

Reproducibility: a DgpConfig is fully deterministic in its seed; the
experiment spawns one child stream per replication from the master seed, so
results are identical for any worker count.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateSampleError, DegenerateTailError, DomainError
from .estimators import _exceedances, _paired
from .tail import select_k

VARIANTS = ("base", "bernoulli", "phase")


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of one synthetic paired sample."""

    rho: float
    alpha: float
    n: int
    J: int = 100
    seed: int = 0
    variant: str = "base"
    p_a: float = 0.5
    p_b: float = 0.5
    delta: float = 0.3
    noise_variance: float = 0.25

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError("rho must lie in [-1, 1]")
        if self.alpha <= 2.0:
            raise DomainError("alpha must exceed 2")
        if self.n < 1 or self.J < 2:
            raise DomainError("need n >= 1 and J >= 2")
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}")
        if not (0.0 <= self.p_a <= 1.0 and 0.0 <= self.p_b <= 1.0):
            raise DomainError("gate probabilities must lie in [0, 1]")
        if not 0.0 <= self.delta < 1.0:
            raise DomainError("delta must lie in [0, 1)")
        if self.noise_variance < 0.0:
            raise DomainError("noise_variance must be nonnegative")


def basis(j: int, J: int) -> np.ndarray:
    """The j-th orthonormal sine basis element sampled on the grid 1/J..1."""
    if j < 1:
        raise DomainError("basis order j must be >= 1")
    if J < 2:
        raise DomainError("J must be >= 2")
    t = np.arange(1, J + 1) / J
    return np.sqrt(2.0) * np.sin((j - 0.5) * np.pi * t)


def draw_symmetric_pareto(alpha: float, u, s):
    """Symmetric Pareto draw from uniforms: magnitude u^(-1/alpha), sign from s.

    u in (0, 1] maps through the inverse survival function (support [1, inf));
    s < 1/2 gives the positive sign. Vectorized over u and s.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    u_arr = np.asarray(u, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr > 1.0):
        raise DomainError("u must lie in (0, 1]")
    if np.any(s_arr < 0.0) or np.any(s_arr >= 1.0):
        raise DomainError("s must lie in [0, 1)")
    out = u_arr ** (-1.0 / alpha) * np.where(s_arr < 0.5, 1.0, -1.0)
    return out if out.ndim else float(out)


def _pareto(rng: np.random.Generator, alpha: float, size) -> np.ndarray:
    return draw_symmetric_pareto(alpha, 1.0 - rng.random(size), rng.random(size))


def phase_shift(s, delta: float) -> np.ndarray:
    """Delay every curve by delta with zero fill, rounding delta to the grid."""
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 2:
        raise DomainError("expected a functional sample of shape (n, J)")
    if not 0.0 <= delta < 1.0:
        raise DomainError("delta must lie in [0, 1)")
    J = arr.shape[1]
    d = int(round(delta * J))
    if d == 0:
        return arr.copy()
    out = np.zeros_like(arr)
    out[:, d:] = arr[:, : J - d]
    return out


def draw_paired(rng: np.random.Generator, cfg: DgpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generate one paired sample from an explicit random stream."""
    n, J, alpha = cfg.n, cfg.J, cfg.alpha
    sd = np.sqrt(cfg.noise_variance)
    if cfg.variant == "bernoulli":
        z = _pareto(rng, alpha, (n, 2))
        nrm = rng.normal(0.0, sd, (n, 2))
        a = rng.random((n, 2)) < cfg.p_a
        b = rng.random((n, 2)) < cfg.p_b
        phis = np.stack([basis(1, J), basis(2, J)])
        x = (np.where(a, z, nrm)) @ phis
        y = (np.where(b, z, nrm)) @ phis
        return x, y

    rho = cfg.rho
    z1 = _pareto(rng, alpha, n)
    z2 = _pareto(rng, alpha, n)
    n1 = rng.normal(0.0, sd, n)
    n2 = rng.normal(0.0, sd, n)
    n3 = rng.normal(0.0, sd, n)
    p1, p2, p3 = basis(1, J), basis(2, J), basis(3, J)
    x = np.outer(z1, p1) + np.outer(n1, p2) + np.outer(n2, p3)
    y = np.outer(rho * z1, p1) + np.outer(np.sqrt(1.0 - rho * rho) * z2, p2) + np.outer(n3, p3)
    if cfg.variant == "phase":
        y = phase_shift(y, cfg.delta)
    return x, y


def generate_paired(cfg: DgpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generate one paired sample, bit-reproducible in cfg.seed."""
    return draw_paired(np.random.default_rng(cfg.seed), cfg)


def generate_shared_score(
    n: int, alpha: float, J: int = 100, seed: int = 0, noise_variance: float = 0.25
) -> tuple[np.ndarray, np.ndarray]:
    """Margins sharing one heavy score on swapped basis elements.

    X = Z1 phi1 + N1 phi2 and Y = Z1 phi2 + N2 phi1: extremes always co-occur
    (chi = 1) yet the extreme shapes are orthogonal, so the extremal
    correlation is near zero. Useful for demonstrating what rho adds over
    chi-type diagnostics.
    """
    rng = np.random.default_rng(seed)
    z1 = _pareto(rng, alpha, n)
    sd = np.sqrt(noise_variance)
    n1 = rng.normal(0.0, sd, n)
    n2 = rng.normal(0.0, sd, n)
    p1, p2 = basis(1, J), basis(2, J)
    x = np.outer(z1, p1) + np.outer(n1, p2)
    y = np.outer(z1, p2) + np.outer(n2, p1)
    return x, y


def generate_concentrated(
    axis: int, n: int, alpha: float, J: int = 100, seed: int = 0,
    components: int = 9, noise_variance: float = 0.25,
) -> np.ndarray:
    """Nine-component sample whose extreme shapes concentrate on one basis axis.

    Component ``axis`` carries the symmetric Pareto score; the other
    components carry centered normals. Extreme curves are then dominated by
    the shape of that single basis element.
    """
    if not 1 <= axis <= components:
        raise DomainError(f"axis must lie in [1, {components}]")
    rng = np.random.default_rng(seed)
    coef = rng.normal(0.0, np.sqrt(noise_variance), (n, components))
    coef[:, axis - 1] = _pareto(rng, alpha, n)
    phis = np.stack([basis(j, J) for j in range(1, components + 1)])
    return coef @ phis


def oracle_rho(rho: float, alpha: float) -> float:
    """Closed-form population extremal correlation of the base generator."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    if alpha <= 2.0:
        raise DomainError("alpha must exceed 2")
    return rho / np.sqrt(rho * rho + (1.0 - rho * rho) ** (alpha / 2.0))


def oracle_rho_bernoulli(p_a: float, p_b: float) -> float:
    """Closed-form population extremal correlation of the gated generator."""
    if not (0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0):
        raise DomainError("gate probabilities must lie in [0, 1]")
    return float(np.sqrt(p_a * p_b))


def invert_oracle(rho_xy_target: float, alpha: float, tol: float = 1e-10) -> float:
    """The generator weight rho whose population coefficient equals the target.

    Plain bisection on [0, 1] (the map is increasing there), sign restored
    afterwards.
    """
    if not -1.0 <= rho_xy_target <= 1.0:
        raise DomainError("target must lie in [-1, 1]")
    if alpha <= 2.0:
        raise DomainError("alpha must exceed 2")
    target = abs(rho_xy_target)
    if target in (0.0, 1.0):
        return float(np.copysign(target, rho_xy_target)) if target else 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracle_rho(mid, alpha) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * 1e-3:
            break
    root = 0.5 * (lo + hi)
    return float(np.copysign(root, rho_xy_target))


@dataclass(frozen=True)
class ExperimentRow:
    """One Monte Carlo cell: replicated rho_hat estimation against one target."""

    rho_xy_target: float
    alpha: float
    n: int
    reps: int
    failed: int
    mean: float
    bias: float
    se: float
    mean_k: float


@dataclass(frozen=True)
class ExperimentTable:
    """Rows of a bias experiment, with CSV/JSON emitters matching the report layout."""

    rows: list[ExperimentRow] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, "rows": [asdict(r) for r in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_wide_csv(self) -> str:
        """Rows are (alpha, rho_xy) and columns fan out per sample size n."""
        ns = sorted({r.n for r in self.rows})
        header = ["alpha", "rho_xy"]
        for n in ns:
            header += [f"bias[n={n}]", f"se[n={n}]"]
        cells: dict[tuple[float, float], dict[int, ExperimentRow]] = {}
        for r in self.rows:
            cells.setdefault((r.alpha, r.rho_xy_target), {})[r.n] = r
        lines = [",".join(header)]
        for (alpha, rho), per_n in cells.items():
            row = [f"{alpha:.17g}", f"{rho:.17g}"]
            for n in ns:
                if n in per_n:
                    row += [f"{per_n[n].bias:.17g}", f"{per_n[n].se:.17g}"]
                else:
                    row += ["", ""]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def replicate_rho(
    cfg: DgpConfig,
    reps: int,
    seed: int | np.random.SeedSequence,
    k_method: str = "mindist",
    k_fixed: int | None = None,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Replicated rho_hat draws for one generator configuration.

    Returns (rho_hats, selected_ks, failures). Each replication runs on its
    own child stream spawned from ``seed``, so the result does not depend on
    the worker count; replications that raise degenerate-data errors are
    dropped and counted.
    """
    if reps < 1:
        raise DomainError("reps must be >= 1")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(reps)

    def one(i: int):
        rng = np.random.default_rng(streams[i])
        xs, ys, nx, ny, radii = _paired(*draw_paired(rng, cfg))
        try:
            k = select_k(radii, k_method, k_fixed).k
            return _exceedances(xs, ys, nx, ny, radii, k).rho_xy, k
        except (DegenerateSampleError, DegenerateTailError):
            return np.nan, 0

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(reps)))
    else:
        results = [one(i) for i in range(reps)]

    rho_hats = np.array([r[0] for r in results])
    ks = np.array([r[1] for r in results], dtype=float)
    good = ~np.isnan(rho_hats)
    return rho_hats[good], ks[good], int(np.sum(~good))


def bias_experiment(
    targets,
    alpha: float,
    n: int,
    reps: int,
    k_method: str = "mindist",
    seed: int = 0,
    J: int = 100,
    k_fixed: int | None = None,
    threads: int = 1,
    noise_variance: float = 0.25,
) -> ExperimentTable:
    """Monte Carlo bias/standard-error table for the base generator.

    For each population target the generator weight is recovered through the
    closed form, ``reps`` independent samples are generated, and rho_hat is
    computed with the requested k rule applied directly to the radii (the
    margins are tail equivalent by construction, so the marginal steps are
    skipped). Rows report |mean - target| and the sample standard deviation.
    """
    targets = [float(t) for t in targets]
    rows = []
    target_seeds = np.random.SeedSequence(seed).spawn(len(targets))
    for t, child in zip(targets, target_seeds):
        cfg = DgpConfig(
            rho=invert_oracle(t, alpha), alpha=alpha, n=n, J=J, noise_variance=noise_variance
        )
        rho_hats, ks, failed = replicate_rho(
            cfg, reps, seed=child, k_method=k_method, k_fixed=k_fixed, threads=threads
        )
        mean = float(np.mean(rho_hats)) if rho_hats.size else float("nan")
        se = float(np.std(rho_hats, ddof=1)) if rho_hats.size > 1 else 0.0
        rows.append(
            ExperimentRow(
                rho_xy_target=float(t),
                alpha=float(alpha),
                n=int(n),
                reps=int(rho_hats.size),
                failed=failed,
                mean=mean,
                bias=abs(mean - t) if rho_hats.size else float("nan"),
                se=se,
                mean_k=float(np.mean(ks)) if ks.size else float("nan"),
            )
        )
    return ExperimentTable(rows=rows)
