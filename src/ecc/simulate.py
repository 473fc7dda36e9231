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

Every generator is basis scores times basis rows. ``_scores`` draws the
scores and is the one draw order; ``_basis_rows`` gives x's and y's rows, y's
delayed for the phase variant; ``_combine`` is the one product. ``_paired_blocks``
turns them into (n, J) curves, each margin's rows one row block at a time: ``ecc
simulate`` streams those blocks to its files, holding the scores plus one
block, and ``draw_paired`` fills its two samples from them. The replications
of ``replicate_rho`` never build curves. They keep only their norms and inner
products, quadratic forms in the discrete Gram matrix of the basis rows, and
run in blocks: a block is one call of the estimators' radius stage
(``_radius_rows``), which for mindist chooses the whole block's k at once.

Reproducibility: a DgpConfig is fully deterministic in its seed; the
experiment spawns one child stream per replication from the master seed, and
the blocks depend on the replication count and n only, so results are
identical for any worker count. ``_combine`` adds in a fixed order without
BLAS, so a synthetic curve's bits depend neither on the BLAS kernel nor on
where the row blocks split (the bernoulli and concentrated bits changed once
when it replaced their BLAS products). The Gram products of ``replicate_rho``
do go through BLAS, so its results and experiment tables can move in the
last bits with the BLAS kernel. The Pareto draws use float64 ``power``, whose
bits depend on NumPy's SIMD level.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .curves import _fits, _row_blocks, grid
from .errors import DomainError, EccError
from .estimators import _radius_rows
from .tail import _check_k_method

VARIANTS = ("base", "bernoulli", "phase")

# Replications per Monte Carlo block. Chosen on experiment_cell (n = 2000, 2 workers): larger
# blocks ran no faster and raised its peak RSS (16 rows: +2.7 MB, past the benchmark's 5 % bound).
_BLOCK = 8
# The most values each of a block's (replications, n) arrays may hold: blocks shrink at large n.
# Measured with 2 workers (2-vCPU host): at n = 2e5 (32 replications, blocks of 1) peak RSS
# 111 MB against 234-240 MB with blocks of 8 and 135 MB one replication per task, wall time
# 1.9 s against 2.1 s; at n = 2e4 (100 replications, blocks of 6) 54 MB against 57 MB, same time.
_BLOCK_VALUES = 1 << 17
_NOISE_SD = 0.5  # of the normal scores of generate_shared_score and generate_concentrated: variance 0.25


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
        _check_alpha(self.alpha, 2.0)
        if self.n < 1 or self.J < 2:
            raise DomainError("need n >= 1 and J >= 2")
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}")
        if not (0.0 <= self.p_a <= 1.0 and 0.0 <= self.p_b <= 1.0):
            raise DomainError("gate probabilities must lie in [0, 1]")
        if not 0.0 <= self.delta < 1.0:
            raise DomainError("delta must lie in [0, 1)")
        if not 0.0 <= self.noise_variance < np.inf:
            raise DomainError(f"noise_variance must be nonnegative and finite, got {self.noise_variance}")
        _check_seed(self.seed)


def _check_alpha(alpha: float, floor: float) -> None:
    if not floor < alpha < np.inf:
        raise DomainError(f"alpha must exceed {floor:g} and be finite, got {alpha}")


def _check_seed(seed) -> None:
    if not isinstance(seed, np.random.SeedSequence) and seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def basis(j: int, J: int) -> np.ndarray:
    """The j-th orthonormal sine basis element sampled on the grid 1/J..1."""
    if j < 1:
        raise DomainError("basis order j must be >= 1")
    if J < 2:
        raise DomainError("J must be >= 2")
    return np.sqrt(2.0) * np.sin((j - 0.5) * np.pi * grid(J))


def _symmetric_pareto(alpha: float, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Symmetric Pareto draws from uniforms: magnitude u^(-1/alpha) for u in (0, 1], positive sign where s < 1/2."""
    return u ** (-1.0 / alpha) * np.where(s < 0.5, 1.0, -1.0)


def _pareto(rng: np.random.Generator, alpha: float, size) -> np.ndarray:
    # the uniforms lie in (0, 1] and [0, 1) by construction: no checks
    return _symmetric_pareto(alpha, 1.0 - rng.random(size), rng.random(size))


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


def _basis_rows(cfg: DgpConfig) -> tuple[np.ndarray, np.ndarray]:
    """The basis rows the scores of ``_scores`` weight, x's and y's: phi1, phi2 (bernoulli) or
    phi1..phi3, y's delayed by ``phase_shift`` for the phase variant."""
    rows = np.stack([basis(j, cfg.J) for j in range(1, 3 if cfg.variant == "bernoulli" else 4)])
    return rows, phase_shift(rows, cfg.delta) if cfg.variant == "phase" else rows


def _combine(scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The curves sum_j outer(scores[:, j], rows[j]), added in j order onto +0.0 without BLAS."""
    out = np.zeros((scores.shape[0], rows.shape[1]))
    for column, row in zip(scores.T, rows):
        out += np.outer(column, row)
    return out


def _scores(rng: np.random.Generator, cfg: DgpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Basis scores (cx, cy) of one paired sample: x = _combine(cx, px) and y = _combine(cy, py),
    (px, py) = _basis_rows(cfg)."""
    n, alpha = cfg.n, cfg.alpha
    sd = np.sqrt(cfg.noise_variance)
    if cfg.variant == "bernoulli":
        z = _pareto(rng, alpha, (n, 2))
        nrm = rng.normal(0.0, sd, (n, 2))
        a = rng.random((n, 2)) < cfg.p_a
        b = rng.random((n, 2)) < cfg.p_b
        return np.where(a, z, nrm), np.where(b, z, nrm)
    rho = cfg.rho
    cx, cy = np.empty((n, 3)), np.empty((n, 3))
    cx[:, 0] = z1 = _pareto(rng, alpha, n)
    z2 = _pareto(rng, alpha, n)
    cx[:, 1] = rng.normal(0.0, sd, n)
    cx[:, 2] = rng.normal(0.0, sd, n)
    cy[:, 2] = rng.normal(0.0, sd, n)
    cy[:, 0] = rho * z1
    cy[:, 1] = np.sqrt(1.0 - rho * rho) * z2
    return cx, cy


def _paired_blocks(rng: np.random.Generator, cfg: DgpConfig) -> tuple[Iterator[np.ndarray], Iterator[np.ndarray]]:
    """The curves of one paired sample as two lazy iterators, x's and y's, of ``_row_blocks`` blocks.

    The scores are drawn here, at the call; each block is made as its iterator
    reaches it.
    """
    with _fits(f"n = {cfg.n} curves"):
        cx, cy = _scores(rng, cfg)
    px, py = _basis_rows(cfg)

    def blocks(c: np.ndarray, p: np.ndarray) -> Iterator[np.ndarray]:
        for rows in _row_blocks(cfg.n, cfg.J):
            yield _combine(c[rows], p)

    return blocks(cx, px), blocks(cy, py)


def draw_paired(rng: np.random.Generator, cfg: DgpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generate one paired sample from an explicit random stream."""
    x_blocks, y_blocks = _paired_blocks(rng, cfg)
    with _fits(f"n = {cfg.n} curves"):
        x, y = np.empty((cfg.n, cfg.J)), np.empty((cfg.n, cfg.J))
    for out, blocks in ((x, x_blocks), (y, y_blocks)):
        for rows, block in zip(_row_blocks(cfg.n, cfg.J), blocks):
            out[rows] = block
    return x, y


def generate_paired(cfg: DgpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Generate one paired sample, bit-reproducible in cfg.seed."""
    return draw_paired(np.random.default_rng(cfg.seed), cfg)


def generate_shared_score(n: int, alpha: float, J: int = 100, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Margins sharing one heavy score on swapped basis elements.

    X = Z1 phi1 + N1 phi2 and Y = Z1 phi2 + N2 phi1 (noise variance 0.25):
    extremes always co-occur (chi = 1) yet the extreme shapes are orthogonal,
    so the extremal correlation is near zero. Useful for demonstrating what
    rho adds over chi-type diagnostics. alpha must be positive and finite.
    """
    _check_alpha(alpha, 0.0)
    rng = np.random.default_rng(seed)
    z1 = _pareto(rng, alpha, n)
    n1 = rng.normal(0.0, _NOISE_SD, n)
    n2 = rng.normal(0.0, _NOISE_SD, n)
    rows = np.stack([basis(1, J), basis(2, J)])
    return _combine(np.stack([z1, n1], axis=1), rows), _combine(np.stack([z1, n2], axis=1), rows[::-1])


def generate_concentrated(axis: int, n: int, alpha: float, J: int = 100, seed: int = 0) -> np.ndarray:
    """Nine-component sample whose extreme shapes concentrate on one basis axis.

    Component ``axis`` (1..9) carries the symmetric Pareto score; the other
    components carry centered normals of variance 0.25. Extreme curves are
    then dominated by the shape of that single basis element. alpha must be
    positive and finite.
    """
    if not 1 <= axis <= 9:
        raise DomainError("axis must lie in [1, 9]")
    _check_alpha(alpha, 0.0)
    rng = np.random.default_rng(seed)
    coef = rng.normal(0.0, _NOISE_SD, (n, 9))
    coef[:, axis - 1] = _pareto(rng, alpha, n)
    return _combine(coef, np.stack([basis(j, J) for j in range(1, 10)]))


def oracle_rho(rho: float, alpha: float) -> float:
    """Closed-form population extremal correlation of the base generator."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    _check_alpha(alpha, 2.0)
    return rho / np.sqrt(rho * rho + (1.0 - rho * rho) ** (alpha / 2.0))


def oracle_rho_bernoulli(p_a: float, p_b: float) -> float:
    """Closed-form population extremal correlation of the gated generator."""
    if not (0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0):
        raise DomainError("gate probabilities must lie in [0, 1]")
    return float(np.sqrt(p_a * p_b))


def invert_oracle(rho_xy_target: float, alpha: float) -> float:
    """The generator weight rho whose population coefficient equals the target.

    Plain bisection on [0, 1] (the map is increasing there) down to a bracket
    of width 2^-44, sign restored afterwards.
    """
    if not -1.0 <= rho_xy_target <= 1.0:
        raise DomainError("target must lie in [-1, 1]")
    _check_alpha(alpha, 2.0)
    target = abs(rho_xy_target)
    if target in (0.0, 1.0):
        return float(np.copysign(target, rho_xy_target)) if target else 0.0
    lo, hi = 0.0, 1.0
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        if oracle_rho(mid, alpha) < target:
            lo = mid
        else:
            hi = mid
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


def _check_run(seed, threads: int) -> None:
    _check_seed(seed)
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")


def _gram_norms(c: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Norms of the curves with basis scores ``c``: sqrt(c_i gram c_iᵀ), ``gram`` their basis Gram matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.einsum("ij,ij->i", c @ gram, c)
    if not np.all((q >= 0.0) & (q < np.inf)):
        raise DomainError("curve norms overflow or are not a nonnegative quadratic form")
    return np.sqrt(q)


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
    dropped and counted, and a domain error aborts the run with the error of
    the first failing replication. Replications read basis scores (see the
    module docstring), so rho_hat can differ in the last ulps from
    ``ecc_report`` on ``draw_paired`` curves. A given ``k_fixed`` fixes every
    replication's k whatever ``k_method`` says, as ``k`` does in the pipeline.

    Replications run in blocks of ``_BLOCK`` (fewer at large n, see
    ``_BLOCK_VALUES``): each draws its scores and keeps only its norms and
    its n inner products, and the block chooses every k at once. Workers take
    whole blocks; the blocks do not depend on the worker count.
    """
    if reps < 1:
        raise DomainError("reps must be >= 1")
    _check_run(seed, threads)
    k_method, k_fixed = _check_k_method(k_method, k_fixed)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    with _fits(f"reps = {reps} replications"):  # the result arrays first: spawning the streams is slow
        rho_hats, ks = np.empty(reps), np.empty(reps)
        streams = root.spawn(reps)
    px, py = _basis_rows(cfg)
    gxx, gyy, gxy = (a @ b.T / cfg.J for a, b in ((px, px), (py, py), (px, py)))
    block = max(1, min(_BLOCK, _BLOCK_VALUES // cfg.n))

    def fit_rows(start, nx, ny, ips) -> None:
        """Store (rho_hat, k) of replications start, start + 1, ...: (nan, 0) for one with degenerate data."""
        reports = _radius_rows(nx, ny, [row.__getitem__ for row in ips], k_method, k_fixed)
        for i, r in enumerate(reports, start):
            rho_hats[i], ks[i] = (np.nan, 0) if isinstance(r, EccError) else (r.rho_xy, r.k)

    def fit_block(start: int) -> None:
        nx, ny, ips = (np.empty((min(block, reps - start), cfg.n)) for _ in range(3))
        for b, stream in enumerate(streams[start : start + block]):
            cx, cy = _scores(np.random.default_rng(stream), cfg)
            try:
                nx[b], ny[b] = _gram_norms(cx, gxx), _gram_norms(cy, gyy)
            except DomainError:
                if b:  # an earlier replication's domain error comes first
                    fit_rows(start, nx[:b], ny[:b], ips[:b])
                raise
            ips[b] = np.einsum("ij,ij->i", cx @ gxy, cy)
        fit_rows(start, nx, ny, ips)

    starts = range(0, reps, block)
    with _fits(f"n = {cfg.n} curves"):
        if threads > 1:
            # imported here, not at the top: concurrent.futures loads logging, about 0.6 MB of peak RSS
            # that no other command needs
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(fit_block, starts))  # raises the first failing block's error
        else:
            for start in starts:
                fit_block(start)

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
    _check_run(seed, threads)
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
