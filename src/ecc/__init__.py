"""Extremal correlation for paired samples of discretized curves.

The package estimates how strongly the extreme curves of two aligned
functional samples co-vary, using only the pairs whose norm radius exceeds a
data-driven threshold. It ships the estimators, the supporting tail
machinery (Hill fits, threshold selection, tail-equivalence transform),
scalar chi/chibar diagnostics, synthetic generators with closed-form
population values, and a seeded Monte Carlo harness.
"""
from .chi import ChiSeries, chi_curve
from .curves import center, grid, inner_product, inner_products, norm, norms, pair_radii
from .curveio import parse_curve_file, resample_linear, write_curve_file
from .errors import (
    DegenerateSampleError,
    DegenerateTailError,
    DomainError,
    EccError,
    EmptyInputError,
    GridMismatchError,
    ParseError,
)
from .estimators import (
    EccReport,
    PipelineReport,
    angular_dependence,
    ecc_report,
    estimate_pipeline,
    extremal_correlation,
    extremal_covariance,
    order_statistic,
    pairwise_matrix,
)
from .simulate import (
    DgpConfig,
    ExperimentRow,
    ExperimentTable,
    basis,
    bias_experiment,
    draw_paired,
    draw_symmetric_pareto,
    generate_concentrated,
    generate_paired,
    generate_shared_score,
    invert_oracle,
    oracle_rho,
    oracle_rho_bernoulli,
    phase_shift,
    replicate_rho,
)
from .tail import HillSeries, TailFit, hill, hill_series, select_k, select_k_ks, select_k_mindist
from .transform import power_transform

__version__ = "0.1.0"

__all__ = [
    "ChiSeries",
    "DegenerateSampleError",
    "DegenerateTailError",
    "DgpConfig",
    "DomainError",
    "EccError",
    "EccReport",
    "EmptyInputError",
    "ExperimentRow",
    "ExperimentTable",
    "GridMismatchError",
    "HillSeries",
    "ParseError",
    "PipelineReport",
    "TailFit",
    "angular_dependence",
    "basis",
    "bias_experiment",
    "center",
    "chi_curve",
    "draw_paired",
    "draw_symmetric_pareto",
    "ecc_report",
    "estimate_pipeline",
    "extremal_correlation",
    "extremal_covariance",
    "generate_concentrated",
    "generate_paired",
    "generate_shared_score",
    "grid",
    "hill",
    "hill_series",
    "inner_product",
    "inner_products",
    "invert_oracle",
    "norm",
    "norms",
    "oracle_rho",
    "oracle_rho_bernoulli",
    "order_statistic",
    "pair_radii",
    "pairwise_matrix",
    "parse_curve_file",
    "phase_shift",
    "power_transform",
    "replicate_rho",
    "resample_linear",
    "select_k",
    "select_k_ks",
    "select_k_mindist",
    "write_curve_file",
]
