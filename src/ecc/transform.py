"""Power transformation driving a sample's norm tail index to a target value.

Each curve x maps to x / ||x||^(1 - alpha_source/alpha_target). The direction
x/||x|| is untouched; only the scale changes, so ||g(x)|| = ||x||^(alpha_source/
alpha_target) and a Pareto(alpha_source) norm becomes Pareto(alpha_target).
Zero curves map to zero curves (continuous extension of the 0/0 case).
"""
from __future__ import annotations

import numpy as np

from .curves import _margin_rows, _norms, _overflow_raises, as_sample
from .errors import DomainError


def _power_scales(r, alpha_source: float, alpha_target: float) -> np.ndarray:
    """Per-curve factors ||x||^(alpha_source/alpha_target - 1) of the transform, from the norms r."""
    for name, alpha in (("alpha_source", alpha_source), ("alpha_target", alpha_target)):
        if not 0 < alpha < np.inf:
            raise DomainError(f"{name} must be positive and finite, got {alpha}")
    with np.errstate(divide="ignore"), _overflow_raises("power transform factors overflow"):
        return np.where(r > 0, r ** (alpha_source / alpha_target - 1.0), 0.0)


def power_transform(s, alpha_source: float, alpha_target: float) -> np.ndarray:
    """Rescale every curve so the norm tail index moves from alpha_source to alpha_target."""
    arr = as_sample(s)
    return _margin_rows(arr, None, _power_scales(_norms(arr), alpha_source, alpha_target), slice(None))
