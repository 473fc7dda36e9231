"""Power transformation driving a sample's norm tail index to a target value.

Each curve x maps to x / ||x||^(1 - alpha_source/alpha_target). The direction
x/||x|| is untouched; only the scale changes, so ||g(x)|| = ||x||^(alpha_source/
alpha_target) and a Pareto(alpha_source) norm becomes Pareto(alpha_target).
Zero curves map to zero curves (continuous extension of the 0/0 case).
"""
from __future__ import annotations

import numpy as np

from .curves import _norms, as_sample
from .errors import DomainError


def _power_scales(r, alpha_source: float, alpha_target: float) -> np.ndarray:
    """Per-curve factors ||x||^(alpha_source/alpha_target - 1) of the transform, from the norms r."""
    if alpha_source <= 0 or alpha_target <= 0:
        raise DomainError("tail indexes must be positive")
    with np.errstate(divide="ignore"):
        return np.where(r > 0, r ** (alpha_source / alpha_target - 1.0), 0.0)


def power_transform(s, alpha_source: float, alpha_target: float) -> np.ndarray:
    """Rescale every curve so the norm tail index moves from alpha_source to alpha_target."""
    arr = as_sample(s)
    return arr * _power_scales(_norms(arr), alpha_source, alpha_target)[:, None]
