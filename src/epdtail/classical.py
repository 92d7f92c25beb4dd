"""Classical tail estimators: Hill index, moment statistics, Weissman probability."""

from __future__ import annotations

import numpy as np

from .data import ExcessSet, SortedSample

__all__ = ["hill", "moment_stat", "weissman_tail_prob"]


def hill(e: ExcessSet) -> float:
    """Hill estimator: the average log-excess above the threshold.

    All-tie excesses give exactly 0; consumers dividing by the estimate
    must guard against that.
    """
    return float(np.mean(np.log(e.y)))


def moment_stat(e: ExcessSet, s: float) -> float:
    """Empirical negative-power moment of the excesses, mean(y**s) for s < 0.

    The result lies in (0, 1] and equals 1 exactly when all excesses are
    ties at the threshold.
    """
    if s >= 0:
        raise ValueError(f"exponent must be negative, got {s}")
    return float(np.mean(e.y ** s))


def weissman_tail_prob(s: SortedSample, k: int, x: float, xi: float) -> float:
    """Extrapolated exceedance probability (k/n) * (x/threshold)**(-1/xi).

    Valid only at or beyond the threshold set by k; returns k/n exactly
    at the threshold and decreases in x.
    """
    if xi <= 0:
        raise ValueError(f"tail index must be positive, got {xi}")
    threshold = float(s.values[s.n - k - 1])
    if x < threshold:
        raise ValueError(f"x={x} is below the threshold {threshold}; extrapolation invalid")
    return (k / s.n) * (x / threshold) ** (-1.0 / xi)
