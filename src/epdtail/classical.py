"""Classical tail estimators: Hill index, Weissman probability."""

from __future__ import annotations

import numpy as np

from .data import ExcessSet, SortedSample
from .epd import EPDParams, epd_tail_prob

__all__ = ["hill", "weissman_tail_prob"]


def hill(e: ExcessSet) -> float:
    """Hill estimator: the average log-excess above the threshold.

    All-tie excesses give exactly 0; consumers dividing by the estimate
    must guard against that. The sum divided by k is the value ``np.mean``
    returns, without its call overhead.
    """
    return float(np.add.reduce(np.log(e.y))) / e.k


def weissman_tail_prob(s: SortedSample, k: int, x: float, xi: float) -> float:
    """Extrapolated exceedance probability (k/n) * (x/threshold)**(-1/xi).

    Valid only at or beyond the threshold set by k; returns k/n exactly
    at the threshold and decreases in x: ``epd_tail_prob`` at delta = 0, for any tau.
    """
    if xi <= 0:
        raise ValueError(f"tail index must be positive, got {xi}")
    return epd_tail_prob(s, k, x, EPDParams(xi=xi, delta=0.0, tau=-1.0))
