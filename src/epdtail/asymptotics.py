"""Limiting bias, variance and MSE of the shrinkage estimator and its baselines.

Everything is parametrized by the tail index xi, the second-order rate
rho < 0, the bias scale lam (the limit of sqrt(k) times the second-order
term), and the prior-strength parameter zeta. These pure formulas serve
as the numerical oracle for tuning choices and for the simulation study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "AsymptoticRegime",
    "asym_mean",
    "asym_var",
    "zeta_opt",
    "mse_opt",
    "limit_mse",
]


@dataclass(frozen=True)
class AsymptoticRegime:
    """A limiting regime (xi, rho, lam) plus the prior strength zeta >= 0.

    zeta = inf encodes the no-shrinkage (Hill) regime and zeta = 0 the
    unshrunk (ML) one.
    """

    xi: float
    rho: float
    lam: float
    zeta: float

    def __post_init__(self) -> None:
        if not self.xi > 0:
            raise ValueError("xi must be positive")
        if not self.rho < 0:
            raise ValueError("rho must be negative")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not self.zeta >= 0:
            raise ValueError("zeta must be nonnegative")


def asym_mean(r: AsymptoticRegime) -> float:
    """Limiting bias of sqrt(k)*(estimate - xi): the Hill bias damped by shrinkage."""
    hill_bias = r.lam * r.rho / (1.0 - r.rho)
    if math.isinf(r.zeta):
        return hill_bias
    rho4 = r.rho ** 4
    return hill_bias * r.zeta / (r.zeta + rho4)


def asym_var(r: AsymptoticRegime) -> float:
    """Limiting variance of sqrt(k)*(estimate - xi)."""
    if math.isinf(r.zeta):
        return r.xi ** 2
    rho4 = r.rho ** 4
    rho6 = r.rho ** 6
    num = rho6 * (1.0 - r.rho) ** 2 + r.zeta ** 2 + 2.0 * r.zeta * rho4
    return r.xi ** 2 * num / (rho4 + r.zeta) ** 2


def zeta_opt(xi: float, rho: float, lam: float) -> float:
    """MSE-minimizing prior strength; +inf when the bias scale vanishes."""
    if lam == 0.0:
        return math.inf
    return xi * xi * (1.0 - 2.0 * rho) / (lam * lam)


def mse_opt(xi: float, rho: float, lam: float) -> float:
    """Optimal limiting MSE, in the factored form that is finite at lam = 0."""
    xi2 = xi * xi
    lam2 = lam * lam
    rho4 = rho ** 4
    one_m2r = 1.0 - 2.0 * rho
    num = xi2 * one_m2r + lam2 * rho4 * (1.0 - rho) ** 2
    den = (xi2 * one_m2r + lam2 * rho4) ** 2
    return xi2 + xi2 * rho * rho * (one_m2r / (1.0 - rho) ** 2) * lam2 * num / den


def limit_mse(kind: str, xi: float, rho: float, lam: float) -> float:
    """Limiting MSE of a baseline: "hill" depends on lam, "epd_ml" does not."""
    if kind == "hill":
        return xi * xi + lam * lam * rho * rho / (1.0 - rho) ** 2
    if kind == "epd_ml":
        return xi * xi * ((1.0 - rho) / rho) ** 2
    raise ValueError(f"unknown kind {kind!r}; expected 'hill' or 'epd_ml'")
