"""Second-order rate parameter estimation: the three-moment estimator of rho and its fallback."""

from __future__ import annotations

import math

import numpy as np

from .data import SortedSample

__all__ = ["NonEstimableError", "rho_fraga", "resolve_rho"]


class NonEstimableError(ValueError):
    """Raised when a statistic cannot be estimated from the given data."""


def rho_fraga(s: SortedSample, k1: int | None = None, tuning: float = 0.0) -> float:
    """Three-moment estimate of the second-order rate parameter.

    Built from the first three powers of log-spacings of the top ``k1``
    order statistics. With tuning 0 the moment powers are replaced by
    logarithms; tuning 1 uses the plain powers. The default ``k1`` is
    min(n - 1, floor(n**0.975)).

    Raises
    ------
    NonEstimableError
        On degenerate statistics (vanishing moments, nonpositive ratio
        denominator, or a ratio value with no negative image).
    """
    n = s.n
    if k1 is None:
        k1 = min(n - 1, math.floor(n ** 0.975))
    if k1 > n - 1:
        raise ValueError(f"k1 must be at most n-1={n - 1}, got {k1}")
    if k1 < 10:
        raise ValueError(f"k1 must be at least 10, got {k1}")
    if tuning not in (0.0, 1.0):
        raise ValueError(f"tuning must be 0 or 1, got {tuning}")

    d = np.log(s.values[n - k1:]) - np.log(s.values[n - k1 - 1])
    m1 = float(np.mean(d))
    m2 = float(np.mean(d ** 2))
    m3 = float(np.mean(d ** 3))
    if min(m1, m2, m3) <= 0.0:
        raise NonEstimableError("degenerate log-moment statistics")

    if tuning == 0.0:
        num = math.log(m1) - 0.5 * math.log(m2 / 2.0)
        den = 0.5 * math.log(m2 / 2.0) - math.log(m3 / 6.0) / 3.0
    else:
        num = m1 - math.sqrt(m2 / 2.0)
        den = math.sqrt(m2 / 2.0) - (m3 / 6.0) ** (1.0 / 3.0)
    if den <= 0.0:
        raise NonEstimableError("nonpositive denominator in the ratio statistic")
    t = num / den
    if abs(t - 3.0) < 1e-10:
        raise NonEstimableError("ratio statistic at the singular value 3")
    rho = -abs(3.0 * (t - 1.0) / (t - 3.0))
    if rho >= 0.0:
        raise NonEstimableError("estimate collapsed to a nonnegative value")
    return rho


def resolve_rho(
    s: SortedSample,
    k1: int | None = None,
    tuning: float = 0.0,
) -> tuple[float, str]:
    """Estimate rho with the three-moment estimator, falling back to -1.

    The estimate is capped away from zero at min(-0.5, rho). Returns the
    rho value and its source ("estimated" or "fixed_minus_one").
    """
    try:
        return min(-0.5, rho_fraga(s, k1=k1, tuning=tuning)), "estimated"
    except NonEstimableError:
        return -1.0, "fixed_minus_one"
