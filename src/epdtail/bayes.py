"""Shrinkage-prior estimation for the extended Pareto excess model.

The perturbation amplitude delta gets a zero-mean normal prior whose
variance shrinks with the threshold, and the tail index gets a proper
gamma approximation of the maximal-data-information prior. Estimation is
by posterior mode, either through the first-order estimating equations
(with an exact-mode fallback where those have no solution) or through a
random-walk Metropolis chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, ndtr

from .classical import hill, moment_stat
from .data import ExcessSet, SortedSample
from .epd import DELTA_MAX, EPDParams, _Likelihood, delta_lower_bound, epd_tail_prob

__all__ = [
    "ClosedFormError",
    "PosteriorChain",
    "BayesEstimate",
    "MCMCConfig",
    "prior_variance",
    "log_prior_xi",
    "log_prior_delta",
    "bayes_closed_form",
    "metropolis_sample",
    "posterior_mode",
    "hpd_interval",
    "bayes_tail_prob",
    "smooth_path",
]

# shape of the proper gamma (scale 1) approximation to the information prior on xi
_GAMMA_SHAPE = 1e-4
# Metropolis tuning: initial step scales in (log xi, delta), and the burn-in
# adaptation that every _ADAPT_INTERVAL proposals nudges both scales toward
# the _TARGET_ACCEPT acceptance rate (Roberts, Gelman & Gilks 1997)
_STEP_LOG_XI = 0.15
_STEP_DELTA = 0.3
_ADAPT_INTERVAL = 50
_TARGET_ACCEPT = 0.234


class ClosedFormError(RuntimeError):
    """The first-order estimating system has no usable solution."""


@dataclass(frozen=True)
class BayesEstimate:
    """Posterior-mode estimate of (xi, delta) and the route that found it."""

    xi: float
    delta: float
    solver: Literal["linear", "profile-map", "mcmc"]

    def __post_init__(self) -> None:
        if not self.xi > 0:
            raise ValueError("xi must be positive")


@dataclass(frozen=True)
class PosteriorChain:
    """Post-burn-in Metropolis draws of (xi, delta) with their log posteriors."""

    draws: np.ndarray
    logpost: np.ndarray
    acceptance_rate: float

    def __post_init__(self) -> None:
        if self.draws.shape[0] != self.logpost.shape[0]:
            raise ValueError("draws and logpost must have matching lengths")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


def _check_sigma2(sigma2: float) -> None:
    # prior_variance underflows to 0.0 when |rho| is huge
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")


def prior_variance(k: int, n: int, rho: float) -> float:
    """Threshold-driven prior variance (k/n)**(-2*rho)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if rho >= 0:
        raise ValueError(f"rho must be negative, got {rho}")
    return (k / n) ** (-2.0 * rho)


def log_prior_xi(xi: float) -> float:
    """Log density of the gamma(shape, scale=1) prior on the tail index."""
    if xi <= 0:
        return -math.inf
    return (_GAMMA_SHAPE - 1.0) * math.log(xi) - xi - float(gammaln(_GAMMA_SHAPE))


def log_prior_delta(delta: float, sigma2: float, tau: float) -> float:
    """Log density of the normal(0, sigma2) prior on delta, truncated at the model bound."""
    _check_sigma2(sigma2)
    lo = delta_lower_bound(tau)
    if delta <= lo:
        return -math.inf
    sigma = math.sqrt(sigma2)
    return (
        -0.5 * delta * delta / sigma2
        - math.log(math.sqrt(2.0 * math.pi) * sigma)
        - math.log(float(ndtr(-(lo / sigma))))
    )


class _LogTarget:
    """The per-observation log posterior of one (excesses, tau, sigma2), built once.

    Adds the prior normalisers to the likelihood kernel ``lik``, which
    already returns -inf at or below the truncation point of the delta
    prior. A call performs the same floating-point operations in the same
    order as composing ``epd_log_likelihood`` with the two log priors, so
    it returns the same bits.
    """

    def __init__(self, e: ExcessSet, tau: float, sigma2: float) -> None:
        _check_sigma2(sigma2)
        self.lik = _Likelihood(e, tau)
        self.k = e.k
        self.sigma2 = sigma2
        sigma = math.sqrt(sigma2)
        self.log_gamma = float(gammaln(_GAMMA_SHAPE))
        self.log_norm = math.log(math.sqrt(2.0 * math.pi) * sigma)
        self.log_trunc = math.log(float(ndtr(-(delta_lower_bound(tau) / sigma))))

    def __call__(self, xi: float, delta: float) -> float:
        ll = self.lik(xi, delta)
        if ll == -math.inf:
            return -math.inf
        lp = ((_GAMMA_SHAPE - 1.0) * math.log(xi) - xi - self.log_gamma
              + (-0.5 * delta * delta / self.sigma2 - self.log_norm - self.log_trunc))
        if lp == -math.inf:
            return -math.inf
        return ll + lp / self.k


def _system_coefficients(
    e: ExcessSet, tau: float, weight: float
) -> tuple[float, float, float, float, float]:
    """Coefficients of the first-order estimating system.

    With E1 = moment_stat(tau) and E2 = moment_stat(2*tau), the system is
        xi    = H + delta * (1 - E1)
        delta = (1 - H*tau) * (E1 - 1/(1 - H*tau)) / D(xi)
    where D(xi) = weight*xi - bracket(xi) and bracket is affine in xi.
    Returns (H, E1, rhs, a2, a1) for the equivalent quadratic
    a2*delta**2 + a1*delta - rhs = 0.
    """
    h = hill(e).xi
    if h <= 0:
        raise ClosedFormError("the estimating system requires a positive Hill estimate")
    e1 = moment_stat(e, tau)
    e2 = moment_stat(e, 2.0 * tau)
    rhs = (1.0 - h * tau) * (e1 - 1.0 / (1.0 - h * tau))
    b0 = 1.0 - 2.0 * e1 + e2 - tau * (1.0 - e1) * e1
    b1 = 2.0 * tau * e1 - (2.0 * tau + tau * tau) * e2
    a1 = (weight - b1) * h - b0
    a2 = (weight - b1) * (1.0 - e1)
    return h, e1, rhs, a2, a1


def _solve_first_order(e: ExcessSet, tau: float, weight: float) -> tuple[float, float]:
    """Solve the estimating system exactly via its quadratic reduction.

    Among real roots, picks the admissible one of smallest magnitude (the
    branch that vanishes in the strong-prior limit). Raises
    ClosedFormError when no admissible real root exists.
    """
    h, e1, rhs, a2, a1 = _system_coefficients(e, tau, weight)
    lo = delta_lower_bound(tau)
    candidates: list[float] = []
    if abs(a2) < 1e-300:
        if abs(a1) < 1e-12:
            raise ClosedFormError("singular estimating system")
        candidates.append(rhs / a1)
    else:
        disc = a1 * a1 + 4.0 * a2 * rhs
        if disc < 0.0:
            raise ClosedFormError("the estimating system has no real solution")
        sq = math.sqrt(disc)
        if rhs == 0.0:
            candidates.append(0.0)
        else:
            q = -(a1 + math.copysign(sq, a1)) / 2.0
            candidates.append(q / a2)
            if abs(q) > 0:
                candidates.append(-rhs / q)
    feasible = []
    for d in candidates:
        xi = h + d * (1.0 - e1)
        if xi > 0 and lo < d <= DELTA_MAX:
            feasible.append((abs(d), d, xi))
    if not feasible:
        raise ClosedFormError("no admissible solution of the estimating system")
    _, delta, xi = min(feasible)
    return xi, delta


def _profile_posterior_mode(e: ExcessSet, tau: float, sigma2: float) -> tuple[float, float]:
    """Exact posterior mode by profiling xi out and searching over delta.

    For fixed delta the xi maximizer of the total posterior solves a
    quadratic, so the mode reduces to a one-dimensional search over the
    admissible delta range: a vectorized coarse scan followed by a
    bounded local polish around its maximum.

    The search excludes the degenerate collapse direction where the
    profiled tail index falls below 5% of the Hill estimate: the density
    is unbounded along that boundary but carries negligible posterior
    mass, so it is an artifact rather than a usable mode.
    """
    target = _LogTarget(e, tau, sigma2)
    lik = target.lik
    k = e.k
    lo = lik.lo
    ext = np.array(lik.ext)
    mean_logy = float(np.mean(lik.log_y))
    xi_floor = 0.05 * mean_logy
    lp_const = -target.log_norm - target.log_trunc - target.log_gamma
    bq = k + 1.0 - _GAMMA_SHAPE

    def profile_xi(g, sqrt=math.sqrt):
        return (-bq + sqrt(bq * bq + 4.0 * k * g)) / 2.0

    def profile(delta: float) -> tuple[float, float]:  # g and the mean of log1p(delta*b)
        m1, m2 = np.add.reduce(np.log1p(delta * lik.coef), axis=1) / k
        return mean_logy + float(m1), float(m2)

    def total_grid(deltas: np.ndarray) -> np.ndarray:
        ok = (1.0 + np.outer(deltas, ext) > 0.0).all(axis=1)
        # log1p of every row at once; the inadmissible rows are masked below
        t = np.multiply.outer(deltas, lik.coef)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.log1p(t, out=t)
        m = np.add.reduce(t, axis=2) / k
        g = mean_logy + m[:, 0]
        ok &= g > 0.0
        g_safe = np.where(ok, g, 1.0)
        xi = profile_xi(g_safe, np.sqrt)
        ok &= xi >= xi_floor
        val = (
            k * (-np.log(xi) - (1.0 / xi + 1.0) * g_safe + m[:, 1])
            + (_GAMMA_SHAPE - 1.0) * np.log(xi)
            - xi
            - 0.5 * deltas * deltas / sigma2
            + lp_const
        )
        return np.where(ok, val, -np.inf)

    def neg_total(delta: float) -> float:
        if lik.inadmissible(delta):
            return math.inf
        g, m2 = profile(delta)
        if g <= 0.0:
            return math.inf
        xi = profile_xi(g)
        if xi < xi_floor:
            return math.inf
        val = (
            k * (-math.log(xi) - (1.0 / xi + 1.0) * g + m2)
            + (_GAMMA_SHAPE - 1.0) * math.log(xi)
            - xi
            - 0.5 * delta * delta / sigma2
            + lp_const
        )
        return -val

    grid = np.linspace(lo + 1e-9 * max(1.0, abs(lo)), DELTA_MAX, 481)
    vals = total_grid(grid)
    best = int(np.argmax(vals))
    if vals[best] == -np.inf:
        raise ClosedFormError("posterior mode search found no admissible point")
    step = grid[1] - grid[0]
    left = max(lo + 1e-12 * max(1.0, abs(lo)), grid[best] - step)
    right = min(DELTA_MAX, grid[best] + step)
    res = minimize_scalar(neg_total, bounds=(left, right), method="bounded",
                          options={"xatol": 1e-10})
    delta_hat = float(res.x) if res.fun <= -vals[best] else float(grid[best])
    return profile_xi(profile(delta_hat)[0]), delta_hat


def bayes_closed_form(e: ExcessSet, tau: float, sigma2: float) -> BayesEstimate:
    """Posterior-mode approximation from the first-order estimating system.

    The system couples the Hill estimate with the tau and 2*tau moment
    statistics; the prior variance sigma2 enters through xi / (k * sigma2). It is solved
    exactly through its quadratic reduction. In strong-bias regimes the
    linearized system can lack a real admissible solution; the estimator
    then falls back to the exact posterior mode found by profile search.
    ``BayesEstimate.solver`` records which route ran.
    """
    if e.k < 10:
        raise ValueError(f"need at least 10 excesses, got {e.k}")
    if tau >= 0:
        raise ValueError(f"tau must be negative, got {tau}")
    _check_sigma2(sigma2)
    try:
        xi, delta = _solve_first_order(e, tau, 1.0 / (e.k * sigma2))
        return BayesEstimate(xi=xi, delta=delta, solver="linear")
    except ClosedFormError:
        xi, delta = _profile_posterior_mode(e, tau, sigma2)
        return BayesEstimate(xi=xi, delta=delta, solver="profile-map")


@dataclass(frozen=True)
class MCMCConfig:
    """Random-walk Metropolis configuration.

    Step scales adapt toward the target acceptance rate during burn-in
    and are frozen afterwards. ``fix_delta`` pins delta for
    one-dimensional validation runs.
    """

    iterations: int = 12000
    burn_in: int = 2000
    seed: int = 0
    fix_delta: float | None = None

    def __post_init__(self) -> None:
        if not self.iterations > self.burn_in >= 0:
            raise ValueError("need iterations > burn_in >= 0")


def metropolis_sample(
    e: ExcessSet, tau: float, sigma2: float, config: MCMCConfig
) -> PosteriorChain:
    """Random-walk Metropolis on (log xi, delta) targeting the posterior.

    The chain moves in log xi (with the Jacobian correction), so the
    retained draws follow the posterior of (xi, delta) itself. Stored
    log-posterior values are on the total (not per-observation) scale.
    Deterministic for a fixed seed.
    """
    k = e.k
    target = _LogTarget(e, tau, sigma2)
    rng = np.random.default_rng(config.seed)
    h = hill(e).xi
    if h <= 0:
        raise ValueError("all excesses are ties; posterior has no interior mass")
    fixed = config.fix_delta
    if fixed is not None and fixed <= target.lik.lo:
        raise ValueError("fix_delta lies outside the admissible range")

    u = math.log(h)
    d = 0.0 if fixed is None else fixed
    lp = k * target(math.exp(u), d)
    if lp == -math.inf:
        raise ValueError("starting point has zero posterior density")

    s_u = _STEP_LOG_XI
    s_d = _STEP_DELTA
    retained = config.iterations - config.burn_in
    draws = np.empty((retained, 2))
    logpost = np.empty(retained)
    accepted_post = 0
    batch_accepts = 0

    for t in range(config.iterations):
        z = rng.standard_normal(2)
        u_new = u + s_u * z[0]
        d_new = d if fixed is not None else d + s_d * z[1]
        lp_new = k * target(math.exp(u_new), d_new)
        # Jacobian of xi = exp(u): add u to the log target on the sampling scale
        log_alpha = (lp_new + u_new) - (lp + u)
        if math.log(rng.random()) < log_alpha:
            u, d, lp = u_new, d_new, lp_new
            batch_accepts += 1
            if t >= config.burn_in:
                accepted_post += 1
        if t < config.burn_in and (t + 1) % _ADAPT_INTERVAL == 0:
            rate = batch_accepts / _ADAPT_INTERVAL
            factor = math.exp(1.5 * (rate - _TARGET_ACCEPT))
            s_u = min(10.0, max(1e-4, s_u * factor))
            s_d = min(10.0, max(1e-4, s_d * factor))
            batch_accepts = 0
        elif (t + 1) == config.burn_in:
            batch_accepts = 0
        if t >= config.burn_in:
            i = t - config.burn_in
            draws[i, 0] = math.exp(u)
            draws[i, 1] = d
            logpost[i] = lp

    rate = accepted_post / retained
    if rate <= 0.0 or rate >= 1.0:
        raise RuntimeError(f"degenerate chain: post-burn-in acceptance rate {rate}")
    draws.setflags(write=False)
    logpost.setflags(write=False)
    return PosteriorChain(draws=draws, logpost=logpost, acceptance_rate=float(rate))


def posterior_mode(chain: PosteriorChain) -> tuple[float, float]:
    """The retained draw with the highest log posterior; ties go to the earliest."""
    if chain.draws.shape[0] == 0:
        raise ValueError("empty chain")
    i = int(np.argmax(chain.logpost))
    return float(chain.draws[i, 0]), float(chain.draws[i, 1])


def hpd_interval(draws, alpha: float) -> tuple[float, float]:
    """Shortest interval containing ceil((1-alpha)*m) of the draws.

    Ties between equally short windows resolve to the leftmost one.
    """
    xs = np.sort(np.asarray(draws, dtype=float))
    m = xs.size
    if m < 2:
        raise ValueError("need at least 2 draws")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    w = math.ceil((1.0 - alpha) * m)
    widths = xs[w - 1:] - xs[: m - w + 1]
    i = int(np.argmin(widths))
    return float(xs[i]), float(xs[i + w - 1])


def bayes_tail_prob(
    s: SortedSample, k: int, x: float, est: BayesEstimate, tau: float
) -> float:
    """Exceedance probability under the posterior-mode excess model."""
    params = EPDParams(xi=est.xi, delta=est.delta, tau=tau)
    return epd_tail_prob(s, k, x, params)


def smooth_path(series, window: int = 5) -> np.ndarray:
    """Centered moving average with a symmetric shrinking window at the edges.

    Missing (non-finite) cells are skipped, and a cell whose window holds
    no finite value is NaN. The window must be odd; width 1 is the
    identity on finite cells. Output length equals input length.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    x = np.asarray(series, dtype=float)
    r = window // 2
    out = np.empty_like(x)
    for i in range(x.size):
        ri = min(r, i, x.size - 1 - i)
        seg = x[i - ri: i + ri + 1]
        good = np.isfinite(seg)
        out[i] = seg[good].mean() if good.any() else np.nan
    return out
