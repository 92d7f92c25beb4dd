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
from scipy.special import gammaln
from scipy.stats import norm

from .classical import hill, moment_stat
from .data import ExcessSet, SortedSample
from .epd import DELTA_MAX, EPDParams, delta_lower_bound, epd_tail_prob

__all__ = [
    "ClosedFormError",
    "PriorSpec",
    "PosteriorChain",
    "BayesEstimate",
    "MCMCConfig",
    "prior_variance",
    "log_prior_xi",
    "log_prior_delta",
    "log_posterior",
    "bayes_closed_form",
    "ml_first_order",
    "metropolis_sample",
    "posterior_mode",
    "hpd_interval",
    "bayes_tail_prob",
    "smooth_path",
]

Centering = Literal["pareto-limit", "rate-reciprocal"]


class ClosedFormError(RuntimeError):
    """The first-order estimating system has no usable solution."""


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the priors on (xi, delta).

    ``sigma2`` is the variance of the normal prior on delta, left
    truncated at ``trunc_lower`` to respect the model support;
    ``gamma_shape`` is the shape of the proper gamma (scale 1)
    approximation to the information prior on xi.
    """

    sigma2: float
    gamma_shape: float = 1e-4
    trunc_lower: float = -1.0

    def __post_init__(self) -> None:
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not self.gamma_shape > 0:
            raise ValueError("gamma_shape must be positive")
        if not -1.0 <= self.trunc_lower < 0.0:
            raise ValueError("trunc_lower must lie in [-1, 0)")

    @classmethod
    def for_tau(cls, sigma2: float, tau: float, gamma_shape: float = 1e-4) -> "PriorSpec":
        return cls(sigma2=sigma2, gamma_shape=gamma_shape, trunc_lower=delta_lower_bound(tau))


@dataclass(frozen=True)
class BayesEstimate:
    """Posterior-mode estimate of (xi, delta)."""

    xi: float
    delta: float
    method: Literal["closed_form", "mcmc"]
    hpd_xi: tuple[float, float, float] | None = None
    solver: str = "linear"

    def __post_init__(self) -> None:
        if not self.xi > 0:
            raise ValueError("xi must be positive")


@dataclass(frozen=True)
class PosteriorChain:
    """Post-burn-in Metropolis draws of (xi, delta) with their log posteriors."""

    draws: np.ndarray
    logpost: np.ndarray
    acceptance_rate: float
    burn_in: int
    seed: int

    def __post_init__(self) -> None:
        if self.draws.shape[0] != self.logpost.shape[0]:
            raise ValueError("draws and logpost must have matching lengths")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


def prior_variance(k: int, n: int, rho: float) -> float:
    """Threshold-driven prior variance (k/n)**(-2*rho)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if rho >= 0:
        raise ValueError(f"rho must be negative, got {rho}")
    return (k / n) ** (-2.0 * rho)


def log_prior_xi(xi: float, gamma_shape: float = 1e-4) -> float:
    """Log density of the gamma(shape, scale=1) prior on the tail index."""
    if xi <= 0:
        return -math.inf
    return (gamma_shape - 1.0) * math.log(xi) - xi - float(gammaln(gamma_shape))


def log_prior_delta(delta: float, prior: PriorSpec) -> float:
    """Log density of the left-truncated normal prior on delta."""
    if delta <= prior.trunc_lower:
        return -math.inf
    sigma = math.sqrt(prior.sigma2)
    return (
        -0.5 * delta * delta / prior.sigma2
        - math.log(math.sqrt(2.0 * math.pi) * sigma)
        - math.log(float(norm.sf(prior.trunc_lower / sigma)))
    )


class _LogTarget:
    """The per-observation log posterior of one (excesses, tau, prior), built once.

    Holds what stays fixed while (xi, delta) move: log y, the coefficients
    a = 1 - y**tau and b = 1 - (1 + tau) * y**tau (the rows of ``coef``)
    with their extremes, and the prior normalisers. A call performs the
    same floating-point operations in the same order as composing
    ``epd_log_likelihood`` with the two log priors, so it returns the same
    bits; a row-wise ``np.add.reduce`` sums each row as ``np.mean`` sums a
    1-D array. Both perturbation terms are affine in delta, and rounded
    products and sums are monotone, so positivity over the sample is
    exactly positivity at the coefficient extremes.

    A call writes into scratch space owned by the instance, so one instance
    serves one caller at a time.
    """

    def __init__(self, e: ExcessSet, tau: float, prior: PriorSpec) -> None:
        y = e.y
        if np.any(y < 1.0):
            raise ValueError("excesses must be >= 1")
        self.k = e.k
        self.prior = prior
        self.lo = delta_lower_bound(tau) if tau < 0 else math.inf
        self.log_y = np.log(y)
        p = y ** tau
        self.coef = np.vstack([1.0 - p, 1.0 - (1.0 + tau) * p])
        self.a, self.b = self.coef
        self.ext = (float(self.a.min()), float(self.a.max()),
                    float(self.b.min()), float(self.b.max()))
        self._work = np.empty_like(self.coef)
        self._work_a = self._work[0]
        sigma = math.sqrt(prior.sigma2)
        self.log_gamma = float(gammaln(prior.gamma_shape))
        self.log_norm = math.log(math.sqrt(2.0 * math.pi) * sigma)
        self.log_trunc = math.log(float(norm.sf(prior.trunc_lower / sigma)))

    def inadmissible(self, delta: float) -> bool:
        """Whether 1 + delta*a or 1 + delta*b fails to be positive somewhere on the sample."""
        a_lo, a_hi, b_lo, b_hi = self.ext
        return (1.0 + delta * a_lo <= 0.0 or 1.0 + delta * a_hi <= 0.0
                or 1.0 + delta * b_lo <= 0.0 or 1.0 + delta * b_hi <= 0.0)

    def __call__(self, xi: float, delta: float) -> float:
        if not (xi > 0 and delta > self.lo) or self.inadmissible(delta):
            return -math.inf
        k = self.k
        w = self._work
        np.multiply(self.coef, delta, out=w)
        np.add(w, 1.0, out=w)
        np.log(w, out=w)
        np.add(self._work_a, self.log_y, out=self._work_a)
        s1, s2 = np.add.reduce(w, axis=1)
        ll = -math.log(xi) - (1.0 / xi + 1.0) * (float(s1) / k) + float(s2) / k
        if ll == -math.inf:
            return -math.inf
        prior = self.prior
        if delta <= prior.trunc_lower:
            return -math.inf
        lp = ((prior.gamma_shape - 1.0) * math.log(xi) - xi - self.log_gamma
              + (-0.5 * delta * delta / prior.sigma2 - self.log_norm - self.log_trunc))
        if lp == -math.inf:
            return -math.inf
        return ll + lp / k


def log_posterior(xi: float, delta: float, e: ExcessSet, tau: float, prior: PriorSpec) -> float:
    """Per-observation log posterior: mean log-likelihood plus (1/k) log priors.

    Out-of-region parameters give -inf, matching the likelihood sentinel.
    """
    return _LogTarget(e, tau, prior)(xi, delta)


def _system_coefficients(
    e: ExcessSet, tau: float, weight: float, centering: Centering
) -> tuple[float, float, float, float, float]:
    """Coefficients of the first-order estimating system.

    With E1 = moment_stat(tau) and E2 = moment_stat(2*tau), the system is
        xi    = H + delta * (1 - E1)
        delta = (1 - H*tau) * (E1 - c) / D(xi)
    where D(xi) = weight*xi - bracket(xi) and bracket is affine in xi.
    Returns (H, E1, rhs, a2, a1) for the equivalent quadratic
    a2*delta**2 + a1*delta - rhs = 0.
    """
    h = hill(e).xi
    if h <= 0:
        raise ClosedFormError("the estimating system requires a positive Hill estimate")
    e1 = moment_stat(e, tau)
    e2 = moment_stat(e, 2.0 * tau)
    c = 1.0 / (1.0 - h * tau) if centering == "pareto-limit" else 1.0 / (h * tau)
    rhs = (1.0 - h * tau) * (e1 - c)
    b0 = 1.0 - 2.0 * e1 + e2 - tau * (1.0 - e1) * e1
    b1 = 2.0 * tau * e1 - (2.0 * tau + tau * tau) * e2
    a1 = (weight - b1) * h - b0
    a2 = (weight - b1) * (1.0 - e1)
    return h, e1, rhs, a2, a1


def _solve_first_order(
    e: ExcessSet, tau: float, weight: float, centering: Centering, delta_max: float
) -> tuple[float, float]:
    """Solve the estimating system exactly via its quadratic reduction.

    Among real roots, picks the admissible one of smallest magnitude (the
    branch that vanishes in the strong-prior limit). Raises
    ClosedFormError when no admissible real root exists.
    """
    h, e1, rhs, a2, a1 = _system_coefficients(e, tau, weight, centering)
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
            if abs(a2) > 0:
                candidates.append(q / a2)
            if abs(q) > 0:
                candidates.append(-rhs / q)
    feasible = []
    for d in candidates:
        xi = h + d * (1.0 - e1)
        if xi > 0 and lo < d <= delta_max:
            feasible.append((abs(d), d, xi))
    if not feasible:
        raise ClosedFormError("no admissible solution of the estimating system")
    _, delta, xi = min(feasible)
    return xi, delta


def _profile_posterior_mode(
    e: ExcessSet, tau: float, prior: PriorSpec, delta_max: float = DELTA_MAX
) -> tuple[float, float]:
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
    target = _LogTarget(e, tau, prior)
    k = e.k
    lo = target.lo
    a, b = target.a, target.b
    ext = np.array(target.ext)
    mean_logy = float(np.mean(target.log_y))
    xi_floor = 0.05 * mean_logy
    lp_const = -target.log_norm - target.log_trunc - target.log_gamma
    bq = k + 1.0 - prior.gamma_shape

    def profile_xi(g: np.ndarray) -> np.ndarray:
        return (-bq + np.sqrt(bq * bq + 4.0 * k * g)) / 2.0

    def total_grid(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ok = (1.0 + np.outer(deltas, ext) > 0.0).all(axis=1)
        t1 = np.log1p(np.outer(deltas, a), where=ok[:, None], out=np.zeros((deltas.size, a.size)))
        t2 = np.log1p(np.outer(deltas, b), where=ok[:, None], out=np.zeros((deltas.size, b.size)))
        g = mean_logy + t1.mean(axis=1)
        ok &= g > 0.0
        g_safe = np.where(ok, g, 1.0)
        xi = profile_xi(g_safe)
        ok &= xi >= xi_floor
        val = (
            k * (-np.log(xi) - (1.0 / xi + 1.0) * g_safe + t2.mean(axis=1))
            + (prior.gamma_shape - 1.0) * np.log(xi)
            - xi
            - 0.5 * deltas * deltas / prior.sigma2
            + lp_const
        )
        return np.where(ok, val, -np.inf), xi

    def neg_total(delta: float) -> float:
        if target.inadmissible(delta):
            return math.inf
        g = mean_logy + float(np.mean(np.log1p(delta * a)))
        if g <= 0.0:
            return math.inf
        xi = float(profile_xi(np.array(g)))
        if xi < xi_floor:
            return math.inf
        val = (
            k * (-math.log(xi) - (1.0 / xi + 1.0) * g + float(np.mean(np.log1p(delta * b))))
            + (prior.gamma_shape - 1.0) * math.log(xi)
            - xi
            - 0.5 * delta * delta / prior.sigma2
            + lp_const
        )
        return -val

    grid = np.linspace(lo + 1e-9 * max(1.0, abs(lo)), delta_max, 481)
    vals, _ = total_grid(grid)
    best = int(np.argmax(vals))
    if vals[best] == -np.inf:
        raise ClosedFormError("posterior mode search found no admissible point")
    step = grid[1] - grid[0]
    left = max(lo + 1e-12 * max(1.0, abs(lo)), grid[best] - step)
    right = min(delta_max, grid[best] + step)
    res = minimize_scalar(neg_total, bounds=(left, right), method="bounded",
                          options={"xatol": 1e-10})
    delta_hat = float(res.x) if res.fun <= -vals[best] else float(grid[best])
    g_hat = mean_logy + float(np.mean(np.log1p(delta_hat * a)))
    xi_hat = float(profile_xi(np.array(g_hat)))
    return xi_hat, delta_hat


def bayes_closed_form(
    e: ExcessSet,
    tau: float,
    prior: PriorSpec,
    centering: Centering = "pareto-limit",
    prior_term_sign: float = 1.0,
    delta_max: float = DELTA_MAX,
    allow_map_fallback: bool = True,
) -> BayesEstimate:
    """Posterior-mode approximation from the first-order estimating system.

    The system couples the Hill estimate with the tau and 2*tau moment
    statistics; the prior enters through xi / (k * sigma2). It is solved
    exactly through its quadratic reduction. In strong-bias regimes the
    linearized system can lack a real admissible solution; the estimator
    then falls back to the exact posterior mode found by profile search
    (disable with ``allow_map_fallback=False`` to get the raw error).

    ``centering`` selects the constant the tau-moment statistic is
    compared against: its strict-Pareto limit 1/(1 - H*tau) (default) or
    the reciprocal 1/(H*tau). ``prior_term_sign`` flips the sign of the
    prior term in the system denominator. Both alternates exist for
    diagnostic comparison and lose systematically against the posterior
    mode; see the test suite.
    """
    if e.k < 10:
        raise ValueError(f"need at least 10 excesses, got {e.k}")
    if tau >= 0:
        raise ValueError(f"tau must be negative, got {tau}")
    weight = prior_term_sign / (e.k * prior.sigma2)
    try:
        xi, delta = _solve_first_order(e, tau, weight, centering, delta_max)
        return BayesEstimate(xi=xi, delta=delta, method="closed_form", solver="linear")
    except ClosedFormError:
        if not allow_map_fallback:
            raise
        xi, delta = _profile_posterior_mode(e, tau, prior, delta_max)
        return BayesEstimate(xi=xi, delta=delta, method="closed_form", solver="profile-map")


def ml_first_order(e: ExcessSet, tau: float, delta_max: float = DELTA_MAX) -> tuple[float, float]:
    """First-order likelihood-only system: the same equations without the prior term."""
    if tau >= 0:
        raise ValueError(f"tau must be negative, got {tau}")
    return _solve_first_order(e, tau, 0.0, "pareto-limit", delta_max)


@dataclass(frozen=True)
class MCMCConfig:
    """Random-walk Metropolis configuration.

    Step scales adapt toward the target acceptance rate during burn-in
    (every ``adapt_interval`` proposals) and are frozen afterwards.
    ``fix_delta`` pins delta for one-dimensional validation runs.
    """

    iterations: int = 12000
    burn_in: int = 2000
    step_log_xi: float = 0.15
    step_delta: float = 0.3
    seed: int = 0
    adapt_interval: int = 50
    target_accept: float = 0.234
    fix_delta: float | None = None

    def __post_init__(self) -> None:
        if not self.iterations > self.burn_in >= 0:
            raise ValueError("need iterations > burn_in >= 0")
        if self.step_log_xi <= 0 or self.step_delta <= 0:
            raise ValueError("step scales must be positive")
        if self.adapt_interval < 1:
            raise ValueError("adapt_interval must be >= 1")


def metropolis_sample(
    e: ExcessSet, tau: float, prior: PriorSpec, config: MCMCConfig
) -> PosteriorChain:
    """Random-walk Metropolis on (log xi, delta) targeting the posterior.

    The chain moves in log xi (with the Jacobian correction), so the
    retained draws follow the posterior of (xi, delta) itself. Stored
    log-posterior values are on the total (not per-observation) scale.
    Deterministic for a fixed seed.
    """
    k = e.k
    rng = np.random.default_rng(config.seed)
    h = hill(e).xi
    if h <= 0:
        raise ValueError("all excesses are ties; posterior has no interior mass")
    fixed = config.fix_delta
    if fixed is not None and fixed <= prior.trunc_lower:
        raise ValueError("fix_delta lies outside the admissible range")

    target = _LogTarget(e, tau, prior)
    u = math.log(h)
    d = 0.0 if fixed is None else fixed
    lp = k * target(math.exp(u), d)
    if lp == -math.inf:
        raise ValueError("starting point has zero posterior density")

    s_u = config.step_log_xi
    s_d = config.step_delta
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
        if t < config.burn_in and (t + 1) % config.adapt_interval == 0:
            rate = batch_accepts / config.adapt_interval
            factor = math.exp(1.5 * (rate - config.target_accept))
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
    return PosteriorChain(
        draws=draws,
        logpost=logpost,
        acceptance_rate=float(rate),
        burn_in=config.burn_in,
        seed=config.seed,
    )


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

    The window must be odd; width 1 is the identity. Output length equals
    input length and constant series pass through unchanged.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    x = np.asarray(series, dtype=float)
    r = window // 2
    length = x.size
    out = np.empty_like(x)
    for i in range(length):
        ri = min(r, i, length - 1 - i)
        out[i] = x[i - ri: i + ri + 1].mean()
    return out
