"""Independent oracles used by the tests.

These deliberately re-derive quantities through different routes than the
library (brute-force grid refinement, quadrature, batch means) so that
agreement is evidence, not tautology; ``oracle_survival`` is one, the
model's survival to 40 digits by ``decimal``. The exceptions keep a
straightforward form of a library computation as the reference that the
library must reproduce bit for bit: ``oracle_epd_log_likelihood``,
``oracle_log_post`` (the log posterior in the association of the
library's one formula), ``oracle_metropolis`` (which composes it on
every proposal), ``OracleLikelihood`` (the one-lane build of the
coefficient rows that the library stacks), ``oracle_loglik_grad``,
``oracle_epd_ml_fit``, ``oracle_profile_posterior_mode`` and
``oracle_smooth_path``. Each pins an optimisation that must change no bit
(the chain's bound table, the pruned scan, the lockstep runner, the fused
likelihood pass, the array solve), so each takes the library's formula for
what that optimisation leaves alone: the priors' constants (``math.erfc``
and ``math.lgamma``) and the array power ``y ** tau``. A difference can
then come only from the optimisation. ``oracle_first_order`` keeps the
estimating-system variants that the library rejects, with the moment
statistics ``moment_stat`` that it reads, and ``asym_var_raw`` the literal
form of the limiting variance. ``mu_opt``, ``sigma2_opt`` and
``log_posterior`` are formulas the library does not need: the optimal
prior scale in its two parametrisations, and the log posterior at one
point on the chain's total scale, the library's ``_log_post`` on the
``_log1p_sums`` of a one-lane stack. ``log_prior_xi`` is the gamma log
prior on xi that ``_log_post`` inlines, and ``mse_opt_weighted`` the
paper's weighted-average form of the optimal limiting MSE, a second route
to ``mse_opt``.
``loglik_value_and_grad``, ``profile_posterior_mode`` and
``solve_first_order`` are not oracles: they run the library's own ML pass,
mode search and first-order solution on a one-lane stack, the one-lane
forms that only tests call. Nor is ``stack``, which builds the library's
stack from (excesses, tau) lanes.
"""

from __future__ import annotations

import decimal
import math

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import expit, gammaln, logit
from scipy.stats import norm

from epdtail import EPDFit, EPDParams, delta_lower_bound, hill
from epdtail.bayes import (ClosedFormError, _check_sigma2, _first_order, _log1p_sums, _log_post, _log_prior_const,
                           _profile_posterior_modes)
from epdtail.epd import (
    _ONE_BLAS_THREAD,
    DELTA_MAX,
    _fg_sums,
    _inadmissible,
    _Likelihood,
    _value_and_grad,
)


def log_prior_xi(xi, gamma_shape=1e-4):
    """Log density of the gamma(shape, scale=1) prior on the tail index."""
    if xi <= 0:
        return -math.inf
    return (gamma_shape - 1.0) * math.log(xi) - xi - math.lgamma(gamma_shape)


def oracle_epd_log_likelihood(xi, delta, tau, e):
    """Mean EPD log-likelihood, rebuilding every term from the excesses on each call."""
    y = e.y
    if np.any(y < 1.0):
        raise ValueError("excesses must be >= 1")
    if not (xi > 0 and tau < 0 and delta > delta_lower_bound(tau)):
        return -math.inf
    p = y ** np.full(y.shape, tau)
    t1 = 1.0 + delta * (1.0 - p)
    t2 = 1.0 + delta * (1.0 - (1.0 + tau) * p)
    if np.any(t1 <= 0.0) or np.any(t2 <= 0.0):
        return -math.inf
    return float(
        -math.log(xi)
        - (1.0 / xi + 1.0) * np.mean(np.log(y) + np.log(t1))
        + np.mean(np.log(t2))
    )


def oracle_log_post(xi, log_xi, delta, tau, e, sigma2, gamma_shape=1e-4):
    """The log posterior on the chain's total scale, composed from scratch in ``bayes._log_post``'s association.

    The row sums S1 of log1p(delta*a) and S2 of log1p(delta*b) of an
    ``OracleLikelihood`` built on this call, g = mean(log y) + S1/k, and
    ``log_xi`` the log of xi as the caller has it (the chain's coordinate):
    k*(-log_xi - (1/xi + 1)*g + S2/k) + (shape - 1)*log_xi - xi
    - 0.5*delta*delta/sigma2 + const, where const is minus the logs of the
    delta prior's normaliser, of its mass above the model bound and of
    Gamma(shape). Out-of-region parameters give -inf.
    """
    lik = OracleLikelihood(e, tau)
    if not (xi > 0 and delta > lik.lo) or lik.inadmissible(delta):
        return -math.inf
    k = lik.k
    s1, s2 = (float(np.add.reduce(np.log1p(delta * c))) for c in (lik.a, lik.b))
    g = float(np.add.reduce(lik.log_y)) / k + s1 / k
    sigma = math.sqrt(sigma2)
    const = (-math.log(math.sqrt(2.0 * math.pi) * sigma)
             - math.log(0.5 * math.erfc(lik.lo / (sigma * math.sqrt(2.0)))) - math.lgamma(gamma_shape))
    return (k * (-log_xi - (1.0 / xi + 1.0) * g + s2 / k)
            + (gamma_shape - 1.0) * log_xi - xi - 0.5 * delta * delta / sigma2 + const)


def oracle_log_posterior(xi, delta, y, tau, sigma2, gamma_shape=1e-4):
    """Total log posterior on a (xi, delta) grid, reimplemented from scratch.

    ``xi`` and ``delta`` broadcast; returns -inf outside the admissible
    region. Density route: survival (y*(1+d-d*y**tau))**(-1/xi) gives the
    per-point log density -log(xi) - (1/xi+1)*log(y*t1) + log(t2).
    """
    xi = np.asarray(xi, dtype=float)
    delta = np.asarray(delta, dtype=float)
    y = np.asarray(y, dtype=float)
    k = y.size
    lo = max(-1.0, 1.0 / tau)

    p = y ** tau
    a = 1.0 - p
    b = 1.0 - (1.0 + tau) * p
    d_flat = delta.reshape(-1, 1)
    t1 = 1.0 + d_flat * a
    t2 = 1.0 + d_flat * b
    ok_d = (t1 > 0).all(axis=1) & (t2 > 0).all(axis=1) & (delta.reshape(-1) > lo)
    s1 = np.where(ok_d, np.log(np.where(t1 > 0, t1, 1.0)).sum(axis=1), np.nan)
    s2 = np.where(ok_d, np.log(np.where(t2 > 0, t2, 1.0)).sum(axis=1), np.nan)
    sum_logy = float(np.log(y).sum())

    xi_col = xi.reshape(-1, 1)
    ok_xi = xi_col > 0
    xi_safe = np.where(ok_xi, xi_col, 1.0)
    loglik = (
        -k * np.log(xi_safe)
        - (1.0 / xi_safe + 1.0) * (sum_logy + s1.reshape(1, -1))
        + s2.reshape(1, -1)
    )
    sigma = np.sqrt(sigma2)
    lp_xi = (gamma_shape - 1.0) * np.log(xi_safe) - xi_safe - gammaln(gamma_shape)
    lp_d = (
        -0.5 * d_flat.reshape(1, -1) ** 2 / sigma2
        - np.log(np.sqrt(2.0 * np.pi) * sigma)
        - np.log(norm.sf(lo / sigma))
    )
    total = loglik + lp_xi + lp_d
    total = np.where(ok_xi & ok_d.reshape(1, -1), total, -np.inf)
    return total


def grid_map_oracle(y, tau, sigma2, gamma_shape=1e-4, delta_max=10.0,
                    xi_hint=None, rounds=4, size=161):
    """Posterior mode by plain 2-d grid refinement of the oracle posterior.

    The search floor on xi (5% of the Hill value) matches the library's
    convention of excluding the degenerate collapse direction.
    """
    lo = max(-1.0, 1.0 / tau)
    h = xi_hint if xi_hint is not None else float(np.mean(np.log(y)))
    xi_lo, xi_hi = max(1e-3, 0.05 * h), 4.0 * h + 0.5
    d_lo, d_hi = lo + 1e-9, delta_max
    best = None
    for _ in range(rounds):
        xis = np.linspace(xi_lo, xi_hi, size)
        ds = np.linspace(d_lo, d_hi, size)
        total = oracle_log_posterior(xis, ds, y, tau, sigma2, gamma_shape)
        i, j = np.unravel_index(np.argmax(total), total.shape)
        best = (float(xis[i]), float(ds[j]), float(total[i, j]))
        xi_step = xis[1] - xis[0]
        d_step = ds[1] - ds[0]
        xi_lo, xi_hi = max(0.05 * h, best[0] - 1.5 * xi_step), best[0] + 1.5 * xi_step
        d_lo, d_hi = max(lo + 1e-12, best[1] - 1.5 * d_step), min(delta_max, best[1] + 1.5 * d_step)
    return best


def quadrature_xi_mean(y, tau, sigma2, delta_fixed=0.0, gamma_shape=1e-4):
    """Posterior mean of xi on the delta = delta_fixed slice, by quadrature."""
    coarse = np.linspace(1e-3, 20.0, 20001)
    logw = oracle_log_posterior(coarse, np.array([delta_fixed]), y, tau, sigma2,
                                gamma_shape)[:, 0]
    logw = logw - logw.max()
    w = np.exp(logw)
    mass = np.trapezoid(w, coarse)
    return float(np.trapezoid(coarse * w, coarse) / mass)


def batch_means_se(x, nbatch=20):
    """Autocorrelation-robust standard error of a chain mean via batch means."""
    x = np.asarray(x, dtype=float)
    m = x.size // nbatch
    means = x[: m * nbatch].reshape(nbatch, m).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(nbatch))


def pareto_sample(xi, n, seed):
    """Strict Pareto draws (survival x**(-1/xi) on x >= 1) by inversion."""
    rng = np.random.default_rng(seed)
    u = np.maximum(rng.random(n), np.finfo(float).tiny)
    return u ** (-xi)


# the sampler's tuning, kept here so that the identity test pins it
STEP_LOG_XI = 0.15
STEP_DELTA = 0.3
ADAPT_INTERVAL = 50
TARGET_ACCEPT = 0.234


def oracle_metropolis(e, tau, sigma2, config, adapt_interval=ADAPT_INTERVAL, fix_delta=None):
    """The Metropolis loop with the log posterior composed on every proposal.

    Evaluates ``oracle_log_post`` at xi = exp(u), with the chain's
    coordinate u as log xi, from scratch for each proposal and draws random
    numbers in the same order as ``metropolis_sample``. ``fix_delta`` pins
    delta at that value and moves only xi: the one-dimensional slice that a
    quadrature can check. Returns ``(draws, logpost, acceptance_rate)``.
    """
    def log_post(u, delta):
        return oracle_log_post(math.exp(u), u, delta, tau, e, sigma2)

    rng = np.random.default_rng(config.seed)
    u = math.log(hill(e))
    d = 0.0 if fix_delta is None else fix_delta
    lp = log_post(u, d)
    s_u, s_d = STEP_LOG_XI, STEP_DELTA
    retained = config.iterations - config.burn_in
    draws = np.empty((retained, 2))
    logpost = np.empty(retained)
    accepted_post = 0
    batch_accepts = 0
    for t in range(config.iterations):
        z = rng.standard_normal(2)
        u_new = u + s_u * z[0]
        d_new = d if fix_delta is not None else d + s_d * z[1]
        lp_new = log_post(u_new, d_new)
        log_alpha = (lp_new + u_new) - (lp + u)
        if math.log(rng.random()) < log_alpha:
            u, d, lp = u_new, d_new, lp_new
            batch_accepts += 1
            if t >= config.burn_in:
                accepted_post += 1
        if t < config.burn_in and (t + 1) % adapt_interval == 0:
            rate = batch_accepts / adapt_interval
            factor = math.exp(1.5 * (rate - TARGET_ACCEPT))
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
    return draws, logpost, accepted_post / retained


def moment_stat(e, s):
    """Empirical negative-power moment of the excesses, mean(y**s) for s < 0.

    The result lies in (0, 1] and equals 1 exactly when all excesses are
    ties at the threshold. The library reads the tau moment from its
    coefficient stack; ``oracle_first_order`` computes both moments here.
    """
    if s >= 0:
        raise ValueError(f"exponent must be negative, got {s}")
    return float(np.add.reduce(e.y ** np.full(e.k, s))) / e.k


def oracle_first_order(e, tau, sigma2, centering="pareto-limit", prior_term_sign=1.0):
    """The first-order estimating system with the conventions the library rejects.

    A copy of the library's quadratic reduction with two switches:
    ``centering`` compares the tau-moment statistic with its strict-Pareto
    limit 1/(1 - H*tau) ("pareto-limit", the library's choice) or with the
    reciprocal 1/(H*tau) ("rate-reciprocal"), and ``prior_term_sign``
    flips the sign of the prior term. Returns (xi, delta), or raises
    ClosedFormError where the system has no admissible root.
    """
    weight = prior_term_sign / (e.k * sigma2)
    h = hill(e)
    e1 = moment_stat(e, tau)
    e2 = moment_stat(e, 2.0 * tau)
    c = 1.0 / (1.0 - h * tau) if centering == "pareto-limit" else 1.0 / (h * tau)
    rhs = (1.0 - h * tau) * (e1 - c)
    b0 = 1.0 - 2.0 * e1 + e2 - tau * (1.0 - e1) * e1
    b1 = 2.0 * tau * e1 - (2.0 * tau + tau * tau) * e2
    a1 = (weight - b1) * h - b0
    a2 = (weight - b1) * (1.0 - e1)
    candidates = []
    if abs(a2) < 1e-300:
        if abs(a1) < 1e-12:
            raise ClosedFormError("singular estimating system")
        candidates.append(rhs / a1)
    else:
        disc = a1 * a1 + 4.0 * a2 * rhs
        if disc < 0.0:
            raise ClosedFormError("the estimating system has no real solution")
        if rhs == 0.0:
            candidates.append(0.0)
        else:
            q = -(a1 + math.copysign(math.sqrt(disc), a1)) / 2.0
            candidates.append(q / a2)
            if abs(q) > 0:
                candidates.append(-rhs / q)
    lo = delta_lower_bound(tau)
    feasible = [(abs(d), d, h + d * (1.0 - e1)) for d in candidates
                if h + d * (1.0 - e1) > 0 and lo < d <= DELTA_MAX]
    if not feasible:
        raise ClosedFormError("no admissible solution of the estimating system")
    _, delta, xi = min(feasible)
    return xi, delta


def oracle_survival(z, tau, xi, delta):
    """The model's survival at z to 40 digits, and the condition number of its double form.

    ``decimal`` evaluates (z * (1 + delta * (1 - z**tau))) ** (-1/xi) at
    the exact values of the doubles given, apart from numpy. The condition
    number bounds the relative error, in units of roundoff, of that form in
    doubles with every operation and power rounded once: the base loses
    2 + (|delta*z**tau| + 2|delta*(1 - z**tau)|) / (1 + delta*(1 - z**tau))
    units, which the power multiplies by 1/xi; the rounding of -1/xi adds
    |log(base)| / xi, and the last power one more.
    """
    with decimal.localcontext(prec=40):
        z, tau, xi, delta = map(decimal.Decimal, (z, tau, xi, delta))
        p = z ** tau
        v = 1 + delta * (1 - p)
        base = z * v
        cond = (2 + (abs(delta * p) + 2 * abs(delta * (1 - p))) / v + abs(base.ln())) / xi + 1
        return float(base ** (-1 / xi)), float(cond)


def mu_opt(rho, lam):
    """Optimal limit of k times the prior variance."""
    return (1.0 - rho) ** 2 * lam * lam


def sigma2_opt(rho, a_nk):
    """Optimal prior variance given the second-order term a(n/k)."""
    return (1.0 - rho) ** 2 * a_nk * a_nk


def log_posterior(xi, delta, e, tau, sigma2):
    """The log posterior on the chain's total scale: ``_log_post`` on the ``_log1p_sums`` of a one-lane stack.

    Out-of-region parameters give -inf, matching the likelihood sentinel.
    """
    _check_sigma2(sigma2)
    lik = _Likelihood(e.y[None], [tau])
    const = _log_prior_const(delta_lower_bound(tau), sigma2)
    if not (xi > 0 and delta > lik.lo[0]) or _inadmissible(lik.ext[0].tolist(), delta):
        return -math.inf
    s1, s2 = _log1p_sums(lik.coef[0], delta, np.empty((2, e.k))).tolist()
    return _log_post(xi, math.log(xi), float(lik.sum_log_y[0]) / e.k + s1 / e.k, s2, delta, sigma2, const, e.k)


def mse_opt_weighted(xi, rho, lam):
    """Optimal limiting MSE as the weighted average of the two baseline MSEs."""
    xi2 = xi * xi
    lam2 = lam * lam
    rho4 = rho ** 4
    one_m2r = 1.0 - 2.0 * rho
    w_hill = xi2 * xi2 * one_m2r ** 2
    w_cross = 2.0 * xi2 * rho4 * lam2 * one_m2r
    w_ml = lam2 * lam2 * rho4 * rho4
    mse_hill = xi2 + lam2 * rho * rho / (1.0 - rho) ** 2
    mse_ml = xi2 * (1.0 - rho) ** 2 / (rho * rho)
    return (w_hill * mse_hill + w_cross * xi2 + w_ml * mse_ml) / (w_hill + w_cross + w_ml)


def asym_var_raw(r):
    """Limiting variance in the literal form with the rho**-4 factor."""
    rho = r.rho
    return (r.xi ** 2 / (1.0 + r.zeta * rho ** -4) ** 2) * (
        ((1.0 - rho) / rho) ** 2 + r.zeta ** 2 / rho ** 8 + 2.0 * r.zeta / rho ** 4
    )


class OracleLikelihood:
    """The mean log-likelihood of one excess set at fixed tau, built lane by lane.

    The one-lane arithmetic that the library's stack ``epd._Likelihood``
    runs on all lanes at once: log y, one array power ``y ** tau`` on the lane's row,
    and the rows a = 1 - y**tau and b = 1 - (1 + tau) * y**tau of ``coef``
    with their extremes. A call multiplies, adds and takes the log over
    ``coef``, adds log y to the first row and reduces each row with
    ``np.add.reduce``.
    """

    def __init__(self, e, tau):
        y = e.y
        self.k, self.tau = e.k, tau
        self.lo = delta_lower_bound(tau) if tau < 0 else math.inf
        self.log_y = np.log(y)
        p = y ** np.full(y.shape, tau)
        self.coef = np.empty((2, y.size))
        self.a, self.b = self.coef
        np.subtract(1.0, p, out=self.a)
        np.subtract(1.0, np.multiply(1.0 + tau, p, out=self.b), out=self.b)
        (a_lo, b_lo), (a_hi, b_hi) = self.coef.min(axis=1).tolist(), self.coef.max(axis=1).tolist()
        self.ext = (a_lo, a_hi, b_lo, b_hi)

    def inadmissible(self, delta):
        a_lo, a_hi, b_lo, b_hi = self.ext
        return (1.0 + delta * a_lo <= 0.0 or 1.0 + delta * a_hi <= 0.0
                or 1.0 + delta * b_lo <= 0.0 or 1.0 + delta * b_hi <= 0.0)

    def __call__(self, xi, delta):
        if not (xi > 0 and delta > self.lo) or self.inadmissible(delta):
            return -math.inf
        w = np.log(self.coef * delta + 1.0)
        w[0] += self.log_y
        s1, s2 = np.add.reduce(w, axis=1)
        return -math.log(xi) - (1.0 / xi + 1.0) * (float(s1) / self.k) + float(s2) / self.k


def stack(lanes):
    """The library's likelihood stack of (excesses, tau) lanes that share k, their rows as one matrix."""
    return _Likelihood(np.array([e.y for e, _ in lanes]), [tau for _, tau in lanes])


def loglik_value_and_grad(lik, xi, delta):
    """The value and gradient of a one-lane stack ``lik`` by the ML fit's pass; None outside the region."""
    if not (xi > 0 and delta > lik.lo[0]) or _inadmissible(lik.ext[0].tolist(), delta):
        return None
    (sums,) = _fg_sums(lik.coef, lik.log_y, np.array([[[delta]]]), np.empty((1, 4, lik.k)))
    return _value_and_grad(xi, lik.k, sums)


def profile_posterior_mode(e, tau, sigma2):
    """The exact posterior mode of one (excesses, tau, sigma2): the lockstep search on a one-lane stack."""
    (mode,) = _profile_posterior_modes(stack([(e, tau)]), [sigma2])
    if isinstance(mode, ClosedFormError):
        raise mode
    return mode


def solve_first_order(e, tau, weight):
    """The library's first-order solution of one (excesses, tau) at ``weight``, 1/(k*sigma2).

    Returns (xi, delta), or raises ClosedFormError where ``_first_order``
    finds no admissible root.
    """
    xi, delta = (float(v[0]) for v in _first_order(stack([(e, tau)]), weight))
    if math.isnan(delta):
        raise ClosedFormError("no admissible solution of the estimating system")
    return xi, delta


def oracle_loglik_grad(lik, xi, delta):
    """Gradient of the ``OracleLikelihood`` ``lik`` in (xi, delta), with its own 1 + delta*coef and log.

    The arithmetic the library's gradient had before it shared one pass
    with the value. Raises ValueError outside the parameter region.
    """
    if not (xi > 0 and delta > lik.lo) or lik.inadmissible(delta):
        raise ValueError("gradient requested outside the parameter region")
    t = 1.0 + delta * lik.coef
    s1 = np.add.reduce(lik.log_y + np.log(t[0]))
    r1, r2 = np.add.reduce(lik.coef / t, axis=1)
    k = lik.k
    d_xi = -1.0 / xi + (float(s1) / k) / xi ** 2
    d_delta = -(1.0 / xi + 1.0) * (float(r1) / k) + float(r2) / k
    return d_xi, d_delta


def oracle_epd_ml_fit(e, tau, maxiter=500, maxfun=15000):
    """``epd_ml_fit`` through ``scipy.optimize.minimize``, with two callbacks.

    The value and the gradient each build their own 1 + delta*coef and
    log. The library drives scipy's private L-BFGS-B core itself, with
    one evaluation per point, and must give the same fit, bit for bit: a
    scipy release that changes that core's arguments or its loop shows
    here.
    """
    if e.k < 10:
        raise ValueError(f"need at least 10 excesses to fit, got {e.k}")
    if tau >= 0:
        raise ValueError(f"tau must be negative, got {tau}")
    h = hill(e)
    if h <= 0:
        raise ValueError("all excesses are ties; the likelihood has no interior maximum")
    lik = OracleLikelihood(e, tau)
    lo = lik.lo
    span = DELTA_MAX - lo

    def unpack(w):
        u = float(np.clip(w[0], -40.0, 40.0))
        sig = float(expit(w[1]))
        return math.exp(u), lo + span * sig, sig

    def neg_loglik(w):
        xi, delta, _ = unpack(w)
        val = lik(xi, delta)
        return 1e12 if val == -math.inf else -val

    def neg_grad(w):
        xi, delta, sig = unpack(w)
        try:
            d_xi, d_delta = oracle_loglik_grad(lik, xi, delta)
        except ValueError:
            return np.zeros(2)
        return -np.array([d_xi * xi, d_delta * span * sig * (1.0 - sig)])

    w0 = np.array([math.log(h), float(logit((0.0 - lo) / span))])
    with _ONE_BLAS_THREAD:
        res = minimize(neg_loglik, w0, jac=neg_grad, method="L-BFGS-B",
                       options={"gtol": 1e-9, "ftol": 1e-14, "maxiter": maxiter,
                                "maxfun": maxfun})
    xi_hat, delta_hat, _ = unpack(res.x)
    return EPDFit(params=EPDParams(xi=xi_hat, delta=delta_hat, tau=tau), loglik=-float(res.fun),
                  converged=bool(res.success), iterations=int(res.nit))


def oracle_profile_posterior_mode(e, tau, sigma2, gamma_shape=1e-4):
    """The exact posterior mode of ``bayes._profile_posterior_modes`` without pruning, one lane alone.

    The grid evaluates all 481 nodes, where the library evaluates only
    those whose upper bound reaches its best coarse node, and the polish
    is scipy's ``minimize_scalar``, which the library's in-house
    ``_polish`` reproduces, one lane at a time. It fills two
    zero-filled (grid x k) arrays, one per coefficient row, and takes
    ``mean`` of each; the polish evaluates that grid formula on one node,
    and the final xi uses ``np.mean`` and a 0-d array. The library must
    return the same bits.
    """
    lik = OracleLikelihood(e, tau)
    k = e.k
    lo = lik.lo
    a, b = lik.a, lik.b
    ext = np.array(lik.ext)
    mean_logy = float(np.mean(lik.log_y))
    xi_floor = 0.05 * mean_logy
    sigma = math.sqrt(sigma2)
    lp_const = (-math.log(math.sqrt(2.0 * math.pi) * sigma)
                - math.log(0.5 * math.erfc(delta_lower_bound(tau) / (sigma * math.sqrt(2.0))))
                - math.lgamma(gamma_shape))
    bq = k + 1.0 - gamma_shape

    def profile_xi(g):
        return (-bq + np.sqrt(bq * bq + 4.0 * k * g)) / 2.0

    def total_grid(deltas):
        ok = (1.0 + np.outer(deltas, ext) > 0.0).all(axis=1)
        t1 = np.log1p(np.outer(deltas, a), where=ok[:, None], out=np.zeros((deltas.size, a.size)))
        t2 = np.log1p(np.outer(deltas, b), where=ok[:, None], out=np.zeros((deltas.size, b.size)))
        g = mean_logy + t1.mean(axis=1)
        ok &= g > 0.0
        g_safe = np.where(ok, g, 1.0)
        xi = profile_xi(g_safe)
        ok &= xi >= xi_floor
        val = (k * (-np.log(xi) - (1.0 / xi + 1.0) * g_safe + t2.mean(axis=1))
               + (gamma_shape - 1.0) * np.log(xi) - xi - 0.5 * deltas * deltas / sigma2 + lp_const)
        return np.where(ok, val, -np.inf)

    def neg_total(delta):
        return -float(total_grid(np.array([delta]))[0])

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
    g_hat = mean_logy + float(np.mean(np.log1p(delta_hat * a)))
    return float(profile_xi(np.array(g_hat))), delta_hat


def oracle_smooth_path(series, window=5):
    """``bayes.smooth_path`` on one path: a loop over its cells, a ``mean`` of each window's finite values."""
    x = np.asarray(series, dtype=float)
    r = window // 2
    out = np.empty_like(x)
    for i in range(x.size):
        ri = min(r, i, x.size - 1 - i)
        seg = x[i - ri: i + ri + 1]
        good = np.isfinite(seg)
        out[i] = seg[good].mean() if good.any() else np.nan
    return out
