"""Independent oracles used by the tests.

These deliberately re-derive quantities through different routes than the
library (brute-force grid refinement, quadrature, batch means) so that
agreement is evidence, not tautology. ``oracle_metropolis`` is the
exception: it keeps the straightforward Metropolis loop as the reference
that the library's precomputed sampler must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln
from scipy.stats import norm

from epdtail import epd_log_likelihood, hill, log_prior_delta, log_prior_xi


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


def oracle_metropolis(e, tau, prior, config):
    """The Metropolis loop with the log posterior composed on every proposal.

    Evaluates ``epd_log_likelihood + (log_prior_xi + log_prior_delta) / k``
    from scratch for each proposal and draws random numbers in the same
    order as ``metropolis_sample``. Returns ``(draws, logpost,
    acceptance_rate)``.
    """
    def log_post(xi, delta):
        ll = epd_log_likelihood(xi, delta, tau, e)
        if ll == -math.inf:
            return -math.inf
        lp = log_prior_xi(xi, prior.gamma_shape) + log_prior_delta(delta, prior)
        if lp == -math.inf:
            return -math.inf
        return ll + lp / e.k

    k = e.k
    rng = np.random.default_rng(config.seed)
    fixed = config.fix_delta
    u = math.log(hill(e).xi)
    d = 0.0 if fixed is None else fixed
    lp = k * log_post(math.exp(u), d)
    s_u, s_d = config.step_log_xi, config.step_delta
    retained = config.iterations - config.burn_in
    draws = np.empty((retained, 2))
    logpost = np.empty(retained)
    accepted_post = 0
    batch_accepts = 0
    for t in range(config.iterations):
        z = rng.standard_normal(2)
        u_new = u + s_u * z[0]
        d_new = d if fixed is not None else d + s_d * z[1]
        lp_new = k * log_post(math.exp(u_new), d_new)
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
    return draws, logpost, accepted_post / retained
