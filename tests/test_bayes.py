from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln, ndtr
from scipy.stats import norm

import epdtail as et
from epdtail import bayes, epd
from epdtail.bayes import (
    _BLOCK,
    _CELL,
    _STRIDE,
    ClosedFormError,
    _BoundTable,
    _log_post,
    _log_prior_const,
    _Profiles,
    _row_sums,
)
from epdtail.epd import DELTA_MAX, _Likelihood
from conftest import pareto_excesses
from oracles import (
    grid_map_oracle,
    log_posterior,
    log_prior_xi,
    oracle_log_post,
    oracle_log_posterior,
    oracle_metropolis,
    oracle_smooth_path,
    profile_posterior_mode,
    solve_first_order,
    stack,
)


def _excess_set(y):
    arr = np.sort(np.asarray(y, dtype=float))[::-1]
    return et.ExcessSet(y=arr, k=arr.size, threshold=1.0)


def _delta_prior_mass(lo, sigma2):
    """The delta prior's mass above lo, read from the last log `_log_prior_const` takes."""
    with mock.patch("math.log", wraps=math.log) as log:
        bayes._log_prior_const(lo, sigma2)
    return log.call_args.args[0]


class TestPriorVariance:
    def test_hand_values(self):
        assert et.prior_variance(100, 500, -1.0) == pytest.approx(0.04)
        assert et.prior_variance(100, 500, -0.5) == pytest.approx(0.2)

    def test_near_full_sample(self):
        assert et.prior_variance(999, 1000, -1.0) == pytest.approx(1.0, rel=3e-3)

    def test_k_at_least_n_rejected(self):
        with pytest.raises(ValueError):
            et.prior_variance(500, 500, -1.0)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.nan])
    def test_nonpositive_value_rejected_by_the_estimators(self, burr_k200, sigma2):
        # prior_variance underflows to 0.0 for a huge |rho|; it must not be divided by
        e, tau, _ = burr_k200
        with pytest.raises(ValueError, match="sigma2"):
            et.bayes_closed_form(e, tau, sigma2)
        with pytest.raises(ValueError, match="sigma2"):
            et.metropolis_sample(e, tau, sigma2, et.MCMCConfig(iterations=20, burn_in=10))
        with pytest.raises(ValueError, match="sigma2"):
            log_posterior(0.5, 0.0, e, tau, sigma2)


class TestPriorSpec:
    """The delta prior is specified by sigma2 alone and truncated at the model bound."""

    def test_for_tau_sets_truncation(self):
        e = _excess_set([1.0, 2.0, 4.0])
        for tau, lo in ((-2.0, -0.5), (-0.5, -1.0)):
            assert log_posterior(1.0, lo, e, tau, 1.0) == -math.inf
            assert math.isfinite(log_posterior(1.0, lo + 1e-9, e, tau, 1.0))

    def test_gamma_normaliser_within_1_ulp_of_scipys_gammaln(self):
        want = float(gammaln(bayes._GAMMA_SHAPE))
        assert abs(bayes._LOG_GAMMA - want) <= math.ulp(want)

    @given(lo=st.floats(-1.0, 0.0, exclude_max=True), log10_sigma2=st.floats(-4.0, 12.0))
    @example(lo=-1.0, log10_sigma2=-4.0)  # the largest argument, 100: the mass rounds to 1
    @example(lo=-5e-324, log10_sigma2=12.0)  # the smallest: the mass rounds to 1/2
    def test_delta_prior_mass_is_scipys_ndtr_within_2_ulp(self, lo, log10_sigma2):
        # the mass above lo of the N(0, sigma2) delta prior, 0.5 * erfc(lo / (sigma * sqrt(2))),
        # is scipy's ndtr(-lo / sigma) within 2 ulp
        sigma2 = 10.0 ** log10_sigma2
        want = float(ndtr(-lo / math.sqrt(sigma2)))
        assert abs(_delta_prior_mass(lo, sigma2) - want) <= 2 * math.ulp(want)

    def test_delta_prior_mass_is_scipys_ndtr_within_2_ulp_at_its_branch_edges(self):
        # scipy's ndtr switches formula at |a| = 1 (erf to erfc) and 8*sqrt(2) (P/Q to R/S);
        # with sigma = 1/64 the argument a = -lo/sigma is exact for every lo = -a/64 in [-1, 0)
        sigma2 = 2.0 ** -12
        edges = [1.0, 8.0 * math.sqrt(2.0)]
        near = [e + d * math.ulp(e) for e in edges for d in range(-4, 5)]
        for a in near + np.linspace(0.0, 64.0, 6401)[1:].tolist():
            want = float(ndtr(a))
            assert abs(_delta_prior_mass(-a / 64.0, sigma2) - want) <= 2 * math.ulp(want), a

    def test_validation(self):
        e, cfg = _excess_set([1.0, 2.0, 4.0]), et.MCMCConfig(iterations=20, burn_in=10)
        with pytest.raises(ValueError, match="sigma2"):
            et.metropolis_sample(e, -1.0, 0.0, cfg)
        with pytest.raises(ValueError, match="tau"):
            et.metropolis_sample(e, 0.5, 1.0, cfg)


class TestLogPosterior:
    def test_hand_value(self):
        e = _excess_set([2.0, 4.0])
        loglik = -3.0 * math.log(2.0)
        lp_xi = (1e-4 - 1.0) * 0.0 - 1.0 - float(gammaln(1e-4))
        lp_delta = -0.0 - math.log(math.sqrt(2 * math.pi)) - math.log(float(norm.sf(-1.0)))
        expected = 2.0 * loglik + lp_xi + lp_delta
        assert log_posterior(1.0, 0.0, e, -1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_truncation_sentinel(self):
        e = _excess_set([2.0, 4.0])
        assert log_posterior(1.0, -0.5, e, -2.0, 1.0) == -math.inf

    def test_flat_prior_limit(self):
        # with a huge sigma2 the delta prior is flat: posterior differences
        # minus the xi-prior differences reduce to likelihood differences
        e = pareto_excesses(0.8, 60, 5)
        pts = [(0.5, 0.1), (0.9, -0.2), (1.4, 0.6)]

        def centered(xi, d):
            return (log_posterior(xi, d, e, -1.0, 1e12) - log_prior_xi(xi)) / e.k

        base_c = centered(*pts[0])
        base_l = et.epd_log_likelihood(*pts[0], -1.0, e)
        for xi, d in pts[1:]:
            diff_c = centered(xi, d) - base_c
            diff_l = et.epd_log_likelihood(xi, d, -1.0, e) - base_l
            assert diff_c == pytest.approx(diff_l, abs=1e-6)

    def test_agrees_with_oracle_implementation(self, burr_k200):
        e, tau, sigma2 = burr_k200
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi = float(rng.uniform(0.2, 2.0))
            d = float(rng.uniform(et.delta_lower_bound(tau) + 0.05, 2.0))
            mine = log_posterior(xi, d, e, tau, sigma2)
            other = float(
                oracle_log_posterior(np.array([xi]), np.array([d]), e.y, tau, sigma2)[0, 0]
            )
            assert mine == pytest.approx(other, rel=1e-10)


def test_every_log_likelihood_is_the_one_formula(burr_k200, monkeypatch):
    # the ML pass and the one-lane likelihood reach the one mean log-likelihood
    # formula, epd._loglik; the chain does not
    e, tau, sigma2 = burr_k200
    loglik, fg_sums, calls, passes = epd._loglik, epd._fg_sums, [], []

    def loglik_spy(xi, k, s1, s2):
        calls.append((s1, s2))
        return loglik(xi, k, s1, s2)

    def fg_sums_spy(*args):
        out = fg_sums(*args)
        passes.extend(tuple(s[:2]) for s in out)
        return out

    monkeypatch.setattr(epd, "_loglik", loglik_spy)
    monkeypatch.setattr(epd, "_fg_sums", fg_sums_spy)
    assert epd._value_and_grad(0.5, 200, [300.0, 2.0, 1.0, 0.5])[0] == loglik(0.5, 200, 300.0, 2.0)
    assert calls == [(300.0, 2.0)]
    calls.clear()
    et.epd_ml_fit(e, tau)
    assert calls and calls == passes
    calls.clear()
    passes.clear()
    value = et.epd_log_likelihood(0.5, 0.2, tau, e)
    assert len(calls) == 1 and calls == passes and value == loglik(0.5, e.k, *passes[0])
    calls.clear()
    et.metropolis_sample(e, tau, sigma2, et.MCMCConfig(iterations=400, burn_in=100, seed=1))
    assert not calls and not hasattr(bayes, "_loglik")


def test_every_log_posterior_is_the_one_formula(burr_k200, monkeypatch):
    # the mode search's profile and the chain's exact values and bounds all reach the
    # one log-posterior formula, bayes._log_post, and the chain's exact values take
    # their sums from the one row-sum arithmetic, bayes._log1p_sums, on the lane's rows
    e, tau, sigma2 = burr_k200
    log_post, log1p_sums, calls, passes = bayes._log_post, bayes._log1p_sums, [], []

    def log_post_spy(xi, log_xi, g, s2, *rest):
        calls.append((xi, log_xi, g, s2))
        return log_post(xi, log_xi, g, s2, *rest)

    def log1p_sums_spy(coef, delta, *rest):
        out = log1p_sums(coef, delta, *rest)
        if coef.ndim == 2:  # a pass of the chain, on its lane's two rows
            passes.append(tuple(out.tolist()))
        return out

    monkeypatch.setattr(bayes, "_log_post", log_post_spy)
    monkeypatch.setattr(bayes, "_log1p_sums", log1p_sums_spy)
    est = et.bayes_closed_form(e, tau, sigma2)
    assert est.solver == "profile-map" and calls and not passes
    assert all(isinstance(c[0], np.ndarray) for c in calls)  # the profile, by the array
    calls.clear()
    et.metropolis_sample(e, tau, sigma2, et.MCMCConfig(iterations=400, burn_in=100, seed=1))
    h, k = float(np.add.reduce(np.log(e.y))) / e.k, e.k
    assert all(type(c[0]) is float and c[0] == math.exp(c[1]) for c in calls)  # log xi is the chain's u
    # the starting point at both sums 0, every exact value, and a bound for most proposals
    exact = {(h + s1 / k, s2) for s1, s2 in passes}
    values = [c[2:] for c in calls]
    assert passes and values[0] == (h, 0.0) and exact <= set(values)
    assert len(values) - len(passes) - 1 > 200


def _solvable_pareto_cases(count=20, k=100, sigma2=1e12):
    """First `count` strict-Pareto datasets where the no-prior system solves."""
    cases = []
    seed = 0
    while len(cases) < count and seed < 200:
        e = pareto_excesses(1.0, k, (71, seed))
        tau = -1.0 / et.hill(e)
        try:
            solve_first_order(e, tau, 1.0 / (e.k * sigma2))
            cases.append((e, tau))
        except ClosedFormError:
            pass
        seed += 1
    assert len(cases) == count
    return cases


class TestClosedForm:
    def test_degenerate_prior_recovers_hill(self):
        for rep in range(20):
            e = pareto_excesses(0.7, 80, (61, rep))
            h = et.hill(e)
            tau = -1.0 / h
            est = et.bayes_closed_form(e, tau, 1e-12)
            assert est.solver == "linear"
            assert abs(est.delta) < 1e-6
            assert abs(est.xi - h) < 1e-8

    def test_flat_prior_matches_ml_system(self):
        for e, tau in _solvable_pareto_cases():
            est = et.bayes_closed_form(e, tau, 1e12)
            assert est.solver == "linear"
            xi_ml, d_ml = solve_first_order(e, tau, 0.0)
            assert est.xi == pytest.approx(xi_ml, abs=1e-6)
            assert est.delta == pytest.approx(d_ml, abs=1e-6)

    def test_shrinkage_is_monotone_in_sigma2(self):
        e, tau = _solvable_pareto_cases(count=1)[0]
        h = et.hill(e)
        grid = [1e2, 1.0, 1e-2, 1e-4, 1e-6]
        deltas = []
        for s2 in grid:
            est = et.bayes_closed_form(e, tau, s2)
            assert est.solver == "linear"
            deltas.append(abs(est.delta))
        assert all(a >= b - 1e-14 for a, b in zip(deltas, deltas[1:]))
        final = et.bayes_closed_form(e, tau, grid[-1])
        assert final.xi == pytest.approx(h, abs=1e-3)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            et.bayes_closed_form(pareto_excesses(1.0, 5, 0), -1.0, 1.0)

    def test_linear_branch_tracks_grid_map(self, burr_dist):
        # benign regime: moderate k, shrinkage active, linearization valid
        hits = 0
        for rep in range(10):
            s = et.sample_distribution(burr_dist, 500, (81, rep))
            e = et.excesses(s, 50)
            h = et.hill(e)
            rho, _ = et.resolve_rho(s)
            tau = et.tau_hat(rho, h)
            sigma2 = et.prior_variance(50, 500, rho)
            est = et.bayes_closed_form(e, tau, sigma2)
            xi_map, _, _ = grid_map_oracle(e.y, tau, sigma2, xi_hint=h)
            if est.solver == "linear" and abs(est.xi - xi_map) < 0.05:
                hits += 1
        assert hits >= 8

    def test_map_fallback_in_strong_bias_regime(self, burr_k200):
        # the linearized system provably has no real solution here
        e, tau, sigma2 = burr_k200
        with pytest.raises(ClosedFormError):
            solve_first_order(e, tau, 1.0 / (e.k * sigma2))
        est = et.bayes_closed_form(e, tau, sigma2)
        assert est.solver == "profile-map"
        xi_map, d_map, _ = grid_map_oracle(e.y, tau, sigma2)
        assert est.xi == pytest.approx(xi_map, abs=0.01)
        assert est.delta == pytest.approx(d_map, abs=0.02)

    def test_profile_mode_matches_grid_oracle(self, burr_k200):
        e, tau, sigma2 = burr_k200
        xi_p, d_p = profile_posterior_mode(e, tau, sigma2)
        xi_g, d_g, _ = grid_map_oracle(e.y, tau, sigma2)
        assert xi_p == pytest.approx(xi_g, abs=0.01)
        assert d_p == pytest.approx(d_g, abs=0.02)

    def test_profile_mode_polish_sees_only_finite_values(self):
        # replication 4, k=190 of `epdtail simulate --dist frechet:0.5 --n 200
        # --reps 6 --rho fixed:-1`: the polish bracket holds inadmissible deltas,
        # and an infinite objective there made scipy's parabolic step subtract inf
        s = et.sample_distribution(et.frechet(0.5), 200, np.random.SeedSequence((0, 4)))
        e = et.excesses(s, 190)
        tau, sigma2 = et.tau_hat(-1.0, et.hill(e)), et.prior_variance(190, 200, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            xi_p, d_p = profile_posterior_mode(e, tau, sigma2)
        _, _, best = grid_map_oracle(e.y, tau, sigma2)
        assert oracle_log_posterior(xi_p, d_p, e.y, tau, sigma2) >= best - 1e-9


class TestMetropolis:
    def test_deterministic(self, burr_k200):
        e, tau, sigma2 = burr_k200
        cfg = et.MCMCConfig(iterations=1500, burn_in=500, seed=4)
        c1 = et.metropolis_sample(e, tau, sigma2, cfg)
        c2 = et.metropolis_sample(e, tau, sigma2, cfg)
        assert np.array_equal(c1.draws, c2.draws)
        assert np.array_equal(c1.logpost, c2.logpost)

    def test_acceptance_in_band(self, burr_k200):
        e, tau, sigma2 = burr_k200
        cfg = et.MCMCConfig(iterations=4000, burn_in=1000, seed=11)
        chain = et.metropolis_sample(e, tau, sigma2, cfg)
        assert 0.1 <= chain.acceptance_rate <= 0.6

    def test_draws_stay_in_region(self, burr_k200):
        e, tau, sigma2 = burr_k200
        chain = et.metropolis_sample(e, tau, sigma2,
                                     et.MCMCConfig(iterations=2000, burn_in=500, seed=2))
        assert np.all(chain.draws[:, 0] > 0)
        assert np.all(chain.draws[:, 1] > et.delta_lower_bound(tau))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            et.MCMCConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError):
            et.MCMCConfig(iterations=100, burn_in=-1)


# The delta prior is truncated at the model bound max(-1, 1/tau); tau puts
# it at -0.5 (tau = -2), at -1.0, or at -0.3, inside the tau = -2 range
_TRUNCATIONS = {"model_bound": -2.0, "minus_one": -1.0, "inside_model": 1.0 / -0.3}
# (MCMCConfig fields, adaptation interval); None keeps the sampler's own
_MATCH_CONFIGS = {
    "default": (dict(iterations=1500, burn_in=500), None),
    "no_burn_in": (dict(iterations=1000, burn_in=0), None),
    "adapt_every_step": (dict(iterations=1500, burn_in=500), 1),
}


class TestMetropolisMatchesSeedLoop:
    """The precomputed log target reproduces the per-proposal composition bit for bit."""

    @pytest.mark.parametrize("config", sorted(_MATCH_CONFIGS))
    @pytest.mark.parametrize("truncation", sorted(_TRUNCATIONS))
    @pytest.mark.parametrize("sigma2", [1e-3, 50.0])
    @pytest.mark.parametrize("k", [10, 200])
    def test_bit_identical(self, k, sigma2, truncation, config, monkeypatch):
        tau = _TRUNCATIONS[truncation]
        e = pareto_excesses(0.6, k, (83, k))
        fields, adapt_interval = _MATCH_CONFIGS[config]
        cfg = et.MCMCConfig(seed=k + 7, **fields)
        if adapt_interval is None:
            oracle = oracle_metropolis(e, tau, sigma2, cfg)
        else:
            monkeypatch.setattr(bayes, "_ADAPT_INTERVAL", adapt_interval)
            oracle = oracle_metropolis(e, tau, sigma2, cfg, adapt_interval)
        chain = et.metropolis_sample(e, tau, sigma2, cfg)
        draws, logpost, rate = oracle
        assert np.array_equal(chain.draws, draws)
        assert np.array_equal(chain.logpost, logpost)
        assert chain.acceptance_rate == rate

    # the truncation point of the delta prior, placed through tau = 1/trunc_lower;
    # None keeps the fixture's tau
    @pytest.mark.parametrize("trunc_lower", [None, -0.1])
    def test_log_posterior_matches_composition(self, burr_k200, trunc_lower):
        e, tau, sigma2 = burr_k200
        if trunc_lower is not None:
            tau = 1.0 / trunc_lower
        lo = et.delta_lower_bound(tau)
        for xi in (1e-300, 0.3, 0.8, 5.0, math.inf):
            for d in (lo - 0.1, lo, lo + 1e-12, -0.2, -0.1, 0.0, 0.7, 9.0, 1e200):
                want = oracle_log_post(xi, math.log(xi), d, tau, e, sigma2)
                got = log_posterior(xi, d, e, tau, sigma2)
                assert got == want, (xi, d)


class TestMetropolisMcmcCliRegime:
    """The chains of ``estimate --method mcmc`` on an n = 2 000 Burr(0.75, -0.75) file."""

    @pytest.fixture(scope="class")
    def burr_2000(self):
        return et.sample_distribution(et.burr(0.75, -0.75), 2000, 20261018)

    @pytest.mark.parametrize("k", [100, 500])
    def test_bound_skips_most_passes_and_keeps_every_draw(self, burr_2000, k, monkeypatch):
        e = et.excesses(burr_2000, k)
        rho, _ = et.resolve_rho(burr_2000)
        tau, sigma2 = et.tau_hat(rho, et.hill(e)), et.prior_variance(k, burr_2000.n, rho)
        cfg = et.MCMCConfig(seed=k)
        draws, logpost, rate = oracle_metropolis(e, tau, sigma2, cfg)
        passes = []
        log1p_sums = bayes._log1p_sums

        def spy(coef, delta, *rest):
            if coef.ndim == 2:  # a pass of the chain, on its lane's two rows
                passes.append(delta)
            return log1p_sums(coef, delta, *rest)

        monkeypatch.setattr(bayes, "_log1p_sums", spy)
        chain = et.metropolis_sample(e, tau, sigma2, cfg)
        assert np.array_equal(chain.draws, draws)
        assert np.array_equal(chain.logpost, logpost)
        assert chain.acceptance_rate == rate
        # one pass per proposal the bound let through; the starting point needs none
        assert 0 < len(passes) < 0.6 * cfg.iterations


def _bound(table, xi, delta, sigma2):
    """The chain's upper bound of the log posterior at (xi, delta); None outside the table.

    ``_log_post`` on the table's bounds of the two sums, as the bound test in
    ``metropolis_sample`` computes it, with log xi as ``log_posterior`` takes it.
    """
    x = (delta - table.lo) / _CELL
    if not 0.0 <= x < len(table.cells):
        return None
    j = int(x)
    c1, e1, p0, q0, p1, q1 = table.cells[j] or table.fill(j)
    f = x - j
    k = table.lik.k
    g = float(table.lik.sum_log_y[0]) / k + (c1 + e1 * f) / k
    return _log_post(xi, math.log(xi), g, min(p0 + q0 * f, p1 + q1 * f), delta, sigma2,
                     _log_prior_const(table.lo, sigma2), k)


class TestBoundTable:
    """The bound that lets the chain skip a likelihood pass is never below the exact value."""

    @given(
        dist=st.sampled_from([et.burr(0.75, -0.75), et.frechet(0.5)]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(10, 499),
        tau=st.floats(-5.0, -0.05),
        log_xi=st.floats(-6.0, 3.0),
        sigma2=st.floats(1e-3, 10.0),
        where=st.sampled_from(["node", "between", "near_lo", "far_out"]),
        pos=st.floats(0.0, 1.0),
    )
    def test_bound_is_above_the_exact_value(self, dist, seed, k, tau, log_xi, sigma2,
                                             where, pos):
        e = et.excesses(et.sample_distribution(dist, 500, seed), k)
        table = _BoundTable(_Likelihood(e.y[None], [tau]))
        lo, n_cells = table.lo, len(table.cells)
        far_out = (DELTA_MAX / 2 - lo + pos * DELTA_MAX / 2) / _CELL
        x = {"node": math.floor(pos * (n_cells - 1)), "between": pos * (n_cells - 1),
             "near_lo": pos * 100.0, "far_out": far_out}[where]
        xi = math.exp(log_xi)
        # the drawn point, then every node of its block and three points inside each cell
        j0 = min(int(x), n_cells - 1) // _BLOCK * _BLOCK
        offsets = [x] + [j + f for j in range(j0, j0 + _BLOCK) for f in (0.0, 0.25, 0.5, 0.999)]
        checked = 0
        for off in offsets:
            delta = lo + _CELL * off
            bound, value = _bound(table, xi, delta, sigma2), log_posterior(xi, delta, e, tau, sigma2)
            if bound is not None and math.isfinite(bound) and math.isfinite(value):
                assert bound >= value, (delta, bound, value)
                checked += 1
        assert checked or where == "near_lo"


def test_row_sums_reduce_each_block_into_its_rows(monkeypatch):
    # blocks of 3 over 8 rows give each row's sums and slope as a pass over that row alone;
    # no rows give empty outputs
    lik = stack([(pareto_excesses(1.0, 50, 0), -1.0), (pareto_excesses(0.5, 50, 1), -0.7)])
    lane, deltas = np.array([0, 1, 0, 1, 1, 0, 0, 1]), np.linspace(-0.3, 2.0, 8)
    monkeypatch.setattr(bayes, "_BUDGET", 3 * 2 * lik.k)
    s, q = _row_sums(lik.coef, lane, deltas, slope=True)
    empty = _row_sums(lik.coef, lane[:0], deltas[:0])
    monkeypatch.setattr(bayes, "_BUDGET", 2 * lik.k)
    for i in range(8):
        s_i, q_i = _row_sums(lik.coef, lane[i:i + 1], deltas[i:i + 1], slope=True)
        assert s[i].tobytes() == s_i[0].tobytes() and q[i].tobytes() == q_i[0].tobytes()
    assert empty[0].shape == (0, 2) and empty[1] is None


class TestProfileBound:
    """The bounds that let the mode search skip grid nodes are never below the exact profile."""

    @given(
        dist=st.sampled_from([et.burr(0.75, -0.75), et.frechet(0.5)]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(10, 499),
        log10_neg_tau=st.floats(-9.0, math.log10(5.0)),
        log10_sigma2=st.floats(-4.0, 2.0),
    )
    # tau near 0 makes both row sums nearly linear in delta: the bounds then
    # exceed the exact value by less than its rounding, and only the margin
    # keeps them above it
    @example(dist=et.burr(0.75, -0.75), seed=2, k=10, log10_neg_tau=-7.0, log10_sigma2=2.0)
    @example(dist=et.frechet(0.5), seed=2, k=10, log10_neg_tau=-7.0, log10_sigma2=2.0)
    def test_bound_is_above_the_exact_value(self, dist, seed, k, log10_neg_tau, log10_sigma2):
        e = et.excesses(et.sample_distribution(dist, 500, seed), k)
        p = _Profiles(stack([(e, -(10.0 ** log10_neg_tau))]), [10.0 ** log10_sigma2])
        coarse, bound = (a[0] for a in p.bounds(slice(None)))
        exact = p.exact(np.zeros(p.grid.shape[1], int), p.grid[0])
        assert np.array_equal(coarse, exact[::_STRIDE])
        inner = exact[:-1].reshape(-1, _STRIDE)[:, 1:]
        assert bound.shape == inner.shape
        bad = np.argwhere(bound < inner)
        assert bad.size == 0, [(j, i, bound[j, i], inner[j, i]) for j, i in bad[:5]]
        # a bound the search can prune with stands at nearly every node
        assert np.isfinite(bound).mean() > 0.9


class TestPosteriorMode:
    def _chain(self, logpost):
        draws = np.column_stack([np.linspace(1.0, 2.0, len(logpost)),
                                 np.zeros(len(logpost))])
        return et.PosteriorChain(draws=draws, logpost=np.asarray(logpost, float),
                                 acceptance_rate=0.3)

    def test_unique_max(self):
        chain = self._chain([-5.0, -1.0, -3.0])
        xi, _ = et.posterior_mode(chain)
        assert xi == chain.draws[1, 0]

    def test_tie_breaks_to_earliest(self):
        chain = self._chain([-2.0, -1.0, -1.0])
        xi, _ = et.posterior_mode(chain)
        assert xi == chain.draws[1, 0]

    def test_empty_chain_rejected(self):
        chain = et.PosteriorChain(draws=np.empty((0, 2)), logpost=np.empty(0),
                                  acceptance_rate=0.5)
        with pytest.raises(ValueError, match="empty"):
            et.posterior_mode(chain)


class TestHPD:
    def test_uniform_grid_tie_break(self):
        lo, hi = et.hpd_interval(np.arange(1000.0), 0.05)
        assert (lo, hi) == (0.0, 949.0)

    def test_all_equal(self):
        assert et.hpd_interval(np.full(50, 3.25), 0.1) == (3.25, 3.25)

    def test_standard_normal_endpoints(self):
        draws = np.random.default_rng(2024).standard_normal(100_000)
        lo, hi = et.hpd_interval(draws, 0.05)
        assert lo == pytest.approx(-1.96, abs=0.05)
        assert hi == pytest.approx(1.96, abs=0.05)

    def test_contains_required_mass(self):
        draws = np.random.default_rng(5).exponential(size=801)
        for alpha in (0.05, 0.3, 0.77):
            lo, hi = et.hpd_interval(draws, alpha)
            inside = np.count_nonzero((draws >= lo) & (draws <= hi))
            assert inside >= math.ceil((1 - alpha) * draws.size)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            et.hpd_interval([1.0], 0.05)
        with pytest.raises(ValueError):
            et.hpd_interval([1.0, 2.0], 1.5)


class TestBayesTailProb:
    def _sample(self):
        return et.SortedSample(np.arange(1.0, 101.0))

    def test_reduces_to_weissman_at_zero_delta(self):
        est = et.BayesEstimate(xi=0.5, delta=0.0, solver="linear")
        s = self._sample()
        assert et.bayes_tail_prob(s, 10, 360.0, est, -1.0) == et.weissman_tail_prob(
            s, 10, 360.0, 0.5
        )

    def test_at_threshold(self):
        est = et.BayesEstimate(xi=0.5, delta=0.2, solver="linear")
        assert et.bayes_tail_prob(self._sample(), 10, 90.0, est, -1.0) == pytest.approx(0.1)

    def test_hand_value(self):
        est = et.BayesEstimate(xi=0.5, delta=0.1, solver="linear")
        assert et.bayes_tail_prob(self._sample(), 10, 180.0, est, -1.0) == pytest.approx(
            0.1 * (2.0 * 1.05) ** -2
        )


# float paths of any length up to 40, with NaN and infinite cells among them
_PATHS = arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64))
_WINDOWS = st.sampled_from([1, 3, 5, 7, 9])
# constants with at most 41 significant bits: a sum of up to 9 copies is exact
_DYADIC = st.builds(math.ldexp, st.integers(-2**40, 2**40), st.integers(-1000, 950))


class TestSmoothPath:
    @given(_DYADIC, st.integers(1, 40), _WINDOWS)
    @example(2.5, 8, 5)
    def test_constant_unchanged(self, c, n, window):
        assert np.array_equal(et.smooth_path(np.full(n, c), window), np.full(n, c))

    @given(_PATHS, _WINDOWS)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_window_without_finite_cell_is_nan(self, x, window):
        out = et.smooth_path(x, window)
        r = window // 2
        for i in range(x.size):
            ri = min(r, i, x.size - 1 - i)
            if not np.isfinite(x[i - ri: i + ri + 1]).any():
                assert np.isnan(out[i])

    def test_skips_missing_cells(self):
        out = et.smooth_path(np.array([1.0, np.nan, 3.0, 4.0, np.inf]), 3)
        assert np.array_equal(out, [1.0, 2.0, 3.5, 3.5, np.nan], equal_nan=True)

    def test_hand_value(self):
        out = et.smooth_path(np.arange(1.0, 11.0), 5)
        assert out[4] == pytest.approx(5.0)  # centered mean of 3..7
        assert out.size == 10

    def test_window_one_is_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(et.smooth_path(x, 1), x)

    def test_edges_shrink_symmetrically(self):
        out = et.smooth_path(np.arange(1.0, 11.0), 5)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(2.0)  # mean of 1..3

    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    def test_same_bits_as_the_loop_over_cells(self, window):
        # paths of length 1 to 69 with 15% NaN, magnitudes 1e-3 to 1e3 and some -0.0;
        # a numpy release that sums short windows in another order fails here
        rng = np.random.default_rng((61, window))
        for _ in range(300):
            n = int(rng.integers(1, 70))
            x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            x[rng.random(n) < 0.05] = -0.0
            x[rng.random(n) < 0.15] = np.nan
            want = oracle_smooth_path(x, window)
            assert et.smooth_path(x, window).tobytes() == want.tobytes(), x
            # two lanes at once, each smoothed alone
            both = np.stack([want, oracle_smooth_path(x[::-1], window)])
            assert et.smooth_path(np.stack([x, x[::-1]]), window).tobytes() == both.tobytes(), x

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            et.smooth_path(np.arange(5.0), 4)
