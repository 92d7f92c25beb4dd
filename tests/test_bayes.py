from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import norm

import epdtail as et
from epdtail.bayes import ClosedFormError, _profile_posterior_mode
from conftest import pareto_excesses
from oracles import grid_map_oracle, oracle_log_posterior, oracle_metropolis


def _excess_set(y):
    arr = np.sort(np.asarray(y, dtype=float))[::-1]
    return et.ExcessSet(y=arr, k=arr.size, threshold=1.0)


class TestPriorVariance:
    def test_hand_values(self):
        assert et.prior_variance(100, 500, -1.0) == pytest.approx(0.04)
        assert et.prior_variance(100, 500, -0.5) == pytest.approx(0.2)

    def test_near_full_sample(self):
        assert et.prior_variance(999, 1000, -1.0) == pytest.approx(1.0, rel=3e-3)

    def test_k_at_least_n_rejected(self):
        with pytest.raises(ValueError):
            et.prior_variance(500, 500, -1.0)


class TestPriorSpec:
    def test_for_tau_sets_truncation(self):
        assert et.PriorSpec.for_tau(1.0, -2.0).trunc_lower == -0.5
        assert et.PriorSpec.for_tau(1.0, -0.5).trunc_lower == -1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            et.PriorSpec(sigma2=0.0)
        with pytest.raises(ValueError):
            et.PriorSpec(sigma2=1.0, trunc_lower=0.5)


class TestLogPosterior:
    def test_hand_value(self):
        e = _excess_set([2.0, 4.0])
        prior = et.PriorSpec(sigma2=1.0, gamma_shape=1e-4, trunc_lower=-1.0)
        loglik = -3.0 * math.log(2.0)
        lp_xi = (1e-4 - 1.0) * 0.0 - 1.0 - float(gammaln(1e-4))
        lp_delta = -0.0 - math.log(math.sqrt(2 * math.pi)) - math.log(float(norm.sf(-1.0)))
        expected = loglik + (lp_xi + lp_delta) / 2.0
        assert et.log_posterior(1.0, 0.0, e, -1.0, prior) == pytest.approx(expected, rel=1e-12)

    def test_truncation_sentinel(self):
        e = _excess_set([2.0, 4.0])
        prior = et.PriorSpec.for_tau(1.0, -2.0)
        assert et.log_posterior(1.0, -0.5, e, -2.0, prior) == -math.inf

    def test_flat_prior_limit(self):
        # with a huge sigma2 the delta prior is flat: posterior differences
        # minus the xi-prior differences reduce to likelihood differences
        e = pareto_excesses(0.8, 60, 5)
        prior = et.PriorSpec.for_tau(1e12, -1.0)
        pts = [(0.5, 0.1), (0.9, -0.2), (1.4, 0.6)]

        def centered(xi, d):
            return et.log_posterior(xi, d, e, -1.0, prior) - et.log_prior_xi(xi) / e.k

        base_c = centered(*pts[0])
        base_l = et.epd_log_likelihood(*pts[0], -1.0, e)
        for xi, d in pts[1:]:
            diff_c = centered(xi, d) - base_c
            diff_l = et.epd_log_likelihood(xi, d, -1.0, e) - base_l
            assert diff_c == pytest.approx(diff_l, abs=1e-6)

    def test_agrees_with_oracle_implementation(self, burr_k200):
        e, tau, prior = burr_k200
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi = float(rng.uniform(0.2, 2.0))
            d = float(rng.uniform(et.delta_lower_bound(tau) + 0.05, 2.0))
            mine = e.k * et.log_posterior(xi, d, e, tau, prior)
            other = float(
                oracle_log_posterior(np.array([xi]), np.array([d]), e.y, tau,
                                     prior.sigma2, prior.gamma_shape)[0, 0]
            )
            assert mine == pytest.approx(other, rel=1e-10)


def _solvable_pareto_cases(count=20, k=100, sigma2=1e12):
    """First `count` strict-Pareto datasets where the no-prior system solves."""
    cases = []
    seed = 0
    while len(cases) < count and seed < 200:
        e = pareto_excesses(1.0, k, (71, seed))
        tau = -1.0 / et.hill(e).xi
        try:
            et.bayes_closed_form(e, tau, et.PriorSpec.for_tau(sigma2, tau),
                                 allow_map_fallback=False)
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
            h = et.hill(e).xi
            tau = -1.0 / h
            est = et.bayes_closed_form(e, tau, et.PriorSpec.for_tau(1e-12, tau))
            assert est.solver == "linear"
            assert abs(est.delta) < 1e-6
            assert abs(est.xi - h) < 1e-8

    def test_flat_prior_matches_ml_system(self):
        for e, tau in _solvable_pareto_cases():
            est = et.bayes_closed_form(e, tau, et.PriorSpec.for_tau(1e12, tau),
                                       allow_map_fallback=False)
            xi_ml, d_ml = et.ml_first_order(e, tau)
            assert est.xi == pytest.approx(xi_ml, abs=1e-6)
            assert est.delta == pytest.approx(d_ml, abs=1e-6)

    def test_shrinkage_is_monotone_in_sigma2(self):
        e, tau = _solvable_pareto_cases(count=1)[0]
        h = et.hill(e).xi
        grid = [1e2, 1.0, 1e-2, 1e-4, 1e-6]
        deltas = []
        for s2 in grid:
            est = et.bayes_closed_form(e, tau, et.PriorSpec.for_tau(s2, tau),
                                       allow_map_fallback=False)
            deltas.append(abs(est.delta))
        assert all(a >= b - 1e-14 for a, b in zip(deltas, deltas[1:]))
        final = et.bayes_closed_form(e, tau, et.PriorSpec.for_tau(grid[-1], tau))
        assert final.xi == pytest.approx(h, abs=1e-3)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            et.bayes_closed_form(pareto_excesses(1.0, 5, 0), -1.0,
                                 et.PriorSpec.for_tau(1.0, -1.0))

    def test_linear_branch_tracks_grid_map(self, burr_dist):
        # benign regime: moderate k, shrinkage active, linearization valid
        hits = 0
        for rep in range(10):
            s = et.sample_distribution(burr_dist, 500, (81, rep))
            e = et.excesses(s, 50)
            h = et.hill(e).xi
            rho, _ = et.resolve_rho(s)
            tau = et.tau_hat(rho, h)
            prior = et.PriorSpec.for_tau(et.prior_variance(50, 500, rho), tau)
            est = et.bayes_closed_form(e, tau, prior)
            xi_map, _, _ = grid_map_oracle(e.y, tau, prior.sigma2, xi_hint=h)
            if est.solver == "linear" and abs(est.xi - xi_map) < 0.05:
                hits += 1
        assert hits >= 8

    def test_map_fallback_in_strong_bias_regime(self, burr_k200):
        # the linearized system provably has no real solution here
        e, tau, prior = burr_k200
        with pytest.raises(ClosedFormError):
            et.bayes_closed_form(e, tau, prior, allow_map_fallback=False)
        est = et.bayes_closed_form(e, tau, prior)
        assert est.solver == "profile-map"
        xi_map, d_map, _ = grid_map_oracle(e.y, tau, prior.sigma2)
        assert est.xi == pytest.approx(xi_map, abs=0.01)
        assert est.delta == pytest.approx(d_map, abs=0.02)

    def test_profile_mode_matches_grid_oracle(self, burr_k200):
        e, tau, prior = burr_k200
        xi_p, d_p = _profile_posterior_mode(e, tau, prior)
        xi_g, d_g, _ = grid_map_oracle(e.y, tau, prior.sigma2)
        assert xi_p == pytest.approx(xi_g, abs=0.01)
        assert d_p == pytest.approx(d_g, abs=0.02)


class TestMetropolis:
    def test_deterministic(self, burr_k200):
        e, tau, prior = burr_k200
        cfg = et.MCMCConfig(iterations=1500, burn_in=500, seed=4)
        c1 = et.metropolis_sample(e, tau, prior, cfg)
        c2 = et.metropolis_sample(e, tau, prior, cfg)
        assert np.array_equal(c1.draws, c2.draws)
        assert np.array_equal(c1.logpost, c2.logpost)

    def test_acceptance_in_band(self, burr_k200):
        e, tau, prior = burr_k200
        cfg = et.MCMCConfig(iterations=4000, burn_in=1000, seed=11)
        chain = et.metropolis_sample(e, tau, prior, cfg)
        assert 0.1 <= chain.acceptance_rate <= 0.6

    def test_draws_stay_in_region(self, burr_k200):
        e, tau, prior = burr_k200
        chain = et.metropolis_sample(e, tau, prior,
                                     et.MCMCConfig(iterations=2000, burn_in=500, seed=2))
        assert np.all(chain.draws[:, 0] > 0)
        assert np.all(chain.draws[:, 1] > prior.trunc_lower)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            et.MCMCConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError):
            et.MCMCConfig(iterations=100, burn_in=-1)

    def test_fix_delta_pins_coordinate(self, burr_k200):
        e, tau, prior = burr_k200
        cfg = et.MCMCConfig(iterations=1200, burn_in=200, seed=3, fix_delta=0.0)
        chain = et.metropolis_sample(e, tau, prior, cfg)
        assert np.all(chain.draws[:, 1] == 0.0)


# tau = -2 puts the model bound at -0.5; the prior's truncation sits at
# that bound, below it (-1.0) or inside the model's range (-0.3)
_TRUNCATIONS = {"model_bound": None, "minus_one": -1.0, "inside_model": -0.3}
_MATCH_CONFIGS = {
    "default": dict(iterations=1500, burn_in=500),
    "fix_delta": dict(iterations=1500, burn_in=500, fix_delta=0.0),
    "no_burn_in": dict(iterations=1000, burn_in=0),
    "adapt_every_step": dict(iterations=1500, burn_in=500, adapt_interval=1),
}


class TestMetropolisMatchesSeedLoop:
    """The precomputed log target reproduces the per-proposal composition bit for bit."""

    @pytest.mark.parametrize("config", sorted(_MATCH_CONFIGS))
    @pytest.mark.parametrize("truncation", sorted(_TRUNCATIONS))
    @pytest.mark.parametrize("sigma2", [1e-3, 50.0])
    @pytest.mark.parametrize("k", [10, 200])
    def test_bit_identical(self, k, sigma2, truncation, config):
        tau = -2.0
        e = pareto_excesses(0.6, k, (83, k))
        if _TRUNCATIONS[truncation] is None:
            prior = et.PriorSpec.for_tau(sigma2, tau)
        else:
            prior = et.PriorSpec(sigma2, trunc_lower=_TRUNCATIONS[truncation])
        cfg = et.MCMCConfig(seed=k + 7, **_MATCH_CONFIGS[config])
        chain = et.metropolis_sample(e, tau, prior, cfg)
        draws, logpost, rate = oracle_metropolis(e, tau, prior, cfg)
        assert np.array_equal(chain.draws, draws)
        assert np.array_equal(chain.logpost, logpost)
        assert chain.acceptance_rate == rate

    @pytest.mark.parametrize("trunc_lower", [None, -0.1])
    def test_log_posterior_matches_composition(self, burr_k200, trunc_lower):
        e, tau, prior = burr_k200
        if trunc_lower is not None:
            prior = et.PriorSpec(prior.sigma2, trunc_lower=trunc_lower)
        lo = et.delta_lower_bound(tau)
        for xi in (1e-300, 0.3, 0.8, 5.0, math.inf):
            for d in (lo - 0.1, lo, lo + 1e-12, -0.2, -0.1, 0.0, 0.7, 9.0, 1e200):
                ll = et.epd_log_likelihood(xi, d, tau, e)
                lp = et.log_prior_xi(xi, prior.gamma_shape) + et.log_prior_delta(d, prior)
                want = -math.inf if -math.inf in (ll, lp) else ll + lp / e.k
                got = et.log_posterior(xi, d, e, tau, prior)
                assert got == want, (xi, d)


class TestPosteriorMode:
    def _chain(self, logpost):
        draws = np.column_stack([np.linspace(1.0, 2.0, len(logpost)),
                                 np.zeros(len(logpost))])
        return et.PosteriorChain(draws=draws, logpost=np.asarray(logpost, float),
                                 acceptance_rate=0.3, burn_in=0, seed=0)

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
                                  acceptance_rate=0.5, burn_in=0, seed=0)
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
        est = et.BayesEstimate(xi=0.5, delta=0.0, method="closed_form")
        s = self._sample()
        assert et.bayes_tail_prob(s, 10, 360.0, est, -1.0) == et.weissman_tail_prob(
            s, 10, 360.0, 0.5
        )

    def test_at_threshold(self):
        est = et.BayesEstimate(xi=0.5, delta=0.2, method="closed_form")
        assert et.bayes_tail_prob(self._sample(), 10, 90.0, est, -1.0) == pytest.approx(0.1)

    def test_hand_value(self):
        est = et.BayesEstimate(xi=0.5, delta=0.1, method="closed_form")
        assert et.bayes_tail_prob(self._sample(), 10, 180.0, est, -1.0) == pytest.approx(
            0.1 * (2.0 * 1.05) ** -2
        )


class TestSmoothPath:
    def test_constant_unchanged(self):
        assert np.array_equal(et.smooth_path(np.full(8, 2.5), 5), np.full(8, 2.5))

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

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            et.smooth_path(np.arange(5.0), 4)
