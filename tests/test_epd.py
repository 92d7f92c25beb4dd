from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from scipy.stats import kstest

import epdtail as et
from epdtail import epd
from epdtail.epd import _Likelihood
from conftest import pareto_excesses
from oracles import oracle_epd_log_likelihood


def _excess_set(y):
    arr = np.sort(np.asarray(y, dtype=float))[::-1]
    return et.ExcessSet(y=arr, k=arr.size, threshold=1.0)


class TestParams:
    def test_validation(self):
        et.EPDParams(xi=0.5, delta=0.1, tau=-1.0)
        with pytest.raises(ValueError):
            et.EPDParams(xi=0.0, delta=0.1, tau=-1.0)
        with pytest.raises(ValueError):
            et.EPDParams(xi=0.5, delta=0.1, tau=0.0)
        with pytest.raises(ValueError):
            et.EPDParams(xi=0.5, delta=-1.0, tau=-1.0)

    def test_delta_lower_bound(self):
        assert et.delta_lower_bound(-2.0) == -0.5
        assert et.delta_lower_bound(-0.5) == -1.0


class TestSurvival:
    @pytest.mark.parametrize("xi", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("y", [1.0, 1.5, 2.0, 10.0, 100.0])
    def test_pareto_reduction(self, xi, y):
        p = et.EPDParams(xi=xi, delta=0.0, tau=-1.0)
        assert abs(et.epd_survival(p, y) - y ** (-1.0 / xi)) <= 1e-12

    def test_left_endpoint(self):
        p = et.EPDParams(xi=0.5, delta=0.3, tau=-1.0)
        assert et.epd_survival(p, 1.0) == 1.0

    def test_hand_value(self):
        p = et.EPDParams(xi=0.5, delta=0.1, tau=-1.0)
        assert et.epd_survival(p, 2.0) == pytest.approx((2.0 * 1.05) ** -2, abs=1e-12)

    def test_strictly_decreasing_to_zero(self):
        p = et.EPDParams(xi=0.7, delta=-0.4, tau=-0.8)
        ys = np.linspace(1.0, 500.0, 300)
        vals = et.epd_survival(p, ys)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-3

    def test_below_support_rejected(self):
        p = et.EPDParams(xi=0.5, delta=0.1, tau=-1.0)
        with pytest.raises(ValueError, match="y >= 1"):
            et.epd_survival(p, 0.5)


class TestLogLikelihood:
    def test_pareto_reduction(self):
        e = pareto_excesses(0.8, 50, 1)
        h = et.hill(e)
        for xi in (0.4, 0.8, 1.5):
            expected = -math.log(xi) - (1.0 / xi + 1.0) * h
            assert et.epd_log_likelihood(xi, 0.0, -1.0, e) == pytest.approx(expected)

    def test_hand_value(self):
        e = _excess_set([2.0, 4.0])
        assert et.epd_log_likelihood(1.0, 0.0, -1.0, e) == pytest.approx(-3.0 * math.log(2.0))

    def test_boundary_gives_sentinel(self):
        e = _excess_set([2.0, 4.0])
        assert et.epd_log_likelihood(1.0, -1.0, -1.0, e) == -math.inf
        assert et.epd_log_likelihood(-0.5, 0.0, -1.0, e) == -math.inf
        assert et.epd_log_likelihood(1.0, 0.0, 0.5, e) == -math.inf

    def test_matches_straightforward_form_bit_for_bit(self, burr_k200):
        e, tau, _ = burr_k200
        lo = et.delta_lower_bound(tau)
        for xi in (1e-300, 0.3, 0.8, 5.0, math.inf):
            for d in (lo - 0.1, lo, lo + 1e-12, -0.2, 0.0, 0.7, 9.0, 1e200):
                assert et.epd_log_likelihood(xi, d, tau, e) == oracle_epd_log_likelihood(
                    xi, d, tau, e), (xi, d)

    def test_malformed_excesses_raise(self):
        bad = et.ExcessSet.__new__(et.ExcessSet)
        object.__setattr__(bad, "y", np.array([0.5, 0.2]))
        object.__setattr__(bad, "k", 2)
        object.__setattr__(bad, "threshold", 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            et.epd_log_likelihood(1.0, 0.0, -1.0, bad)


class TestGradient:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng((21, seed))
        tau = -float(rng.uniform(0.3, 2.0))
        truth = et.EPDParams(
            xi=float(rng.uniform(0.3, 1.5)),
            delta=float(rng.uniform(-0.3, 0.8)),
            tau=tau,
        )
        y = np.sort(et.epd_sample(truth, 80, (22, seed)))[::-1]
        e = et.ExcessSet(y=y, k=80, threshold=1.0)
        xi = float(rng.uniform(0.4, 1.2))
        lo = et.delta_lower_bound(tau)
        delta = float(rng.uniform(max(lo + 0.2, -0.5), 1.0))
        _, g_xi, g_delta = _Likelihood(e, tau).value_and_grad(xi, delta)
        h = 1e-6
        fd_xi = (et.epd_log_likelihood(xi + h, delta, tau, e)
                 - et.epd_log_likelihood(xi - h, delta, tau, e)) / (2 * h)
        fd_delta = (et.epd_log_likelihood(xi, delta + h, tau, e)
                    - et.epd_log_likelihood(xi, delta - h, tau, e)) / (2 * h)
        assert g_xi == pytest.approx(fd_xi, rel=1e-6)
        assert g_delta == pytest.approx(fd_delta, rel=1e-6)


class TestMLFit:
    def test_pareto_data_recovers_pareto(self):
        # under the strict Pareto the fitted perturbation vanishes on average
        deltas, gaps = [], []
        for rep in range(30):
            e = pareto_excesses(1.0, 500, (31, rep))
            fit = et.epd_ml_fit(e, -1.0)
            deltas.append(fit.params.delta)
            gaps.append(fit.params.xi - et.hill(e))
        assert abs(np.mean(deltas)) < 0.1
        assert abs(np.mean(gaps)) < 0.1

    def test_recovers_known_parameters(self):
        truth = et.EPDParams(xi=0.5, delta=0.3, tau=-1.0)
        xis, deltas = [], []
        for rep in range(24):
            y = np.sort(et.epd_sample(truth, 2000, (37, rep)))[::-1]
            e = et.ExcessSet(y=y, k=2000, threshold=1.0)
            fit = et.epd_ml_fit(e, -1.0)
            xis.append(fit.params.xi)
            deltas.append(fit.params.delta)
        n = len(xis)
        assert abs(np.mean(xis) - 0.5) <= 3.0 * np.std(xis, ddof=1) / math.sqrt(n)
        assert abs(np.mean(deltas) - 0.3) <= 3.0 * np.std(deltas, ddof=1) / math.sqrt(n)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            et.epd_ml_fit(pareto_excesses(1.0, 5, 0), -1.0)

    def test_beats_pareto_start(self):
        for rep in range(5):
            e = pareto_excesses(0.6, 200, (41, rep))
            h = et.hill(e)
            fit = et.epd_ml_fit(e, -1.5)
            assert fit.loglik >= et.epd_log_likelihood(h, 0.0, -1.5, e) - 1e-9

    def test_depends_only_on_excesses(self, burr_dist):
        s = et.sample_distribution(burr_dist, 400, 3)
        scaled = et.SortedSample(2.0 * s.values)
        f1 = et.epd_ml_fit(et.excesses(s, 100), -1.0)
        f2 = et.epd_ml_fit(et.excesses(scaled, 100), -1.0)
        assert f1.params.xi == f2.params.xi
        assert f1.params.delta == f2.params.delta


class TestOneBlasThread:
    @pytest.fixture
    def threads(self):
        # a caller's count of 2, which the cap must lower to 1 and then restore
        api = epd._scipy_openblas()
        if api is None:
            pytest.skip("scipy's bundled OpenBLAS is not loaded")
        get, set_ = api
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_fit_runs_on_one_thread_and_restores_the_count(self, threads, monkeypatch):
        # the count seen by every call into the L-BFGS-B core
        seen = []
        setulb = epd._lbfgsb.setulb

        def spy(*args):
            seen.append(threads())
            return setulb(*args)

        monkeypatch.setattr(epd._lbfgsb, "setulb", spy)
        et.epd_ml_fit(pareto_excesses(1.0, 100, 0), -1.0)
        assert seen and set(seen) == {1}
        assert threads() == 2

    def test_count_restored_when_the_minimizer_raises(self, threads, monkeypatch):
        def boom(*args):
            raise RuntimeError("minimizer failed")

        monkeypatch.setattr(epd._lbfgsb, "setulb", boom)
        with pytest.raises(RuntimeError, match="minimizer failed"):
            et.epd_ml_fit(pareto_excesses(1.0, 100, 0), -1.0)
        assert threads() == 2

    def test_overlapping_caps_restore_when_the_last_one_leaves(self, threads):
        cap = epd._OneBlasThread()
        with cap:
            with cap:
                assert threads() == 1
            assert threads() == 1
        assert threads() == 2

    def test_concurrent_fits_leave_the_count_restored(self, threads):
        # more threads than cores, switching often, so that entries and exits interleave
        errors = []

        def work(rep):
            try:
                for j in range(10):
                    et.epd_ml_fit(pareto_excesses(1.0, 60, (rep, j)), -1.0)
            except Exception as exc:  # reported below, a thread cannot raise into the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(rep,)) for rep in range(6)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        assert threads() == 2

    def test_fits_without_the_library_are_the_same_bits(self, monkeypatch):
        # one repetition of the burr_fig2 design: its 65 thresholds and its rho estimate
        s = et.sample_distribution(et.burr(0.75, -0.75), 500, np.random.SeedSequence((202408, 0)))
        rho, _ = et.resolve_rho(s)

        def fits():
            out = []
            for k in range(90, 411, 5):
                e = et.excesses(s, k)
                out.append(repr(et.epd_ml_fit(e, et.tau_hat(rho, et.hill(e)))))
            return out

        capped = fits()
        monkeypatch.setattr(epd, "_scipy_openblas", lambda: None)
        assert fits() == capped


class TestQuantileAndSampling:
    def test_pareto_inverse(self):
        p = et.EPDParams(xi=0.5, delta=0.0, tau=-1.0)
        for q in (0.1, 0.5, 0.99):
            assert et.epd_quantile(p, q) == pytest.approx((1 - q) ** -0.5, rel=1e-10)

    def test_round_trip(self):
        p = et.EPDParams(xi=0.7, delta=-0.3, tau=-0.6)
        for q in (0.05, 0.5, 0.9, 0.999):
            assert et.epd_survival(p, et.epd_quantile(p, q)) == pytest.approx(1 - q, abs=1e-10)

    def test_inverse_of_hand_survival(self):
        p = et.EPDParams(xi=0.5, delta=0.1, tau=-1.0)
        q = 1.0 - (2.0 * 1.05) ** -2
        assert et.epd_quantile(p, q) == pytest.approx(2.0, rel=1e-9)

    def test_bad_q_rejected(self):
        p = et.EPDParams(xi=0.5, delta=0.1, tau=-1.0)
        with pytest.raises(ValueError):
            et.epd_quantile(p, 1.0)

    def test_deterministic(self):
        p = et.EPDParams(xi=0.5, delta=0.2, tau=-1.0)
        assert np.array_equal(et.epd_sample(p, 100, 9), et.epd_sample(p, 100, 9))

    def test_ks_against_pareto_when_delta_zero(self):
        p = et.EPDParams(xi=0.5, delta=0.0, tau=-1.0)
        draws = et.epd_sample(p, 10_000, 13)
        res = kstest(draws, lambda v: 1.0 - np.asarray(v) ** -2.0)
        assert res.pvalue > 0.01

    def test_ks_against_own_survival(self):
        p = et.EPDParams(xi=0.5, delta=0.3, tau=-1.0)
        draws = et.epd_sample(p, 10_000, 17)
        res = kstest(draws, lambda v: 1.0 - np.atleast_1d(et.epd_survival(p, v)))
        assert res.pvalue > 0.01


class TestTailProb:
    def _sample(self):
        return et.SortedSample(np.arange(1.0, 101.0))

    def test_at_threshold(self):
        p = et.EPDParams(xi=0.5, delta=0.3, tau=-1.0)
        assert et.epd_tail_prob(self._sample(), 10, 90.0, p) == pytest.approx(0.1)

    def test_reduces_to_weissman(self):
        p = et.EPDParams(xi=0.5, delta=0.0, tau=-1.0)
        s = self._sample()
        assert et.epd_tail_prob(s, 10, 360.0, p) == et.weissman_tail_prob(s, 10, 360.0, 0.5)

    def test_hand_value(self):
        # k/n = 0.1, x/threshold = 2 -> 0.1 * survival(2)
        p = et.EPDParams(xi=0.5, delta=0.1, tau=-1.0)
        assert et.epd_tail_prob(self._sample(), 10, 180.0, p) == pytest.approx(
            0.1 * (2.0 * 1.05) ** -2
        )

    def test_below_threshold_rejected(self):
        p = et.EPDParams(xi=0.5, delta=0.1, tau=-1.0)
        with pytest.raises(ValueError, match="below the threshold"):
            et.epd_tail_prob(self._sample(), 10, 50.0, p)
