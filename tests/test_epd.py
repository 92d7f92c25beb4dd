from __future__ import annotations

import math
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import expit, logit
from scipy.stats import kstest

import epdtail as et
from epdtail import epd, simulate
from conftest import pareto_excesses
from epdtail.data import excess_matrix
from epdtail.epd import _tail_probs
from oracles import epd_quantile, epd_sample, loglik, loglik_value_and_grad, oracle_epd_log_likelihood, stack


def _y(values):
    return np.sort(np.asarray(values, dtype=float))[::-1].copy()


def _survival(y, xi, delta, tau):
    """The model's survival at each y >= 1, ``_tail_probs`` at level 1 with one lane per y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return _tail_probs(1.0, y, np.full(y.size, tau), np.full((y.size, 1), xi), np.full((y.size, 1), delta))[:, 0]


def _epd_excesses(xi, delta, tau, count, seed):
    return np.sort(epd_sample(xi, delta, tau, count, seed))[::-1].copy()


class TestParams:
    def test_validation(self):
        # the model's region, xi > 0, tau < 0 and delta > max(-1, 1/tau), as the likelihood stack reads it
        lik = stack([(_y([2.0, 4.0]), -1.0)])
        assert loglik_value_and_grad(lik, 0.5, 0.1) is not None
        assert loglik_value_and_grad(lik, 0.0, 0.1) is None
        assert loglik_value_and_grad(lik, 0.5, -1.0) is None
        # a lane without a negative rho has no tau: the gate of estimate_cells fails every estimator
        cells = et.estimate_cells(np.sort(pareto_excesses(0.5, 50, 0))[None], [0.0], [(0,)], 20, simulate.ESTIMATORS)
        assert cells.errors == [dict.fromkeys(simulate.ESTIMATORS, "ValueError")] and np.isnan(cells.tau[0])

    def test_delta_lower_bound(self):
        assert et.delta_lower_bound(-2.0) == -0.5
        assert et.delta_lower_bound(-0.5) == -1.0

    @pytest.mark.parametrize("tau", [-math.inf, math.nan, 0.0])
    def test_a_tau_outside_the_negative_reals_is_a_value_error(self, tau, monkeypatch):
        # 1/tau is -0.0 at tau = -inf: a bound of -0.0 sent the ML fit's start to log(0). The
        # gate of estimate_cells sends no such lane to the stack: tau = rho / Hill is -inf where
        # rho = -1.7e308 and Hill is below 0.9, NaN where rho is, and -0.0 where rho = -5e-324 and
        # Hill is above 2, which rounds it to 0. Hill runs at a tau of -0.0 alone
        with pytest.raises(ValueError, match="tau must be negative and finite"):
            et.delta_lower_bound(tau)
        rho, xi = {-math.inf: (-1.7e308, 0.5), 0.0: (-5e-324, 4.0)}.get(tau, (math.nan, 0.5))
        values = np.sort(pareto_excesses(xi, 50, 0))[None]
        monkeypatch.setattr(simulate, "_Likelihood", None)  # no stack is built
        cells = et.estimate_cells(values, [rho], [(0,)], 20, simulate.ESTIMATORS,
                                  mcmc=et.MCMCConfig(iterations=20, burn_in=10))
        bad = ("epd_ml", "bayes_closed", "bayes_mcmc") if tau == 0.0 else simulate.ESTIMATORS
        assert cells.errors == [dict.fromkeys(bad, "ValueError")]
        assert (cells.tau[0] == 0.0) if tau == 0.0 else np.isnan(cells.tau[0])
        assert np.isfinite(cells.estimates[0, 0, :2]).all() == (tau == 0.0)


class TestSurvival:
    @pytest.mark.parametrize("xi", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("y", [1.0, 1.5, 2.0, 10.0, 100.0])
    def test_pareto_reduction(self, xi, y):
        assert abs(_survival(y, xi, 0.0, -1.0)[0] - y ** (-1.0 / xi)) <= 1e-12

    def test_left_endpoint(self):
        assert _survival(1.0, 0.5, 0.3, -1.0)[0] == 1.0

    def test_hand_value(self):
        assert _survival(2.0, 0.5, 0.1, -1.0)[0] == pytest.approx((2.0 * 1.05) ** -2, abs=1e-12)

    def test_strictly_decreasing_to_zero(self):
        vals = _survival(np.linspace(1.0, 500.0, 300), 0.7, -0.4, -0.8)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-3

    def test_below_support_rejected(self):
        # the survival is read at x / threshold >= 1 only: an x below the threshold gives no probability
        cells = et.estimate_cells(np.arange(1.0, 101.0)[None], [-1.0], [(0,)], 10, ("bayes_closed",), 50.0)
        assert np.isfinite(cells.estimates[0, 0, :2]).all() and np.isnan(cells.estimates[0, 0, 2])


class TestLogLikelihood:
    def test_pareto_reduction(self):
        y = pareto_excesses(0.8, 50, 1)
        h = float(np.add.reduce(np.log(y))) / y.size
        for xi in (0.4, 0.8, 1.5):
            expected = -math.log(xi) - (1.0 / xi + 1.0) * h
            assert loglik(stack([(y, -1.0)]), xi, 0.0) == pytest.approx(expected)

    def test_hand_value(self):
        assert loglik(stack([(_y([2.0, 4.0]), -1.0)]), 1.0, 0.0) == pytest.approx(-3.0 * math.log(2.0))

    def test_boundary_gives_sentinel(self):
        y = _y([2.0, 4.0])
        assert loglik(stack([(y, -1.0)]), 1.0, -1.0) == -math.inf
        assert loglik(stack([(y, -1.0)]), -0.5, 0.0) == -math.inf

    def test_matches_straightforward_form_bit_for_bit(self, burr_k200):
        y, tau, _ = burr_k200
        lik = stack([(y, tau)])
        lo = et.delta_lower_bound(tau)
        for xi in (1e-300, 0.3, 0.8, 5.0, math.inf):
            for d in (lo - 0.1, lo, lo + 1e-12, -0.2, 0.0, 0.7, 9.0, 1e200):
                assert loglik(lik, xi, d) == oracle_epd_log_likelihood(xi, d, tau, y), (xi, d)

    def test_malformed_excesses_raise(self):
        # the excesses of a likelihood stack come from excess_matrix, which checks them: a sample
        # that is not sorted has excesses below 1
        with pytest.raises(ValueError, match=">= 1"):
            et.estimate_cells(np.array([[1.0, 4.0, 2.0, 3.0]]), [-1.0], [(0,)], 2, ("epd_ml",))


class TestGradient:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng((21, seed))
        tau = -float(rng.uniform(0.3, 2.0))
        truth = float(rng.uniform(0.3, 1.5)), float(rng.uniform(-0.3, 0.8))
        lik = stack([(_epd_excesses(*truth, tau, 80, (22, seed)), tau)])
        xi = float(rng.uniform(0.4, 1.2))
        lo = et.delta_lower_bound(tau)
        delta = float(rng.uniform(max(lo + 0.2, -0.5), 1.0))
        _, g_xi, g_delta = loglik_value_and_grad(lik, xi, delta)
        h = 1e-6
        fd_xi = (loglik(lik, xi + h, delta) - loglik(lik, xi - h, delta)) / (2 * h)
        fd_delta = (loglik(lik, xi, delta + h) - loglik(lik, xi, delta - h)) / (2 * h)
        assert g_xi == pytest.approx(fd_xi, rel=1e-6)
        assert g_delta == pytest.approx(fd_delta, rel=1e-6)


class TestMLFit:
    def test_pareto_data_recovers_pareto(self):
        # under the strict Pareto the fitted perturbation vanishes on average
        lik = stack([(pareto_excesses(1.0, 500, (31, rep)), -1.0) for rep in range(30)])
        fits = np.array([fit[:2] for fit in epd.epd_ml_fits(lik)])
        assert abs(np.mean(fits[:, 1])) < 0.1
        assert abs(np.mean(fits[:, 0] - lik.sum_log_y / lik.k)) < 0.1

    def test_recovers_known_parameters(self):
        lik = stack([(_epd_excesses(0.5, 0.3, -1.0, 2000, (37, rep)), -1.0) for rep in range(24)])
        xis, deltas = np.array([fit[:2] for fit in epd.epd_ml_fits(lik)]).T
        n = len(xis)
        assert abs(np.mean(xis) - 0.5) <= 3.0 * np.std(xis, ddof=1) / math.sqrt(n)
        assert abs(np.mean(deltas) - 0.3) <= 3.0 * np.std(deltas, ddof=1) / math.sqrt(n)

    def test_small_k_rejected(self):
        # below 10 excesses the gate of estimate_cells fails the ML fit, and Hill runs
        values = np.sort(np.r_[1.0, pareto_excesses(1.0, 29, 0)])[None]
        for k, errors in ((9, [{"epd_ml": "ValueError"}]), (10, [{}])):
            cells = et.estimate_cells(values, [-1.0], [(0,)], k, ("hill", "epd_ml"))
            assert cells.errors == errors and cells.estimates[0, 0, :2].tolist() == [cells.hill[0], 0.0]
            assert np.isfinite(cells.estimates[0, 1, :2]).all() == (k == 10)

    def test_beats_pareto_start(self):
        for rep in range(5):
            lik = stack([(pareto_excesses(0.6, 200, (41, rep)), -1.5)])
            (fit,) = epd.epd_ml_fits(lik)
            assert fit[2] >= loglik(lik, float(lik.sum_log_y[0]) / lik.k, 0.0) - 1e-9

    def test_depends_only_on_excesses(self, burr_dist):
        s = et.sample_distribution(burr_dist, 400, 3)
        cells = et.estimate_cells(np.array([s.values, 2.0 * s.values]), [-1.0, -1.0], [(0,), (1,)], 100,
                                  ("epd_ml",))
        assert cells.estimates[0, 0, :2].tobytes() == cells.estimates[1, 0, :2].tobytes()


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
        epd.epd_ml_fits(stack([(pareto_excesses(1.0, 100, 0), -1.0)]))
        assert seen and set(seen) == {1}
        assert threads() == 2

    def test_count_restored_when_the_minimizer_raises(self, threads, monkeypatch):
        def boom(*args):
            raise RuntimeError("minimizer failed")

        monkeypatch.setattr(epd._lbfgsb, "setulb", boom)
        with pytest.raises(RuntimeError, match="minimizer failed"):
            epd.epd_ml_fits(stack([(pareto_excesses(1.0, 100, 0), -1.0)]))
        assert threads() == 2

    def test_lockstep_fits_enter_the_cap_once_and_run_on_one_thread(self, threads, monkeypatch):
        seen, entries = [], []
        setulb = epd._lbfgsb.setulb
        cap = epd._ONE_BLAS_THREAD

        def spy(*args):
            seen.append(threads())
            return setulb(*args)

        class CountingCap:
            def __enter__(self):
                entries.append(threads())
                return cap.__enter__()

            def __exit__(self, *exc):
                return cap.__exit__(*exc)

        monkeypatch.setattr(epd._lbfgsb, "setulb", spy)
        monkeypatch.setattr(epd, "_ONE_BLAS_THREAD", CountingCap())
        fits = epd.epd_ml_fits(stack([(pareto_excesses(1.0, 100, (0, j)), -1.0) for j in range(8)]))
        assert not any(isinstance(fit, Exception) for fit in fits)
        assert entries == [2]
        assert len(seen) > 8 and set(seen) == {1}
        assert threads() == 2

    def test_count_restored_when_a_lane_of_a_lockstep_fit_raises(self, threads, monkeypatch):
        # the core fails on its 20th call, a few rounds into the fit of 8 lanes
        calls = []
        setulb = epd._lbfgsb.setulb

        def failing(*args):
            calls.append(threads())
            if len(calls) == 20:
                raise RuntimeError("minimizer failed")
            return setulb(*args)

        monkeypatch.setattr(epd._lbfgsb, "setulb", failing)
        with pytest.raises(RuntimeError, match="minimizer failed"):
            epd.epd_ml_fits(stack([(pareto_excesses(1.0, 100, (0, j)), -1.0) for j in range(8)]))
        assert len(calls) == 20 and set(calls) == {1}
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
                    epd.epd_ml_fits(stack([(pareto_excesses(1.0, 60, (rep, j)), -1.0)]))
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
        lanes = [(excess_matrix(s.values[None], k)[1][0],
                  float(et.estimate_cells(s.values[None], [rho], [(0,)], k, ("hill",)).tau[0]))
                 for k in range(90, 411, 5)]

        def fits():
            return [repr(epd.epd_ml_fits(stack([lane]))) for lane in lanes]

        capped = fits()
        monkeypatch.setattr(epd, "_scipy_openblas", lambda: None)
        assert fits() == capped


def _fresh(code: str) -> str:
    """The last line that ``code`` prints in a fresh interpreter that imports from ``src``."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(et.__file__).parent.parent,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


class TestCoreLoader:
    """``epd._load_lbfgsb`` loads scipy's compiled L-BFGS-B core alone, and one copy of it."""

    @pytest.mark.parametrize("first, second", [("epdtail", "scipy.optimize"), ("scipy.optimize", "epdtail")])
    def test_one_copy_whichever_is_imported_first(self, first, second):
        # scipy's own L-BFGS-B driver calls the module that the fit calls; the test session
        # imports epdtail first, so test_ml_fit_matches_oracle runs scipy's minimize on it
        code = (f"import sys, {first}, {second}; from epdtail import epd; import scipy.optimize._lbfgsb_py as py; "
                "print(epd._lbfgsb is sys.modules['scipy.optimize._lbfgsb'] is py._lbfgsb)")
        assert _fresh(code) == "True"

    def test_a_registered_core_is_reused(self, monkeypatch):
        core = object()
        monkeypatch.setitem(sys.modules, "scipy.optimize._lbfgsb", core)
        assert epd._load_lbfgsb() is core

    def test_a_missing_core_names_its_directory(self, monkeypatch, tmp_path):
        (tmp_path / "scipy" / "optimize").mkdir(parents=True)
        monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb")
        monkeypatch.setattr(epd, "_SCIPY_DIR", tmp_path / "scipy")
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "scipy" / "optimize"))):
            epd._load_lbfgsb()
        assert "scipy.optimize._lbfgsb" not in sys.modules

    def test_the_blas_cap_finds_the_library_without_scipy_linalg(self):
        # the core links scipy's bundled OpenBLAS, so the cap finds it in a lean process too
        if not list((Path(scipy.__file__).parent.parent / "scipy.libs").glob("*scipy_openblas*")):
            pytest.skip("this scipy bundles no OpenBLAS")
        code = ("import sys, epdtail; from epdtail import epd; api = epd._scipy_openblas(); "
                "print(api is not None and api[0]() >= 1, 'scipy.linalg' in sys.modules)")
        assert _fresh(code) == "True False"


@given(st.one_of(st.floats(-50.0, 50.0), st.floats(allow_nan=True, allow_infinity=True)))
@example(-709.78)
@example(-709.8)
@example(-745.2)
@example(40.0)
@example(-40.0)
def test_expit_is_scipys_to_the_bit(v):
    # the fit maps its second coordinate to delta through this sigmoid; an
    # overflow of exp(-v) must give scipy's 0, not raise
    assert repr(epd._expit(v)) == repr(float(expit(v)))


@given(st.floats(-1e6, -1e-6))
@example(-1.0)
@example(-1.0 - 2.0 ** -52)
def test_lane_start_is_scipys_logit_to_the_bit(tau):
    # the fit starts at delta = 0, mapped through log(p / (1 - p)); scipy's logit
    # takes another route for p in [0.3, 0.65], but p = -lo / (DELTA_MAX - lo) is at most 1/11.
    # The start is the x of the first call into the L-BFGS-B core
    starts = []
    setulb = epd._lbfgsb.setulb

    def spy(m, x, *rest):
        if not starts:
            starts.append(float(x[1]))
        return setulb(m, x, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epd._lbfgsb, "setulb", spy)
        epd.epd_ml_fits(stack([(pareto_excesses(1.0, 20, 0), tau)]))
    lo = et.delta_lower_bound(tau)
    assert repr(starts[0]) == repr(float(logit((0.0 - lo) / (epd.DELTA_MAX - lo))))


class TestQuantileAndSampling:
    """The test sampler of ``tests/oracles.py`` against the library's survival, ``_tail_probs``."""

    def test_pareto_inverse(self):
        for q in (0.1, 0.5, 0.99):
            assert epd_quantile(0.5, 0.0, -1.0, q) == pytest.approx((1 - q) ** -0.5, rel=1e-10)

    def test_round_trip(self):
        for q in (0.05, 0.5, 0.9, 0.999):
            assert _survival(epd_quantile(0.7, -0.3, -0.6, q), 0.7, -0.3, -0.6)[0] == pytest.approx(1 - q, abs=1e-10)

    @pytest.mark.parametrize("tau, delta", [(-1.0, -1.0 + 1e-12), (-1.0, -1.0 + 1e-6), (-1.0, 0.3),
                                            (-0.5, -1.0 + 1e-9), (-2.0, -0.5 + 1e-9)])
    @pytest.mark.parametrize("xi", [0.25, 1.0])
    def test_round_trip_to_the_bisection_width(self, tau, delta, xi):
        # The bisection stops at relative width 1e-13, so the quantile y lies within 5e-14 of where
        # the survival's own base, y*(1 + delta*(1 - y**tau)), crosses (1 - q)**(-xi). That base
        # moves with y at a log-slope of at most 1 + max(delta, 0)*|tau|, and the survival is its
        # power -1/xi; each of the two powers rounds by up to 2 eps. An ulp of 1 - q is at least
        # 2**-53 of it.
        eps = 2.0 ** -52
        slope = 1.0 + max(delta, 0.0) * -tau
        ulps = ((slope * 5e-14 + 2 * eps) / xi + 2 * eps) / 2.0 ** -53
        for q in (1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999):
            got = _survival(epd_quantile(xi, delta, tau, q), xi, delta, tau)[0]
            assert abs(got - (1.0 - q)) <= ulps * np.spacing(1.0 - q), (q, got)

    def test_inverse_of_hand_survival(self):
        q = 1.0 - (2.0 * 1.05) ** -2
        assert epd_quantile(0.5, 0.1, -1.0, q) == pytest.approx(2.0, rel=1e-9)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            epd_quantile(0.5, 0.1, -1.0, 1.0)

    def test_deterministic(self):
        assert np.array_equal(epd_sample(0.5, 0.2, -1.0, 100, 9), epd_sample(0.5, 0.2, -1.0, 100, 9))

    def test_ks_against_pareto_when_delta_zero(self):
        draws = epd_sample(0.5, 0.0, -1.0, 10_000, 13)
        res = kstest(draws, lambda v: 1.0 - np.asarray(v) ** -2.0)
        assert res.pvalue > 0.01

    def test_ks_against_own_survival(self):
        draws = epd_sample(0.5, 0.3, -1.0, 10_000, 17)
        res = kstest(draws, lambda v: 1.0 - _survival(v, 0.5, 0.3, -1.0))
        assert res.pvalue > 0.01


class TestTailProb:
    """``level`` times the survival at z = x / threshold: with k/n = 10/100, the tail probability."""

    def test_at_threshold(self):
        assert _tail_probs(0.1, np.array([1.0]), np.array([-1.0]), np.array([[0.5]]), np.array([[0.3]]))[0, 0] == 0.1

    def test_reduces_to_weissman(self):
        # at delta = 0 the value is Weissman's, whatever tau
        got = _tail_probs(0.1, np.array([4.0, 4.0]), np.array([-1.0, -3.7]), np.full((2, 1), 0.5), np.zeros((2, 1)))
        assert got[:, 0].tolist() == [0.1 * 4.0 ** -2.0] * 2

    def test_hand_value(self):
        # k/n = 0.1, x/threshold = 2 -> 0.1 * survival(2)
        got = _tail_probs(0.1, np.array([2.0]), np.array([-1.0]), np.array([[0.5]]), np.array([[0.1]]))[0, 0]
        assert got == pytest.approx(0.1 * (2.0 * 1.05) ** -2)

    def test_below_threshold_rejected(self):
        cells = et.estimate_cells(np.arange(1.0, 101.0)[None], [-1.0], [(0,)], 10, ("epd_ml",), 50.0)
        assert np.isfinite(cells.estimates[0, 0, :2]).all() and np.isnan(cells.estimates[0, 0, 2])
