from __future__ import annotations

import concurrent.futures
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

import epdtail as et
import epdtail.simulate as sim
from oracles import law_survival


class TestDistributions:
    def test_frechet_quantile_hand_value(self, frechet_dist):
        q = et.true_quantile(frechet_dist, 1 - 1 / 500)
        assert q == pytest.approx((-math.log(1 - 1 / 500)) ** -0.5, rel=1e-12)
        assert q == pytest.approx(22.35, abs=0.01)

    def test_burr_quantile_hand_value(self, burr_dist):
        assert et.true_quantile(burr_dist, 1 - 1 / 500) == pytest.approx(
            500 ** 0.75 - 1.0, rel=1e-12
        )

    def test_loggamma_quantile_round_trip(self):
        # (0.5, 3) at p = 1e-6: the quantile lies within 3e-13 of 1, where
        # the survival falls steeply
        for d, p in [(et.loggamma(), 0.5), (et.loggamma(), 0.99),
                     (et.loggamma(), 1 - 1 / 500), (et.loggamma(0.5, 3.0), 1e-6)]:
            q = et.true_quantile(d, p)
            assert law_survival(d, q) == pytest.approx(1 - p, abs=1e-10)

    @pytest.mark.parametrize("dist, message", [
        # (-log p)**-1000 is inf, and so is exp(z / rate) at rate 1e-300
        (et.frechet(1000.0), "the frechet(1000.0) quantile at p = 0.998 overflows a float"),
        (et.loggamma(4.0, 1e-300), "the loggamma(4.0, 1e-300) quantile at p = 0.998 overflows a float"),
        # (s**rho - 1)**3e5 is below the subnormals
        (et.burr(300.0, -0.001), "the burr(300.0, -0.001) quantile at p = 0.998 underflows to 0"),
    ])
    def test_a_quantile_that_is_not_a_positive_finite_float_is_an_arithmetic_error(self, dist, message):
        with pytest.raises(OverflowError) as info:
            et.true_quantile(dist, 0.998)
        assert str(info.value) == message

    def test_quantile_domain(self, frechet_dist):
        with pytest.raises(ValueError):
            et.true_quantile(frechet_dist, 0.0)
        with pytest.raises(ValueError):
            et.true_quantile(frechet_dist, 1.0)

    def test_survival_matches_quantile(self, burr_dist):
        for p in (0.1, 0.9, 0.999):
            assert law_survival(burr_dist, et.true_quantile(burr_dist, p)) == pytest.approx(
                1 - p, rel=1e-10
            )

    def test_loggamma_tail_index(self):
        d = et.loggamma(4.0, 2.0)
        assert d.true_xi == 0.5
        assert d.true_rho == 0.0


class TestSampling:
    def test_deterministic(self, burr_dist):
        a = et.sample_distribution(burr_dist, 100, 7)
        b = et.sample_distribution(burr_dist, 100, 7)
        assert np.array_equal(a.values, b.values)

    def test_ks_frechet(self, frechet_dist):
        draws = et.sample_distribution(frechet_dist, 10_000, 3).values
        res = kstest(draws, lambda v: 1.0 - np.atleast_1d(law_survival(frechet_dist, v)))
        assert res.pvalue > 0.01

    def test_ks_burr(self, burr_dist):
        draws = et.sample_distribution(burr_dist, 10_000, 5).values
        res = kstest(draws, lambda v: 1.0 - (1.0 + np.asarray(v)) ** (-4.0 / 3.0))
        assert res.pvalue > 0.01

    def test_ks_loggamma(self):
        d = et.loggamma()
        draws = et.sample_distribution(d, 10_000, 11).values
        res = kstest(draws, lambda v: 1.0 - np.atleast_1d(law_survival(d, v)))
        assert res.pvalue > 0.01

    def test_all_positive(self, frechet_dist):
        assert et.sample_distribution(frechet_dist, 5000, 1).values.min() > 0

    def test_overflowing_draws_are_an_arithmetic_error(self):
        # exp(gamma / rate) is inf for a tiny rate; a study reports that as a numerical failure
        with pytest.raises(OverflowError, match="overflows"):
            et.sample_distribution(et.loggamma(4.0, 1e-308), 60, 0)

    @pytest.mark.parametrize("dist, how", [
        (et.frechet(1000.0), "overflows a float"),  # (-log u)**-1000 is inf for u above 1/e
        (et.burr(0.5, -1e-300), "underflows to 0"),  # s**rho rounds to 1, and 0**(-xi/rho) is 0
        (et.burr(300.0, -0.001), "underflows to 0"),  # (s**rho - 1)**3e5 is below the subnormals
    ])
    def test_draws_that_are_not_positive_finite_floats_are_an_arithmetic_error(self, dist, how):
        with pytest.raises(OverflowError, match=f"a {dist.kind}.* draw {how}"):
            et.sample_distribution(dist, 60, 0)


class TestConfig:
    def test_defaults_resolve_k_grid(self, burr_dist):
        cfg = et.MCStudyConfig(dist=burr_dist, n=100)
        assert cfg.resolved_k_grid() == tuple(range(10, 91, 5))

    def test_rejects_bad_values(self, burr_dist):
        with pytest.raises(ValueError):
            et.MCStudyConfig(dist=burr_dist, reps=0)
        with pytest.raises(ValueError):
            et.MCStudyConfig(dist=burr_dist, estimators=("hill", "pickands"))
        with pytest.raises(ValueError):
            et.MCStudyConfig(dist=burr_dist, k_grid=(5,))
        # only None selects the default grid; an empty range must not fall through to it
        with pytest.raises(ValueError, match="bad k grid"):
            et.MCStudyConfig(dist=burr_dist, k_grid=tuple(range(60, 50, 5)))
        with pytest.raises(ValueError):
            et.MCStudyConfig(dist=burr_dist, smooth_window=4)
        with pytest.raises(ValueError):
            et.MCStudyConfig(dist=burr_dist, rho_mode="oracle")
        # a chain with no draws left after burn-in, by the rule of MCMCConfig
        with pytest.raises(ValueError, match="need iterations > burn_in"):
            et.MCStudyConfig(dist=burr_dist, mcmc_iterations=100, mcmc_burn_in=200)
        with pytest.raises(ValueError, match="master_seed"):
            et.MCStudyConfig(dist=burr_dist, master_seed=-1)

    def test_a_chain_needs_two_draws_after_burn_in(self, burr_dist):
        # one retained draw has an acceptance rate of 0 or 1, so every chain of the study would be
        # degenerate; the rule binds only where the chain runs
        with pytest.raises(ValueError, match="^bayes_mcmc needs 2 draws after burn-in, got 1$"):
            et.MCStudyConfig(dist=burr_dist, estimators=("hill", "bayes_mcmc"), mcmc_iterations=1001,
                             mcmc_burn_in=1000)
        et.MCStudyConfig(dist=burr_dist, estimators=("hill", "bayes_mcmc"), mcmc_iterations=1002,
                         mcmc_burn_in=1000)
        et.MCStudyConfig(dist=burr_dist, estimators=("hill", "bayes_closed"), mcmc_iterations=1001,
                         mcmc_burn_in=1000)

    def test_rejects_an_estimator_named_twice(self, burr_dist):
        # the cells keep estimates by name, so a second "hill" would be fitted and counted twice
        with pytest.raises(ValueError, match="named twice"):
            et.MCStudyConfig(dist=burr_dist, estimators=("hill", "epd_ml", "hill"))

    @pytest.mark.parametrize("target_p", [5e-17, 1e-320, 2.0 ** -54])
    def test_rejects_target_p_whose_complement_rounds_to_one(self, burr_dist, target_p):
        # the true quantile is taken at 1 - target_p, which must lie in (0, 1)
        assert 1.0 - target_p == 1.0
        with pytest.raises(ValueError, match="target_p"):
            et.MCStudyConfig(dist=burr_dist, target_p=target_p)
        et.MCStudyConfig(dist=burr_dist, target_p=2.0 ** -53)


def _small_cfg(dist, **kw):
    base = dict(
        dist=dist, n=200, reps=6, k_grid=(20, 40, 60),
        estimators=("hill", "epd_ml", "bayes_closed"),
        rho_mode="fixed_minus_one", target_p=0.01, master_seed=42,
        smooth_window=5,
    )
    base.update(kw)
    return et.MCStudyConfig(**base)


class TestRunStudy:
    def test_single_rep_zero_variance(self, frechet_dist):
        res = et.run_study(_small_cfg(frechet_dist, reps=1))
        for m in res.metrics.values():
            assert np.allclose(m.variance[np.isfinite(m.variance)], 0.0)
            assert np.allclose(m.rel_variance[np.isfinite(m.rel_variance)], 0.0)

    def test_deterministic_and_worker_independent(self, burr_dist):
        cfg = _small_cfg(burr_dist)
        r1 = et.run_study(cfg, workers=1)
        r2 = et.run_study(cfg, workers=1)
        r3 = et.run_study(cfg, workers=2)
        for name in cfg.estimators:
            for field in ("bias", "variance", "mse", "rel_bias", "rel_variance", "rel_mse"):
                a = getattr(r1.metrics[name], field)
                b = getattr(r2.metrics[name], field)
                c = getattr(r3.metrics[name], field)
                assert np.array_equal(a, b, equal_nan=True)
                assert np.array_equal(a, c, equal_nan=True)

    @pytest.mark.parametrize("reps, workers, started", [(2, 5000, 1), (16, 2, 2), (17, 5, 3)])
    def test_pool_starts_at_most_one_process_per_chunk(self, frechet_dist, monkeypatch,
                                                        reps, workers, started):
        # the pool hands out chunks of at least 8 replications (here exactly 8,
        # as reps / workers is at most 8), so a process past one per chunk has
        # no work; this fake pool records its size and starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunks = list(chunks)
                assert [len(c) for c in chunks[:-1]] == [8] * (len(chunks) - 1)
                assert 1 <= len(chunks[-1]) <= 8
                return map(fn, chunks)

        cfg = _small_cfg(frechet_dist, reps=reps, estimators=("hill",))
        serial = et.run_study(cfg, workers=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # run_study imports it there
        pooled = et.run_study(cfg, workers=workers)
        assert sizes == [started]
        assert np.array_equal(pooled.metrics["hill"].mse, serial.metrics["hill"].mse,
                              equal_nan=True)

    @pytest.mark.parametrize("reps, workers, size", [(1, 1, 8), (5, 2, 8), (33, 1, 33), (40, 2, 20),
                                                     (200, 1, 100), (200, 16, 13), (1000, 1, 125)])
    def test_chunk_size_rule(self, reps, workers, size):
        # at n = 500, the n of both bundled designs, a chunk holds up to 128 replications
        assert sim._chunk_size(reps, workers, 500) == size

    @pytest.mark.parametrize("reps, n, size, chunks", [
        (129, 512, 65, 2),  # 2**16 // n is 128 up to n = 512
        (200, 1000, 50, 4),  # and 65 at n = 1 000
        (200, 2048, 29, 7), (200, 10_000, 29, 7), (33, 10_000, 17, 2),  # 32 from n = 2 048 on
    ])
    def test_chunk_cap_falls_with_n(self, reps, n, size, chunks):
        assert sim._chunk_size(reps, 1, n) == size
        assert math.ceil(reps / size) == chunks

    @pytest.mark.parametrize("reps", [1, 5, 33, 40])
    def test_metrics_do_not_depend_on_chunks_or_workers(self, burr_dist, monkeypatch, reps):
        # chunks of one replication run every fit alone, as a study did before
        # the fits ran in lockstep; the module rule and chunks of 3 must agree
        # with that bit for bit, serial and pooled
        cfg = _small_cfg(burr_dist, reps=reps)
        with monkeypatch.context() as m:
            m.setattr(sim, "_CHUNK_MIN", 1)
            m.setattr(sim, "_CHUNK_MAX", 1)
            alone = et.run_study(cfg)
        for size in (None, 3):
            with monkeypatch.context() as m:
                if size:
                    m.setattr(sim, "_CHUNK_MIN", size)
                    m.setattr(sim, "_CHUNK_MAX", size)
                for workers in (1, 2):
                    res = et.run_study(cfg, workers=workers)
                    assert res.exclusion_fraction == alone.exclusion_fraction
                    for name in cfg.estimators:
                        for field in ("bias", "variance", "mse", "rel_bias", "rel_variance",
                                      "rel_mse", "excluded"):
                            assert np.array_equal(getattr(res.metrics[name], field),
                                                  getattr(alone.metrics[name], field),
                                                  equal_nan=True), (size, workers, name, field)

    def test_mse_identity(self, burr_dist):
        res = et.run_study(_small_cfg(burr_dist))
        for m in res.metrics.values():
            good = np.isfinite(m.mse)
            assert np.all(np.abs(m.mse - (m.bias ** 2 + m.variance))[good] <= 1e-12)
            assert np.all(
                np.abs(m.rel_mse - (m.rel_bias ** 2 + m.rel_variance))[good] <= 1e-12
            )

    @pytest.mark.parametrize("reps", [1, 7, 200, 333])
    def test_moments_are_numpys_along_the_replications(self, reps):
        # (estimators x k x reps) values: cell (0, 0) has no failure, (0, 1) only failures, and
        # the others drop about a third of their replications
        rng = np.random.default_rng(reps)
        values = 3.0 + rng.standard_normal((2, 3, reps)) * rng.uniform(1e-3, 1e3, (2, 3, 1))
        ok = rng.random(values.shape) > 0.35
        ok[0, 0], ok[0, 1], ok[1, :, 0] = True, False, True
        values[~ok] = np.nan
        bias, var, mse = sim._moments(values, ok, 0.5)
        assert (bias[0, 0], var[0, 0]) == (np.mean(values[0, 0]) - 0.5, np.var(values[0, 0]))
        assert mse[0, 0] == bias[0, 0] ** 2 + var[0, 0]
        assert np.isnan([bias[0, 1], var[0, 1], mse[0, 1]]).all()
        # Where some failed, the zeros in place of the failures change only the pairwise
        # summation tree. numpy sums up to 128 values in 8 running sums and pairs the blocks
        # beyond, so each sum is within (reps/8 + log2(reps) + 4) eps of the sum of |x|, and
        # the two means within twice that over the count of each other. The variances are then
        # sums of squared deviations from means that differ by that move: they differ by the
        # square of the move, twice the sum's rounding, and 4 eps for the rounded deviations.
        eps = np.finfo(float).eps
        gamma = 2 * (reps / 8 + math.log2(reps) + 4) * eps
        for e, j in zip(*np.nonzero(ok.any(axis=-1))):
            x = values[e, j][ok[e, j]]
            move = gamma * np.mean(abs(x))
            assert abs(bias[e, j] + 0.5 - np.mean(x)) <= move
            assert abs(var[e, j] - np.var(x)) <= (gamma + 4 * eps) * np.var(x) + move ** 2

    def test_hill_cells_match_direct_recomputation(self, frechet_dist):
        cfg = _small_cfg(frechet_dist, estimators=("hill",), smooth_window=0)
        res = et.run_study(cfg)
        for j, k in enumerate(res.k_grid):
            xis = []
            for rep in range(cfg.reps):
                s = et.sample_distribution(cfg.dist, cfg.n,
                                           np.random.SeedSequence((cfg.master_seed, rep)))
                xis.append(np.mean(np.log(s.values[-k:] / s.threshold(k))))
            assert res.metrics["hill"].bias[j] == pytest.approx(
                np.mean(xis) - cfg.dist.true_xi, abs=1e-12
            )

    def test_hill_near_unbiased_small_k_frechet(self, frechet_dist):
        cfg = et.MCStudyConfig(
            dist=frechet_dist, n=500, reps=200, k_grid=(50,),
            estimators=("hill",), rho_mode="fixed_minus_one",
            master_seed=7, smooth_window=0,
        )
        res = et.run_study(cfg)
        assert abs(res.metrics["hill"].bias[0]) < 0.05

    def test_burr_bias_ordering_at_large_k(self, burr_dist):
        cfg = et.MCStudyConfig(
            dist=burr_dist, n=500, reps=60, k_grid=(300,),
            estimators=("hill", "epd_ml"), rho_mode="fraga",
            master_seed=7, smooth_window=0,
        )
        res = et.run_study(cfg)
        assert abs(res.metrics["hill"].bias[0]) > abs(res.metrics["epd_ml"].bias[0])

    def test_mcmc_estimator_runs(self, burr_dist):
        cfg = _small_cfg(burr_dist, reps=2, k_grid=(40,),
                         estimators=("bayes_mcmc",), mcmc_iterations=600,
                         mcmc_burn_in=200)
        res = et.run_study(cfg)
        assert np.isfinite(res.metrics["bayes_mcmc"].bias[0])

    def test_excessive_failures_abort(self, burr_dist, monkeypatch):
        cfg = _small_cfg(burr_dist)
        real = sim._study_chunk

        def mostly_failing(c, kg, x, reps):
            xi, p = real(c, kg, x, reps)
            for lane, rep in enumerate(reps):
                if rep % 2 == 0:
                    xi[lane] = np.nan
            return xi, p

        monkeypatch.setattr(sim, "_study_chunk", mostly_failing)
        with pytest.raises(et.StudyError, match="aborting"):
            et.run_study(cfg)

    def test_arithmetic_error_in_a_cell_propagates(self, burr_dist, monkeypatch):
        # only ValueError and RuntimeError fail an estimator; anything else is
        # a fault and stops the study instead of becoming an exclusion
        def dividing(lik, sigma2):
            raise ZeroDivisionError("a fault, not a domain error")

        monkeypatch.setattr(sim, "_closed_forms", dividing)
        with pytest.raises(ZeroDivisionError):
            et.run_study(_small_cfg(burr_dist, reps=2))

    def test_rows_and_payload(self, burr_dist):
        cfg = _small_cfg(burr_dist, reps=2)
        res = et.run_study(cfg)
        rows = sim.study_rows(res)
        assert len(rows) == len(cfg.estimators) * len(res.k_grid)
        payload = sim.study_payload(res)
        assert payload["config"]["master_seed"] == 42
        assert "runtime" not in payload
        # a new MCStudyConfig field shows up here as a change to the study JSON
        assert set(payload["config"]) == {
            "dist", "n", "reps", "k_grid", "estimators", "rho_mode", "target_p",
            "master_seed", "smooth_window", "mcmc_iterations", "mcmc_burn_in",
        }
        assert set(payload["config"]["dist"]) == {"kind", "args", "true_xi", "true_rho"}
        assert payload["config"]["k_grid"] == [20, 40, 60]
        assert payload["reps_used"] == cfg.reps


def test_a_tau_that_overflows_fails_its_lane_with_a_value_error(burr_dist):
    # rho / Hill overflows to -inf where Hill is below 1; that lane fails every estimator,
    # with tau and sigma2 NaN and no RuntimeWarning, and the other lane is estimated
    samples = [et.sample_distribution(burr_dist, 500, seed) for seed in range(2)]
    rho = [-1.7e308, et.resolve_rho(samples[1])[0]]
    names = ("hill", "epd_ml", "bayes_closed", "bayes_mcmc")
    cells = sim.estimate_cells(np.array([s.values for s in samples]), rho, [(0,), (1,)], 50, names,
                               mcmc=et.MCMCConfig(iterations=400, burn_in=100))
    assert rho[0] / float(cells.hill[0]) == -math.inf
    assert cells.errors == [dict.fromkeys(names, "ValueError"), {}]
    assert np.isnan(cells.tau[0]) and np.isnan(cells.sigma2[0]) and np.isnan(cells.estimates[0]).all()
    assert np.isfinite(cells.estimates[1, :, :2]).all()


@pytest.mark.parametrize("names, message", [
    (("bogus",), "unknown estimator 'bogus'; supported: "),  # was the chain's estimates
    (("hill", "bayes_closed", "hill"), "an estimator is named twice in hill,bayes_closed,hill"),
    ((), "need at least one estimator"),
], ids=["unknown", "repeated", "empty"])
def test_estimate_cells_rejects_what_a_study_config_rejects(names, message):
    values = np.arange(1.0, 101.0)[None]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        sim.estimate_cells(values, [-1.0], [(0,)], 20, names, None, et.MCMCConfig(400, 100))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        et.MCStudyConfig(dist=et.frechet(0.5), estimators=names)


@pytest.mark.parametrize("rho, run_keys, message", [
    ([-1.0, -0.5], [(0,)], "need one rho entry per row of values (rows: 1, rho: 2)"),  # was numpy's broadcast error
    ([], [(0,)], "need one rho entry per row of values (rows: 1, rho: 0)"),
    ([-1.0], [], "need one run_keys entry per row of values (rows: 1, run_keys: 0)"),  # was no error without bayes_mcmc
], ids=["rho_long", "rho_empty", "run_keys_short"])
def test_estimate_cells_needs_one_rho_and_run_key_per_row(rho, run_keys, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sim.estimate_cells(np.arange(1.0, 101.0)[None], rho, run_keys, 20, ("hill", "epd_ml"))


def test_estimate_cells_runs_the_default_chain_where_mcmc_is_none():
    # a call that asks for bayes_mcmc without a config ran into
    # ``TypeError: replace() should be called on dataclass instances``
    values = np.arange(1.0, 101.0)[None]
    cells = sim.estimate_cells(values, [-1.0], [(0,)], 20, ("bayes_mcmc",))
    given = sim.estimate_cells(values, [-1.0], [(0,)], 20, ("bayes_mcmc",), mcmc=et.MCMCConfig())
    assert cells.errors == [{}] and np.isfinite(cells.estimates[0, 0, :2]).all()
    assert cells.estimates.tobytes() == given.estimates.tobytes()
    assert cells.chains[0].draws.shape == (et.MCMCConfig().iterations - et.MCMCConfig().burn_in, 2)


def test_an_exception_raised_in_a_cell_propagates(monkeypatch):
    # an estimator hands back the error of a lane it cannot estimate; an exception raised in
    # a cell, as by a bug, is not caught and counted as exclusions
    from epdtail import bayes

    def bug(self, j):
        raise ValueError("bug")

    monkeypatch.setattr(bayes._BoundTable, "fill", bug)
    cfg = et.MCStudyConfig(dist=et.frechet(0.5), n=200, reps=2, k_grid=(20, 40), estimators=("hill", "bayes_mcmc"),
                           mcmc_iterations=60, mcmc_burn_in=10)
    with pytest.raises(ValueError, match="^bug$"):
        sim.run_study(cfg)


def test_one_coefficient_stack_per_threshold_read_in_place(burr_dist, monkeypatch):
    # at one k, one stack holds every lane's coefficient rows; the mode search reads
    # it, not a copy of it, and the ML pass gathers the rows of the lanes that ask
    from epdtail import bayes, epd

    stacks, passes, profiles = [], [], []
    build, fg_sums, profile = epd._Likelihood.__init__, epd._fg_sums, bayes._Profiles.__init__

    def build_spy(self, *args):
        build(self, *args)
        stacks.append(self)

    def fg_sums_spy(coef, log_y, *rest):
        passes.append((coef, log_y))
        return fg_sums(coef, log_y, *rest)

    def profile_spy(self, *args):
        profile(self, *args)
        profiles.append(self)

    monkeypatch.setattr(epd._Likelihood, "__init__", build_spy)
    monkeypatch.setattr(epd, "_fg_sums", fg_sums_spy)
    monkeypatch.setattr(bayes._Profiles, "__init__", profile_spy)
    samples = [et.sample_distribution(burr_dist, 500, np.random.SeedSequence((202408, rep))) for rep in range(8)]
    cells = sim.estimate_cells(np.array([s.values for s in samples]), [et.resolve_rho(s)[0] for s in samples],
                               [(202408, rep) for rep in range(8)], 200, ("epd_ml", "bayes_closed"))
    assert not any(cells.errors)
    (stack,) = stacks
    assert stack.coef.shape == (8, 2, 200)
    # the first round of the ML fits asks for every lane: its rows are the stack's
    coef, log_y = passes[0]
    assert coef.tobytes() == stack.coef.tobytes() and log_y.tobytes() == stack.log_y.tobytes()
    # the linear route leaves some lanes to the mode search, which reads the stack too
    (p,) = profiles
    assert np.shares_memory(p.coef, stack.coef)


def test_a_study_chunk_builds_no_per_lane_objects(burr_dist, frechet_dist, monkeypatch):
    # a chunk keeps its lanes' excesses, fits and tail probabilities in arrays at each
    # k: the records it builds are one Cells per k, and a chain only for bayes_mcmc; a
    # record per lane would cost a Python object per lane and k again
    built = []
    for cls in (et.Cells, et.PosteriorChain):
        def spy(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            built.append(name)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    et.PosteriorChain(draws=np.empty((0, 2)), logpost=np.empty(0), acceptance_rate=0.5)
    assert built == ["PosteriorChain"]  # the spies see a build
    for dist, k_grid, rho_mode in ((burr_dist, (90, 200, 300, 410), "fraga"),
                                   (frechet_dist, (10, 35, 60), "fixed_minus_one")):
        built.clear()
        cfg = _small_cfg(dist, n=500, reps=8, k_grid=k_grid, rho_mode=rho_mode, target_p=0.002)
        xi, p = sim._study_chunk(cfg, k_grid, et.true_quantile(dist, 1.0 - cfg.target_p), range(8))
        assert np.isfinite(xi).all() and np.isfinite(p).all()
        assert built == ["Cells"] * len(k_grid)


def test_a_wide_chunk_stays_within_its_memory(frechet_dist):
    # one chunk of 100 replications of the frechet_fig1 design, the width of a serial
    # 200-replication study at n = 500. Its traced peak was 2 608 060 bytes, about 26 KB
    # per lane, of which the lanes' samples take 4 KB and a running L-BFGS-B search about
    # 10 KB; the bound leaves a quarter of that as headroom. A one-replication chunk
    # first loads what a first chunk loads once
    cfg = et.MCStudyConfig(dist=frechet_dist, n=500, reps=100, k_grid=tuple(range(10, 61, 5)),
                           rho_mode="fixed_minus_one", target_p=0.002, master_seed=202408)
    x = et.true_quantile(frechet_dist, 1.0 - cfg.target_p)
    sim._study_chunk(cfg, cfg.k_grid, x, range(1))
    tracemalloc.start()
    try:
        xi, p = sim._study_chunk(cfg, cfg.k_grid, x, range(100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(xi).all() and np.isfinite(p).all()
    assert peak <= 1.25 * 2_608_060, peak
