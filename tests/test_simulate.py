from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import kstest

import epdtail as et
import epdtail.simulate as sim


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
            assert et.survival(d, q) == pytest.approx(1 - p, abs=1e-10)

    def test_quantile_domain(self, frechet_dist):
        with pytest.raises(ValueError):
            et.true_quantile(frechet_dist, 0.0)
        with pytest.raises(ValueError):
            et.true_quantile(frechet_dist, 1.0)

    def test_survival_matches_quantile(self, burr_dist):
        for p in (0.1, 0.9, 0.999):
            assert et.survival(burr_dist, et.true_quantile(burr_dist, p)) == pytest.approx(
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
        res = kstest(draws, lambda v: 1.0 - np.atleast_1d(et.survival(frechet_dist, v)))
        assert res.pvalue > 0.01

    def test_ks_burr(self, burr_dist):
        draws = et.sample_distribution(burr_dist, 10_000, 5).values
        res = kstest(draws, lambda v: 1.0 - (1.0 + np.asarray(v)) ** (-4.0 / 3.0))
        assert res.pvalue > 0.01

    def test_ks_loggamma(self):
        d = et.loggamma()
        draws = et.sample_distribution(d, 10_000, 11).values
        res = kstest(draws, lambda v: 1.0 - np.atleast_1d(et.survival(d, v)))
        assert res.pvalue > 0.01

    def test_all_positive(self, frechet_dist):
        assert et.sample_distribution(frechet_dist, 5000, 1).values.min() > 0


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
        # the pool hands out chunks of 8 replications, so a process past one per
        # chunk has no work; this fake pool records its size and starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize):
                assert chunksize == 8
                return map(fn, iterable)

        cfg = _small_cfg(frechet_dist, reps=reps, estimators=("hill",))
        serial = et.run_study(cfg, workers=1)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        pooled = et.run_study(cfg, workers=workers)
        assert sizes == [started]
        assert np.array_equal(pooled.metrics["hill"].mse, serial.metrics["hill"].mse,
                              equal_nan=True)

    def test_mse_identity(self, burr_dist):
        res = et.run_study(_small_cfg(burr_dist))
        for m in res.metrics.values():
            good = np.isfinite(m.mse)
            assert np.all(np.abs(m.mse - (m.bias ** 2 + m.variance))[good] <= 1e-12)
            assert np.all(
                np.abs(m.rel_mse - (m.rel_bias ** 2 + m.rel_variance))[good] <= 1e-12
            )

    def test_hill_cells_match_direct_recomputation(self, frechet_dist):
        cfg = _small_cfg(frechet_dist, estimators=("hill",), smooth_window=0)
        res = et.run_study(cfg)
        for j, k in enumerate(res.k_grid):
            xis = []
            for rep in range(cfg.reps):
                s = et.sample_distribution(cfg.dist, cfg.n,
                                           np.random.SeedSequence((cfg.master_seed, rep)))
                xis.append(et.hill(et.excesses(s, k)))
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
        real = sim._study_rep

        def mostly_failing(c, kg, x, rep):
            xi, p = real(c, kg, x, rep)
            if rep % 2 == 0:
                xi[:] = np.nan
            return xi, p

        monkeypatch.setattr(sim, "_study_rep", mostly_failing)
        with pytest.raises(et.StudyError, match="aborting"):
            et.run_study(cfg)

    def test_arithmetic_error_in_a_cell_propagates(self, burr_dist, monkeypatch):
        # only ValueError and RuntimeError fail an estimator; anything else is
        # a fault and stops the study instead of becoming an exclusion
        def dividing(e, tau, sigma2):
            raise ZeroDivisionError("a fault, not a domain error")

        monkeypatch.setattr(sim, "bayes_closed_form", dividing)
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
