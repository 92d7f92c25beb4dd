from __future__ import annotations

import math

import numpy as np
import pytest

import epdtail as et
import epdtail.second_order as so
from epdtail.second_order import NonEstimableError
from oracles import pareto_sample


class TestClampRho:
    """``resolve_rho`` caps the three-moment estimate at min(-0.5, rho)."""

    @staticmethod
    def _resolved(monkeypatch, estimate: float) -> float:
        monkeypatch.setattr(so, "rho_fraga", lambda s, k1=None, tuning=0.0: estimate)
        rho, source = so.resolve_rho(et.SortedSample(pareto_sample(1.0, 50, 0)))
        assert source == "estimated"
        return rho

    def test_caps_values_near_zero(self, monkeypatch):
        assert self._resolved(monkeypatch, -0.2) == -0.5

    def test_leaves_lower_values(self, monkeypatch):
        assert self._resolved(monkeypatch, -1.3) == -1.3

    def test_boundary(self, monkeypatch):
        assert self._resolved(monkeypatch, -0.5) == -0.5


class TestTauHat:
    def test_hand_values(self):
        assert et.tau_hat(-1.0, 0.5) == -2.0
        assert et.tau_hat(-0.5, 0.5) == -1.0

    def test_zero_hill_rejected(self):
        with pytest.raises(NonEstimableError):
            et.tau_hat(-1.0, 0.0)

    @pytest.mark.parametrize("rho,h", [(-0.7, 0.3), (-2.5, 1.7), (-1.0, 0.9)])
    def test_product_recovers_rho(self, rho, h):
        assert et.tau_hat(rho, h) * h == pytest.approx(rho, rel=1e-15)


class TestRhoFraga:
    def test_burr_recovers_rho(self, burr_dist):
        # median over replications should bracket the true rho = -0.75
        estimates = []
        for rep in range(200):
            s = et.sample_distribution(burr_dist, 5000, (101, rep))
            try:
                estimates.append(et.rho_fraga(s))
            except NonEstimableError:
                pass
        assert len(estimates) > 190
        med = float(np.median(estimates))
        assert -1.1 < med < -0.5

    def test_strict_pareto_degenerate_or_strongly_negative(self):
        # no second-order term: either non-estimable or the fallback clamps it
        for rep in range(10):
            s = et.SortedSample(pareto_sample(1.0, 2000, (55, rep)))
            rho, source = et.resolve_rho(s)
            assert rho <= -0.5
            assert source in ("estimated", "fixed_minus_one")

    def test_constant_data_degenerate(self):
        s = et.SortedSample(np.full(40, 3.0))
        with pytest.raises(NonEstimableError):
            et.rho_fraga(s)

    def test_small_k1_rejected(self):
        s = et.SortedSample(np.arange(1.0, 41.0))
        with pytest.raises(ValueError, match="at least 10"):
            et.rho_fraga(s, k1=5)

    def test_k1_exceeding_sample_rejected(self):
        s = et.SortedSample(np.arange(1.0, 41.0))
        with pytest.raises(ValueError, match="at most"):
            et.rho_fraga(s, k1=40)

    def test_bad_tuning_rejected(self):
        s = et.SortedSample(np.arange(1.0, 41.0))
        with pytest.raises(ValueError, match="tuning"):
            et.rho_fraga(s, tuning=0.5)

    def test_tuning_one_variant_runs(self, burr_dist):
        s = et.sample_distribution(burr_dist, 2000, 5)
        rho = et.rho_fraga(s, tuning=1.0)
        assert rho < 0

    def test_scale_invariance(self, burr_dist):
        s = et.sample_distribution(burr_dist, 2000, 8)
        r1 = et.rho_fraga(s)
        r2 = et.rho_fraga(et.SortedSample(math.pi * s.values))
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_default_k1(self, burr_dist):
        s = et.sample_distribution(burr_dist, 500, 3)
        explicit = et.rho_fraga(s, k1=min(499, math.floor(500 ** 0.975)))
        assert et.rho_fraga(s) == explicit
