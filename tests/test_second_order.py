from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

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

    @given(dist=st.sampled_from([et.burr(0.75, -0.75), et.frechet(0.5), et.burr(0.5, -2.0)]),
           n=st.integers(200, 3000), seed=st.integers(0, 2**32 - 1), log10_scale=st.floats(-30.0, 30.0))
    @example(dist=et.burr(0.75, -0.75), n=2000, seed=8, log10_scale=math.log10(math.pi))
    def test_scale_invariance(self, dist, n, seed, log10_scale):
        # Scaling leaves the log-spacings d_i = log x_i - log x_0 unchanged but for rounding: the
        # scaled values round by eps/2, and each of the eight logs the two samples take is within
        # 2 ulp of its exact value, at most 2 eps * L with L the largest |log x| of both. So every
        # spacing moves by at most D = 16 eps (L + 1), and the moment m_j = mean(d**j) by the
        # relative r_j = j D mean(d**(j-1)) / m_j, plus the rounding of its power and its sum. The
        # bound carries r_j through the ratio statistic t = num / den and rho = -|3 (t-1)/(t-3)|
        # to first order, doubled for the terms of higher order.
        eps = np.finfo(float).eps
        s = et.sample_distribution(dist, n, seed)
        scaled = et.SortedSample(10.0 ** log10_scale * s.values)
        try:
            r1, r2 = et.rho_fraga(s), et.rho_fraga(scaled)
        except NonEstimableError:
            assume(False)
        k1 = min(n - 1, math.floor(n ** 0.975))
        d = np.log(s.values[n - k1:]) - np.log(s.values[n - k1 - 1])
        spread = 16 * eps * (max(abs(np.log(v[[0, -1]])).max() for v in (s.values, scaled.values)) + 1)
        m = [np.mean(d ** j) for j in range(4)]  # m[0] = 1
        r = [0.0] + [j * spread * m[j - 1] / m[j] + 2 * (math.log2(n) + j) * eps for j in (1, 2, 3)]
        num = math.log(m[1]) - 0.5 * math.log(m[2] / 2.0)
        den = 0.5 * math.log(m[2] / 2.0) - math.log(m[3] / 6.0) / 3.0
        logs = 8 * eps * (abs(math.log(m[1])) + abs(math.log(m[2])) + abs(math.log(m[3])) + 1)
        t = num / den
        dt = (r[1] + 0.5 * r[2] + logs + abs(t) * (0.5 * r[2] + r[3] / 3.0 + logs)) / abs(den)
        assert abs(r2 - r1) <= 2 * 6 * dt / (t - 3.0) ** 2 + 4 * eps * abs(r1), (r1, r2)

    def test_default_k1(self, burr_dist):
        s = et.sample_distribution(burr_dist, 500, 3)
        explicit = et.rho_fraga(s, k1=min(499, math.floor(500 ** 0.975)))
        assert et.rho_fraga(s) == explicit
