from __future__ import annotations

import math

import numpy as np
import pytest

import epdtail as et
from conftest import pareto_excesses
from oracles import moment_stat


def _excess_set(y):
    arr = np.sort(np.asarray(y, dtype=float))[::-1]
    return et.ExcessSet(y=arr, k=arr.size, threshold=1.0)


class TestHill:
    def test_hand_value(self):
        est = et.hill(_excess_set([8.0, 4.0, 2.0]))
        assert est == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_all_ties_give_zero(self):
        assert et.hill(_excess_set([1.0, 1.0, 1.0])) == 0.0

    def test_unbiased_on_strict_pareto(self):
        # exactly unbiased under the strict Pareto: mean over replications ~ xi
        means = [et.hill(pareto_excesses(1.0, 100, (3, r))) for r in range(1000)]
        assert abs(np.mean(means) - 1.0) < 0.01

    def test_scale_invariance_through_excesses(self):
        rng = np.random.default_rng(0)
        raw = rng.pareto(1.0, 50) + 1.0
        h1 = et.hill(et.excesses(et.SortedSample(raw), 20))
        h2 = et.hill(et.excesses(et.SortedSample(8.0 * raw), 20))
        assert h1 == h2


class TestMomentStat:
    def test_unit_excesses(self):
        assert moment_stat(_excess_set([1.0, 1.0]), -0.7) == 1.0

    def test_hand_value(self):
        assert moment_stat(_excess_set([2.0, 4.0]), -1.0) == pytest.approx(0.375)

    def test_pareto_limit(self):
        # mean(y**-1) -> 1/(1 - xi*s) = 2/3 for xi = 0.5, s = -1
        vals = [moment_stat(pareto_excesses(0.5, 1000, (4, r)), -1.0) for r in range(20)]
        assert abs(np.mean(vals) - 2.0 / 3.0) < 0.005

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_nonnegative_exponent_rejected(self, s):
        with pytest.raises(ValueError, match="negative"):
            moment_stat(_excess_set([2.0, 4.0]), s)

    def test_decreasing_in_exponent_magnitude(self):
        e = pareto_excesses(0.5, 200, 9)
        vals = [moment_stat(e, s) for s in (-0.25, -0.5, -1.0, -2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)


class TestWeissman:
    def test_at_threshold(self):
        s = et.SortedSample(np.arange(1.0, 101.0))
        # k=10: threshold is the 90th value
        assert et.weissman_tail_prob(s, 10, 90.0, 0.7) == pytest.approx(0.1)

    def test_hand_value(self):
        s = et.SortedSample(np.arange(1.0, 101.0))
        # k/n = 0.1, x/threshold = 4, xi = 0.5 -> 0.1 * 4**-2
        assert et.weissman_tail_prob(s, 10, 360.0, 0.5) == pytest.approx(0.00625)

    def test_nonpositive_xi_rejected(self):
        s = et.SortedSample(np.arange(1.0, 101.0))
        with pytest.raises(ValueError, match="positive"):
            et.weissman_tail_prob(s, 10, 360.0, 0.0)

    def test_below_threshold_rejected(self):
        s = et.SortedSample(np.arange(1.0, 101.0))
        with pytest.raises(ValueError, match="below the threshold"):
            et.weissman_tail_prob(s, 10, 89.0, 0.5)

    def test_decreasing_in_x(self):
        s = et.SortedSample(np.arange(1.0, 101.0))
        xs = np.linspace(90.0, 500.0, 20)
        ps = [et.weissman_tail_prob(s, 10, x, 0.5) for x in xs]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert all(0.0 < p <= 0.1 for p in ps)
