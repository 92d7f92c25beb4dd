"""The classical baselines: Hill's estimate, which ``estimate_cells`` computes for every lane,
and Weissman's extrapolation, the tail probability ``epd._tail_probs`` at delta = 0."""

from __future__ import annotations

import math

import numpy as np
import pytest

import epdtail as et
from epdtail.epd import _tail_probs
from conftest import pareto_excesses
from oracles import moment_stat


def _y(values):
    return np.sort(np.asarray(values, dtype=float))[::-1].copy()


def _hill_cells(rows, k, x=None):
    """``estimate_cells`` with Hill alone on sorted samples of one size, one per row, at rho = -1."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return et.estimate_cells(rows, [-1.0] * len(rows), [(i,) for i in range(len(rows))], k, ("hill",), x)


def _weissman(level, z, xi):
    """Weissman's extrapolation at z = x / threshold, one lane per z: ``_tail_probs`` at delta = 0."""
    z = np.asarray(z, dtype=float)
    return _tail_probs(level, z, np.full(z.size, -1.0), np.full((z.size, 1), xi), np.zeros((z.size, 1)))[:, 0]


class TestHill:
    def test_hand_value(self):
        # excesses 8, 4 and 2 over the threshold 1
        cells = _hill_cells([1.0, 2.0, 4.0, 8.0], 3)
        assert cells.hill[0] == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert cells.estimates[0, 0, :2].tolist() == [cells.hill[0], 0.0]

    def test_all_ties_give_zero(self):
        # a Hill estimate of 0 gives no tau, so the lane's estimators fail
        cells = _hill_cells([1.0, 1.0, 1.0, 1.0], 3)
        assert cells.hill[0] == 0.0
        assert cells.errors == [{"hill": "NonEstimableError"}]

    def test_unbiased_on_strict_pareto(self):
        # exactly unbiased under the strict Pareto: mean over replications ~ xi. Each row
        # is the threshold 1 below 100 strict Pareto excesses
        rows = [np.r_[1.0, pareto_excesses(1.0, 100, (3, r))[::-1]] for r in range(1000)]
        assert abs(np.mean(_hill_cells(rows, 100).hill) - 1.0) < 0.01

    def test_scale_invariance_through_excesses(self):
        rng = np.random.default_rng(0)
        raw = rng.pareto(1.0, 50) + 1.0
        h1, h2 = _hill_cells([np.sort(raw), np.sort(8.0 * raw)], 20).hill
        assert h1 == h2


class TestMomentStat:
    def test_unit_excesses(self):
        assert moment_stat(_y([1.0, 1.0]), -0.7) == 1.0

    def test_hand_value(self):
        assert moment_stat(_y([2.0, 4.0]), -1.0) == pytest.approx(0.375)

    def test_pareto_limit(self):
        # mean(y**-1) -> 1/(1 - xi*s) = 2/3 for xi = 0.5, s = -1
        vals = [moment_stat(pareto_excesses(0.5, 1000, (4, r)), -1.0) for r in range(20)]
        assert abs(np.mean(vals) - 2.0 / 3.0) < 0.005

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_nonnegative_exponent_rejected(self, s):
        with pytest.raises(ValueError, match="negative"):
            moment_stat(_y([2.0, 4.0]), s)

    def test_decreasing_in_exponent_magnitude(self):
        e = pareto_excesses(0.5, 200, 9)
        vals = [moment_stat(e, s) for s in (-0.25, -0.5, -1.0, -2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)


class TestWeissman:
    def test_at_threshold(self):
        s = et.SortedSample(np.arange(1.0, 101.0))
        # k=10: threshold is the 90th value, and P(X > x) there is k/n
        assert _weissman(10 / 100, [90.0 / s.threshold(10)], 0.7)[0] == pytest.approx(0.1)

    def test_hand_value(self):
        # k/n = 0.1, x/threshold = 4, xi = 0.5 -> 0.1 * 4**-2
        assert _weissman(0.1, [4.0], 0.5)[0] == pytest.approx(0.00625)

    def test_nonpositive_xi_rejected(self):
        # Hill is the only xi Weissman's extrapolation gets; where it is 0 the lane has no probability
        cells = _hill_cells(np.r_[np.arange(1.0, 91.0), np.full(10, 90.0)], 10, 360.0)
        assert cells.hill[0] == 0.0 and np.isnan(cells.estimates[0, 0, 2])
        assert cells.errors == [{"hill": "NonEstimableError"}]

    def test_below_threshold_rejected(self):
        # an x below the threshold gives no extrapolation, and no error
        cells = _hill_cells(np.arange(1.0, 101.0), 10, 89.0)
        assert np.isnan(cells.estimates[0, 0, 2]) and cells.errors == [{}]
        assert _hill_cells(np.arange(1.0, 101.0), 10, 90.0).estimates[0, 0, 2] == 0.1

    def test_decreasing_in_x(self):
        s = et.SortedSample(np.arange(1.0, 101.0))
        xs = np.linspace(90.0, 500.0, 20)
        ps = _weissman(0.1, xs / s.threshold(10), 0.5).tolist()
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert all(0.0 < p <= 0.1 for p in ps)
