"""The study kernels return the bits of their earlier, slower forms.

``_profile_posterior_mode`` and ``epd_ml_fit`` are compared with the
copies in ``tests/oracles.py`` through ``repr``, which round-trips every
bit of a float, on every k of one replication of each bundled study
design and of a design with tau < -1, and of a second Fréchet
replication whose fits include one that does not converge. The mode
search is also compared on four more Burr replications and on cells
built to put its maximum or its masks at the edges of the grid. The
study cells are built the way a study replication builds them. The
lockstep ML driver, ``epd_ml_fits``, must give every lane the fit that
lane gets alone, on chunks of up to 32 replications of both designs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import epdtail as et
from epdtail.bayes import _STRIDE, ClosedFormError, _profile_posterior_mode, _Profile
from epdtail.epd import _Likelihood, epd_ml_fits
from oracles import oracle_epd_ml_fit, oracle_loglik_grad, oracle_profile_posterior_mode

DESIGN_SEED = 202408  # master seed of both bundled study designs


def _rep_cells(dist, k_grid, rho_mode, rep=0, n=500):
    """(k, excesses, tau, sigma2) for every k of one study replication."""
    s = et.sample_distribution(dist, n, np.random.SeedSequence((DESIGN_SEED, rep)))
    rho = et.resolve_rho(s)[0] if rho_mode == "fraga" else rho_mode
    cells = []
    for k in k_grid:
        e = et.excesses(s, k)
        tau = et.tau_hat(rho, et.hill(e))
        cells.append((k, e, tau, et.prior_variance(k, n, rho)))
    return cells


DESIGNS = {
    "burr_fig2": (et.burr(0.75, -0.75), range(90, 411, 5), "fraga"),
    "frechet_fig1": (et.frechet(0.5), range(10, 61, 5), -1.0),
    "burr_tau_below_minus_one": (et.burr(0.5, -2.0), range(20, 481, 20), -2.0),
}


# (design, replication) pairs compared: replication 1 of frechet_fig1 holds
# an ML fit that ends ABNORMAL in its line search, with converged=False
REPS = [(name, 0) for name in DESIGNS] + [("frechet_fig1", 1)]
# the mode search, which most burr_fig2 cells run, is compared on four more replications
MODE_REPS = REPS + [("burr_fig2", rep) for rep in range(1, 5)]


def _rep_id(p):
    return p[0] if p[1] == 0 else f"{p[0]}_rep{p[1]}"


@pytest.fixture(scope="module", params=REPS, ids=_rep_id)
def cells(request):
    name, rep = request.param
    return _rep_cells(*DESIGNS[name], rep=rep)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ValueError, ClosedFormError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_designs_cover_tau_below_minus_one():
    taus = [tau for _, _, tau, _ in _rep_cells(*DESIGNS["burr_tau_below_minus_one"])]
    assert max(taus) < -1.0


@pytest.mark.parametrize("name, rep", MODE_REPS, ids=[_rep_id(p) for p in MODE_REPS])
def test_profile_posterior_mode_matches_oracle(name, rep):
    for k, e, tau, sigma2 in _rep_cells(*DESIGNS[name], rep=rep):
        got = _outcome(_profile_posterior_mode, e, tau, sigma2)
        assert got == _outcome(oracle_profile_posterior_mode, e, tau, sigma2), k


def _full_scan(e, tau, sigma2):
    """The exact profile at every node of the search's grid."""
    p = _Profile(e, tau, sigma2)
    return p.exact(p.grid)[0]


def _sample_cell(dist, seed, k):
    return et.excesses(et.sample_distribution(dist, 500, seed), k)


def _epd_cell(xi, delta, tau, k, seed):
    y = et.epd_sample(et.EPDParams(xi=xi, delta=delta, tau=tau), k, seed)
    return et.ExcessSet(y=np.sort(y)[::-1], k=k, threshold=1.0)


def _first(vals):
    return int(np.flatnonzero(vals > -np.inf)[0])


# cells that put the maximum or the masks of the grid where the search prunes
# least: (excesses, tau, sigma2, what the exact profile on the full grid shows).
# No grid node above the model bound fails 1 + delta*coef > 0, so the masked
# nodes are those of the collapse floor on xi, next to the bound.
EDGE_CELLS = {
    "max_at_node_0": (_sample_cell(et.burr(0.5, -2.0), 837, 219), -0.2589, 7.68,
                      lambda v: _first(v) == 0 and np.argmax(v) == 0),
    "max_at_first_admissible_node": (_sample_cell(et.frechet(0.5), 620, 10), -0.9496, 0.204,
                                     lambda v: _first(v) == 1 and np.argmax(v) == 1),
    "max_at_delta_max": (_epd_cell(0.3, 30.0, -0.5, 300, 7), -0.5, 1e4,
                         lambda v: _first(v) == 0 and np.argmax(v) == v.size - 1),
    "coarse_node_masked": (_sample_cell(et.burr(0.75, -0.75), 153, 46), -0.9976, 0.00472,
                           lambda v: v[0] == -np.inf and _first(v[::_STRIDE]) == 1),
    "floor_masks_inner_nodes": (_epd_cell(0.5, 50.0, -1.0, 300, 7), -1.0, 1e4,
                                lambda v: _first(v) == 3 and np.argmax(v) == v.size - 1),
}


@pytest.mark.parametrize("name", EDGE_CELLS)
def test_profile_posterior_mode_matches_oracle_at_the_edges(name):
    e, tau, sigma2, shows = EDGE_CELLS[name]
    assert shows(_full_scan(e, tau, sigma2))
    got = _outcome(_profile_posterior_mode, e, tau, sigma2)
    assert not got.startswith("ClosedFormError")
    assert got == _outcome(oracle_profile_posterior_mode, e, tau, sigma2)


def test_mode_search_prunes_most_of_the_grid(monkeypatch):
    # the exact pass sees every row the search evaluates; with pruning bypassed
    # it would see all 481 rows of each call
    rows = []
    row_sums = _Likelihood.row_sums

    def spy(self, deltas, slope=False):
        rows[-1] += len(deltas)
        return row_sums(self, deltas, slope)

    monkeypatch.setattr(_Likelihood, "row_sums", spy)
    for _, e, tau, sigma2 in _rep_cells(*DESIGNS["burr_fig2"]):
        rows.append(0)
        _profile_posterior_mode(e, tau, sigma2)
    assert len(rows) == 65
    assert max(rows) <= 0.4 * 481, rows


def test_ml_fit_matches_oracle(cells):
    for k, e, tau, _ in cells:
        assert _outcome(et.epd_ml_fit, e, tau) == _outcome(oracle_epd_ml_fit, e, tau), k


def test_compared_fits_include_one_that_does_not_converge():
    # so that the comparison covers the mapping of the core's stop to converged
    # and iterations on both sides of it
    converged = {et.epd_ml_fit(e, tau).converged
                 for name, rep in REPS for _, e, tau, _ in _rep_cells(*DESIGNS[name], rep=rep)}
    assert converged == {True, False}


@pytest.mark.parametrize("limit, option, value", [("_LBFGSB_MAXITER", "maxiter", 2),
                                                  ("_LBFGSB_MAXFUN", "maxfun", 3)])
def test_ml_fit_stops_at_scipys_limits_like_the_oracle(monkeypatch, limit, option, value):
    # the iteration limit (task 504) and the evaluation limit (task 502),
    # which no fit of the designs above reaches
    monkeypatch.setattr(et.epd, limit, value)
    k, e, tau, _ = _rep_cells(*DESIGNS["burr_fig2"])[22]
    assert k == 200
    got = et.epd_ml_fit(e, tau)
    assert not got.converged
    assert repr(got) == repr(oracle_epd_ml_fit(e, tau, **{option: value}))


def test_both_raise_where_no_grid_point_is_admissible():
    # all excesses tie at the threshold: g = 0 on the whole grid
    e = et.ExcessSet(y=np.ones(20), k=20, threshold=1.0)
    got = _outcome(_profile_posterior_mode, e, -1.0, 1.0)
    assert got.startswith("ClosedFormError")
    assert got == _outcome(oracle_profile_posterior_mode, e, -1.0, 1.0)


class TestFusedLikelihood:
    def _lik(self, tau=-1.5):
        e = _rep_cells(*DESIGNS["burr_fig2"])[20][1]
        return _Likelihood(e, tau)

    @pytest.mark.parametrize("xi, delta", [(0.7, 0.0), (0.3, -0.4), (1.9, 2.5), (1e-3, 9.9)])
    def test_same_bits_as_call_and_grad(self, xi, delta):
        lik = self._lik()
        value, d_xi, d_delta = lik.value_and_grad(xi, delta)
        assert repr(value) == repr(lik(xi, delta))
        assert repr((d_xi, d_delta)) == repr(oracle_loglik_grad(lik, xi, delta))

    @pytest.mark.parametrize("xi, delta", [(0.0, 0.1), (-1.0, 0.1), (0.5, -0.7), (0.5, -5.0)])
    def test_none_outside_the_region(self, xi, delta):
        lik = self._lik()
        assert lik(xi, delta) == -math.inf
        assert lik.value_and_grad(xi, delta) is None
        with pytest.raises(ValueError, match="outside the parameter region"):
            oracle_loglik_grad(lik, xi, delta)

    def test_fit_callback_penalises_outside_the_region(self, monkeypatch):
        # the fit answers an inadmissible point with the finite penalty and a
        # zero gradient, which makes L-BFGS-B backtrack. The spy stands in for
        # the core's first two calls, asking for the value and the gradient
        # (task 3) at delta's bound and then at x0; the real core starts after.
        calls = []
        setulb = et.epd._lbfgsb.setulb

        def spy(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, *rest):
            calls.append((f, g.tolist(), x.copy()))
            if len(calls) == 1:
                x[:] = 0.0, -800.0  # delta at its bound
            elif len(calls) == 2:
                x[:] = calls[0][2]
            else:
                if len(calls) == 3:
                    task[:] = 0  # START, from x0
                return setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, *rest)
            task[0] = 3
            return None

        monkeypatch.setattr(et.epd._lbfgsb, "setulb", spy)
        _, e, tau, _ = _rep_cells(*DESIGNS["burr_fig2"])[0]
        assert repr(et.epd_ml_fit(e, tau)) == repr(oracle_epd_ml_fit(e, tau))
        (pen, pen_grad, _), (val, _, _) = calls[1:3]
        assert pen == 1e12 and pen_grad == [0.0, 0.0]
        assert val < 1e12


# the thresholds at which the lockstep fits are compared: both ends and the middle of each grid
LANE_KS = {"burr_fig2": (90, 200, 410), "frechet_fig1": (10, 35, 60)}


def _lanes(name, k, count):
    """(excesses, tau) at k of the first ``count`` replications of a design, as a chunk holds them."""
    dist, _, rho_mode = DESIGNS[name]
    lanes = []
    for rep in range(count):
        s = et.sample_distribution(dist, 500, np.random.SeedSequence((DESIGN_SEED, rep)))
        rho = et.resolve_rho(s)[0] if rho_mode == "fraga" else rho_mode
        e = et.excesses(s, k)
        lanes.append((e, et.tau_hat(rho, et.hill(e))))
    return lanes


@pytest.fixture(scope="module", params=sorted(LANE_KS))
def lane_sets(request):
    return {k: _lanes(request.param, k, 32) for k in LANE_KS[request.param]}


@pytest.mark.parametrize("count", [1, 2, 8, 32])
def test_lockstep_fits_equal_one_lane_fits_and_the_oracle(lane_sets, count):
    for k, lanes in lane_sets.items():
        got = [repr(fit) for fit in epd_ml_fits(lanes[:count])]
        assert got == [repr(et.epd_ml_fit(e, tau)) for e, tau in lanes[:count]], k
        assert got == [repr(oracle_epd_ml_fit(e, tau)) for e, tau in lanes[:count]], k


def test_a_lane_that_raises_leaves_the_others_alone():
    # all excesses tie at the threshold: Hill is 0 and the fit has no interior maximum
    lanes = _lanes("frechet_fig1", 20, 3)
    tie = (et.ExcessSet(y=np.ones(20), k=20, threshold=1.0), -1.0)
    got = epd_ml_fits([tie, lanes[0], lanes[1], tie, lanes[2]])
    for fit in (got[0], got[3]):
        assert isinstance(fit, ValueError) and "ties" in str(fit)
    assert [repr(got[i]) for i in (1, 2, 4)] == [repr(et.epd_ml_fit(e, tau)) for e, tau in lanes]
    with pytest.raises(ValueError, match="ties"):
        et.epd_ml_fit(*tie)
    assert epd_ml_fits([tie, tie])[1].args == got[0].args


def test_lanes_of_different_k_are_rejected():
    with pytest.raises(ValueError):
        epd_ml_fits(_lanes("frechet_fig1", 20, 1) + _lanes("frechet_fig1", 25, 1))


@pytest.mark.parametrize("limit, option, value", [("_LBFGSB_MAXITER", "maxiter", 2),
                                                  ("_LBFGSB_MAXFUN", "maxfun", 3)])
def test_lockstep_lanes_stop_at_scipys_limits_like_the_oracle(monkeypatch, limit, option, value):
    monkeypatch.setattr(et.epd, limit, value)
    lanes = _lanes("burr_fig2", 200, 8)
    got = epd_ml_fits(lanes)
    assert not any(fit.converged for fit in got)
    assert [repr(fit) for fit in got] == [repr(et.epd_ml_fit(e, tau)) for e, tau in lanes]
    assert [repr(fit) for fit in got] == [repr(oracle_epd_ml_fit(e, tau, **{option: value}))
                                          for e, tau in lanes]
