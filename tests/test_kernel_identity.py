"""The study kernels return the bits of their earlier, slower forms.

The mode search on one lane (``profile_posterior_mode``) and
``epd_ml_fit`` are compared with the copies in ``tests/oracles.py``,
which build each lane's coefficients alone, through ``repr``, which round-trips every
bit of a float, on every k of one replication of each bundled study
design and of a design with tau < -1, and of a second Fréchet
replication whose fits include one that does not converge. The mode
search is also compared on four more Burr replications and on cells
built to put its maximum or its masks at the edges of the grid. The
study cells are built the way a study replication builds them. The
lockstep ML driver, ``epd_ml_fits``, must give every lane the fit that
lane gets alone, on chunks of up to 32 replications of both designs, and
the lockstep mode search, ``_profile_posterior_modes``, the oracle's mode
on chunks of up to 32 replications of all three designs and on the edge
cells. Its polish, ``_polish``, must return scipy's bounded minimizer's
bits. The runner of both lockstep searches, ``epd._lockstep``, must give
fake searches what each gets alone, and a penalised ML point must cost
no row of a likelihood pass. The first-order solution of random stacks, ``_first_order``, must
give every lane the bits of the one-lane system ``oracle_first_order``.
The tail probabilities that ``estimate_cells`` computes for all lanes at
once, ``epd._tail_probs``, must be the survival to within its rounding
(``oracle_survival``), fall as x grows, be k/n at the threshold and
Weissman's at delta = 0, and agree with ``weissman_tail_prob``,
``epd_tail_prob`` and ``bayes_tail_prob``, which run that formula on one
lane.
"""

from __future__ import annotations

import ast
import importlib.machinery
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import epdtail as et
from epdtail import bayes
from epdtail import simulate as sim
from epdtail.bayes import (
    _BUDGET,
    _STRIDE,
    ClosedFormError,
    _closed_forms,
    _first_order,
    _polish,
    _profile_posterior_modes,
    _Profiles,
)
from epdtail.epd import DELTA_MAX, _tail_probs, epd_ml_fits
from oracles import (
    OracleLikelihood,
    loglik_value_and_grad,
    oracle_epd_ml_fit,
    oracle_first_order,
    oracle_loglik_grad,
    oracle_profile_posterior_mode,
    oracle_survival,
    profile_posterior_mode,
    stack,
)

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
        got = _outcome(profile_posterior_mode, e, tau, sigma2)
        assert got == _outcome(oracle_profile_posterior_mode, e, tau, sigma2), k


def _full_scan(e, tau, sigma2):
    """The exact profile at every node of the search's grid."""
    p = _Profiles(stack([(e, tau)]), [sigma2])
    return p.exact(np.zeros(p.grid.shape[1], int), p.grid[0])


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
    got = _outcome(profile_posterior_mode, e, tau, sigma2)
    assert not got.startswith("ClosedFormError")
    assert got == _outcome(oracle_profile_posterior_mode, e, tau, sigma2)


def test_mode_search_prunes_most_of_the_grid(monkeypatch):
    # the scan evaluates the coarse nodes in ``bounds`` and the nodes it keeps
    # in ``exact``; with pruning bypassed it would evaluate all 481 of each call
    rows = []
    bounds, exact = _Profiles.bounds, _Profiles.exact

    def bounds_spy(self, block):
        v, bound = bounds(self, block)
        rows[-1] += v.size
        return v, bound

    def exact_spy(self, lane, deltas):
        rows[-1] += len(deltas)
        return exact(self, lane, deltas)

    monkeypatch.setattr(_Profiles, "bounds", bounds_spy)
    monkeypatch.setattr(_Profiles, "exact", exact_spy)
    for _, e, tau, sigma2 in _rep_cells(*DESIGNS["burr_fig2"]):
        rows.append(0)
        profile_posterior_mode(e, tau, sigma2)
    assert len(rows) == 65
    assert min(rows) > 481 // _STRIDE + 1, rows
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
    got = _outcome(profile_posterior_mode, e, -1.0, 1.0)
    assert got.startswith("ClosedFormError")
    assert got == _outcome(oracle_profile_posterior_mode, e, -1.0, 1.0)


class TestFusedLikelihood:
    TAU = -1.5

    def _e(self):
        return _rep_cells(*DESIGNS["burr_fig2"])[20][1]

    @pytest.mark.parametrize("xi, delta", [(0.7, 0.0), (0.3, -0.4), (1.9, 2.5), (1e-3, 9.9)])
    def test_same_bits_as_call_and_grad(self, xi, delta):
        e = self._e()
        lik = stack([(e, self.TAU)])
        value, d_xi, d_delta = loglik_value_and_grad(lik, xi, delta)
        assert repr(value) == repr(lik(xi, delta))
        assert repr(value) == repr(OracleLikelihood(e, self.TAU)(xi, delta))
        assert repr((d_xi, d_delta)) == repr(oracle_loglik_grad(OracleLikelihood(e, self.TAU), xi, delta))

    @pytest.mark.parametrize("xi, delta", [(0.0, 0.1), (-1.0, 0.1), (0.5, -0.7), (0.5, -5.0)])
    def test_none_outside_the_region(self, xi, delta):
        e = self._e()
        lik = stack([(e, self.TAU)])
        assert lik(xi, delta) == -math.inf
        assert loglik_value_and_grad(lik, xi, delta) is None
        with pytest.raises(ValueError, match="outside the parameter region"):
            oracle_loglik_grad(OracleLikelihood(e, self.TAU), xi, delta)

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


def _fields(fit):
    """A one-lane ``EPDFit`` as ``epd_ml_fits`` gives a lane's fit: (xi, delta, loglik, converged, iterations)."""
    return fit.params.xi, fit.params.delta, fit.loglik, fit.converged, fit.iterations


@pytest.fixture(scope="module", params=sorted(LANE_KS))
def lane_sets(request):
    return {k: _lanes(request.param, k, 32) for k in LANE_KS[request.param]}


@pytest.mark.parametrize("count", [1, 2, 8, 32])
def test_lockstep_fits_equal_one_lane_fits_and_the_oracle(lane_sets, count):
    for k, lanes in lane_sets.items():
        got = [repr(fit) for fit in epd_ml_fits(stack(lanes[:count]))]
        assert got == [repr(_fields(et.epd_ml_fit(e, tau))) for e, tau in lanes[:count]], k
        assert got == [repr(_fields(oracle_epd_ml_fit(e, tau))) for e, tau in lanes[:count]], k


def test_a_lane_that_raises_leaves_the_others_alone():
    # all excesses tie at the threshold: Hill is 0 and the fit has no interior maximum
    lanes = _lanes("frechet_fig1", 20, 3)
    tie = (et.ExcessSet(y=np.ones(20), k=20, threshold=1.0), -1.0)
    got = epd_ml_fits(stack([tie, lanes[0], lanes[1], tie, lanes[2]]))
    for fit in (got[0], got[3]):
        assert isinstance(fit, ValueError) and "ties" in str(fit)
    assert [repr(got[i]) for i in (1, 2, 4)] == [repr(_fields(et.epd_ml_fit(e, tau))) for e, tau in lanes]
    with pytest.raises(ValueError, match="ties"):
        et.epd_ml_fit(*tie)
    assert epd_ml_fits(stack([tie, tie]))[1].args == got[0].args


@pytest.mark.parametrize("limit, option, value", [("_LBFGSB_MAXITER", "maxiter", 2),
                                                  ("_LBFGSB_MAXFUN", "maxfun", 3)])
def test_lockstep_lanes_stop_at_scipys_limits_like_the_oracle(monkeypatch, limit, option, value):
    monkeypatch.setattr(et.epd, limit, value)
    lanes = _lanes("burr_fig2", 200, 8)
    got = epd_ml_fits(stack(lanes))
    assert not any(converged for _, _, _, converged, _ in got)
    assert [repr(fit) for fit in got] == [repr(_fields(et.epd_ml_fit(e, tau))) for e, tau in lanes]
    assert [repr(fit) for fit in got] == [repr(_fields(oracle_epd_ml_fit(e, tau, **{option: value})))
                                          for e, tau in lanes]


def _fake_search(lane, asks):
    """A search that asks ``asks`` points (lane, 0), (lane, 1), ... and returns the answers it was sent."""
    answers = []
    for j in range(asks):
        answers.append((yield (lane, j)))
    return answers


def _answer(point):
    return ("answer", point)


def test_runner_gives_each_search_what_it_gets_alone():
    # searches of different lengths, one that returns before it yields, and a placeholder
    placeholder = ValueError("this lane cannot run")
    asks = [3, 0, 5, None, 1, 3]

    def searches():
        return [placeholder if n is None else _fake_search(i, n) for i, n in enumerate(asks)]

    rounds = []

    def evaluate(lanes, points):
        rounds.append(lanes)
        assert [lane for lane, _ in points] == lanes
        return [_answer(point) for point in points]

    got = et.epd._lockstep(searches(), evaluate)
    assert got[3] is placeholder
    assert got == [search if isinstance(search, Exception) else _drive(search, _answer)
                   for search in searches()]
    assert got[1] == [] and got[2] == [_answer((2, j)) for j in range(5)]
    # each round answers only the lanes that ask, in ascending order
    assert rounds == [[i for i, n in enumerate(asks) if n is not None and n > r] for r in range(5)]


def test_ml_fits_and_mode_search_run_through_the_runner(monkeypatch):
    runner, calls = et.epd._lockstep, []

    def spy(searches, evaluate):
        calls.append(len(searches))
        return runner(searches, evaluate)

    monkeypatch.setattr(et.epd, "_lockstep", spy)
    monkeypatch.setattr(bayes, "_lockstep", spy)
    epd_ml_fits(stack(_lanes("frechet_fig1", 20, 3)))
    assert calls == [3]
    cells = _mode_cells("burr_fig2", 150, 4)
    assert _lockstep(cells) == _oracle(cells)
    assert calls == [3, 4]


def test_a_penalised_ml_point_costs_no_pass_row(monkeypatch):
    # EPD samples near the model bound, where four lanes' line searches each reach the
    # region edge once and are answered with the penalty, between two lanes that stay inside it
    lanes = [(_epd_cell(xi, delta, tau, 200, seed), tau) for xi, delta, tau, seed in
             ((0.5, -0.99, -0.8, 0), (0.5, -0.99, -0.8, 2), (0.5, -0.99, -0.7, 4), (1.0, -0.99, -0.7, 7),
              (1.0, -0.999, -0.9, 20), (0.5, -0.99, -0.8, 1))]
    count = {"fg": 0, "penalised": 0, "rows": 0}
    asked = {}  # per lane, by its task array: whether the core's last return asked for FG
    setulb, fg_sums = et.epd._lbfgsb.setulb, et.epd._fg_sums

    def setulb_spy(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, *rest):
        count["penalised"] += asked.get(id(task), False) and f == 1e12
        setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, *rest)
        asked[id(task)] = task[0] == 3
        count["fg"] += task[0] == 3

    def fg_sums_spy(coef, *rest):
        count["rows"] += len(coef)
        return fg_sums(coef, *rest)

    monkeypatch.setattr(et.epd._lbfgsb, "setulb", setulb_spy)
    monkeypatch.setattr(et.epd, "_fg_sums", fg_sums_spy)
    got = [repr(fit) for fit in epd_ml_fits(stack(lanes))]
    assert count["penalised"] == 4
    assert count["rows"] == count["fg"] - count["penalised"]
    monkeypatch.undo()
    assert got == [repr(_fields(et.epd_ml_fit(e, tau))) for e, tau in lanes]
    assert got == [repr(_fields(oracle_epd_ml_fit(e, tau))) for e, tau in lanes]


# the lockstep mode search: the thresholds at which it is compared, both ends and the middle of each grid
MODE_KS = {"burr_fig2": (90, 250, 410), "frechet_fig1": (10, 35, 60),
           "burr_tau_below_minus_one": (20, 240, 480)}


def _mode_cells(name, k, count):
    """(excesses, tau, sigma2) at k of the first ``count`` replications of a design."""
    dist, _, rho_mode = DESIGNS[name]
    return [_rep_cells(dist, (k,), rho_mode, rep=rep)[0][1:] for rep in range(count)]


def _shown(result):
    """A lockstep driver's result for one lane, as ``_outcome`` shows that of a one-lane call."""
    return f"{type(result).__name__}: {result}" if isinstance(result, Exception) else repr(result)


def _lockstep(cells):
    """The lockstep search on cells (excesses, tau, sigma2), each mode as ``_outcome`` shows it."""
    lik = stack([(e, tau) for e, tau, _ in cells])
    return [_shown(mode) for mode in _profile_posterior_modes(lik, [sigma2 for _, _, sigma2 in cells])]


def _oracle(cells):
    return [_outcome(oracle_profile_posterior_mode, *cell) for cell in cells]


def _tie(k):
    """All excesses tie at the threshold: g = 0 on the whole grid, so no node is admissible."""
    return et.ExcessSet(y=np.ones(k), k=k, threshold=1.0), -1.0, 1.0


@pytest.fixture(scope="module", params=sorted(MODE_KS))
def mode_sets(request):
    """Per k: 32 replications' cells and the oracle's mode of each."""
    sets = {}
    for k in MODE_KS[request.param]:
        cells = _mode_cells(request.param, k, 32)
        sets[k] = cells, _oracle(cells)
    return sets


@pytest.mark.parametrize("count", [1, 2, 8, 16, 32])
def test_lockstep_modes_equal_the_oracle(mode_sets, count):
    for k, (cells, want) in mode_sets.items():
        assert _lockstep(cells[:count]) == want[:count], k


@pytest.mark.parametrize("name", EDGE_CELLS)
def test_lockstep_modes_equal_the_oracle_at_the_edges(name):
    # each edge cell between burr_fig2 replications at its k
    e, tau, sigma2, _ = EDGE_CELLS[name]
    cells = _mode_cells("burr_fig2", e.k, 3)
    cells.insert(1, (e, tau, sigma2))
    assert _lockstep(cells) == _oracle(cells)


def _spy_on_polish(monkeypatch) -> list:
    """Record every polish the search runs: the values sent to it and its end (x, f(x), evaluations)."""
    runs = []

    def spy(a, b):
        run = {"sent": []}
        runs.append(run)
        search = _polish(a, b)
        x = next(search)
        while True:
            f = yield x
            run["sent"].append(f)
            try:
                x = search.send(f)
            except StopIteration as stop:
                run["end"] = stop.value
                return stop.value

    monkeypatch.setattr(bayes, "_polish", spy)
    return runs


def test_lanes_without_a_mode_leave_the_others_alone(monkeypatch):
    runs = _spy_on_polish(monkeypatch)
    tops = {}
    for name in ("max_at_first_admissible_node", "max_at_delta_max"):
        e, tau, sigma2, _ = EDGE_CELLS[name]
        tops[name] = float(np.max(_full_scan(e, tau, sigma2)))
        cells = [_tie(e.k), (e, tau, sigma2)] + _mode_cells("burr_fig2", e.k, 2) + [_tie(e.k)]
        got = _lockstep(cells)
        assert got == _oracle(cells)
        assert got[0].startswith("ClosedFormError") and got[-1] == got[0]
        assert not any(mode.startswith("ClosedFormError") for mode in got[1:-1])
    # the lanes without a mode run no polish: three per chunk ran, the edge cell's first.
    # One edge cell's polish is sent the penalty 1 - top on masked points; in the
    # other the grid node beats the polish's end, and the node is the mode
    assert len(runs) == 6
    assert 1.0 - tops["max_at_first_admissible_node"] in runs[0]["sent"]
    assert runs[3]["end"][1] > -tops["max_at_delta_max"]


def test_closed_forms_equal_one_lane_calls():
    # both routes, a lane without a mode and two lanes that cannot be estimated, at one k
    cells = _mode_cells("burr_fig2", 150, 8)
    e, tau, sigma2 = cells[0]
    cells += [_tie(150), (e, tau, 0.0), (e, 0.5, sigma2)]
    lik = stack([(e, tau) for e, tau, _ in cells])
    got = [_shown(est if isinstance(est, Exception) else et.BayesEstimate(*est))
           for est in _closed_forms(lik, [s for _, _, s in cells])]
    assert got == [_outcome(et.bayes_closed_form, *cell) for cell in cells]
    assert {est.split("solver=")[-1] for est in got[:8]} == {"'linear')", "'profile-map')"}
    assert [est.split(":")[0] for est in got[8:]] == ["ClosedFormError", "ValueError", "ValueError"]


@given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 32), k=st.integers(10, 479),
       tau_kind=st.sampled_from(["-1", "-0.5", "-2", "random"]))
@example(seed=0, lanes=32, k=200, tau_kind="random")
def test_first_order_is_the_oracles_system_to_the_bit(seed, lanes, k, tau_kind):
    # random stacks: three laws, tau fixed or drawn per lane, sigma2 from 1e-4 to 1e12,
    # some lanes without a prior term (weight 0) and some all ties at the threshold
    rng = np.random.default_rng(seed)
    laws = [et.burr(0.75, -0.75), et.frechet(0.5), et.burr(0.5, -2.0)]
    cells = []
    for lane in range(lanes):
        if rng.random() < 0.05:
            e = _tie(k)[0]
        else:
            e = _sample_cell(laws[rng.integers(3)], (seed, lane), k)
        tau = -(10.0 ** rng.uniform(-3.0, 1.0)) if tau_kind == "random" else float(tau_kind)
        sigma2 = math.inf if rng.random() < 0.1 else 10.0 ** rng.uniform(-4.0, 12.0)
        cells.append((e, tau, sigma2))
    lik = stack([(e, tau) for e, tau, _ in cells])
    xi, delta = _first_order(lik, 1.0 / (k * np.array([s for _, _, s in cells])))
    want = []
    for cell in cells:
        try:
            want.append(repr(oracle_first_order(*cell)))
        except ClosedFormError:
            want.append(repr((math.nan, math.nan)))
    assert [repr(pair) for pair in zip(xi.tolist(), delta.tolist())] == want


def _drive(search, f):
    """Run a generator search alone on f; return what it returns (a ``_polish`` search: (x, f(x), evaluations))."""
    answer = None
    try:
        while True:
            answer = f(search.send(answer))
    except StopIteration as stop:
        return stop.value


def _objective(kind, coefs, cut):
    """A finite test function: a polynomial, a damped sine, or a polynomial with a step to 1e3 below cut."""
    def poly(x):
        return sum(c * x ** i for i, c in enumerate(coefs))

    if kind == "poly":
        return poly
    if kind == "sine":
        return lambda x: math.sin(coefs[0] * x) * math.exp(-abs(x) / 50.0) + coefs[-1] * x
    if kind == "step":  # the mode search's penalty on its masked points
        return lambda x: 1e3 if x < cut else poly(x)
    return lambda x: coefs[0]  # flat


@given(kind=st.sampled_from(["poly", "sine", "step", "flat"]),
       coefs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
       a=st.floats(-100.0, 100.0), log10_width=st.floats(-13.0, 2.0), cut=st.floats(0.0, 1.0))
# a flat function, which the search meets where every point it tries is masked, and an
# interval narrower than tol2, where the search stops at its first point
@example(kind="flat", coefs=[2.5], a=0.3, log10_width=0.0, cut=0.0)
@example(kind="poly", coefs=[0.0, -1.0, 1.0], a=1.0, log10_width=-10.0, cut=0.0)
# a step worse than both kept points right after an improving one, which moves the oldest point
@example(kind="sine", coefs=[-4.8, 0.3, 4.8, 3.8], a=-0.7, log10_width=0.1, cut=0.5)
def test_polish_is_scipys_bounded_minimizer(kind, coefs, a, log10_width, cut):
    f = _objective(kind, coefs, cut)
    b = a + 10.0 ** log10_width
    res = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": 1e-10})
    x, fx, evaluations = _drive(_polish(a, b), f)
    assert (repr(x), repr(fx), evaluations) == (repr(float(res.x)), repr(float(res.fun)), res.nfev)
    if log10_width == -10.0:
        assert evaluations == 1


def test_search_memory_stays_within_its_blocks():
    # 32 lanes at k = 450: the passes hold one block of _BUDGET doubles and half one
    # for the slopes, and the scan's bound algebra about as much again; the
    # coarse nodes of all lanes in one pass would hold 32 * 61 * 2 * 450 doubles
    # (14 MB), and the kept nodes about a third of that
    cells = _mode_cells("burr_fig2", 450, 32)
    lik = stack([(e, tau) for e, tau, _ in cells])
    tracemalloc.start()
    try:
        modes = _profile_posterior_modes(lik, [sigma2 for _, _, sigma2 in cells])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(mode, Exception) for mode in modes)
    assert peak < 4 * 8 * _BUDGET, peak


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of a module and of its classes and functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)}


def test_only_the_ml_core_comes_from_scipy_optimize():
    # the mode search's polish is in-house; scipy's minimizers serve only as oracles. The
    # ML fit's core is loaded from its file by name (epd._load_lbfgsb), so a string that
    # names a module counts as an import, and the loaded module must be that extension
    found, core_attrs = set(), set()
    for path in sorted(Path(et.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                found |= {(path.name, f"{node.module}.{alias.name}") for alias in node.names}
            elif isinstance(node, ast.Import):
                found |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                found.add((path.name, f"{node.value.id}.{node.attr}"))
                if node.value.id == "_lbfgsb":
                    core_attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                found.add((path.name, node.value))
    assert {(name, what) for name, what in found if "optimize" in what} == {
        ("epd.py", "scipy.optimize._lbfgsb"), ("epd.py", "optimize")}
    assert core_attrs == {"setulb"}
    core = et.epd._lbfgsb
    assert core.__name__ == "scipy.optimize._lbfgsb"
    assert isinstance(core.__spec__.loader, importlib.machinery.ExtensionFileLoader)
    assert Path(core.__file__).parent == Path(scipy.__file__).parent / "optimize"


def test_tail_probabilities_equal_one_lane_calls():
    # Fréchet replications at k = 30, with lane 2's rho minus its Hill estimate, so
    # that its tau is exactly -1; lane 4 ties at the threshold and lane 6 has rho > 0,
    # so every estimator fails on them. The first x lies below some lanes' thresholds.
    # The one-lane calls run the same array formula, so they agree within an ulp
    k, n = 30, 500
    samples = [et.sample_distribution(et.frechet(0.5), n, np.random.SeedSequence((DESIGN_SEED, rep)))
               for rep in range(6)]
    samples.insert(4, et.SortedSample(np.r_[np.linspace(1.0, 4.0, n - k - 1), np.full(k + 1, 5.0)]))
    rho = [-1.0] * len(samples)
    rho[2] = -et.hill(et.excesses(samples[2], k))
    rho[6] = 0.5
    values = np.array([s.values for s in samples])
    thresholds = sorted(s.threshold(k) for s in samples)
    for x in (thresholds[3], 40.0):
        cells = sim.estimate_cells(values, rho, [(0, i) for i in range(len(samples))], k,
                                   ("hill", "epd_ml", "bayes_closed"), x)
        assert cells.tau[2] == -1.0
        assert [set(cells.errors[i].values()) for i in (4, 6)] == [{"NonEstimableError"}, {"ValueError"}]
        below = 0
        for i, s in enumerate(samples):
            p = cells.estimates[i, :, 2]
            if cells.errors[i] or x < s.threshold(k):
                below += not cells.errors[i]
                assert np.isnan(p).all()
                continue
            (h, _, _), (ml_xi, ml_delta, _), (b_xi, b_delta, _) = cells.estimates[i].tolist()
            assert repr(h) == repr(et.hill(et.excesses(s, k)))
            tau = float(cells.tau[i])
            want = [et.weissman_tail_prob(s, k, x, h),
                    et.epd_tail_prob(s, k, x, et.EPDParams(ml_xi, ml_delta, tau)),
                    et.bayes_tail_prob(s, k, x, et.BayesEstimate(b_xi, b_delta, "linear"), tau)]
            assert all(abs(got - w) <= math.ulp(w) for got, w in zip(p.tolist(), want)), (x, i)
        assert below == (2 if x < 40.0 else 0)


@given(xi=st.floats(0.03, 3.0), tau=st.one_of(st.just(-1.0), st.floats(-10.0, -0.01)),
       frac=st.floats(0.0, 1.0, exclude_min=True), steps=st.lists(st.floats(1.01, 4.0), max_size=8))
# fits just above the model bound: flat at the threshold (tau < -1), and flat throughout
@example(xi=0.05, tau=-4.0, frac=1e-15, steps=[1.01, 1.01])
@example(xi=1.0, tau=-1.0, frac=2.2e-16, steps=[1.203125, 1.03125])
def test_tail_probabilities_are_the_survival(xi, tau, frac, steps):
    # one lane per x, from the threshold (z = x / threshold = 1) up by steps of at least
    # 1%, each with a fit at delta = 0 and one in (lo, DELTA_MAX]
    k, n = 30, 500
    lo = et.delta_lower_bound(tau)
    delta = lo + (DELTA_MAX - lo) * frac
    assume(delta > lo)
    z = np.cumprod([1.0, *steps])
    got = _tail_probs(k / n, z, np.full(z.size, tau), np.full((z.size, 2), xi),
                      np.tile([0.0, delta], (z.size, 1)))
    # within 4 ulp, times the formula's condition number, of the survival to 40 digits
    bound = np.empty(got.shape)
    for i, (zi, row) in enumerate(zip(z.tolist(), got.tolist())):
        for j, (d, p) in enumerate(zip((0.0, delta), row)):
            survival, cond = oracle_survival(zi, tau, xi, d)
            want = k / n * survival
            bound[i, j] = 4 * math.ulp(want) * cond
            assert abs(p - want) <= bound[i, j], (zi, d)
    # non-increasing in x: strictly at delta = 0; under the other fit, which is flat where
    # delta and tau both near -1, it rises by no more than the rounding of both values
    assert (np.diff(got[:, 0]) < 0.0).all()
    assert (np.diff(got[:, 1]) <= bound[:-1, 1] + bound[1:, 1]).all()
    # k/n at the threshold under every fit
    assert got[0].tolist() == [k / n, k / n]
    # at delta = 0, Weissman's, on a sample whose threshold at k is 1, so that x = z
    s = et.SortedSample(np.r_[np.linspace(0.5, 1.0, n - k), np.linspace(2.0, 3.0, k)])
    for zi, p in zip(z.tolist(), got[:, 0].tolist()):
        want = et.weissman_tail_prob(s, k, zi, xi)
        assert abs(p - want) <= math.ulp(want)
