"""The study kernels return the bits of their earlier, slower forms.

The mode search and the ML fit on one-lane stacks (``profile_posterior_mode``
and ``epd_ml_fits``) are compared with the copies in ``tests/oracles.py``,
which build each lane's coefficients alone, through ``repr``, which round-trips every
bit of a float, on every k of one replication of each bundled study
design and of a design with tau < -1, and of a second Fréchet
replication whose fits include one that does not converge. The mode
search is also compared on four more Burr replications and on cells
built to put its maximum or its masks at the edges of the grid. The
study cells are built by ``estimate_cells``, as a study replication
builds them. The lockstep ML driver, ``epd_ml_fits``, must give every
lane the fit that lane gets alone, on stacks of up to 100 replications
of both designs, as wide as a chunk of a serial 200-replication study,
and the lockstep mode search, ``_profile_posterior_modes``, the oracle's
mode on stacks of up to 100 replications of all three designs and on
the edge cells; past the 32nd lane, a lane is compared with its one-lane
search, which the oracle checks. The serial ``frechet_fig1`` study runs
2 chunks of 100 and about 25 lanes per ML round. Its polish,
``_polish``, must return scipy's bounded minimizer's bits. The runner of both lockstep searches, ``epd._lockstep``, must give
fake searches what each gets alone, and a penalised ML point must cost
no row of a likelihood pass. The first-order solution of random stacks, ``_first_order``, must
give every lane the bits of the one-lane system ``oracle_first_order``.
The tail probabilities that ``estimate_cells`` computes for all lanes at
once, ``epd._tail_probs``, must be the survival to within its rounding
(``oracle_survival``), fall as x grows, be k/n at the threshold and
Weissman's at delta = 0. Each of the five functions of the likelihood
stack, from the excesses to the tail probabilities, must give a lane of a
random stack the bits that lane gets alone; so must, on fixed stacks, the
closed forms on both routes, a long chain on three lanes of 32, and
``estimate_cells``' estimates and tail probabilities on seven samples.
The gate of ``estimate_cells``, the one place that decides which lanes
each estimator runs on, must give every lane of a stack that mixes good
lanes with lanes that break its rules the errors of those rules and no
other, and the bits it gets alone.
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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import epdtail as et
from epdtail import bayes
from epdtail.bayes import (
    _BUDGET,
    _WIDTHS,
    ClosedFormError,
    _closed_forms,
    _first_order,
    _polish,
    _profile_posterior_modes,
    _Profiles,
)
from epdtail.data import excess_matrix
from epdtail.epd import DELTA_MAX, _Likelihood, _tail_probs, epd_ml_fits
from oracles import (
    OracleLikelihood,
    epd_sample,
    loglik,
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
    """(k, excesses, tau, sigma2) for every k of one study replication, as ``estimate_cells`` has them."""
    s = et.sample_distribution(dist, n, np.random.SeedSequence((DESIGN_SEED, rep)))
    rho = et.resolve_rho(s)[0] if rho_mode == "fraga" else rho_mode
    cells = []
    for k in k_grid:
        c = et.estimate_cells(s.values[None], [rho], [(DESIGN_SEED, rep)], k, ("hill",))
        cells.append((k, excess_matrix(s.values[None], k)[1][0], float(c.tau[0]), float(c.sigma2[0])))
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


def _shown(result):
    """A stack function's result for one lane, as ``_outcome`` shows that of a one-lane call."""
    return f"{type(result).__name__}: {result}" if isinstance(result, Exception) else repr(result)


def _fit(y, tau):
    """The ML fit of one lane alone, on a one-lane stack, as ``_outcome`` shows it."""
    return _shown(epd_ml_fits(stack([(y, tau)]))[0])


def test_designs_cover_tau_below_minus_one():
    taus = [tau for _, _, tau, _ in _rep_cells(*DESIGNS["burr_tau_below_minus_one"])]
    assert max(taus) < -1.0


@pytest.mark.parametrize("name, rep", MODE_REPS, ids=[_rep_id(p) for p in MODE_REPS])
def test_profile_posterior_mode_matches_oracle(name, rep):
    for k, y, tau, sigma2 in _rep_cells(*DESIGNS[name], rep=rep):
        got = _outcome(profile_posterior_mode, y, tau, sigma2)
        assert got == _outcome(oracle_profile_posterior_mode, y, tau, sigma2), k


def _full_scan(y, tau, sigma2):
    """The exact profile at every node of the search's grid."""
    p = _Profiles(stack([(y, tau)]), [sigma2], [0])
    return p.exact(np.zeros(p.grid.shape[1], int), p.grid[0])


def _sample_cell(dist, seed, k):
    return excess_matrix(et.sample_distribution(dist, 500, seed).values[None], k)[1][0]


def _epd_cell(xi, delta, tau, k, seed):
    return np.sort(epd_sample(xi, delta, tau, k, seed))[::-1].copy()


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
                           lambda v: v[0] == -np.inf and _first(v[::_WIDTHS[0]]) == 1),
    "floor_masks_inner_nodes": (_epd_cell(0.5, 50.0, -1.0, 300, 7), -1.0, 1e4,
                                lambda v: _first(v) == 3 and np.argmax(v) == v.size - 1),
}


@pytest.mark.parametrize("name", EDGE_CELLS)
def test_profile_posterior_mode_matches_oracle_at_the_edges(name):
    y, tau, sigma2, shows = EDGE_CELLS[name]
    assert shows(_full_scan(y, tau, sigma2))
    got = _outcome(profile_posterior_mode, y, tau, sigma2)
    assert not got.startswith("ClosedFormError")
    assert got == _outcome(oracle_profile_posterior_mode, y, tau, sigma2)


def _scan_rows(monkeypatch) -> list[int]:
    """Record the row-sum rows each mode-search scan computes for each lane it searches, slopes included.

    The polish's rows are not counted; a full scan would compute 481 rows
    for every lane.
    """
    rows: list[int] = []
    scan, row_sums = _Profiles.scan, bayes._row_sums

    def scan_spy(self):
        count = np.zeros(len(self.rows), int)

        def row_sums_spy(coef, lane, deltas, slope=False):
            count[:] += np.bincount(np.searchsorted(self.rows, lane), minlength=count.size)
            return row_sums(coef, lane, deltas, slope)

        monkeypatch.setattr(bayes, "_row_sums", row_sums_spy)
        try:
            return scan(self)
        finally:
            monkeypatch.setattr(bayes, "_row_sums", row_sums)
            rows.extend(count.tolist())

    monkeypatch.setattr(_Profiles, "scan", scan_spy)
    return rows


def test_mode_search_prunes_most_of_the_grid(monkeypatch):
    rows = _scan_rows(monkeypatch)
    for _, y, tau, sigma2 in _rep_cells(*DESIGNS["burr_fig2"]):
        profile_posterior_mode(y, tau, sigma2)
    # the scan's work, printed into the CI job summary: deterministic, as the cells are
    print(f"\nMODE-SEARCH rows per search: mean {np.mean(rows):.2f} max {max(rows)} "
          f"({len(rows)} burr_fig2 cells of replication 0)")
    assert len(rows) == 65
    # every search computes more than the nodes of the first width. The most any
    # of these computes is 48 rows, and the bound leaves a quarter of that as headroom
    assert min(rows) > 480 // _WIDTHS[0] + 1, rows
    assert max(rows) <= 60, rows


def test_mode_search_rows_on_a_serial_burr_unit(monkeypatch):
    # one unit of the serial burr_fig2 study, 16 replications at the design's
    # master seed, as the benchmark's burr_w1 runs it at seed 0: every k runs
    # its searches in one lockstep stack
    rows = _scan_rows(monkeypatch)
    et.run_study(et.MCStudyConfig(dist=et.burr(0.75, -0.75), n=500, reps=16, k_grid=tuple(range(90, 411, 5)),
                                  estimators=("bayes_closed",), master_seed=DESIGN_SEED))
    assert len(rows) == 983
    assert np.mean(rows) <= 50.0, np.mean(rows)


def test_lockstep_width_of_a_serial_frechet_study(monkeypatch):
    # the serial frechet_fig1 study, 200 replications at the design's master seed, as the
    # benchmark's frechet_w1 runs it at seed 0. Its chunks are the lockstep stacks: 2 of 100
    # lanes run 1 102 ML rounds for 27 433 lane evaluations, and the bound leaves a quarter
    # of those rounds as headroom
    chunks, lanes = [], []  # each chunk's replications, each round's lanes
    study_chunk, fg_sums = et.simulate._study_chunk, et.epd._fg_sums

    def chunk_spy(cfg, k_grid, x_level, reps):
        chunks.append(len(reps))
        return study_chunk(cfg, k_grid, x_level, reps)

    def fg_sums_spy(coef, *rest):
        lanes.append(len(coef))
        return fg_sums(coef, *rest)

    monkeypatch.setattr(et.simulate, "_study_chunk", chunk_spy)
    monkeypatch.setattr(et.epd, "_fg_sums", fg_sums_spy)
    et.run_study(et.MCStudyConfig(dist=et.frechet(0.5), n=500, reps=200, k_grid=tuple(range(10, 61, 5)),
                                  rho_mode="fixed_minus_one", target_p=0.002, master_seed=DESIGN_SEED))
    # the stacks' width, printed into the CI job summary: deterministic, as the fits are
    print(f"\nLOCKSTEP frechet_fig1: {len(chunks)} chunks of {max(chunks)}, {len(lanes)} ML rounds, "
          f"{sum(lanes) / len(lanes):.2f} lanes per round")
    assert chunks == [100, 100]
    assert sum(lanes) == 27_433
    assert len(lanes) <= 1.25 * 1_102, len(lanes)


def test_ml_fit_matches_oracle(cells):
    for k, y, tau, _ in cells:
        assert _fit(y, tau) == _outcome(oracle_epd_ml_fit, y, tau), k


def test_compared_fits_include_one_that_does_not_converge():
    # so that the comparison covers the mapping of the core's stop to converged
    # and iterations on both sides of it
    converged = {epd_ml_fits(stack([(y, tau)]))[0][3]
                 for name, rep in REPS for _, y, tau, _ in _rep_cells(*DESIGNS[name], rep=rep)}
    assert converged == {True, False}


@pytest.mark.parametrize("limit, option, value", [("_LBFGSB_MAXITER", "maxiter", 2),
                                                  ("_LBFGSB_MAXFUN", "maxfun", 3)])
def test_ml_fit_stops_at_scipys_limits_like_the_oracle(monkeypatch, limit, option, value):
    # the iteration limit (task 504) and the evaluation limit (task 502),
    # which no fit of the designs above reaches
    monkeypatch.setattr(et.epd, limit, value)
    k, y, tau, _ = _rep_cells(*DESIGNS["burr_fig2"])[22]
    assert k == 200
    (got,) = epd_ml_fits(stack([(y, tau)]))
    assert not got[3]
    assert repr(got) == repr(oracle_epd_ml_fit(y, tau, **{option: value}))


def test_both_raise_where_no_grid_point_is_admissible():
    # all excesses tie at the threshold: g = 0 on the whole grid
    y = np.ones(20)
    got = _outcome(profile_posterior_mode, y, -1.0, 1.0)
    assert got.startswith("ClosedFormError")
    assert got == _outcome(oracle_profile_posterior_mode, y, -1.0, 1.0)


class TestFusedLikelihood:
    TAU = -1.5

    def _y(self):
        return _rep_cells(*DESIGNS["burr_fig2"])[20][1]

    @pytest.mark.parametrize("xi, delta", [(0.7, 0.0), (0.3, -0.4), (1.9, 2.5), (1e-3, 9.9)])
    def test_same_bits_as_call_and_grad(self, xi, delta):
        y = self._y()
        value, d_xi, d_delta = loglik_value_and_grad(stack([(y, self.TAU)]), xi, delta)
        assert repr(value) == repr(OracleLikelihood(y, self.TAU)(xi, delta))
        assert repr((d_xi, d_delta)) == repr(oracle_loglik_grad(OracleLikelihood(y, self.TAU), xi, delta))

    @pytest.mark.parametrize("xi, delta", [(0.0, 0.1), (-1.0, 0.1), (0.5, -0.7), (0.5, -5.0)])
    def test_none_outside_the_region(self, xi, delta):
        y = self._y()
        lik = stack([(y, self.TAU)])
        assert loglik(lik, xi, delta) == -math.inf
        assert loglik_value_and_grad(lik, xi, delta) is None
        with pytest.raises(ValueError, match="outside the parameter region"):
            oracle_loglik_grad(OracleLikelihood(y, self.TAU), xi, delta)

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
        _, y, tau, _ = _rep_cells(*DESIGNS["burr_fig2"])[0]
        assert _fit(y, tau) == repr(oracle_epd_ml_fit(y, tau))
        (pen, pen_grad, _), (val, _, _) = calls[1:3]
        assert pen == 1e12 and pen_grad == [0.0, 0.0]
        assert val < 1e12


# the thresholds at which the lockstep fits are compared: both ends and the middle of each grid
LANE_KS = {"burr_fig2": (90, 200, 410), "frechet_fig1": (10, 35, 60)}


def _lanes(name, k, count):
    """(excesses, tau) at k of the first ``count`` replications of a design, as ``estimate_cells`` has them."""
    dist, _, rho_mode = DESIGNS[name]
    samples = [et.sample_distribution(dist, 500, np.random.SeedSequence((DESIGN_SEED, rep))) for rep in range(count)]
    values = np.array([s.values for s in samples])
    rho = [et.resolve_rho(s)[0] if rho_mode == "fraga" else rho_mode for s in samples]
    cells = et.estimate_cells(values, rho, [(DESIGN_SEED, rep) for rep in range(count)], k, ("hill",))
    return list(zip(excess_matrix(values, k)[1], cells.tau.tolist()))


@pytest.fixture(scope="module", params=sorted(LANE_KS))
def lane_sets(request):
    return {k: _lanes(request.param, k, 100) for k in LANE_KS[request.param]}


@pytest.mark.parametrize("count", [1, 2, 8, 32, 100])
def test_lockstep_fits_equal_one_lane_fits_and_the_oracle(lane_sets, count):
    # 100 lanes are a chunk of a serial 200-replication study at n = 500; the
    # oracle checks the first 32, and every lane is checked against its fit alone
    for k, lanes in lane_sets.items():
        got = [repr(fit) for fit in epd_ml_fits(stack(lanes[:count]))]
        assert got == [_fit(y, tau) for y, tau in lanes[:count]], k
        assert got[:32] == [repr(oracle_epd_ml_fit(y, tau)) for y, tau in lanes[:min(count, 32)]], k


def test_a_lane_that_raises_leaves_the_others_alone(monkeypatch):
    # all excesses tie at the threshold: Hill is 0 and the fit has no interior maximum. The gate
    # of estimate_cells fails the tie lanes with a NonEstimableError and stacks only the others,
    # whose fits are the fits they get alone
    dist, _, rho = DESIGNS["frechet_fig1"]
    good = [et.sample_distribution(dist, 500, np.random.SeedSequence((DESIGN_SEED, rep))).values for rep in range(3)]
    tie = np.r_[np.linspace(1.0, 4.0, 479), np.full(21, 5.0)]
    stacked = []
    monkeypatch.setattr(et.simulate, "_Likelihood", lambda y, *rest: stacked.append(len(y)) or _Likelihood(y, *rest))
    cells = et.estimate_cells(np.array([tie, good[0], good[1], tie, good[2]]), [rho] * 5, [(i,) for i in range(5)],
                              20, ("hill", "epd_ml"))
    assert stacked == [3]
    tied = dict.fromkeys(("hill", "epd_ml"), "NonEstimableError")
    assert cells.errors == [tied, {}, {}, tied, {}]
    assert np.isnan(cells.estimates[[0, 3]]).all()
    want = [epd_ml_fits(stack([lane]))[0][:2] for lane in _lanes("frechet_fig1", 20, 3)]
    assert [repr(tuple(cells.estimates[i, 1, :2].tolist())) for i in (1, 2, 4)] == [repr(w) for w in want]


@pytest.mark.parametrize("limit, option, value", [("_LBFGSB_MAXITER", "maxiter", 2),
                                                  ("_LBFGSB_MAXFUN", "maxfun", 3)])
def test_lockstep_lanes_stop_at_scipys_limits_like_the_oracle(monkeypatch, limit, option, value):
    monkeypatch.setattr(et.epd, limit, value)
    lanes = _lanes("burr_fig2", 200, 8)
    got = epd_ml_fits(stack(lanes))
    assert not any(converged for _, _, _, converged, _ in got)
    assert [repr(fit) for fit in got] == [_fit(y, tau) for y, tau in lanes]
    assert [repr(fit) for fit in got] == [repr(oracle_epd_ml_fit(y, tau, **{option: value})) for y, tau in lanes]


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
    assert got == [_fit(y, tau) for y, tau in lanes]
    assert got == [repr(oracle_epd_ml_fit(y, tau)) for y, tau in lanes]


# the lockstep mode search: the thresholds at which it is compared, both ends and the middle of each grid
MODE_KS = {"burr_fig2": (90, 250, 410), "frechet_fig1": (10, 35, 60),
           "burr_tau_below_minus_one": (20, 240, 480)}


def _mode_cells(name, k, count):
    """(excesses, tau, sigma2) at k of the first ``count`` replications of a design."""
    dist, _, rho_mode = DESIGNS[name]
    return [_rep_cells(dist, (k,), rho_mode, rep=rep)[0][1:] for rep in range(count)]


def _lockstep(cells):
    """The lockstep search on cells (excesses, tau, sigma2), each mode as ``_outcome`` shows it."""
    lik = stack([(y, tau) for y, tau, _ in cells])
    modes = _profile_posterior_modes(lik, [sigma2 for _, _, sigma2 in cells], range(len(cells)))
    return [_shown(mode) for mode in modes]


def _oracle(cells):
    return [_outcome(oracle_profile_posterior_mode, *cell) for cell in cells]


def _tie(k):
    """All excesses tie at the threshold: g = 0 on the whole grid, so no node is admissible."""
    return np.ones(k), -1.0, 1.0


@pytest.fixture(scope="module", params=sorted(MODE_KS))
def mode_sets(request):
    """Per k: 100 replications' cells, the oracle's mode of the first 32 and the one-lane search's of the rest."""
    sets = {}
    for k in MODE_KS[request.param]:
        cells = _mode_cells(request.param, k, 100)
        sets[k] = cells, _oracle(cells[:32]) + [_lockstep([cell])[0] for cell in cells[32:]]
    return sets


@pytest.mark.parametrize("count", [1, 2, 8, 16, 32, 100])
def test_lockstep_modes_equal_the_oracle(mode_sets, count):
    for k, (cells, want) in mode_sets.items():
        assert _lockstep(cells[:count]) == want[:count], k


@pytest.mark.parametrize("name", EDGE_CELLS)
def test_lockstep_modes_equal_the_oracle_at_the_edges(name):
    # each edge cell between burr_fig2 replications at its k
    y, tau, sigma2, _ = EDGE_CELLS[name]
    cells = _mode_cells("burr_fig2", y.size, 3)
    cells.insert(1, (y, tau, sigma2))
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
        y, tau, sigma2, _ = EDGE_CELLS[name]
        tops[name] = float(np.max(_full_scan(y, tau, sigma2)))
        cells = [_tie(y.size), (y, tau, sigma2)] + _mode_cells("burr_fig2", y.size, 2) + [_tie(y.size)]
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
    # both routes and a lane at sigma2 = 0, at one k: each lane of a 9-lane stack gets what it
    # gets on a one-lane stack, and the lane at sigma2 = 0 the strong-prior limit, Hill's bits
    # with a delta of +-0, by the linear route
    cells = _mode_cells("burr_fig2", 150, 8)
    y, tau, sigma2 = cells[0]
    cells.append((y, tau, 0.0))
    lik = stack([(y, tau) for y, tau, _ in cells])
    ests = _closed_forms(lik, [s for _, _, s in cells])
    got = [_shown(est) for est in ests]
    assert got == [_shown(_closed_forms(stack([(y, tau)]), [s])[0]) for y, tau, s in cells]
    assert {est.split(", ")[-1] for est in got[:8]} == {"'linear')", "'profile-map')"}
    xi, delta, solver = ests[8]
    assert repr(xi) == repr(float(lik.sum_log_y[8]) / lik.k) and delta == 0.0 and solver == "linear"


def _gate(h, rho, k, n):
    """The errors that the gate's rules give a lane with Hill h and rho at k of n, computed anew."""
    if not h > 0:
        return dict.fromkeys(et.simulate.ESTIMATORS, "NonEstimableError")
    if not (rho < 0 and math.isfinite(rho / h)):
        return dict.fromkeys(et.simulate.ESTIMATORS, "ValueError")
    fails = ["epd_ml", "bayes_closed"] if k < 10 else []
    return dict.fromkeys(fails + ["bayes_mcmc"] * (k < 10 or not (k / n) ** (-2.0 * rho) > 0), "ValueError")


# the lanes a gate example mixes: good ones, and one kind for each rule that stops a lane
GATE_KINDS = ("good", "good", "tie", "rho 0", "rho nan", "rho -1e308", "rho -600")


@given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 12), k=st.sampled_from([3, 9, 10, 40, 150]))
@settings(max_examples=10)
@example(seed=0, lanes=12, k=40)
@example(seed=1, lanes=12, k=9)
def test_estimate_cells_is_the_one_gate_of_every_lane(seed, lanes, k):
    # a stack that mixes good Burr and Fréchet lanes with lanes that break a rule: every excess
    # tied (Hill 0), a rho of 0 or NaN, a rho of -1e308 (tau overflows where Hill is below 0.56,
    # and the prior variance underflows to 0 elsewhere), a rho of -600 (the prior variance is 0)
    # and, drawn for the whole stack, k < 10. The errors are those of the gate's rules, no other
    # class appears, and every lane gets the bits it gets alone
    rng = np.random.default_rng(seed)
    n, laws = 300, [et.burr(0.75, -0.75), et.frechet(0.5)]
    values, rho = np.empty((lanes, n)), []
    for i, kind in enumerate(rng.choice(GATE_KINDS, lanes).tolist()):
        values[i] = et.sample_distribution(laws[rng.integers(2)], n, (seed, i)).values
        if kind == "tie":
            values[i, n - k - 1:] = values[i, n - k - 1]
        rho.append(-float(rng.uniform(0.2, 2.0)) if kind in ("good", "tie") else float(kind.split()[1]))
    names, x, cfg = et.simulate.ESTIMATORS, 8.0, et.MCMCConfig(iterations=300, burn_in=100)
    cells = et.estimate_cells(values, rho, [(seed, i) for i in range(lanes)], k, names, x, cfg)
    y = excess_matrix(values, k)[1]
    assert cells.errors == [_gate(float(np.log(y[i]).sum()) / k, rho[i], k, n) for i in range(lanes)]
    for i in range(lanes):
        alone = et.estimate_cells(values[i:i + 1], rho[i:i + 1], [(seed, i)], k, names, x, cfg)
        assert alone.errors[0] == cells.errors[i]
        for field in ("threshold", "hill", "tau", "sigma2", "estimates"):
            assert getattr(alone, field)[0].tobytes() == getattr(cells, field)[i].tobytes(), (i, field)
        got, want = cells.chains[i], alone.chains[0]
        assert (got is want is None) or _bits(got) == _bits(want)


@pytest.mark.parametrize("lane", [0, 15, 31])
def test_a_chain_on_a_stack_lane_is_the_one_lane_chain(lane):
    # the chain reads its lane's rows of a 32-lane stack in place: the draws, log posteriors
    # and acceptance rate of the chain on that lane as a one-lane stack
    lanes = _lanes("burr_fig2", 200, 32)
    cfg = et.MCMCConfig(iterations=2000, burn_in=500, seed=lane)
    got = bayes._chain(stack(lanes), lane, 0.25, cfg)
    want = bayes._chain(stack([lanes[lane]]), 0, 0.25, cfg)
    assert np.array_equal(got.draws, want.draws) and np.array_equal(got.logpost, want.logpost)
    assert got.acceptance_rate == want.acceptance_rate


def _bits(result) -> bytes:
    """A lane's result as bytes: a tuple's floats by ``tobytes`` and its other fields, a chain's
    draws, log posteriors and rate, or an error's class and message."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}".encode()
    if isinstance(result, et.PosteriorChain):
        return result.draws.tobytes() + result.logpost.tobytes() + np.float64(result.acceptance_rate).tobytes()
    floats = [v for v in result if type(v) is float]
    return np.array(floats).tobytes() + repr([v for v in result if type(v) is not float]).encode()


@given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(2, 32), k=st.integers(10, 200))
@settings(max_examples=10)
@example(seed=0, lanes=32, k=150)
def test_every_stack_function_gives_a_lane_the_bits_it_gets_alone(seed, lanes, k):
    # random stacks of three laws, with mixed tau (-1, -0.5 and -2 among them, where tau or 2*tau is
    # an exponent that numpy's scalar power takes by its own route): lane i of the excesses, ML fits,
    # closed forms, chains and tail probabilities of the stack is the lane alone. The lanes that the
    # gate of estimate_cells stops are never stacked (test_estimate_cells_is_the_one_gate_of_every_lane)
    rng = np.random.default_rng(seed)
    laws = [et.burr(0.75, -0.75), et.frechet(0.5), et.burr(0.5, -2.0)]
    n = 300
    values = np.array([et.sample_distribution(laws[rng.integers(3)], n, (seed, lane)).values
                       for lane in range(lanes)])
    tau = np.array([rng.choice([-1.0, -0.5, -2.0, -(10.0 ** rng.uniform(-2.0, 1.0))]) for _ in range(lanes)])
    sigma2 = 10.0 ** rng.uniform(-4.0, 2.0, lanes)
    z = np.where(rng.random(lanes) < 0.2, 1.0, 1.0 + rng.exponential(2.0, lanes))  # x / threshold
    cfg = et.MCMCConfig(iterations=300, burn_in=100, seed=seed)

    def run(rows):
        threshold, y = excess_matrix(values[rows], k)
        lik = _Likelihood(y, tau[rows], np.log(y))
        fits, modes = epd_ml_fits(lik), _closed_forms(lik, sigma2[rows].tolist())
        chains = [bayes._chain(lik, lane, float(s2), cfg) for lane, s2 in enumerate(sigma2[rows])]
        xi, delta = (np.array([[math.nan] * 2 if isinstance(f, Exception) or isinstance(m, Exception)
                               else [f[j], m[j]] for f, m in zip(fits, modes)]) for j in (0, 1))
        probs = _tail_probs(k / n, z[rows], tau[rows], xi, delta)
        return [[threshold[i].tobytes(), y[i].tobytes(), _bits(fits[i]), _bits(modes[i]), _bits(chains[i]),
                 probs[i].tobytes()] for i in range(len(probs))]

    whole = run(slice(None))
    for i in range(lanes):
        assert whole[i] == run(slice(i, i + 1))[0], i


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
            y = _tie(k)[0]
        else:
            y = _sample_cell(laws[rng.integers(3)], (seed, lane), k)
        tau = -(10.0 ** rng.uniform(-3.0, 1.0)) if tau_kind == "random" else float(tau_kind)
        sigma2 = math.inf if rng.random() < 0.1 else 10.0 ** rng.uniform(-4.0, 12.0)
        cells.append((y, tau, sigma2))
    lik = stack([(y, tau) for y, tau, _ in cells])
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
    # for the slopes, and the scan's bound algebra about as much again; the rows
    # the scan computes, about 44 per lane, would hold 32 * 44 * 2 * 450 doubles
    # (10 MB) in one pass
    cells = _mode_cells("burr_fig2", 450, 32)
    lik = stack([(y, tau) for y, tau, _ in cells])
    tracemalloc.start()
    try:
        modes = _profile_posterior_modes(lik, [sigma2 for _, _, sigma2 in cells], range(len(cells)))
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
    # Each lane of the seven-lane call gets the bits of the call on that sample alone
    k, n = 30, 500
    samples = [et.sample_distribution(et.frechet(0.5), n, np.random.SeedSequence((DESIGN_SEED, rep)))
               for rep in range(6)]
    samples.insert(4, et.SortedSample(np.r_[np.linspace(1.0, 4.0, n - k - 1), np.full(k + 1, 5.0)]))
    values = np.array([s.values for s in samples])
    rho = [-1.0] * len(samples)
    rho[2] = -float(et.estimate_cells(values[2:3], [-1.0], [(0, 2)], k, ("hill",)).hill[0])
    rho[6] = 0.5
    keys = [(0, i) for i in range(len(samples))]
    estimators = ("hill", "epd_ml", "bayes_closed")
    thresholds = sorted(s.threshold(k) for s in samples)
    for x in (thresholds[3], 40.0):
        cells = et.estimate_cells(values, rho, keys, k, estimators, x)
        assert cells.tau[2] == -1.0
        assert [set(cells.errors[i].values()) for i in (4, 6)] == [{"NonEstimableError"}, {"ValueError"}]
        below = 0
        for i, s in enumerate(samples):
            alone = et.estimate_cells(values[i:i + 1], rho[i:i + 1], keys[i:i + 1], k, estimators, x)
            assert cells.estimates[i].tobytes() == alone.estimates[0].tobytes(), (x, i)
            assert cells.errors[i] == alone.errors[0], (x, i)
            p = cells.estimates[i, :, 2]
            if cells.errors[i] or x < s.threshold(k):
                below += not cells.errors[i]
                assert np.isnan(p).all()
            else:
                assert np.isfinite(p).all() and (p > 0).all(), (x, i)
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
    # at delta = 0, Weissman's (k/n) * z**(-1/xi)
    for zi, p in zip(z.tolist(), got[:, 0].tolist()):
        want = k / n * zi ** (-1.0 / xi)
        assert abs(p - want) <= math.ulp(want)
