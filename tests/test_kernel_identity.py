"""The study kernels return the bits of their earlier, slower forms.

``_profile_posterior_mode`` and ``epd_ml_fit`` are compared with the
copies in ``tests/oracles.py`` through ``repr``, which round-trips every
bit of a float, on every k of one replication of each bundled study
design and of a design with tau < -1, and of a second Fréchet
replication whose fits include one that does not converge. The cells
are built the way a study replication builds them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import epdtail as et
from epdtail.bayes import ClosedFormError, _profile_posterior_mode
from epdtail.epd import _Likelihood
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


@pytest.fixture(scope="module", params=REPS,
                ids=lambda p: p[0] if p[1] == 0 else f"{p[0]}_rep{p[1]}")
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


def test_profile_posterior_mode_matches_oracle(cells):
    for k, e, tau, sigma2 in cells:
        got = _outcome(_profile_posterior_mode, e, tau, sigma2)
        assert got == _outcome(oracle_profile_posterior_mode, e, tau, sigma2), k


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
