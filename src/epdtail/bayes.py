"""Shrinkage-prior estimation for the extended Pareto excess model.

The perturbation amplitude delta gets a zero-mean normal prior whose
variance shrinks with the threshold, and the tail index gets a proper
gamma approximation of the maximal-data-information prior. Estimation is
by posterior mode, either through the first-order estimating equations
(with an exact-mode fallback where those have no solution) or through a
random-walk Metropolis chain. On the lanes of a likelihood stack
(``epd._Likelihood``) the equations are solved as one array computation,
and the exact-mode search runs the lanes left in lockstep, in passes of a
fixed size over the stack, polished by a port of scipy's bounded minimizer
that the lockstep runner ``epd._lockstep`` drives for all of them. The
search's profile (``_Profiles.from_sums``) and the chain evaluate one log
posterior formula, ``_log_post``, on a lane's row sums by one arithmetic,
``_log1p_sums``, or on bounds of them. The priors' constants come from the
standard library (``math.erfc``, ``math.lgamma``): no ``scipy.special`` runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .data import ExcessSet, SortedSample
from .epd import (DELTA_MAX, EPDParams, _inadmissible, _lane_powers, _Likelihood, _lockstep, delta_lower_bound,
                  epd_tail_prob)

__all__ = [
    "ClosedFormError",
    "PosteriorChain",
    "BayesEstimate",
    "MCMCConfig",
    "prior_variance",
    "bayes_closed_form",
    "metropolis_sample",
    "posterior_mode",
    "hpd_interval",
    "bayes_tail_prob",
    "smooth_path",
]

# shape of the proper gamma (scale 1) approximation to the information prior on xi, and
# the log of its normaliser
_GAMMA_SHAPE = 1e-4
_LOG_GAMMA = math.lgamma(_GAMMA_SHAPE)
# Metropolis tuning: initial step scales in (log xi, delta), and the burn-in
# adaptation that every _ADAPT_INTERVAL proposals nudges both scales toward
# the _TARGET_ACCEPT acceptance rate (Roberts, Gelman & Gilks 1997)
_STEP_LOG_XI = 0.15
_STEP_DELTA = 0.3
_ADAPT_INTERVAL = 50
_TARGET_ACCEPT = 0.234
# the chain's bound table: cells _CELL wide in delta from the model bound, filled
# _BLOCK at a time, none where some 1 + delta*coef is below _FLOOR, widened by _MARGIN
_CELL, _BLOCK, _FLOOR, _MARGIN = 0.005, 32, 0.05, 1e-9
# the posterior-mode scan computes every _STRIDE-th grid node, then the others its bounds keep.
# Its row-sum passes hold at most _BUDGET doubles at a time, and its bound algebra, about 16
# arrays of 481 doubles per lane, runs on _SCAN_LANES lanes at a time
_STRIDE = 8
_BUDGET = 2 ** 16
_SCAN_LANES = _BUDGET // (16 * 481)


class ClosedFormError(RuntimeError):
    """The first-order estimating system has no usable solution."""


@dataclass(frozen=True)
class BayesEstimate:
    """Posterior-mode estimate of (xi, delta) and the route that found it."""

    xi: float
    delta: float
    solver: Literal["linear", "profile-map", "mcmc"]

    def __post_init__(self) -> None:
        if not self.xi > 0:
            raise ValueError("xi must be positive")


@dataclass(frozen=True)
class PosteriorChain:
    """Post-burn-in Metropolis draws of (xi, delta) with their log posteriors."""

    draws: np.ndarray
    logpost: np.ndarray
    acceptance_rate: float

    def __post_init__(self) -> None:
        if self.draws.shape[0] != self.logpost.shape[0]:
            raise ValueError("draws and logpost must have matching lengths")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


def _check_sigma2(sigma2: float) -> None:
    # prior_variance underflows to 0.0 when |rho| is huge
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")


def prior_variance(k: int, n: int, rho: float) -> float:
    """Threshold-driven prior variance (k/n)**(-2*rho)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if rho >= 0:
        raise ValueError(f"rho must be negative, got {rho}")
    return (k / n) ** (-2.0 * rho)


def _log_prior_const(lo: float, sigma2: float) -> float:
    """``_log_post``'s constant: -log of the delta prior's normaliser, of its mass above lo, of Gamma(shape)."""
    sigma = math.sqrt(sigma2)
    mass = 0.5 * math.erfc(lo / (sigma * math.sqrt(2.0)))
    return -math.log(math.sqrt(2.0 * math.pi) * sigma) - math.log(mass) - _LOG_GAMMA


def _log_post(xi, log_xi, g, s2, delta, sigma2, const, k):
    """The log posterior at xi > 0 on the total (not per-observation) scale, for floats or arrays.

    ``g`` is mean(log y) + S1/k and ``s2`` is S2, from a lane's row sums S1 of log1p(delta*a) and S2
    of log1p(delta*b) or bounds of them; ``const`` is ``_log_prior_const``. The log likelihood, then
    the gamma log prior on xi and the normal one on delta.
    """
    return (k * (-log_xi - (1.0 / xi + 1.0) * g + s2 / k)
            + (_GAMMA_SHAPE - 1.0) * log_xi - xi - 0.5 * delta * delta / sigma2 + const)


def _log1p_sums(coef: np.ndarray, delta, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sums of log1p(delta*coef) along the last axis, by a multiply and a log1p in place into ``w``."""
    return np.add.reduce(np.log1p(np.multiply(coef, delta, out=w), out=w), axis=-1, out=out)


def _row_sums(coef: np.ndarray, lane: np.ndarray, deltas: np.ndarray, slope: bool = False) -> tuple:
    """Per row, its lane's sums of log1p(delta*a) and log1p(delta*b) at an admissible delta.

    ``coef`` stacks the lanes' coefficient rows as (lanes x 2 x k), and
    row i is lane ``lane[i]``. Returns the sums as an (n, 2) array, and
    the n sums of b/(1 + delta*b), the second's derivative in delta, if
    ``slope`` (else None). The rows run in blocks of at most _BUDGET
    doubles (half as many again for the slopes), in buffers of the call:
    a block gathers its lanes' coefficients, scales them by delta in
    place, and reduces into its rows of the outputs. Each row is reduced
    alone, so its sums are those of a pass over its lane alone.
    """
    n, k = len(deltas), coef.shape[2]
    size = max(1, min(n, _BUDGET // (2 * k)))
    work, u = np.empty((size, 2, k)), (np.empty((size, k)) if slope else None)
    sums, slopes = np.empty((n, 2)), (np.empty(n) if slope else None)
    for i in range(0, n, size):
        d = deltas[i:i + size, None]
        c = coef.take(lane[i:i + size], axis=0, out=work[:len(d)], mode="clip")
        if slope:
            t = np.add(np.multiply(c[:, 1], d, out=u[:len(d)]), 1.0, out=u[:len(d)])
            np.add.reduce(np.divide(c[:, 1], t, out=t), axis=1, out=slopes[i:i + size])
        _log1p_sums(c, d[:, None], c, sums[i:i + size])
    return sums, slopes


class _BoundTable:
    """Bounds on the row sums S1 of log1p(delta*a) and S2 of log1p(delta*b) of a one-lane stack.

    Both are concave in delta: over a cell the chord lies below S1 and the
    lower end tangent above S2. At fraction f of cell j = (c1, e1, p0, q0, p1, q1),
    S1 >= c1 + e1*f and S2 <= min(p0 + q0*f, p1 + q1*f), widened by _MARGIN*(|S| + k),
    far above any rounding. A cell is None until filled, and NaN where left out.
    """

    def __init__(self, lik: _Likelihood) -> None:
        self.lik, self.lo = lik, float(lik.lo[0])  # a one-lane stack
        self.cells: list = [None] * (_BLOCK * math.ceil((DELTA_MAX - self.lo) / (_CELL * _BLOCK)))

    def fill(self, j: int) -> tuple:
        """Fill the block of cell j by row-sum passes over its _BLOCK + 1 nodes; return cell j."""
        lik = self.lik
        j0 = j - j % _BLOCK
        nodes = self.lo + _CELL * np.arange(j0, j0 + _BLOCK + 1)
        ok = (1.0 + np.outer(nodes, lik.ext)).min(axis=1) >= _FLOOR
        s, q = _row_sums(lik.coef, np.zeros(_BLOCK + 1, int), np.where(ok, nodes, 0.0), slope=True)
        q = _CELL * q  # _CELL * dS2/ddelta
        s1, s2 = s.T
        m1, m2 = (_MARGIN * (np.maximum(abs(s[:-1]), abs(s[1:])) + lik.k) for s in (s1, s2))
        rows = np.column_stack([s1[:-1] - m1, s1[1:] - s1[:-1], s2[:-1] + m2, q[:-1],
                                s2[1:] - q[1:] + m2, q[1:]])
        rows[~(ok[:-1] & ok[1:])] = np.nan
        self.cells[j0:j0 + _BLOCK] = map(tuple, rows.tolist())
        return self.cells[j]


def _first_order(lik: _Likelihood, weight) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's solution (xi, delta) of the first-order estimating system; NaN where it has none.

    The system, with H the Hill estimate, E1 = mean(y**tau) and E2 = mean(y**(2*tau)), is
        xi    = H + delta * (1 - E1)
        delta = (1 - H*tau) * (E1 - 1/(1 - H*tau)) / D(xi)
    where D(xi) = weight*xi - bracket(xi) and bracket is affine in xi. It
    is solved exactly through the equivalent quadratic
    a2*delta**2 + a1*delta - rhs = 0 (linear where |a2| < 1e-300, singular
    where also |a1| < 1e-12). Among its real roots, the admissible one of
    smallest magnitude wins, the smaller on a tie: the branch that
    vanishes in the strong-prior limit. ``weight`` is one number or one
    per lane. No value reads another lane, so a lane's result is the bits
    it gets alone.
    """
    k, tau = lik.k, lik.tau
    h, e1 = lik.sum_log_y / k, lik.sum_pow / k
    e2 = np.add.reduce(_lane_powers(lik.y, 2.0 * tau), axis=1) / k
    with np.errstate(all="ignore"):  # lanes without a root compute NaN and inf, then drop out
        rhs = (1.0 - h * tau) * (e1 - 1.0 / (1.0 - h * tau))
        b0 = 1.0 - 2.0 * e1 + e2 - tau * (1.0 - e1) * e1
        b1 = 2.0 * tau * e1 - (2.0 * tau + tau * tau) * e2
        a1 = (weight - b1) * h - b0
        a2 = (weight - b1) * (1.0 - e1)
        disc = a1 * a1 + 4.0 * a2 * rhs
        q = -(a1 + np.copysign(np.sqrt(disc), a1)) / 2.0
        linear = abs(a2) < 1e-300
        d = np.array([np.where(linear, rhs / a1, np.where(rhs == 0.0, 0.0, q / a2)),
                      np.where(linear | (rhs == 0.0) | ~(abs(q) > 0), np.nan, -rhs / q)])
        d[:, np.where(linear, abs(a1) < 1e-12, disc < 0.0)] = np.nan
        xi = h + d * (1.0 - e1)
    ok = (xi > 0) & (lik.lo < d) & (d <= DELTA_MAX)  # all ties: H = 0 and E1 = 1, so xi = 0
    xi, d = np.where(ok, xi, np.nan), np.where(ok, d, np.nan)
    second = np.isnan(d[0]) | (abs(d[1]) < abs(d[0])) | (abs(d[1]) == abs(d[0])) & (d[1] < d[0])
    return np.where(second, xi[1], xi[0]), np.where(second, d[1], d[0])


class _Profiles:
    """The log posteriors of lanes of a stack over delta, with xi profiled out.

    At fixed delta the maximizing xi solves a quadratic in g = mean(log y +
    log1p(delta*a)), so delta enters through the delta prior and the row
    sums S1 of log1p(delta*a) and S2 of log1p(delta*b). The profile is -inf
    outside the admissible range, where g <= 0, and along the collapse
    direction where the profiled xi falls below 5% of mean(log y): the
    density is unbounded there but carries negligible posterior mass. The
    mode search scans ``grid``, 481 nodes per lane from just above its
    model bound.

    It searches the stack lanes ``rows``, ascending. A row is one (lane,
    delta) pair: the per-lane constants are arrays over those lanes, and
    the row sums of any rows come from ``_row_sums`` on the stack's ``coef``.
    """

    def __init__(self, lik: _Likelihood, sigma2: Sequence[float], lanes: Sequence[int] | None = None) -> None:
        self.k = k = lik.k
        self.coef = lik.coef
        self.rows = rows = np.arange(len(lik.coef)) if lanes is None else np.asarray(lanes, dtype=int)
        self.ext = lik.ext[rows]
        self.sigma2 = np.asarray(sigma2, dtype=float)[rows]
        self.mean_logy = lik.sum_log_y[rows] / k
        self.xi_floor = 0.05 * self.mean_logy
        self.lo = lo = lik.lo[rows]
        self.lp_const = np.array(list(map(_log_prior_const, lo.tolist(), self.sigma2.tolist())))
        self.bq = k + 1.0 - _GAMMA_SHAPE
        # np.linspace(start, DELTA_MAX, 481) of every lane, by linspace's own arithmetic
        start = (lo + 1e-9 * np.maximum(1.0, abs(lo)))[:, None]
        self.grid = np.arange(481.0) * ((DELTA_MAX - start) / 480) + start
        self.grid[:, -1] = DELTA_MAX

    def xi(self, g: np.ndarray) -> np.ndarray:
        """The profiled tail index at g."""
        bq = self.bq
        return (-bq + np.sqrt(bq * bq + 4.0 * self.k * g)) / 2.0

    def from_sums(self, lane, deltas, ok, s1, s2) -> np.ndarray:
        """The profile at rows (lane, delta) from their row sums; -inf where ok is False or masked."""
        k = self.k
        g = self.mean_logy[lane] + s1 / k
        ok = ok & (g > 0.0)
        g_safe = np.where(ok, g, 1.0)
        xi = self.xi(g_safe)
        ok &= xi >= self.xi_floor[lane]
        val = _log_post(xi, np.log(xi), g_safe, s2, deltas, self.sigma2[lane], self.lp_const[lane], k)
        return np.where(ok, val, -np.inf)

    def exact(self, lane: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """The profile at rows (lane, delta) by row-sum passes."""
        ok = (1.0 + deltas[:, None] * self.ext[lane] > 0.0).all(axis=1)
        s = _row_sums(self.coef, self.rows[lane], np.where(ok, deltas, 0.0))[0]
        return self.from_sums(lane, deltas, ok, s[:, 0], s[:, 1])

    def bounds(self, block: slice) -> tuple[np.ndarray, np.ndarray]:
        """Per lane of ``block``, the profile at every _STRIDE-th grid node, and upper bounds of it at the others.

        Row j of a lane bounds the nodes between coarse nodes j and j + 1.
        S1 and S2 are concave in delta, so on a cell S1 lies above its chord
        and S2 below both end tangents; the profile falls as S1 rises and
        rises with S2. Both are widened by _MARGIN*(|S| + k), far above any
        rounding. A bound is inf where it is masked or an end of its cell is
        inadmissible.
        """
        grid = self.grid[block]
        c = grid[:, ::_STRIDE].copy()
        ok = (1.0 + c[:, :, None] * self.ext[block, None] > 0.0).all(axis=2)
        lane = self.rows[block].repeat(c.shape[1])
        s, q = _row_sums(self.coef, lane, np.where(ok, c, 0.0).ravel(), slope=True)
        s1, s2 = s.T.reshape(2, *c.shape, 1)  # copies, so that each is contiguous
        q = q.reshape(*c.shape, 1)
        v = self.from_sums((block, None), c, ok, s1[..., 0], s2[..., 0])
        x = grid[:, :-1].reshape(len(c), -1, _STRIDE)[:, :, 1:]
        lo, hi = c[:, :-1, None], c[:, 1:, None]
        s1 = s1[:, :-1] + (s1[:, 1:] - s1[:, :-1]) * ((x - lo) / (hi - lo))
        s2 = np.minimum(s2[:, :-1] + q[:, :-1] * (x - lo), s2[:, 1:] + q[:, 1:] * (x - hi))
        k = self.k
        bound = self.from_sums((block, None, None), x, True,
                               s1 - _MARGIN * (abs(s1) + k), s2 + _MARGIN * (abs(s2) + k))
        return v, np.where((ok[:, :-1] & ok[:, 1:])[:, :, None] & (bound > -np.inf), bound, np.inf)


def _polish(a: float, b: float):
    """scipy's bounded scalar minimizer, ``_minimize_scalar_bounded``, as a generator.

    It yields each point x in [a, b] to evaluate and is sent f(x) back;
    it returns (x, f(x), evaluations) at its best point. The arithmetic
    is scipy's, step by step, with ``xatol`` 1e-10 and scipy's ``maxiter``
    500, so the same values sent give the same bits.
    """
    xatol, maxiter = 1e-10, 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx, num


def _sign(v: float) -> float:
    """scipy's np.sign(v) + (v == 0): -1 below 0, 1 at and above, NaN at NaN."""
    return -1.0 if v < 0.0 else 1.0 if v >= 0.0 else v


def _profile_posterior_modes(
    lik: _Likelihood, sigma2: Sequence[float], lanes: Sequence[int] | None = None
) -> list[tuple[float, float] | ClosedFormError]:
    """Exact posterior modes of the stack lanes ``lanes`` (all where None), by profiling xi out.

    ``sigma2`` holds every stack lane's prior variance. Each lane's profile
    is scanned on its grid over the admissible delta range, and a bounded
    local polish, ``_polish``, runs around the grid's maximum. The scan
    computes every _STRIDE-th node of every lane, then only the nodes
    whose upper bound reaches the best of their lane's. A node it skips
    stays -inf, and it could not have been the maximum, so the result is
    that of the full scan. The lanes run in lockstep: one set of row-sum
    passes for the coarse nodes of all lanes, one for the nodes kept, and
    one per polish round for every lane's next point, the polishes run by
    ``epd._lockstep``. No sum mixes lanes, so a lane's mode is the bits it
    gets alone. A lane with no admissible grid node holds a
    ClosedFormError.
    """
    p = _Profiles(lik, sigma2, lanes)
    n, k, grid = len(p.rows), p.k, p.grid
    vals = np.full(grid.shape, -np.inf)
    for first in range(0, n, _SCAN_LANES):  # the scan, a block of lanes at a time
        block = slice(first, first + _SCAN_LANES)
        vals[block, ::_STRIDE], bound = p.bounds(block)
        lane, cell, node = np.nonzero(bound >= vals[block].max(axis=1)[:, None, None])
        lane += first
        node += _STRIDE * cell + 1
        vals[lane, node] = p.exact(lane, grid[lane, node])
    best, top = vals.argmax(axis=1), vals.max(axis=1).tolist()
    lo = p.lo.tolist()
    # finite, so the polish's parabolic steps never do arithmetic on inf, and worse
    # than the grid's best, so the rule below rejects a polish ending there
    penalty = [1.0 - v for v in top]

    def evaluate(lanes: list[int], xs: list[float]) -> list[float]:
        v = p.exact(np.array(lanes), np.array(xs)).tolist()
        return [penalty[i] if f == -math.inf else -f for i, f in zip(lanes, v)]

    searches: list = []
    for i, (b, v) in enumerate(zip(best.tolist(), top)):
        if v == -math.inf:
            searches.append(ClosedFormError("posterior mode search found no admissible point"))
            continue
        step = grid[i, 1] - grid[i, 0]
        searches.append(_polish(max(lo[i] + 1e-12 * max(1.0, abs(lo[i])), float(grid[i, b] - step)),
                                min(DELTA_MAX, float(grid[i, b] + step))))
    out = _lockstep(searches, evaluate)
    done = [i for i, end in enumerate(out) if not isinstance(end, ClosedFormError)]
    for i in done:
        x_hat, f_hat, _ = out[i]
        out[i] = x_hat if f_hat <= -top[i] else float(grid[i, best[i]])
    if done:
        s = _row_sums(p.coef, p.rows[done], np.array([out[i] for i in done]))[0]
        for i, xi in zip(done, p.xi(p.mean_logy[done] + s[:, 0] / k).tolist()):
            out[i] = (xi, out[i])
    return out


def _closed_forms(lik: _Likelihood,
                  sigma2: Sequence[float]) -> list[tuple[float, float, str] | ValueError | ClosedFormError]:
    """``bayes_closed_form`` on the lanes of the stack ``lik``, each with its prior variance ``sigma2``.

    One array computation solves every lane's first-order system
    (``_first_order``); the lanes without an admissible root run the exact
    mode search together (``_profile_posterior_modes``). A lane's estimate
    is the tuple (xi, delta, solver), the fields of ``BayesEstimate``; a
    lane that cannot be estimated holds its error.
    """
    s2 = np.asarray(sigma2, dtype=float)
    with np.errstate(all="ignore"):  # a lane whose sigma2 is not positive gets its ValueError below
        xi, delta = _first_order(lik, 1.0 / (lik.k * s2))
    out: list = [None if math.isnan(d) else (x, d, "linear") for x, d in zip(xi.tolist(), delta.tolist())]
    for i in np.flatnonzero((lik.k < 10) | ~(lik.lo < math.inf) | ~(s2 > 0)).tolist():
        try:
            if lik.k < 10:
                raise ValueError(f"need at least 10 excesses, got {lik.k}")
            delta_lower_bound(float(lik.tau[i]))  # a tau outside (-inf, 0) raises
            _check_sigma2(sigma2[i])
        except ValueError as exc:
            out[i] = exc
    search = [i for i, est in enumerate(out) if est is None]
    if search:
        for i, mode in zip(search, _profile_posterior_modes(lik, sigma2, search)):
            out[i] = mode if isinstance(mode, ClosedFormError) else (*mode, "profile-map")
    return out


def bayes_closed_form(e: ExcessSet, tau: float, sigma2: float) -> BayesEstimate:
    """Posterior-mode approximation from the first-order estimating system.

    The system couples the Hill estimate with the tau and 2*tau moment
    statistics; the prior variance sigma2 enters through xi / (k * sigma2). It is solved
    exactly through its quadratic reduction. In strong-bias regimes the
    linearized system can lack a real admissible solution; the estimator
    then falls back to the exact posterior mode found by profile search.
    ``BayesEstimate.solver`` records which route ran. This is
    ``_closed_forms`` on one lane.
    """
    (est,) = _closed_forms(_Likelihood(e.y[None], [tau]), [sigma2])
    if isinstance(est, Exception):
        raise est
    return BayesEstimate(*est)


@dataclass(frozen=True)
class MCMCConfig:
    """Random-walk Metropolis configuration.

    Step scales adapt toward the target acceptance rate during burn-in
    and are frozen afterwards.
    """

    iterations: int = 12000
    burn_in: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.iterations > self.burn_in >= 0:
            raise ValueError("need iterations > burn_in >= 0")


def metropolis_sample(
    e: ExcessSet, tau: float, sigma2: float, config: MCMCConfig
) -> PosteriorChain:
    """Random-walk Metropolis on (log xi, delta) targeting the posterior.

    The chain moves in log xi (with the Jacobian correction), so the
    retained draws follow the posterior of (xi, delta) itself. Stored
    log-posterior values are on the total (not per-observation) scale.
    Deterministic for a fixed seed.

    The log posterior is ``_log_post`` on the lane's row sums, by
    ``_log1p_sums`` on its two coefficient rows, with u as log xi. A
    proposal is first tested against an upper bound of it, ``_log_post`` on
    the ``_BoundTable`` bounds of the two sums. Rounding is monotone, so the
    row-sum pass runs only where the bound is not already rejected.
    """
    _check_sigma2(sigma2)
    k, lik = e.k, _Likelihood(e.y[None], [tau])
    const = _log_prior_const(delta_lower_bound(tau), sigma2)
    rng = np.random.default_rng(config.seed)
    h = float(lik.sum_log_y[0]) / k  # the Hill estimate, mean(log y)
    if h <= 0:
        raise ValueError("all excesses are ties; posterior has no interior mass")

    coef, ext, w = lik.coef[0], lik.ext[0].tolist(), np.empty((2, k))
    u, d = math.log(h), 0.0  # delta = 0 is inside every lane's region
    lp = _log_post(math.exp(u), u, h, 0.0, d, sigma2, const, k)  # both sums are 0 at delta = 0

    s_u, s_d = _STEP_LOG_XI, _STEP_DELTA
    retained = config.iterations - config.burn_in
    draws = np.empty((retained, 2))
    logpost = np.empty(retained)
    accepted_post = batch_accepts = 0
    table = _BoundTable(lik)
    cells, fill, n_cells, lo = table.cells, table.fill, len(table.cells), table.lo
    normal, uniform = rng.standard_normal, rng.random
    exp, log = math.exp, math.log

    for t in range(config.iterations):
        u_new = u + s_u * normal()
        d_new = d + s_d * normal()
        log_u = log(uniform())
        xi_new = exp(u_new)
        x = (d_new - lo) / _CELL
        # an xi that underflows to 0 has zero posterior density
        rejected = not xi_new > 0.0
        if not rejected and 0.0 <= x < n_cells:
            j = int(x)
            c1, e1, p0, q0, p1, q1 = cells[j] or fill(j)
            f = x - j
            lp_hi = _log_post(xi_new, u_new, h + (c1 + e1 * f) / k, min(p0 + q0 * f, p1 + q1 * f), d_new,
                              sigma2, const, k)
            # Jacobian of xi = exp(u): add u to the log target on the sampling scale;
            # a left-out cell's NaN bound rejects nothing
            rejected = log_u >= (lp_hi + u_new) - (lp + u)
        if not rejected and d_new > lo and not _inadmissible(ext, d_new):
            s1, s2 = _log1p_sums(coef, d_new, w).tolist()
            lp_new = _log_post(xi_new, u_new, h + s1 / k, s2, d_new, sigma2, const, k)
            if log_u < (lp_new + u_new) - (lp + u):
                u, d, lp = u_new, d_new, lp_new
                batch_accepts += 1
                if t >= config.burn_in:
                    accepted_post += 1
        if t < config.burn_in and (t + 1) % _ADAPT_INTERVAL == 0:
            rate = batch_accepts / _ADAPT_INTERVAL
            factor = exp(1.5 * (rate - _TARGET_ACCEPT))
            s_u = min(10.0, max(1e-4, s_u * factor))
            s_d = min(10.0, max(1e-4, s_d * factor))
            batch_accepts = 0
        if t >= config.burn_in:
            i = t - config.burn_in
            draws[i, 0] = exp(u)
            draws[i, 1] = d
            logpost[i] = lp

    rate = accepted_post / retained
    if rate <= 0.0 or rate >= 1.0:
        raise RuntimeError(f"degenerate chain: post-burn-in acceptance rate {rate}")
    draws.setflags(write=False)
    logpost.setflags(write=False)
    return PosteriorChain(draws=draws, logpost=logpost, acceptance_rate=float(rate))


def posterior_mode(chain: PosteriorChain) -> tuple[float, float]:
    """The retained draw with the highest log posterior; ties go to the earliest."""
    if chain.draws.shape[0] == 0:
        raise ValueError("empty chain")
    i = int(np.argmax(chain.logpost))
    return float(chain.draws[i, 0]), float(chain.draws[i, 1])


def hpd_interval(draws, alpha: float) -> tuple[float, float]:
    """Shortest interval containing ceil((1-alpha)*m) of the draws.

    Ties between equally short windows resolve to the leftmost one.
    """
    xs = np.sort(np.asarray(draws, dtype=float))
    m = xs.size
    if m < 2:
        raise ValueError("need at least 2 draws")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    w = math.ceil((1.0 - alpha) * m)
    widths = xs[w - 1:] - xs[: m - w + 1]
    i = int(np.argmin(widths))
    return float(xs[i]), float(xs[i + w - 1])


def bayes_tail_prob(
    s: SortedSample, k: int, x: float, est: BayesEstimate, tau: float
) -> float:
    """Exceedance probability under the posterior-mode excess model."""
    params = EPDParams(xi=est.xi, delta=est.delta, tau=tau)
    return epd_tail_prob(s, k, x, params)


def smooth_path(paths, window: int = 5) -> np.ndarray:
    """Centered moving average along the last axis, with a symmetric shrinking window at the edges.

    ``paths`` is one path or an array of them (lanes x k). Missing
    (non-finite) cells are skipped, and a cell whose window holds no
    finite value is NaN. The window must be odd; width 1 is the identity
    on finite cells. A cell's finite values are summed left to right from
    0.0 and divided by their count: the bits of their ``np.mean`` when
    they are fewer than 8, as numpy's ``add.reduce`` sums those in order.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    x = np.asarray(paths, dtype=float)
    i = np.arange(x.shape[-1])
    half = np.minimum(i, i[::-1])  # the half-width at which a cell's window meets an end
    total, count = np.zeros(x.shape), np.zeros(x.shape, dtype=int)
    for j in range(-(window // 2), window // 2 + 1):
        v = x[..., np.clip(i + j, 0, i.size - 1)]
        take = (abs(j) <= half) & np.isfinite(v)
        np.add(total, v, out=total, where=take)
        count += take
    return np.divide(total, count, out=np.full(x.shape, np.nan), where=count > 0)
