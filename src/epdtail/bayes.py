"""Shrinkage-prior estimation for the extended Pareto excess model.

The perturbation amplitude delta gets a zero-mean normal prior whose
variance shrinks with the threshold, and the tail index gets a proper
gamma approximation of the maximal-data-information prior. Estimation is
by posterior mode, either through the first-order estimating equations
(with an exact-mode fallback where those have no solution) or through a
random-walk Metropolis chain. On the lanes of a likelihood stack
(``epd._Likelihood``) the equations are solved as one array computation,
and the exact-mode search runs the lanes left in lockstep, in passes of a
fixed size over the stack: a scan of a delta grid, coarse to fine, that
computes only the nodes its concavity bounds cannot rule out, polished by a
port of scipy's bounded minimizer that the lockstep runner ``epd._lockstep``
drives for all of them. The search's profile (``_Profiles.from_sums``) and
the chain evaluate one log posterior formula, ``_log_post``, on a lane's row
sums by one arithmetic, ``_log1p_sums``, or on bounds of them. The priors'
constants come from the standard library (``math.erfc``, ``math.lgamma``):
no ``scipy.special`` runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .epd import DELTA_MAX, _inadmissible, _lane_powers, _Likelihood, _lockstep

__all__ = [
    "ClosedFormError",
    "PosteriorChain",
    "MCMCConfig",
    "prior_variance",
    "posterior_mode",
    "hpd_interval",
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
# the posterior-mode scan computes the grid nodes _WIDTHS[0] apart, then, in each cell between
# two computed nodes whose bounds reach its lane's best value, the nodes of the next width, and
# in the cells of the last width the nodes whose bounds reach it. Of the widths tried on the Burr
# design these took the least scan time, at about 44 of the 481 nodes per search. Its row-sum
# passes hold at most _BUDGET doubles at a time, and its bound algebra, about 16 arrays of the
# nodes it bounds, runs on _BUDGET // 16 nodes at a time
_WIDTHS = (96, 16)
_BUDGET = 2 ** 16


class ClosedFormError(RuntimeError):
    """The first-order estimating system has no usable solution."""


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
    """Bounds on the row sums S1 of log1p(delta*a) and S2 of log1p(delta*b) of the stack lane ``lane``.

    Both are concave in delta: over a cell the chord lies below S1 and the
    lower end tangent above S2. At fraction f of cell j = (c1, e1, p0, q0, p1, q1),
    S1 >= c1 + e1*f and S2 <= min(p0 + q0*f, p1 + q1*f), widened by _MARGIN*(|S| + k),
    far above any rounding. A cell is None until filled, and NaN where left out.
    """

    def __init__(self, lik: _Likelihood, lane: int) -> None:
        self.lik, self.lane, self.lo = lik, lane, float(lik.lo[lane])
        self.cells: list = [None] * (_BLOCK * math.ceil((DELTA_MAX - self.lo) / (_CELL * _BLOCK)))

    def fill(self, j: int) -> tuple:
        """Fill the block of cell j by row-sum passes over its _BLOCK + 1 nodes; return cell j."""
        lik, lane = self.lik, self.lane
        j0 = j - j % _BLOCK
        nodes = self.lo + _CELL * np.arange(j0, j0 + _BLOCK + 1)
        ok = (1.0 + np.outer(nodes, lik.ext[lane])).min(axis=1) >= _FLOOR
        s, q = _row_sums(lik.coef, np.full(_BLOCK + 1, lane), np.where(ok, nodes, 0.0), slope=True)
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
    where also |a1| < 1e-12). An infinite ``weight``, where k*sigma2 is
    0 or below 1/DBL_MAX, is the strong-prior limit, and its root is (H,
    +-0), the 0 with the sign of rhs, also where a coefficient overflows
    (tau**2 at a tau near -1e308). Among the real roots, the admissible one
    of smallest magnitude wins, the smaller on a tie: the branch that
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
        strong = weight == math.inf  # the root is delta = +-0, even where a coefficient overflows
        linear = (abs(a2) < 1e-300) | strong
        first = np.where(linear, rhs / a1, np.where(rhs == 0.0, 0.0, q / a2))
        d = np.array([np.where(strong, np.copysign(0.0, rhs), first),
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
    model bound, coarse to fine (``scan``).

    It searches the stack lanes ``rows``, ascending. A row is one (lane,
    delta) pair: the per-lane constants are arrays over those lanes, and
    the row sums of any rows come from ``_row_sums`` on the stack's ``coef``.
    """

    def __init__(self, lik: _Likelihood, sigma2: Sequence[float], lanes: Sequence[int]) -> None:
        self.k = k = lik.k
        self.coef = lik.coef
        self.rows = rows = np.asarray(lanes, dtype=int)
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

    def bounds(self, lane: np.ndarray, left: np.ndarray, w: int, ends: np.ndarray, ok: np.ndarray) -> np.ndarray:
        """Upper bounds of the profile in cells w nodes wide: row i at the w - 1 nodes after node left[i] of lane[i].

        ``ends`` holds S1, S2 and dS2/ddelta (3 x lanes x nodes), and ``ok``
        the admissibility, at every _WIDTHS[-1]-th node of every lane; only
        the cells' ends are read. S1 and S2 are concave in delta, so on a
        cell of any width S1 lies above its chord and S2 below both end
        tangents; the profile falls as S1 rises and rises with S2. Both are
        widened by _MARGIN*(|S| + k), far above any rounding. A bound is inf
        where it is masked or an end of its cell is inadmissible.
        """
        a, b = left // _WIDTHS[-1], (left + w) // _WIDTHS[-1]
        x = self.grid[lane[:, None], left[:, None] + np.arange(1, w)]
        lo, hi = self.grid[lane, left, None], self.grid[lane, left + w, None]
        (s1a, s2a, qa), (s1b, s2b, qb) = ends[:, lane, a, None], ends[:, lane, b, None]
        s1 = s1a + (s1b - s1a) * ((x - lo) / (hi - lo))
        s2 = np.minimum(s2a + qa * (x - lo), s2b + qb * (x - hi))
        k = self.k
        bound = self.from_sums(lane[:, None], x, True, s1 - _MARGIN * (abs(s1) + k), s2 + _MARGIN * (abs(s2) + k))
        return np.where((ok[lane, a] & ok[lane, b])[:, None] & (bound > -np.inf), bound, np.inf)

    def scan(self) -> np.ndarray:
        """The profile on every lane's grid, coarse to fine: -inf at the nodes it rules out.

        It computes the nodes _WIDTHS[0] apart of every lane, with the slope
        of S2, and bounds the nodes of each cell between two of them
        (``bounds``). A cell where some bound reaches its lane's best value
        so far is split at the next width, and the new nodes are computed
        with slopes; in the cells of the last width, only the nodes whose
        bounds reach it are computed. A node left out is below a value the
        scan reached, so the grid's maximum and its first node are those of
        the full scan. Each width's nodes take one set of row-sum passes for
        all lanes, and its bound algebra runs on _BUDGET // 16 nodes at a
        time.
        """
        n, f = len(self.rows), _WIDTHS[-1]
        vals = np.full(self.grid.shape, -np.inf)
        ends, ok = np.empty((3, n, 480 // f + 1)), np.zeros((n, 480 // f + 1), bool)
        w = _WIDTHS[0]
        lane, left = np.arange(n).repeat(480 // w), np.tile(np.arange(0, 480, w), n)
        at, node = np.arange(n).repeat(480 // w + 1), np.tile(np.arange(0, 481, w), n)
        for w, split in zip(_WIDTHS, _WIDTHS[1:] + (1,)):
            d = self.grid[at, node]
            ok[at, node // f] = o = (1.0 + d[:, None] * self.ext[at] > 0.0).all(axis=1)
            s, ends[2, at, node // f] = _row_sums(self.coef, self.rows[at], np.where(o, d, 0.0), slope=True)
            ends[:2, at, node // f] = s.T
            vals[at, node] = self.from_sums(at, d, o, s[:, 0], s[:, 1])
            best, size = vals.max(axis=1), _BUDGET // (16 * w)
            keep = np.empty((len(lane), w - 1), bool)
            for i in range(0, len(lane), size):
                c = slice(i, i + size)
                keep[c] = self.bounds(lane[c], left[c], w, ends, ok) >= best[lane[c], None]
            if split == 1:
                cell, j = np.nonzero(keep)
                at, node = lane[cell], left[cell] + j + 1
                vals[at, node] = self.exact(at, self.grid[at, node])
                return vals
            m, cell = w // split, keep.any(axis=1)
            lane, left = lane[cell].repeat(m), (left[cell, None] + split * np.arange(m)).ravel()
            at, node = lane.reshape(-1, m)[:, 1:].ravel(), left.reshape(-1, m)[:, 1:].ravel()


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
    lik: _Likelihood, sigma2: Sequence[float], lanes: Sequence[int]
) -> list[tuple[float, float] | ClosedFormError]:
    """Exact posterior modes of the stack lanes ``lanes``, by profiling xi out.

    ``sigma2`` holds every stack lane's prior variance. Each lane's profile
    is scanned on its grid over the admissible delta range, and a bounded
    local polish, ``_polish``, runs around the grid's maximum. The scan,
    ``_Profiles.scan``, computes the grid coarse to fine, and only the
    nodes whose upper bounds reach the best value of their lane's so far.
    A node it skips stays -inf, and it could not have been the maximum,
    so the result is that of the full scan. The lanes run in lockstep:
    one set of row-sum passes per width of the scan and one for the nodes
    it keeps last, for all lanes, and one per polish round for every
    lane's next point, the polishes run by ``epd._lockstep``. No sum mixes
    lanes, so a lane's mode is the bits it gets alone. A lane with no
    admissible grid node holds a ClosedFormError.
    """
    p = _Profiles(lik, sigma2, lanes)
    k, grid = p.k, p.grid
    vals = p.scan()
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


def _closed_forms(lik: _Likelihood, sigma2: Sequence[float]) -> list[tuple[float, float, str] | ClosedFormError]:
    """Posterior-mode estimates of the lanes of the stack ``lik``, each with its prior variance ``sigma2``.

    The first-order estimating system couples a lane's Hill estimate with
    its tau and 2*tau moment statistics, and the prior variance enters
    through xi / (k * sigma2). One array computation solves every lane's
    system exactly (``_first_order``). In strong-bias regimes the system
    can lack an admissible root, and those lanes run the exact mode search
    together (``_profile_posterior_modes``). A lane's estimate is the tuple
    (xi, delta, solver), the solver "linear" or "profile-map" as the route
    that ran; a lane whose search finds no mode holds its ClosedFormError.
    Where sigma2 is 0, as where ``prior_variance`` underflows, the weight is
    inf, and the linear route gives the strong-prior limit (Hill, +-0).
    """
    with np.errstate(all="ignore"):  # 1/(k*sigma2) is inf where k*sigma2 is 0 or below 1/DBL_MAX
        xi, delta = _first_order(lik, 1.0 / (lik.k * np.asarray(sigma2, dtype=float)))
    out: list = [None if math.isnan(d) else (x, d, "linear") for x, d in zip(xi.tolist(), delta.tolist())]
    search = [i for i, est in enumerate(out) if est is None]
    if search:  # where every lane took the linear route, as at most Fréchet thresholds, none runs
        for i, mode in zip(search, _profile_posterior_modes(lik, sigma2, search)):
            out[i] = mode if isinstance(mode, ClosedFormError) else (*mode, "profile-map")
    return out


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


def _chain(lik: _Likelihood, lane: int, sigma2: float, config: MCMCConfig) -> PosteriorChain | RuntimeError:
    """Random-walk Metropolis on the posterior of the stack lane ``lane`` at sigma2 > 0: its chain or a RuntimeError.

    The chain moves in (log xi, delta), with the Jacobian correction, so the
    retained draws follow the posterior of (xi, delta) itself; their log
    posteriors are on the total (not per-observation) scale, and a fixed
    seed gives the same draws; a post-burn-in acceptance rate of 0 or 1
    gives the RuntimeError. The log posterior is ``_log_post`` on the
    lane's row sums, by ``_log1p_sums`` on its two coefficient rows, with u
    as log xi. A proposal is first tested against an upper bound of it,
    ``_log_post`` on the ``_BoundTable`` bounds of the two sums. Rounding
    is monotone, so the row-sum pass runs only where the bound is not
    already rejected.

    One ``standard_normal`` call fills a proposal's two steps, in the
    stream of two scalar calls; the state carries its xi and its target
    ``lp + u``, set on acceptance; the pass reduces into a 2-vector, and
    the retained draws are written through memoryviews of arrays allocated
    before the first iteration, so that a chain too long for memory fails
    at once.
    """
    k, const = lik.k, _log_prior_const(float(lik.lo[lane]), sigma2)
    rng = np.random.default_rng(config.seed)
    h = float(lik.sum_log_y[lane]) / k  # the Hill estimate, mean(log y)

    coef, ext, w = lik.coef[lane], lik.ext[lane].tolist(), np.empty((2, k))
    u, d = math.log(h), 0.0  # delta = 0 is inside every lane's region
    xi = math.exp(u)
    lp = _log_post(xi, u, h, 0.0, d, sigma2, const, k)  # both sums are 0 at delta = 0
    target = lp + u

    s_u, s_d = _STEP_LOG_XI, _STEP_DELTA
    burn_in = config.burn_in
    retained = config.iterations - burn_in
    draws = np.empty((retained, 2))
    logpost = np.empty(retained)
    z, sums = np.empty(2), np.empty(2)
    draws_v, logpost_v, z_v, sums_v = memoryview(draws), memoryview(logpost), memoryview(z), memoryview(sums)
    accepted_post = batch_accepts = 0
    table = _BoundTable(lik, lane)
    cells, fill, n_cells, lo = table.cells, table.fill, len(table.cells), table.lo
    normal, uniform = rng.standard_normal, rng.random
    # local names: a module or attribute lookup in the loop costs about 5% of the chain
    exp, log = math.exp, math.log
    log_post, log1p_sums, inadmissible, cell = _log_post, _log1p_sums, _inadmissible, _CELL

    for t in range(config.iterations):
        normal(out=z)
        u_new = u + s_u * z_v[0]
        d_new = d + s_d * z_v[1]
        log_u = log(uniform())
        xi_new = exp(u_new)
        x = (d_new - lo) / cell
        # an xi that underflows to 0 has zero posterior density
        rejected = not xi_new > 0.0
        if not rejected and 0.0 <= x < n_cells:
            j = int(x)
            c1, e1, p0, q0, p1, q1 = cells[j] or fill(j)
            f = x - j
            tan0, tan1 = p0 + q0 * f, p1 + q1 * f  # the smaller tangent, as min(tan0, tan1) picks it
            lp_hi = log_post(xi_new, u_new, h + (c1 + e1 * f) / k, tan1 if tan1 < tan0 else tan0, d_new,
                             sigma2, const, k)
            # Jacobian of xi = exp(u): add u to the log target on the sampling scale;
            # a left-out cell's NaN bound rejects nothing
            rejected = log_u >= (lp_hi + u_new) - target
        if not rejected and d_new > lo and not inadmissible(ext, d_new):
            log1p_sums(coef, d_new, w, sums)
            lp_new = log_post(xi_new, u_new, h + sums_v[0] / k, sums_v[1], d_new, sigma2, const, k)
            target_new = lp_new + u_new
            if log_u < target_new - target:
                u, d, xi, lp, target = u_new, d_new, xi_new, lp_new, target_new
                batch_accepts += 1
                if t >= burn_in:
                    accepted_post += 1
        if t >= burn_in:
            i = t - burn_in
            draws_v[i, 0] = xi
            draws_v[i, 1] = d
            logpost_v[i] = lp
        elif (t + 1) % _ADAPT_INTERVAL == 0:
            rate = batch_accepts / _ADAPT_INTERVAL
            factor = exp(1.5 * (rate - _TARGET_ACCEPT))
            s_u = min(10.0, max(1e-4, s_u * factor))
            s_d = min(10.0, max(1e-4, s_d * factor))
            batch_accepts = 0

    rate = accepted_post / retained
    if rate <= 0.0 or rate >= 1.0:
        return RuntimeError(f"degenerate chain: post-burn-in acceptance rate {rate}")
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
