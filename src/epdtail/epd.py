"""The extended Pareto excess model: survival, likelihood and fitting, on stacks of lanes.

The model perturbs the strict Pareto survival y**(-1/xi) by a bounded
power term: survival(y) = (y * (1 + delta - delta * y**tau))**(-1/xi) on
y >= 1, with tau < 0 < xi and delta > max(-1, 1/tau). delta = 0 recovers
the strict Pareto exactly. The likelihood is built once as a stack of
lanes, excess sets that share k; one sample is a stack of one lane. Each
lane's fit is a generator search, and one runner, ``_lockstep``, runs the
searches of all lanes together, as it runs the posterior-mode polish of
``bayes``. The survival is one array formula, ``_tail_probs``. The mean
log-likelihood is one formula, ``_loglik``, on a lane's two sums from the
ML pass ``_fg_sums``; the log posterior of ``bayes`` is one formula of
its own on the row sums of log1p, for the mode search and the chain.

The fit drives scipy's compiled L-BFGS-B core, the extension module
``scipy.optimize._lbfgsb``. ``_load_lbfgsb`` loads it from its file in
scipy's directory, which ``importlib.util.find_spec`` finds without
running the package: neither ``scipy/__init__.py`` nor the
``scipy.optimize`` package, which imports ``scipy.special``,
``scipy.linalg`` and ``scipy.sparse`` in about 0.4 s, ever runs.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import sys
import threading
from collections.abc import Sequence
from functools import cache
from pathlib import Path

import numpy as np

__all__ = ["delta_lower_bound", "epd_ml_fits"]

DELTA_MAX = 10.0  # upper search bound for the perturbation amplitude

# the ML fit's L-BFGS-B settings: memory 10, ftol 1e-14 (as factr = ftol/eps),
# gtol 1e-9, 20 line-search steps, and scipy's maxiter and maxfun limits
_LBFGSB_M = 10
_LBFGSB_FACTR = 1e-14 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-9
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 500
_LBFGSB_MAXFUN = 15000
# setulb's arguments for two unbounded coordinates: nbd = 0, so the core never
# reads the bounds and writes neither array
_NO_BOUND, _NBD = np.zeros(2), np.zeros(2, np.int32)
# the sizes and types of the arrays that one search hands setulb, in its order:
# x, g, wa, iwa, task, ln_task, lsave, isave, dsave (scipy's workspace for n = 2)
_LBFGSB_WORK = ((2, float), (2, float), (2 * _LBFGSB_M * 2 + 5 * 2 + 11 * _LBFGSB_M ** 2 + 8 * _LBFGSB_M, float),
                (3 * 2, np.int32), (2, np.int32), (2, np.int32), (4, np.int32), (44, np.int32), (29, float))

# scipy's package directory, found without running scipy/__init__.py; without
# scipy, the error that ``import scipy`` raises
_SCIPY_SPEC = importlib.util.find_spec("scipy")
if _SCIPY_SPEC is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_SCIPY_DIR = Path(_SCIPY_SPEC.origin).parent


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B core, the module ``scipy.optimize._lbfgsb``, loaded alone.

    The extension file in scipy's ``optimize`` directory is loaded under
    its own name without running ``scipy/optimize/__init__.py``, and
    registered in ``sys.modules``; a module already registered there is
    reused. So a process holds one copy of the core whichever of
    ``epdtail`` and ``scipy.optimize`` it imports first: scipy's own
    ``from . import _lbfgsb`` finds the registered module. Loaded first
    this way, the module is not an attribute of ``scipy.optimize``.
    """
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name]
    directory = _SCIPY_DIR / "optimize"
    spec = importlib.machinery.PathFinder.find_spec(name, [str(directory)])
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        raise ImportError(f"scipy's compiled L-BFGS-B core, _lbfgsb, is not in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_lbfgsb = _load_lbfgsb()


def delta_lower_bound(tau: float) -> float:
    """Left endpoint of the admissible perturbation range, max(-1, 1/tau), for tau in (-inf, 0)."""
    if not -math.inf < tau < 0:
        raise ValueError(f"tau must be negative and finite, got {tau}")
    return max(-1.0, 1.0 / tau)


class _Likelihood:
    """The mean log-likelihoods of lanes (excess sets that share k, each at its own tau) as one stack.

    It is built from the lanes' excesses as the rows of ``y`` (lanes x k,
    as ``data.excess_matrix`` returns them, which checks them), their
    ``tau`` and their ``log_y``. It holds what stays fixed while (xi,
    delta) move, one row per lane: tau, the model bound ``lo``, the
    excesses y, log y and its sum (k times the Hill estimate), the sum of
    y**tau (k times its moment statistic), and the coefficients a = 1 -
    y**tau and b = 1 - (1 + tau) * y**tau (``coef``, lanes x 2 x k) with
    their extremes ``ext`` (a_lo, a_hi, b_lo, b_hi). Both perturbation
    terms are affine in delta, and rounded products and sums are monotone,
    so positivity over the sample is exactly positivity at the coefficient
    extremes. Means are a row-wise ``np.add.reduce`` divided by k, the
    value ``np.mean`` returns. Every lane is one that its estimators can
    run on, as ``simulate.estimate_cells`` decides: a positive Hill
    estimate and a tau in (-inf, 0).
    """

    def __init__(self, y: np.ndarray, tau, log_y: np.ndarray) -> None:
        self.y = y  # (lanes x k), each row non-increasing
        self.k = k = y.shape[1]
        self.tau = tau = np.array(tau, dtype=float)
        self.log_y = log_y
        self.sum_log_y = np.add.reduce(log_y, axis=1)
        self.lo = np.array([delta_lower_bound(t) for t in tau.tolist()])
        p = _lane_powers(y, tau)
        self.sum_pow = np.add.reduce(p, axis=1)
        self.coef = np.empty((len(y), 2, k))
        a, b = self.coef[:, 0], self.coef[:, 1]
        np.subtract(1.0, p, out=a)
        np.subtract(1.0, np.multiply((1.0 + tau)[:, None], p, out=b), out=b)
        self.ext = np.column_stack([a.min(axis=1), a.max(axis=1), b.min(axis=1), b.max(axis=1)])

def _loglik(xi: float, k: int, s1: float, s2: float) -> float:
    """The mean log-likelihood at xi > 0 from one lane's sums s1 and s2 (see ``_fg_sums``)."""
    return -math.log(xi) - (1.0 / xi + 1.0) * (s1 / k) + s2 / k


def _lane_powers(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row i of ``y`` (lanes x k) to the power t[i], by one array power with the exponent spread over ``y``.

    numpy takes an exponent that is one value for the whole call, as a
    one-lane stack's would be, by another route at -1, 0.5 and 2 that
    rounds otherwise; spread, a lane's powers do not depend on the others.
    """
    return y ** np.repeat(t[:, None], y.shape[1], axis=1)


def _inadmissible(ext: Sequence[float], delta: float) -> bool:
    """Whether 1 + delta*a or 1 + delta*b fails to be positive somewhere on a lane with extremes ``ext``."""
    a_lo, a_hi, b_lo, b_hi = ext
    return (1.0 + delta * a_lo <= 0.0 or 1.0 + delta * a_hi <= 0.0
            or 1.0 + delta * b_lo <= 0.0 or 1.0 + delta * b_hi <= 0.0)


def _fg_sums(coef: np.ndarray, log_y: np.ndarray, deltas: np.ndarray, w: np.ndarray) -> list:
    """Per lane, the four sums that the value and gradient need, by one pass.

    ``coef`` stacks the lanes' coefficient rows as (lanes x 2 x k),
    ``log_y`` their log excesses (lanes x k), and ``deltas`` holds one
    delta per lane as a (lanes x 1 x 1) array. Returns per lane the sums
    [s1, s2, r1, r2] of log y + log(1 + delta*a), log(1 + delta*b),
    a/(1 + delta*a) and b/(1 + delta*b): one multiply, add, divide and log
    into the lane-major (lanes x 4 x k) scratch ``w``, and one row-wise
    ``np.add.reduce``. Each row is reduced alone, so a lane's sums do not
    depend on the others.
    """
    t, s1 = w[:, :2], w[:, 0]
    np.multiply(coef, deltas, out=t)
    np.add(t, 1.0, out=t)
    np.divide(coef, t, out=w[:, 2:])
    np.log(t, out=t)
    np.add(s1, log_y, out=s1)
    return np.add.reduce(w, axis=2).tolist()


def _value_and_grad(xi: float, k: int, sums: Sequence[float]) -> tuple[float, float, float]:
    """The mean log-likelihood and its gradient in (xi, delta) from one lane's ``_fg_sums``."""
    s1, s2, r1, r2 = sums
    value = _loglik(xi, k, s1, s2)
    d_xi = -1.0 / xi + (s1 / k) / xi ** 2
    d_delta = -(1.0 / xi + 1.0) * (r1 / k) + r2 / k
    return value, d_xi, d_delta


def _expit(v: float) -> float:
    """scipy's ``expit``, 1 / (1 + exp(-v)), without a ufunc call: the same bits, 0 where exp overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


@cache
def _scipy_openblas() -> tuple | None:
    """The (get, set) thread-count functions of scipy's bundled OpenBLAS, or None.

    The Linux wheels of scipy ship their OpenBLAS in ``scipy.libs`` next to
    the package, and loading that file again returns the handle scipy
    already holds. Where no such file is found (a scipy built on a system
    BLAS or MKL, another wheel layout) the result is None, and fits leave
    the thread count alone.
    """
    for path in sorted((_SCIPY_DIR.parent / "scipy.libs").glob("*scipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneBlasThread:
    """Context that runs scipy's OpenBLAS on one thread and then restores the count.

    L-BFGS-B calls BLAS on two-vectors, where a second BLAS thread only
    spins on another core: it doubles the CPU of a serial fit and starves
    the other workers of a process pool. The thread count is global to
    the process, so concurrent fits share one cap: the first to enter
    saves the caller's count and the last to leave restores it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self) -> None:
        api = _scipy_openblas()
        if api is None:
            return
        get, set_ = api
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                set_(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        api = _scipy_openblas()
        if api is None:
            return
        _, set_ = api
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                set_(self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _tail_probs(level: float, z: np.ndarray, tau: np.ndarray, xi: np.ndarray,
                delta: np.ndarray) -> np.ndarray:
    """``level`` times the survival of lanes by the array; at delta = 0, Weissman's extrapolation.

    Lane i has z[i] = x / threshold >= 1 and rate tau[i], and row i of
    ``xi`` and ``delta`` (lanes x fits) holds its fits. Returns ``level``
    (k/n for a tail probability) times the survival (z * (1 + delta * a))
    ** (-1/xi), with the likelihood's a = 1 - z**tau, under each fit, NaN
    for a fit of NaNs; at z = 1, a is 0 and the value ``level``. Neither
    exponent is one value for the whole call (see ``_lane_powers``), and no
    value reads another lane, so a value does not depend on the others.
    """
    z = z[:, None]
    return level * (z * (1.0 + delta * (1.0 - z ** tau[:, None]))) ** (-1.0 / xi)


def _lockstep(searches: Sequence, evaluate) -> list:
    """Run searches in lockstep and return what each one returns, in order.

    A search is a generator that yields the point it needs and is sent the
    answer. An exception in place of a search stands for a lane that cannot
    run, and is that lane's result. Each round, one call
    ``evaluate(lanes, points)`` answers every lane that asks, in ascending
    lane order, with one answer per lane.
    """
    out = list(searches)
    lanes = [i for i, search in enumerate(out) if not isinstance(search, Exception)]
    answers: Sequence = [None] * len(lanes)  # a generator starts on None
    while lanes:
        asking, points = [], []
        for i, answer in zip(lanes, answers):
            try:
                points.append(out[i].send(answer))
                asking.append(i)
            except StopIteration as stop:
                out[i] = stop.value
        lanes = asking
        answers = evaluate(lanes, points) if lanes else ()
    return out


def _ml_search(k: int, lo: float, ext: Sequence[float], h: float, work: Sequence[np.ndarray]):
    """One lane's ML fit, the L-BFGS-B loop of ``scipy.optimize.minimize``, as a generator.

    It searches (log xi, logit-mapped delta) from (log h, delta = 0), with
    h the lane's Hill estimate. At each point inside the region it yields
    delta and is sent the lane's ``_fg_sums``; a point outside it answers
    itself with a big finite penalty and a zero gradient, so that the line
    search backtracks from the region edge. It returns the fit as the
    tuple (xi, delta, loglik, converged, iterations). ``work`` holds the
    arrays of ``_lbfgsb.setulb`` in scipy's order and sizes
    (``_LBFGSB_WORK``), zeroed, and the two bound arrays are the shared
    ``_NO_BOUND`` and ``_NBD``. The loop reads and writes x, g and task
    through memoryviews, which give Python floats and ints without a numpy
    scalar per access.
    """
    span = DELTA_MAX - lo
    p = (0.0 - lo) / span  # scipy's logit(p) takes log(p / (1 - p)) for p < 0.3
    x, g, wa, iwa, task, ln_task, lsave, isave, dsave = work
    xs, gs, ts = memoryview(x), memoryview(g), memoryview(task)
    xs[0], xs[1] = math.log(h), math.log(p / (1.0 - p))
    f, no_bound, nbd = 0.0, _NO_BOUND, _NBD
    setulb, m, factr, pgtol, maxls = _lbfgsb.setulb, _LBFGSB_M, _LBFGSB_FACTR, _LBFGSB_PGTOL, _LBFGSB_MAXLS
    iterations = evaluations = 0
    while True:
        setulb(m, x, no_bound, no_bound, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave,
               maxls, ln_task)
        t = ts[0]
        if t == 1:  # NEW_X: an iteration is done; scipy's two limits
            iterations += 1
            if iterations >= _LBFGSB_MAXITER:
                task[:] = 5, 504
            elif evaluations > _LBFGSB_MAXFUN:
                task[:] = 5, 502
            continue
        u, v = xs
        sig = _expit(v)
        xi, delta = math.exp(-40.0 if u < -40.0 else 40.0 if u > 40.0 else u), lo + span * sig
        if t != 3:  # the stop, at the start or an accepted iterate: a point inside the region
            return xi, delta, -f, t == 4, iterations
        evaluations += 1  # FG: the value and the gradient at x
        if xi > 0 and delta > lo and not _inadmissible(ext, delta):
            value, d_xi, d_delta = _value_and_grad(xi, k, (yield delta))
            f = -value
            gs[0] = -(d_xi * xi)
            gs[1] = -(d_delta * span * sig * (1.0 - sig))
        else:
            f = 1e12
            gs[0] = gs[1] = 0.0


def epd_ml_fits(lik: _Likelihood) -> list[tuple[float, float, float, bool, int]]:
    """Maximum-likelihood fits of (xi, delta) at fixed tau, one per lane of the stack ``lik``.

    Every lane runs its own L-BFGS-B search, ``_ml_search``, and
    ``_lockstep`` runs them together: each round, one ``_fg_sums`` pass
    over the stack rows of the lanes that ask answers each with a value and
    gradient. The searches' L-BFGS-B arrays are allocated once, one
    (lanes x size) block per array, and each lane works in its own rows. A
    lane's fit, the tuple (xi, delta, loglik, converged, iterations), is
    the bits it gets alone, since no sum or row mixes lanes. It
    is also the bits of ``scipy.optimize.minimize(method="L-BFGS-B")``
    with the same settings and stopping rules: it converged when the core
    stopped with CONVERGENCE (task 4), and its loglik is minus the last
    value handed to the core.
    """
    k, lanes = lik.k, len(lik.y)
    blocks = [np.zeros((lanes, size), dtype) for size, dtype in _LBFGSB_WORK]  # lane i's are rows i
    searches = [_ml_search(k, lo, ext, s / k, [b[i] for b in blocks])  # from the Hill estimate s / k
                for i, (lo, ext, s) in enumerate(zip(lik.lo.tolist(), lik.ext.tolist(), lik.sum_log_y.tolist()))]
    work, deltas = np.empty((lanes, 4, k)), np.empty((lanes, 1, 1))

    def fg_sums(lanes: list[int], points: list[float]) -> list:
        m = len(lanes)
        deltas[:m, 0, 0] = points
        return _fg_sums(lik.coef[lanes], lik.log_y[lanes], deltas[:m], work[:m])

    with _ONE_BLAS_THREAD:
        return _lockstep(searches, fg_sums)
