"""The extended Pareto excess model: survival, likelihood, fitting, sampling.

The model perturbs the strict Pareto survival y**(-1/xi) by a bounded
power term: survival(y) = (y * (1 + delta - delta * y**tau))**(-1/xi) on
y >= 1, with tau < 0 < xi and delta > max(-1, 1/tau). delta = 0 recovers
the strict Pareto exactly.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import _lbfgsb
from scipy.special import expit, logit

from .classical import hill
from .data import ExcessSet, SortedSample

__all__ = [
    "EPDParams",
    "EPDFit",
    "delta_lower_bound",
    "epd_survival",
    "epd_log_likelihood",
    "epd_ml_fit",
    "epd_quantile",
    "epd_sample",
    "epd_tail_prob",
]

DELTA_MAX = 10.0  # upper search bound for the perturbation amplitude

# the ML fit's L-BFGS-B settings: memory 10, ftol 1e-14 (as factr = ftol/eps),
# gtol 1e-9, 20 line-search steps, and scipy's maxiter and maxfun limits
_LBFGSB_M = 10
_LBFGSB_FACTR = 1e-14 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-9
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 500
_LBFGSB_MAXFUN = 15000


def delta_lower_bound(tau: float) -> float:
    """Left endpoint of the admissible perturbation range, max(-1, 1/tau)."""
    if tau >= 0:
        raise ValueError(f"tau must be negative, got {tau}")
    return max(-1.0, 1.0 / tau)


@dataclass(frozen=True)
class EPDParams:
    """Parameters (xi, delta, tau) of the extended Pareto excess model."""

    xi: float
    delta: float
    tau: float

    def __post_init__(self) -> None:
        if not self.xi > 0:
            raise ValueError(f"xi must be positive, got {self.xi}")
        if not self.tau < 0:
            raise ValueError(f"tau must be negative, got {self.tau}")
        lo = delta_lower_bound(self.tau)
        # delta > max(-1, 1/tau) keeps 1 + delta - delta*y**tau positive on y >= 1
        if not self.delta > lo:
            raise ValueError(f"delta must exceed {lo}, got {self.delta}")


@dataclass(frozen=True)
class EPDFit:
    """Result of the two-parameter likelihood fit at fixed tau."""

    params: EPDParams
    loglik: float
    converged: bool
    iterations: int


class _Likelihood:
    """The mean log-likelihood of one excess set at fixed tau, built once.

    Holds what stays fixed while (xi, delta) move: log y and the
    coefficients a = 1 - y**tau and b = 1 - (1 + tau) * y**tau (the rows
    of ``coef``) with their extremes. Both perturbation terms 1 + delta*a
    and 1 + delta*b are affine in delta, and rounded products and sums are
    monotone, so positivity over the sample is exactly positivity at the
    coefficient extremes. Means are a row-wise ``np.add.reduce`` divided
    by k, the value ``np.mean`` returns for each row.

    A call writes into scratch space owned by the instance, so one
    instance serves one caller at a time.
    """

    def __init__(self, e: ExcessSet, tau: float) -> None:
        y = e.y
        if np.any(y < 1.0):
            raise ValueError("excesses must be >= 1")
        self.k = e.k
        self.lo = delta_lower_bound(tau) if tau < 0 else math.inf
        self.log_y = np.log(y)
        p = y ** tau
        self.coef = np.vstack([1.0 - p, 1.0 - (1.0 + tau) * p])
        self.a, self.b = self.coef
        self.ext = (float(self.a.min()), float(self.a.max()),
                    float(self.b.min()), float(self.b.max()))
        self._work = np.empty_like(self.coef)
        self._work_a = self._work[0]

    def inadmissible(self, delta: float) -> bool:
        """Whether 1 + delta*a or 1 + delta*b fails to be positive somewhere on the sample."""
        a_lo, a_hi, b_lo, b_hi = self.ext
        return (1.0 + delta * a_lo <= 0.0 or 1.0 + delta * a_hi <= 0.0
                or 1.0 + delta * b_lo <= 0.0 or 1.0 + delta * b_hi <= 0.0)

    def __call__(self, xi: float, delta: float) -> float:
        if not (xi > 0 and delta > self.lo) or self.inadmissible(delta):
            return -math.inf
        w = self._work
        np.multiply(self.coef, delta, out=w)
        np.add(w, 1.0, out=w)
        np.log(w, out=w)
        np.add(self._work_a, self.log_y, out=self._work_a)
        s1, s2 = np.add.reduce(w, axis=1)
        k = self.k
        return -math.log(xi) - (1.0 / xi + 1.0) * (float(s1) / k) + float(s2) / k

    def value_and_grad(self, xi: float, delta: float) -> tuple[float, float, float] | None:
        """The value and gradient from one 1 + delta*coef and one log; None outside the region."""
        if not (xi > 0 and delta > self.lo) or self.inadmissible(delta):
            return None
        t = self._work
        np.multiply(self.coef, delta, out=t)
        np.add(t, 1.0, out=t)
        r1, r2 = np.add.reduce(self.coef / t, axis=1)
        np.log(t, out=t)
        np.add(self._work_a, self.log_y, out=self._work_a)
        s1, s2 = np.add.reduce(t, axis=1)
        k = self.k
        value = -math.log(xi) - (1.0 / xi + 1.0) * (float(s1) / k) + float(s2) / k
        d_xi = -1.0 / xi + (float(s1) / k) / xi ** 2
        d_delta = -(1.0 / xi + 1.0) * (float(r1) / k) + float(r2) / k
        return value, d_xi, d_delta


@cache
def _scipy_openblas() -> tuple | None:
    """The (get, set) thread-count functions of scipy's bundled OpenBLAS, or None.

    The Linux wheels of scipy ship their OpenBLAS in ``scipy.libs`` next to
    the package, and loading that file again returns the handle scipy
    already holds. Where no such file is found (a scipy built on a system
    BLAS or MKL, another wheel layout) the result is None, and fits leave
    the thread count alone.
    """
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("*scipy_openblas*")):
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


def epd_survival(p: EPDParams, y):
    """Survival function of the excess model, vectorized over y >= 1."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 1.0):
        raise ValueError("survival is defined for y >= 1 only")
    base = y_arr * (1.0 + p.delta - p.delta * y_arr ** p.tau)
    out = base ** (-1.0 / p.xi)
    return out if out.ndim else float(out)


def epd_log_likelihood(xi: float, delta: float, tau: float, e: ExcessSet) -> float:
    """Mean log-likelihood of the excesses under the extended Pareto model.

    Returns -inf for parameters outside the admissible region so that
    optimizers and samplers can reject naturally; malformed excess data
    raises instead.
    """
    return _Likelihood(e, tau)(xi, delta)


def epd_ml_fit(e: ExcessSet, tau: float) -> EPDFit:
    """Maximum-likelihood fit of (xi, delta) at fixed tau.

    Quasi-Newton search on (log xi, logit-mapped delta) so both
    constraints hold throughout; started at the Hill estimate with
    delta = 0. Requires at least 10 excesses.

    The search is scipy's L-BFGS-B core, ``_lbfgsb.setulb``, driven by
    the loop that ``scipy.optimize.minimize(method="L-BFGS-B")`` runs,
    with its settings and stopping rules: the same calls give the same
    bits, without the per-point cost of scipy's Python wrappers. The fit
    converged when the core stops with CONVERGENCE (task 4); the
    log-likelihood is minus the last value handed to the core.
    """
    if e.k < 10:
        raise ValueError(f"need at least 10 excesses to fit, got {e.k}")
    if tau >= 0:
        raise ValueError(f"tau must be negative, got {tau}")
    h = hill(e)
    if h <= 0:
        raise ValueError("all excesses are ties; the likelihood has no interior maximum")

    lik = _Likelihood(e, tau)
    lo = lik.lo
    span = DELTA_MAX - lo

    def unpack(u: float, v: float) -> tuple[float, float, float]:
        sig = float(expit(v))
        return math.exp(min(max(u, -40.0), 40.0)), lo + span * sig, sig

    # setulb's arguments with scipy's argument order and workspace sizes; nbd = 0
    # leaves both coordinates unbounded, so the two bound vectors are never read
    n = 2
    x = np.array([math.log(h), float(logit((0.0 - lo) / span))])
    f, g = 0.0, np.zeros(n)
    no_bound, nbd = np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * _LBFGSB_M * n + 5 * n + 11 * _LBFGSB_M ** 2 + 8 * _LBFGSB_M)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    iterations = evaluations = 0
    with _ONE_BLAS_THREAD:
        while True:
            _lbfgsb.setulb(_LBFGSB_M, x, no_bound, no_bound, nbd, f, g, _LBFGSB_FACTR,
                           _LBFGSB_PGTOL, wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS,
                           ln_task)
            if task[0] == 3:  # FG: the value and the gradient at x
                evaluations += 1
                xi, delta, sig = unpack(*x.tolist())
                out = lik.value_and_grad(xi, delta)
                if out is None:
                    # big finite penalty so the line search backtracks from the region edge
                    f = 1e12
                    g[:] = 0.0
                else:
                    val, d_xi, d_delta = out
                    f = -val
                    g[0] = -(d_xi * xi)
                    g[1] = -(d_delta * span * sig * (1.0 - sig))
            elif task[0] == 1:  # NEW_X: an iteration is done; scipy's two limits
                iterations += 1
                if iterations >= _LBFGSB_MAXITER:
                    task[:] = 5, 504
                elif evaluations > _LBFGSB_MAXFUN:
                    task[:] = 5, 502
            else:
                break
    xi_hat, delta_hat, _ = unpack(*x.tolist())
    return EPDFit(
        params=EPDParams(xi=xi_hat, delta=delta_hat, tau=tau),
        loglik=-f,
        converged=bool(task[0] == 4),
        iterations=iterations,
    )


def _invert_survival(p: EPDParams, targets: np.ndarray, rtol: float = 1e-13) -> np.ndarray:
    """Solve y*(1+delta-delta*y**tau) = t for each target t >= 1 by bisection."""
    lo_fac = min(1.0, 1.0 + p.delta)
    lower = np.ones_like(targets)
    upper = 1.0 + targets / lo_fac
    for _ in range(200):
        mid = 0.5 * (lower + upper)
        g = mid * (1.0 + p.delta - p.delta * mid ** p.tau)
        high = g >= targets
        upper = np.where(high, mid, upper)
        lower = np.where(high, lower, mid)
        if np.all(upper - lower <= rtol * lower):
            break
    return 0.5 * (lower + upper)


def epd_quantile(p: EPDParams, q: float) -> float:
    """Quantile of the excess model: the y with survival(y) = 1 - q."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    target = np.array([(1.0 - q) ** (-p.xi)])
    return float(_invert_survival(p, target)[0])


def epd_sample(p: EPDParams, count: int, seed) -> np.ndarray:
    """Inverse-transform draws from the excess model, deterministic per seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    survival_levels = np.maximum(1.0 - u, np.finfo(float).tiny)
    targets = survival_levels ** (-p.xi)
    return _invert_survival(p, targets)


def epd_tail_prob(s: SortedSample, k: int, x: float, p: EPDParams) -> float:
    """Exceedance probability (k/n) * survival(x / threshold) under the fit."""
    threshold = float(s.values[s.n - k - 1])
    if x < threshold:
        raise ValueError(f"x={x} is below the threshold {threshold}; extrapolation invalid")
    return (k / s.n) * float(epd_survival(p, x / threshold))
