"""Monte Carlo study harness: reference distributions, replication, aggregation.

Replications are independent work units with per-replication seeds
derived from the master seed, so results are bit-identical for any
worker count. Each threshold is one ``estimate_cell``, as in ``epdtail
estimate``; an estimator's ValueError or RuntimeError is excluded
cell-wise and counted, and a run aborts when exclusions exceed 5%.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np
from scipy.special import gammaincc, gammainccinv

from .bayes import (
    BayesEstimate,
    MCMCConfig,
    PosteriorChain,
    bayes_closed_form,
    bayes_tail_prob,
    metropolis_sample,
    posterior_mode,
    prior_variance,
    smooth_path,
)
from .classical import hill, weissman_tail_prob
from .data import SortedSample, excesses
from .epd import epd_ml_fit, epd_tail_prob
from .second_order import resolve_rho, tau_hat

__all__ = [
    "StudyError",
    "SimDistribution",
    "frechet",
    "burr",
    "loggamma",
    "survival",
    "true_quantile",
    "sample_distribution",
    "k_range",
    "Cell",
    "estimate_cell",
    "MCStudyConfig",
    "EstimatorMetrics",
    "MCStudyResult",
    "run_study",
    "study_rows",
    "study_payload",
]

ESTIMATORS = ("hill", "epd_ml", "bayes_closed", "bayes_mcmc")

# what an estimator may raise on data it cannot estimate from, among them
# NonEstimableError (a ValueError) and ClosedFormError (a RuntimeError)
_CELL_ERRORS = (ValueError, RuntimeError)
_FAILED = (math.nan, math.nan, math.nan)
_CHUNKSIZE = 8  # replications per task of the process pool


class StudyError(RuntimeError):
    """Raised when a study cannot produce trustworthy aggregates."""


@dataclass(frozen=True)
class SimDistribution:
    """A reference heavy-tailed law with known tail and second-order indices."""

    kind: str
    args: tuple[float, ...]
    true_xi: float
    true_rho: float


def frechet(xi: float) -> SimDistribution:
    """Fréchet law with distribution function exp(-x**(-1/xi)); rho = -1."""
    if xi <= 0:
        raise ValueError("xi must be positive")
    return SimDistribution("frechet", (xi,), true_xi=xi, true_rho=-1.0)


def burr(xi: float, rho: float) -> SimDistribution:
    """Burr law with survival (1 + x**(-rho/xi))**(1/rho)."""
    if xi <= 0 or rho >= 0:
        raise ValueError("need xi > 0 and rho < 0")
    return SimDistribution("burr", (xi, rho), true_xi=xi, true_rho=rho)


def loggamma(shape: float = 4.0, rate: float = 2.0) -> SimDistribution:
    """Exponential of a gamma variable; tail index 1/rate, no second-order rate."""
    if shape <= 0 or rate <= 0:
        raise ValueError("shape and rate must be positive")
    return SimDistribution("loggamma", (shape, rate), true_xi=1.0 / rate, true_rho=0.0)


def survival(d: SimDistribution, x) -> np.ndarray | float:
    """Exact survival function of the reference law, vectorized over x."""
    x_arr = np.asarray(x, dtype=float)
    if d.kind == "frechet":
        (xi,) = d.args
        out = 1.0 - np.exp(-np.power(x_arr, -1.0 / xi))
    elif d.kind == "burr":
        xi, rho = d.args
        out = (1.0 + np.power(x_arr, -rho / xi)) ** (1.0 / rho)
    elif d.kind == "loggamma":
        shape, rate = d.args
        out = np.where(x_arr <= 1.0, 1.0, gammaincc(shape, rate * np.log(np.maximum(x_arr, 1.0))))
    else:
        raise ValueError(f"unknown distribution kind {d.kind!r}")
    return out if out.ndim else float(out)


def true_quantile(d: SimDistribution, p: float) -> float:
    """Quantile function of the reference law at probability p.

    Analytic for the Fréchet and Burr laws; through the inverse of the
    regularized upper incomplete gamma function for the loggamma law.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if d.kind == "frechet":
        (xi,) = d.args
        return float((-math.log(p)) ** (-xi))
    if d.kind == "burr":
        xi, rho = d.args
        s = 1.0 - p
        return float((s ** rho - 1.0) ** (-xi / rho))
    if d.kind == "loggamma":
        shape, rate = d.args
        return math.exp(float(gammainccinv(shape, 1.0 - p)) / rate)
    raise ValueError(f"unknown distribution kind {d.kind!r}")


def sample_distribution(d: SimDistribution, n: int, seed) -> SortedSample:
    """Draw a sorted i.i.d. sample of size n, deterministic for a given seed."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    if d.kind == "frechet":
        (xi,) = d.args
        u = np.maximum(rng.random(n), np.finfo(float).tiny)
        x = (-np.log(u)) ** (-xi)
    elif d.kind == "burr":
        xi, rho = d.args
        s = np.minimum(1.0 - rng.random(n), np.nextafter(1.0, 0.0))
        x = (s ** rho - 1.0) ** (-xi / rho)
    elif d.kind == "loggamma":
        shape, rate = d.args
        x = np.exp(rng.gamma(shape, 1.0 / rate, size=n))
    else:
        raise ValueError(f"unknown distribution kind {d.kind!r}")
    return SortedSample(x)


def k_range(n: int, k_min: int = 10, k_max: int | None = None, k_step: int = 5) -> range:
    """Every k from k_min to k_max (default n - 10) in steps of k_step.

    Its defaults give the grid of a study or an ``estimate`` run that sets
    no k. The range keeps its resolved bounds as ``start``, ``stop - 1``
    and ``step``. A k step below 1 is a ValueError.
    """
    if k_step < 1:
        raise ValueError(f"bad k step {k_step}")
    return range(k_min, (n - 10 if k_max is None else k_max) + 1, k_step)


@dataclass(frozen=True)
class MCStudyConfig:
    """Design of a replicated estimation study on a reference law.

    ``k_grid`` defaults (when None) to every k from 10 to n-10 in steps
    of 5; an empty grid is rejected. ``smooth_window`` is the
    moving-average width applied to each replication's posterior-mode
    paths over k before aggregation; 0 disables smoothing. ``target_p``
    fixes the exceedance level whose probability is re-estimated at x
    equal to the true (1 - target_p) quantile. The chain lengths of the
    ``bayes_mcmc`` estimator follow the rule of ``MCMCConfig``.
    """

    dist: SimDistribution
    n: int = 500
    reps: int = 1000
    k_grid: tuple[int, ...] | None = None
    estimators: tuple[str, ...] = ("hill", "epd_ml", "bayes_closed")
    rho_mode: str = "fraga"
    target_p: float = 1.0 / 500.0
    master_seed: int = 0
    smooth_window: int = 5
    mcmc_iterations: int = 3000
    mcmc_burn_in: int = 1000

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.n < 21:
            raise ValueError("n must allow k in [10, n-10]")
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ValueError(f"unknown estimator {name!r}; supported: {ESTIMATORS}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        if self.rho_mode not in ("fraga", "fixed_minus_one"):
            raise ValueError("rho_mode must be 'fraga' or 'fixed_minus_one'")
        if not 0.0 < self.target_p < 1.0:
            raise ValueError("target_p must be in (0, 1)")
        if self.smooth_window < 0 or (self.smooth_window > 1 and self.smooth_window % 2 == 0):
            raise ValueError("smooth_window must be 0 (off) or odd")
        if self.k_grid is not None and not self.k_grid:
            raise ValueError("bad k grid: it holds no k")
        for k in self.k_grid or ():
            if not 10 <= k <= self.n - 1:
                raise ValueError(f"every k must lie in [10, n-1]; got {k}")
        MCMCConfig(self.mcmc_iterations, self.mcmc_burn_in)

    def resolved_k_grid(self) -> tuple[int, ...]:
        return tuple(k_range(self.n) if self.k_grid is None else self.k_grid)


@dataclass(frozen=True)
class EstimatorMetrics:
    """Per-k aggregates for one estimator: index metrics and relative tail metrics."""

    bias: np.ndarray
    variance: np.ndarray
    mse: np.ndarray
    rel_bias: np.ndarray
    rel_variance: np.ndarray
    rel_mse: np.ndarray
    excluded: np.ndarray


@dataclass(frozen=True)
class MCStudyResult:
    """Aggregated study output; ``metrics`` is keyed by estimator name."""

    config: MCStudyConfig
    k_grid: tuple[int, ...]
    metrics: dict[str, EstimatorMetrics]
    exclusion_fraction: float


@dataclass(frozen=True)
class Cell:
    """The estimates at one threshold k: each requested estimator's (xi, delta, P(X > x)).

    Hill's delta is 0; a probability is NaN without x or with x below the
    threshold. A failed estimator has three NaNs and the class name of its
    error in ``errors``, which keeps the requested order. ``chain`` holds
    the draws of ``bayes_mcmc`` when it ran.
    """

    threshold: float
    hill: float
    tau: float
    sigma2: float
    estimates: dict[str, tuple[float, float, float]]
    errors: dict[str, str]
    chain: PosteriorChain | None = None


def estimate_cell(sample: SortedSample, k: int, rho: float, estimators: tuple[str, ...],
                  x: float | None = None, mcmc: MCMCConfig | None = None,
                  run_key: tuple[int, ...] = ()) -> Cell:
    """Run each of ``estimators`` (names from ``ESTIMATORS``) at threshold k.

    A ValueError or RuntimeError fails only the estimator that raised it;
    when tau cannot be estimated every estimator fails. Other errors
    propagate. The ``bayes_mcmc`` chain runs ``mcmc`` with its seed drawn
    from ``SeedSequence((*run_key, k))``.
    """
    e = excesses(sample, k)
    h = hill(e)
    try:
        tau, sigma2 = tau_hat(rho, h), prior_variance(k, sample.n, rho)
    except _CELL_ERRORS as exc:  # every estimator needs tau
        return Cell(e.threshold, h, math.nan, math.nan, dict.fromkeys(estimators, _FAILED),
                    dict.fromkeys(estimators, type(exc).__name__))
    tail = x is not None and x >= e.threshold
    estimates, errors, chain = {}, {}, None
    for name in estimators:
        try:
            if name == "hill":
                estimates[name] = (h, 0.0, weissman_tail_prob(sample, k, x, h) if tail else math.nan)
            elif name == "epd_ml":
                params = epd_ml_fit(e, tau).params
                estimates[name] = (params.xi, params.delta,
                                   epd_tail_prob(sample, k, x, params) if tail else math.nan)
            else:
                if name == "bayes_closed":
                    est = bayes_closed_form(e, tau, sigma2)
                else:
                    seed = int(np.random.SeedSequence((*run_key, k)).generate_state(1)[0])
                    chain = metropolis_sample(e, tau, sigma2, replace(mcmc, seed=seed))
                    est = BayesEstimate(*posterior_mode(chain), solver="mcmc")
                estimates[name] = (est.xi, est.delta,
                                   bayes_tail_prob(sample, k, x, est, tau) if tail else math.nan)
        except _CELL_ERRORS as exc:
            estimates[name] = _FAILED
            errors[name] = type(exc).__name__
    return Cell(e.threshold, h, tau, sigma2, estimates, errors, chain)


def _study_rep(cfg: MCStudyConfig, k_grid: tuple[int, ...], x_level: float, rep: int):
    """One replication: estimate xi and the tail probability on every k.

    Returns two (n_estimators, n_k) arrays; failed cells are nan.
    """
    s = sample_distribution(cfg.dist, cfg.n, np.random.SeedSequence((cfg.master_seed, rep)))
    rho = resolve_rho(s)[0] if cfg.rho_mode == "fraga" else -1.0
    mcmc = MCMCConfig(cfg.mcmc_iterations, cfg.mcmc_burn_in)
    cells = [estimate_cell(s, k, rho, cfg.estimators, x_level, mcmc, (cfg.master_seed, rep))
             for k in k_grid]
    est = np.array([[c.estimates[name] for c in cells] for name in cfg.estimators])
    xi_out, p_out = est[..., 0], est[..., 2]

    if cfg.smooth_window >= 3:
        for i, name in enumerate(cfg.estimators):
            if name in ("bayes_closed", "bayes_mcmc"):
                xi_out[i] = smooth_path(xi_out[i], cfg.smooth_window)
                p_out[i] = smooth_path(p_out[i], cfg.smooth_window)
    return xi_out, p_out


def run_study(cfg: MCStudyConfig, workers: int = 1) -> MCStudyResult:
    """Run the replicated study; deterministic in master_seed, any worker count."""
    k_grid = cfg.resolved_k_grid()
    x_level = true_quantile(cfg.dist, 1.0 - cfg.target_p)
    rep_fn = partial(_study_rep, cfg, k_grid, x_level)

    if workers > 1:  # a process past one per chunk of replications would have no work
        with ProcessPoolExecutor(max_workers=min(workers, math.ceil(cfg.reps / _CHUNKSIZE))) as pool:
            per_rep = list(pool.map(rep_fn, range(cfg.reps), chunksize=_CHUNKSIZE))
    else:
        per_rep = [rep_fn(r) for r in range(cfg.reps)]

    xi_all = np.stack([r[0] for r in per_rep])  # (reps, est, k)
    p_all = np.stack([r[1] for r in per_rep])
    valid = np.isfinite(xi_all) & np.isfinite(p_all)
    excluded_total = int(valid.size - valid.sum())
    frac = excluded_total / valid.size
    if frac > 0.05:
        raise StudyError(
            f"{excluded_total} of {valid.size} cells failed ({frac:.1%}); "
            "aborting study aggregation"
        )

    metrics: dict[str, EstimatorMetrics] = {}
    for i, name in enumerate(cfg.estimators):
        bias = np.empty(len(k_grid))
        var = np.empty(len(k_grid))
        rel_bias = np.empty(len(k_grid))
        rel_var = np.empty(len(k_grid))
        excl = np.empty(len(k_grid), dtype=int)
        for j in range(len(k_grid)):
            mask = valid[:, i, j]
            excl[j] = int(cfg.reps - mask.sum())
            if not mask.any():
                bias[j] = var[j] = rel_bias[j] = rel_var[j] = np.nan
                continue
            xi_vals = xi_all[mask, i, j]
            ratio = p_all[mask, i, j] / cfg.target_p - 1.0
            bias[j] = xi_vals.mean() - cfg.dist.true_xi
            var[j] = xi_vals.var()  # population form, so mse = bias**2 + variance
            rel_bias[j] = ratio.mean()
            rel_var[j] = ratio.var()
        metrics[name] = EstimatorMetrics(
            bias=bias,
            variance=var,
            mse=bias ** 2 + var,
            rel_bias=rel_bias,
            rel_variance=rel_var,
            rel_mse=rel_bias ** 2 + rel_var,
            excluded=excl,
        )
    return MCStudyResult(config=cfg, k_grid=k_grid, metrics=metrics, exclusion_fraction=frac)


def study_rows(result: MCStudyResult) -> list[dict]:
    """Flatten a result to one row per estimator and k, ready for CSV."""
    rows = []
    for name in result.config.estimators:
        m = result.metrics[name]
        for j, k in enumerate(result.k_grid):
            rows.append(
                {
                    "estimator": name,
                    "k": k,
                    "bias": m.bias[j],
                    "variance": m.variance[j],
                    "mse": m.mse[j],
                    "rel_bias": m.rel_bias[j],
                    "rel_variance": m.rel_variance[j],
                    "rel_mse": m.rel_mse[j],
                    "excluded": int(m.excluded[j]),
                }
            )
    return rows


def study_payload(result: MCStudyResult) -> dict:
    """Full provenance payload: the config with its resolved k grid, exclusions, metrics.

    It holds no volatile field, so it is byte-stable across reruns.
    """
    cfg = result.config
    return {
        "config": {**asdict(cfg), "k_grid": list(result.k_grid)},
        "reps_used": cfg.reps,
        "exclusion_fraction": result.exclusion_fraction,
        "rows": study_rows(result),
    }
