"""Monte Carlo study harness: reference distributions, replication, aggregation.

Every replication draws its sample from its own seed, derived from the
master seed. A study runs its replications in chunks, the work unit of
the process pool, and a chunk runs threshold by threshold: at each k,
``estimate_cells`` estimates on every replication of the chunk (its
lanes), as ``epdtail estimate`` does on its one sample. The chunk holds
its lanes' sorted samples as one (lanes x n) matrix, and at each k the
lanes' excesses, Hill, tau, prior variance and tail probabilities are
array computations on it. One coefficient stack of the lanes
(``epd._Likelihood``) is built per k, and the lanes' ML fits run on it in
lockstep, one likelihood pass per round for every lane that asks
(``epd_ml_fits``); their first-order systems are solved as one array
computation, and the lanes without an admissible root run the exact
posterior-mode search in lockstep. None of these copies the stack. Only
the Metropolis chains run lane by lane, and the Bayes paths of a chunk
are smoothed as one array. No sum mixes lanes, so results are
bit-identical for any chunking and worker count. The study aggregates
every (estimator, k) at once along the replications (``_moments``). An
estimator's ValueError or RuntimeError is excluded cell-wise and
counted, and a run aborts when exclusions exceed 5%.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .bayes import (
    BayesEstimate,
    MCMCConfig,
    PosteriorChain,
    _closed_forms,
    metropolis_sample,
    posterior_mode,
    prior_variance,
    smooth_path,
)
from .data import ExcessSet, SortedSample, excess_matrix
from .epd import _Likelihood, _tail_probs, epd_ml_fits
from .second_order import resolve_rho

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
    "Cells",
    "estimate_cells",
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
_FAILED = (math.nan, math.nan)  # the (xi, delta) of a failed estimator
_CHUNK_MIN, _CHUNK_MAX = 8, 32  # the bounds of a chunk's replications, see _chunk_size


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
    if not 0 < xi < math.inf:  # so that NaN and inf fail too
        raise ValueError("xi must be positive and finite")
    return SimDistribution("frechet", (xi,), true_xi=xi, true_rho=-1.0)


def burr(xi: float, rho: float) -> SimDistribution:
    """Burr law with survival (1 + x**(-rho/xi))**(1/rho)."""
    if not (0 < xi < math.inf and -math.inf < rho < 0):
        raise ValueError("need finite xi > 0 and rho < 0")
    return SimDistribution("burr", (xi, rho), true_xi=xi, true_rho=rho)


def loggamma(shape: float = 4.0, rate: float = 2.0) -> SimDistribution:
    """Exponential of a gamma variable; tail index 1/rate, no second-order rate."""
    if not (0 < shape < math.inf and 0 < rate < math.inf):
        raise ValueError("shape and rate must be positive and finite")
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
        from scipy.special import gammaincc

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
        from scipy.special import gammainccinv

        shape, rate = d.args
        return math.exp(float(gammainccinv(shape, 1.0 - p)) / rate)
    raise ValueError(f"unknown distribution kind {d.kind!r}")


def sample_distribution(d: SimDistribution, n: int, seed) -> SortedSample:
    """Draw a sorted i.i.d. sample of size n, deterministic for a given seed."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # reported below, as an OverflowError
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
    if not ((x > 0) & (x < math.inf)).all():
        how = "underflows to 0" if (x < math.inf).all() else "overflows a float"
        raise OverflowError(f"a {d.kind}{d.args} draw {how}")
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
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError(f"an estimator is named twice in {','.join(self.estimators)}")
        if self.rho_mode not in ("fraga", "fixed_minus_one"):
            raise ValueError("rho_mode must be 'fraga' or 'fixed_minus_one'")
        # 1 - target_p, the level of the true quantile, must also lie below 1: it
        # rounds to 1 at target_p <= 2**-54
        if not (0.0 < self.target_p < 1.0 and 1.0 - self.target_p < 1.0):
            raise ValueError(f"target_p must be in (0, 1) with 1 - target_p below 1, got {self.target_p}")
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
class Cells:
    """The estimates of lanes at one threshold k.

    Per lane: the threshold, Hill, and tau and the prior variance sigma2
    (both NaN where tau cannot be estimated). ``estimates`` (lanes x
    estimators x 3) holds each requested estimator's (xi, delta, P(X > x))
    in the requested order. Hill's delta is 0; a probability is NaN
    without x or with x below the threshold. A failed estimator has three
    NaNs and the class name of its error in its lane's ``errors``, which
    keeps the requested order. ``chains`` holds each lane's ``bayes_mcmc``
    draws when it ran.
    """

    threshold: np.ndarray
    hill: np.ndarray
    tau: np.ndarray
    sigma2: np.ndarray
    estimates: np.ndarray
    errors: list[dict[str, str]]
    chains: list[PosteriorChain | None]


def estimate_cells(values: np.ndarray, rho: Sequence[float], run_keys: Sequence[tuple[int, ...]], k: int,
                   estimators: tuple[str, ...], x: float | None = None,
                   mcmc: MCMCConfig | None = None) -> Cells:
    """Run each of ``estimators`` (names from ``ESTIMATORS``) at threshold k on lanes, by the array.

    Lane i is the sorted sample in row i of ``values`` (lanes x n), with
    its ``rho[i]`` and ``run_keys[i]``. The lanes' excesses, Hill, tau and
    prior variance are array computations. One likelihood stack of the
    lanes serves their ML fits, run in lockstep (``epd_ml_fits``), and the
    ``bayes_closed`` estimates, whose first-order systems are solved at
    once and whose exact mode searches run in lockstep
    (``bayes._closed_forms``). One array call gives the tail probabilities
    of every lane and estimator (``epd._tail_probs``). Each lane gets the
    bits it gets alone. The ``bayes_mcmc`` chain runs lane by lane,
    ``mcmc`` with its seed drawn from ``SeedSequence((*run_key, k))``.
    A ValueError or RuntimeError fails only the estimator that raised it;
    when tau cannot be estimated every estimator fails. Other errors
    propagate.
    """
    lanes, n = values.shape
    threshold, y = excess_matrix(values, k)
    log_y = np.log(y)
    h = np.add.reduce(log_y, axis=1) / k  # the bits of ``hill``
    rho = np.asarray(rho, dtype=float)
    # every estimator needs tau = rho / Hill (``tau_hat``) and the prior variance, which
    # fail where Hill is not positive, where rho is not negative and where tau is not finite
    ok = (h > 0) & ~(rho >= 0)
    with np.errstate(over="ignore"):  # a rho / Hill that overflows fails its lane below
        tau = np.divide(rho, h, out=np.full(lanes, math.nan), where=ok)
    ok &= np.isfinite(tau)
    tau[~ok] = math.nan
    errors: list[dict[str, str]] = [{} for _ in range(lanes)]
    for i in np.flatnonzero(~ok).tolist():
        errors[i] = dict.fromkeys(estimators, "NonEstimableError" if h[i] <= 0 else "ValueError")
    ready = np.flatnonzero(ok)
    sigma2 = np.full(lanes, math.nan)
    sigma2[ready] = [prior_variance(k, n, r) for r in rho[ready].tolist()]
    est = np.full((lanes, len(estimators), 3), math.nan)
    chains: list[PosteriorChain | None] = [None] * lanes
    if not ready.size:  # no lane has a tau
        return Cells(threshold, h, tau, sigma2, est, errors, chains)
    if {"epd_ml", "bayes_closed"}.intersection(estimators):
        sub = ready if ready.size < lanes else slice(None)
        lik = _Likelihood(y[sub], tau[sub], log_y[sub])
    for j, name in enumerate(estimators):
        if name == "hill":
            est[ready, j, 0], est[ready, j, 1] = h[ready], 0.0
            continue
        if name == "epd_ml":
            results = epd_ml_fits(lik)
        elif name == "bayes_closed":
            results = _closed_forms(lik, sigma2[ready].tolist())
        else:
            results = []
            for i in ready.tolist():
                e = ExcessSet(y=y[i], k=k, threshold=float(threshold[i]))
                seed = int(np.random.SeedSequence((*run_keys[i], k)).generate_state(1)[0])
                try:
                    chains[i] = metropolis_sample(e, float(tau[i]), float(sigma2[i]),
                                                  replace(mcmc, seed=seed))
                    mode = BayesEstimate(*posterior_mode(chains[i]), solver="mcmc")
                    results.append((mode.xi, mode.delta))
                except _CELL_ERRORS as exc:
                    results.append(exc)
        for i, result in zip(ready.tolist(), results):
            if isinstance(result, Exception):
                errors[i][name] = type(result).__name__
        est[ready, j, :2] = [_FAILED if isinstance(r, Exception) else r[:2] for r in results]
    if x is not None:
        tail = ready[x >= threshold[ready]]
        est[tail, :, 2] = _tail_probs(k / n, x / threshold[tail], tau[tail], est[tail, :, 0],
                                      est[tail, :, 1])
    return Cells(threshold, h, tau, sigma2, est, errors, chains)


def _chunk_size(reps: int, workers: int) -> int:
    """Replications per chunk: an equal share per worker, clamped to [8, 32].

    At least 8 keeps a pool at ``ceil(reps / 8)`` processes; past 32 lanes
    the lockstep fits gain little.
    """
    return min(max(math.ceil(reps / workers), _CHUNK_MIN), _CHUNK_MAX)


def _study_chunk(cfg: MCStudyConfig, k_grid: tuple[int, ...], x_level: float, reps: range):
    """A chunk of replications: estimate xi and the tail probability on every k.

    Returns two (n_reps, n_estimators, n_k) arrays; failed cells are nan.
    """
    samples, rho = [], []
    for rep in reps:
        s = sample_distribution(cfg.dist, cfg.n, np.random.SeedSequence((cfg.master_seed, rep)))
        samples.append(s.values)
        rho.append(resolve_rho(s)[0] if cfg.rho_mode == "fraga" else -1.0)
    values, run_keys = np.array(samples), [(cfg.master_seed, rep) for rep in reps]
    mcmc = MCMCConfig(cfg.mcmc_iterations, cfg.mcmc_burn_in)
    est = np.empty((len(reps), len(cfg.estimators), len(k_grid), 3))
    for j, k in enumerate(k_grid):
        est[:, :, j] = estimate_cells(values, rho, run_keys, k, cfg.estimators, x_level, mcmc).estimates
    xi_out, p_out = est[..., 0], est[..., 2]

    if cfg.smooth_window >= 3:
        for i, name in enumerate(cfg.estimators):
            if name in ("bayes_closed", "bayes_mcmc"):
                xi_out[:, i] = smooth_path(xi_out[:, i], cfg.smooth_window)
                p_out[:, i] = smooth_path(p_out[:, i], cfg.smooth_window)
    return xi_out, p_out


def _moments(values: np.ndarray, ok: np.ndarray, truth: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias against ``truth``, variance and MSE of the ``values`` where ``ok``, along their last axis.

    By ``np.mean`` and ``np.var``'s arithmetic (population form, so mse = bias**2 + variance): the sum
    divided by the count, then the squared deviations summed and divided by the count. A cell where every
    value is ok gets those calls' bits; elsewhere the zeros standing in for the rest change the pairwise
    summation, so the last bits may differ. A cell with no value ok is NaN.
    """
    count = ok.sum(axis=-1)
    with np.errstate(invalid="ignore"):  # 0/0 where no value is ok
        mean = np.add.reduce(np.where(ok, values, 0.0), axis=-1) / count
        dev = np.where(ok, values - mean[..., None], 0.0)
        var = np.add.reduce(dev * dev, axis=-1) / count
    bias = mean - truth
    return bias, var, bias ** 2 + var


def run_study(cfg: MCStudyConfig, workers: int = 1) -> MCStudyResult:
    """Run the replicated study; deterministic in master_seed, any worker count.

    The chunks' xi and tail probabilities are gathered as (estimators, k,
    reps) arrays, contiguous along the replications, and ``_moments``
    aggregates every (estimator, k) of each at once.
    """
    k_grid = cfg.resolved_k_grid()
    x_level = true_quantile(cfg.dist, 1.0 - cfg.target_p)
    chunk_fn = partial(_study_chunk, cfg, k_grid, x_level)
    size = _chunk_size(cfg.reps, workers)
    chunks = [range(cfg.reps)[start:start + size] for start in range(0, cfg.reps, size)]

    if workers > 1:  # a process past one per chunk would have no work
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            per_chunk = list(pool.map(chunk_fn, chunks))
    else:
        per_chunk = [chunk_fn(c) for c in chunks]

    xi_all, p_all = (np.moveaxis(np.concatenate(parts), 0, -1).copy() for parts in zip(*per_chunk))
    valid = np.isfinite(xi_all) & np.isfinite(p_all)
    excluded = cfg.reps - valid.sum(axis=-1)
    frac = int(excluded.sum()) / valid.size
    if frac > 0.05:
        raise StudyError(f"{excluded.sum()} of {valid.size} cells failed ({frac:.1%}); aborting study aggregation")
    index = _moments(xi_all, valid, cfg.dist.true_xi)
    tail = _moments(p_all / cfg.target_p - 1.0, valid, 0.0)
    metrics = {name: EstimatorMetrics(*(m[i] for m in index), *(m[i] for m in tail), excluded=excluded[i])
               for i, name in enumerate(cfg.estimators)}
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

    It holds no volatile field, so it is byte-stable across reruns. A
    metric that is not finite, as at a k where every replication failed,
    is None, so the payload is standard JSON.
    """
    cfg = result.config
    return {
        "config": {**asdict(cfg), "k_grid": list(result.k_grid)},
        "reps_used": cfg.reps,
        "exclusion_fraction": result.exclusion_fraction,
        "rows": [{key: None if isinstance(v, float) and not math.isfinite(v) else v for key, v in row.items()}
                 for row in study_rows(result)],
    }
