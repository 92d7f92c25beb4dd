"""Monte Carlo study harness: reference distributions, replication, aggregation.

Every replication draws its sample from its own seed, derived from the
master seed. A study splits its replications into equal chunks, the work
unit of the process pool, of up to 128 replications at n <= 512 and up
to 32 at n >= 2 048 (``_chunk_size``): a serial study of 200 replications
at n = 500 runs 2 chunks of 100. The pool is imported only where a study
starts one, so a serial study never loads ``concurrent.futures`` and
``multiprocessing``. A chunk runs threshold by threshold:
at each k, ``estimate_cells`` estimates on every replication of the
chunk (its lanes), as ``epdtail estimate`` does on its one sample. The
chunk draws its lanes' sorted samples into one (lanes x n) matrix, row
by row, and at each k the lanes' excesses, Hill, tau, prior variance
and tail probabilities are array computations on it. One coefficient stack of the lanes
(``epd._Likelihood``) is built per k, and the lanes' ML fits run on it in
lockstep, one likelihood pass per round for every lane that asks
(``epd_ml_fits``); their first-order systems are solved as one array
computation, and the lanes without an admissible root run the exact
posterior-mode search in lockstep; the Metropolis chains run lane by
lane on the same stack. None of these copies it, and the Bayes paths of
a chunk are smoothed as one array. No sum mixes lanes, so results are
bit-identical for any chunking and worker count. The study aggregates
every (estimator, k) at once along the replications (``_moments``). A
cell whose estimator hands back an error is excluded and counted, and a
run aborts when exclusions exceed 5%; nothing is caught.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .bayes import MCMCConfig, PosteriorChain, _chain, _closed_forms, posterior_mode, prior_variance, smooth_path
from .data import SortedSample, excess_matrix
from .epd import _Likelihood, _tail_probs, epd_ml_fits
from .second_order import resolve_rho

__all__ = [
    "StudyError",
    "SimDistribution",
    "frechet",
    "burr",
    "loggamma",
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

_FAILED = (math.nan, math.nan)  # the (xi, delta) of a failed estimator
_CHUNK_MIN, _CHUNK_MAX = 8, 128  # the bounds of a chunk's replications, see _chunk_size
_CHUNK_VALUES = 2 ** 16  # the most sample values a chunk of more than 32 replications holds


class StudyError(RuntimeError):
    """Raised when a study cannot produce trustworthy aggregates."""


@dataclass(frozen=True)
class SimDistribution:
    """A reference heavy-tailed law with known tail and second-order indices."""

    kind: str
    args: tuple[float, ...]
    true_xi: float
    true_rho: float

    def __str__(self) -> str:
        return f"{self.kind}({', '.join(map(str, self.args))})"


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


def true_quantile(d: SimDistribution, p: float) -> float:
    """Quantile function of the reference law at probability p.

    Analytic for the Fréchet and Burr laws; through the inverse of the
    regularized upper incomplete gamma function for the loggamma law. A
    quantile that is not a positive finite float is an OverflowError.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    with np.errstate(over="ignore"):  # reported below; numpy's scalar power is the float power
        if d.kind == "frechet":
            (xi,) = d.args
            q = np.float64(-math.log(p)) ** (-xi)
        elif d.kind == "burr":
            xi, rho = d.args
            q = (np.float64(1.0 - p) ** rho - 1.0) ** (-xi / rho)
        elif d.kind == "loggamma":
            from scipy.special import gammainccinv

            shape, rate = d.args
            z = float(gammainccinv(shape, 1.0 - p)) / rate
            q = math.exp(z) if z <= math.log(np.finfo(float).max) else math.inf  # math.exp raises past it
        else:
            raise ValueError(f"unknown distribution kind {d.kind!r}")
    _check_floats(np.array(q), f"the {d} quantile at p = {p}")
    return float(q)


def _check_floats(x: np.ndarray, what: str) -> None:
    """Raise an OverflowError where a value of ``x`` is not a positive finite float, saying which way it failed."""
    if not ((x > 0) & (x < math.inf)).all():
        how = "underflows to 0" if (x < math.inf).all() else "overflows a float"
        raise OverflowError(f"{what} {how}")


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
    _check_floats(x, f"a {d} draw")
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


def _check_estimators(estimators: Sequence[str]) -> None:
    """A ValueError unless ``estimators`` names one or more of ``ESTIMATORS``, each once."""
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; supported: {ESTIMATORS}")
    if not estimators:
        raise ValueError("need at least one estimator")
    if len(set(estimators)) < len(estimators):
        raise ValueError(f"an estimator is named twice in {','.join(estimators)}")


@dataclass(frozen=True)
class MCStudyConfig:
    """Design of a replicated estimation study on a reference law.

    ``k_grid`` defaults (when None) to every k from 10 to n-10 in steps
    of 5; an empty grid is rejected. ``smooth_window`` is the
    moving-average width applied to each replication's posterior-mode
    paths over k before aggregation; 0 disables smoothing. ``target_p``
    fixes the exceedance level whose probability is re-estimated at x
    equal to the true (1 - target_p) quantile. The chain lengths of the
    ``bayes_mcmc`` estimator follow the rule of ``MCMCConfig`` and, where
    it runs, leave 2 draws or more after burn-in: one is a degenerate chain.
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
        _check_estimators(self.estimators)
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
        if "bayes_mcmc" in self.estimators and self.mcmc_iterations - self.mcmc_burn_in < 2:
            raise ValueError(f"bayes_mcmc needs 2 draws after burn-in, got {self.mcmc_iterations - self.mcmc_burn_in}")

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
    """The result of ``estimate_cells``: the estimates of lanes at one threshold k.

    Per lane: the threshold, Hill, and tau and the prior variance sigma2
    (both NaN where tau cannot be estimated). ``estimates`` (lanes x
    estimators x 3) holds each requested estimator's (xi, delta, P(X > x))
    in the requested order. Hill's delta is 0; a probability is NaN
    without x or with x below the threshold. A failed estimator has three
    NaNs and, in its lane's ``errors``, which keeps the requested order,
    the class name of its error: the gate's (see ``estimate_cells``) or
    its own numerical one. ``chains`` holds each lane's ``bayes_mcmc``
    draws when its chain ran and did not fail.
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
    its ``rho[i]`` and ``run_keys[i]``; one sample is one lane, as
    ``estimate_cells(sample.values[None], [rho], [(seed,)], k, estimators, x)``,
    the call ``epdtail estimate`` makes at each k. The lanes' excesses, Hill, tau and
    prior variance are array computations. One likelihood stack of the
    lanes serves every estimator but Hill: their ML fits, run in lockstep
    (``epd_ml_fits``), the ``bayes_closed`` estimates, whose first-order
    systems are solved at once and whose exact mode searches run in
    lockstep (``bayes._closed_forms``), and the ``bayes_mcmc`` chains, lane
    by lane (``bayes._chain``), ``mcmc`` (``MCMCConfig()`` where None)
    seeded from ``SeedSequence((*run_key, k))``. One array call gives the
    tail probabilities of every lane and estimator (``epd._tail_probs``).
    Each lane gets the bits it gets alone. No name, a name not in
    ``ESTIMATORS`` or one named twice is a ValueError, as in
    ``MCStudyConfig``, and so is a ``rho`` or ``run_keys`` whose length is
    not the number of rows. This gate alone decides which lanes each
    estimator runs on, and the stack functions are sent only those: where
    Hill is not positive (every excess ties) every estimator fails with a
    NonEstimableError, and where rho is not negative or tau = rho / Hill
    is not finite, with a ValueError. Every estimator but Hill fails with
    a ValueError below 10 excesses and at a tau of -0.0, and ``bayes_mcmc``
    also where sigma2 is not positive. Past the gate an estimator fails
    only by its own numerics (the mode search's ClosedFormError, a
    degenerate chain's RuntimeError), and nothing is caught: an error
    raised in a cell propagates.
    """
    _check_estimators(estimators)
    lanes, n = values.shape
    for name, given in (("rho", rho), ("run_keys", run_keys)):
        if len(given) != lanes:
            raise ValueError(f"need one {name} entry per row of values (rows: {lanes}, {name}: {len(given)})")
    threshold, y = excess_matrix(values, k)
    log_y = np.log(y)
    h = np.add.reduce(log_y, axis=1) / k  # Hill, the mean log excess
    rho = np.asarray(rho, dtype=float)
    ok = (h > 0) & ~(rho >= 0)  # the gate: the lanes with a tau and a prior variance
    with np.errstate(over="ignore"):  # a rho / Hill that overflows fails its lane below
        tau = np.divide(rho, h, out=np.full(lanes, math.nan), where=ok)
    ok &= np.isfinite(tau)
    tau[~ok] = math.nan
    ready = np.flatnonzero(ok)
    sigma2 = np.full(lanes, math.nan)
    sigma2[ready] = [prior_variance(k, n, r) for r in rho[ready].tolist()]
    fit = ok & (k >= 10) & (tau < 0)  # a rho / Hill that underflows to -0.0 leaves Hill alone
    runs = {"hill": ok, "epd_ml": fit, "bayes_closed": fit, "bayes_mcmc": fit & (sigma2 > 0)}
    est = np.full((lanes, len(estimators), 3), math.nan)
    errors: list[dict[str, str]] = [{} for _ in range(lanes)]
    chains: list[PosteriorChain | None] = [None] * lanes
    rows = np.flatnonzero(fit)  # the lanes of the likelihood stack, in its row order
    if rows.size and set(estimators) - {"hill"}:
        sub = rows if rows.size < lanes else slice(None)
        lik = _Likelihood(y[sub], tau[sub], log_y[sub])
    for j, name in enumerate(estimators):
        run = runs[name]
        for i in np.flatnonzero(~run).tolist():
            errors[i][name] = "NonEstimableError" if h[i] <= 0 else "ValueError"
        at = np.flatnonzero(run).tolist()
        if not at:
            continue
        if name == "hill":
            est[run, j, 0], est[run, j, 1] = h[run], 0.0
            continue
        if name == "epd_ml":
            results = epd_ml_fits(lik)
        elif name == "bayes_closed":
            results = _closed_forms(lik, sigma2[rows].tolist())
        else:
            results = []
            for i in at:
                seed = int(np.random.SeedSequence((*run_keys[i], k)).generate_state(1)[0])
                lane = int(np.searchsorted(rows, i))  # the lane's row of the stack
                result = _chain(lik, lane, float(sigma2[i]), replace(mcmc or MCMCConfig(), seed=seed))
                if isinstance(result, PosteriorChain):
                    chains[i], result = result, posterior_mode(result)
                results.append(result)
        for i, result in zip(at, results):
            if isinstance(result, Exception):
                errors[i][name] = type(result).__name__
        est[run, j, :2] = [_FAILED if isinstance(r, Exception) else r[:2] for r in results]
    if x is not None:
        tail = ready[x >= threshold[ready]]
        est[tail, :, 2] = _tail_probs(k / n, x / threshold[tail], tau[tail], est[tail, :, 0],
                                      est[tail, :, 1])
    return Cells(threshold, h, tau, sigma2, est, errors, chains)


def _chunk_size(reps: int, workers: int, n: int) -> int:
    """Replications per chunk: ``reps`` split equally into at least ``workers`` chunks of at most a cap.

    The cap is ``2**16 // n`` lanes within [32, 128]: 128 at n <= 512 and
    32 at n >= 2 048, so a chunk of more than 32 lanes holds at most 2**16
    sample values. A chunk holds at least 8, which keeps a pool at
    ``ceil(reps / 8)`` processes. A lockstep round has a fixed cost of
    about ten lanes' sums (a likelihood pass at k = 35 takes 9 µs for one
    lane and 81 µs for 100), so wide stacks pay: at n = 500 a serial study
    of 200 replications runs 2 chunks of 100, whose ML fits answer about
    25 lanes per round, where chunks of at most 32 answered 9.
    """
    cap = min(_CHUNK_MAX, max(32, _CHUNK_VALUES // n))
    chunks = max(workers, math.ceil(reps / cap))
    return max(math.ceil(reps / chunks), _CHUNK_MIN)


def _study_chunk(cfg: MCStudyConfig, k_grid: tuple[int, ...], x_level: float, reps: range):
    """A chunk of replications: estimate xi and the tail probability on every k.

    Returns two (n_reps, n_estimators, n_k) arrays; failed cells are nan.
    """
    values, rho = np.empty((len(reps), cfg.n)), []
    for i, rep in enumerate(reps):
        s = sample_distribution(cfg.dist, cfg.n, np.random.SeedSequence((cfg.master_seed, rep)))
        values[i] = s.values
        rho.append(resolve_rho(s)[0] if cfg.rho_mode == "fraga" else -1.0)
    run_keys = [(cfg.master_seed, rep) for rep in reps]
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
    size = _chunk_size(cfg.reps, workers, cfg.n)
    chunks = [range(cfg.reps)[start:start + size] for start in range(0, cfg.reps, size)]

    if workers > 1:  # a process past one per chunk would have no work
        from concurrent.futures import ProcessPoolExecutor  # the pool stack loads only for a pool

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
