"""Bias-reduced tail index and tail probability estimation for heavy-tailed data.

The package fits the extended Pareto model to threshold excesses,
shrinks the second-order perturbation with a threshold-driven prior, and
provides the classical Hill/Weissman baselines, the limiting
bias/variance theory, and a reproducible Monte Carlo study harness.
Every estimator runs on a stack of samples of one size, one per row:
``estimate_cells`` estimates at one threshold and returns its ``Cells``,
and one sample is a stack of one row.
"""

from .asymptotics import (
    AsymptoticRegime,
    asym_mean,
    asym_var,
    limit_mse,
    mse_opt,
    zeta_opt,
)
from .bayes import (
    ClosedFormError,
    MCMCConfig,
    PosteriorChain,
    hpd_interval,
    posterior_mode,
    prior_variance,
    smooth_path,
)
from .data import DataFormatError, SortedSample, load_sample
from .epd import delta_lower_bound
from .second_order import (
    NonEstimableError,
    resolve_rho,
    rho_fraga,
)
from .simulate import (
    Cells,
    MCStudyConfig,
    MCStudyResult,
    SimDistribution,
    StudyError,
    burr,
    estimate_cells,
    frechet,
    k_range,
    loggamma,
    run_study,
    sample_distribution,
    true_quantile,
)

__version__ = "0.1.0"
