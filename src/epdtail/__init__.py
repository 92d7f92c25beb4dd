"""Bias-reduced tail index and tail probability estimation for heavy-tailed data.

The package fits the extended Pareto model to threshold excesses,
shrinks the second-order perturbation with a threshold-driven prior, and
provides the classical Hill/Weissman baselines, the limiting
bias/variance theory, and a reproducible Monte Carlo study harness.
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
    BayesEstimate,
    ClosedFormError,
    MCMCConfig,
    PosteriorChain,
    bayes_closed_form,
    bayes_tail_prob,
    hpd_interval,
    metropolis_sample,
    posterior_mode,
    prior_variance,
    smooth_path,
)
from .classical import hill, weissman_tail_prob
from .data import DataFormatError, ExcessSet, SortedSample, excesses, load_sample
from .epd import (
    EPDFit,
    EPDParams,
    delta_lower_bound,
    epd_log_likelihood,
    epd_ml_fit,
    epd_quantile,
    epd_sample,
    epd_survival,
    epd_tail_prob,
)
from .second_order import (
    NonEstimableError,
    resolve_rho,
    rho_fraga,
    tau_hat,
)
from .simulate import (
    MCStudyConfig,
    MCStudyResult,
    SimDistribution,
    StudyError,
    burr,
    frechet,
    loggamma,
    run_study,
    sample_distribution,
    survival,
    true_quantile,
)

__version__ = "0.1.0"
