"""Count time-series with latent feedback: log-linear Poisson GARCH,
NBIN-GARCH, and PARX of general order (p, q).

Simulation, exact conditional maximum likelihood, stability and
identifiability audits, and one-step forecasting, with a CLI front end
(``odmlab``).
"""

from .conditions import (
    ConditionReport,
    check_identifiable,
    check_loglin,
    check_model,
    check_nbin,
    check_parx,
    in_unit_disk_stable,
    loglin_iterate,
    nbin_stationary_mean,
)
from .families import (
    PredictiveDistribution,
    log_density,
    predictive,
)
from .fit import (
    FitOptions,
    FitResult,
    ThetaBox,
    default_box,
    fit_mle,
    forecast_one_step,
    make_box,
)
from .likelihood import LikelihoodValue, finite_diff_grad, grad_loglik, loglik
from .model import (
    LOGLIN,
    NBIN,
    PARX,
    DomainError,
    LatentWindow,
    ModelOrder,
    ModelSpec,
    ObservationSeries,
    ParameterVector,
    ParxConfig,
    default_initial_window,
    embed_step,
    iterate_latent,
    link_step,
    pack_params,
    param_names,
    project_latent,
    reduce,
    unpack_params,
)
from .simulate import (
    LatentExplosionError,
    SimConfig,
    SimResult,
    simulate_series,
    stationary_moment_estimate,
)
from .experiment import ConsistencyReport, ExperimentConfig, run_mc_consistency

__version__ = "0.1.0"
