"""Momentum-SGD tuning theory, simulation, and inference toolkit.

Closed-form spectral analysis of the momentum iteration map drives
hyperparameter choice (optimal and adaptive momentum weights, burn-in
length); the optimizer, problem generators, and plug-in inference modules
turn that theory into reproducible experiments behind the `sgdmlab` CLI.
"""

from .inference import (
    CovarianceEstimate,
    DegenerateDirectionError,
    chi_square_quantile,
    confidence_interval,
    confidence_region_statistic,
    ks_normality,
    normal_cdf,
    normal_quantile,
    plug_in_covariance,
    z_statistic,
)
from .optimizer import (
    AveragingState,
    DivergedError,
    OptimizerState,
    Trajectory,
    choose_burn_in,
    resolve_gamma,
    run,
    run_cells,
    sgdm_step,
)
from .problems import (
    GenerationError,
    LogisticProblem,
    QuadraticProblem,
    generate_logistic,
    generate_quadratic,
)
from .rand import GENERATOR_NAME, RngStream
from .spectrum import (
    GammaMode,
    HessianSpectrum,
    MomentumConfig,
    PowerBoundResult,
    SpectralReport,
    adaptive_gamma,
    build_gamma_matrix,
    numeric_spectral_radius,
    optimal_hyperparameters,
    spectral_radius_closed_form,
    spectral_report_arrays,
    verify_power_bound,
)
from .harness import (
    ExperimentConfig,
    RunSummary,
    main,
    parse_config,
    read_csv,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AveragingState",
    "CovarianceEstimate",
    "DegenerateDirectionError",
    "DivergedError",
    "ExperimentConfig",
    "GENERATOR_NAME",
    "GammaMode",
    "GenerationError",
    "HessianSpectrum",
    "LogisticProblem",
    "MomentumConfig",
    "OptimizerState",
    "PowerBoundResult",
    "QuadraticProblem",
    "RngStream",
    "RunSummary",
    "SpectralReport",
    "Trajectory",
    "adaptive_gamma",
    "build_gamma_matrix",
    "chi_square_quantile",
    "choose_burn_in",
    "confidence_interval",
    "confidence_region_statistic",
    "generate_logistic",
    "generate_quadratic",
    "ks_normality",
    "main",
    "normal_cdf",
    "normal_quantile",
    "numeric_spectral_radius",
    "optimal_hyperparameters",
    "parse_config",
    "plug_in_covariance",
    "read_csv",
    "resolve_gamma",
    "run",
    "run_cells",
    "run_experiment",
    "sgdm_step",
    "spectral_radius_closed_form",
    "spectral_report_arrays",
    "verify_power_bound",
    "z_statistic",
    "__version__",
]
