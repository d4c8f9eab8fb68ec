"""The package namespace: every public name, written out once."""

import sgdmlab

PUBLIC_NAMES = [
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
    "__version__",
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
]


def test_public_names():
    assert sorted(sgdmlab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(sgdmlab, name)
