"""The package as shipped: every public name, written out once, a runtime
that needs numpy only, and the benchmark records at the repository root."""

import glob
import json
import os
import subprocess
import sys
import textwrap

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
    "verify_power_bounds",
    "z_statistic",
]


def test_public_names():
    assert sorted(sgdmlab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(sgdmlab, name)


# each experiment once at toy size
TOY_RUNS = [
    ["convergence", "--n", "50", "--dim", "2", "--iters", "20", "--reps", "2", "--batch", "10"],
    ["averaged", "--problem", "logistic", "--n", "50", "--dim", "2", "--iters", "20", "--reps", "2"],
    ["sensitivity", "--n", "50", "--dim", "2", "--iters", "20", "--reps", "2"],
    ["coverage", "--n", "50", "--dim", "2", "--iters", "20", "--reps", "2"],
    ["spectrum-map", "--grid", "10"],
    ["power-bound", "--reps", "5", "--iters", "20"],
]


def test_runtime_imports_numpy_only(tmp_path):
    # pyproject.toml's runtime dependency is numpy alone: the test extras are
    # made unimportable, then each experiment and the library path run
    script = textwrap.dedent("""\
        import json, os, sys
        test_extras = ("scipy", "hypothesis", "mpmath", "pytest")
        for m in test_extras:
            sys.modules[m] = None  # an import of it raises ImportError
        from sgdmlab import ExperimentConfig, harness, run_experiment
        out, runs = sys.argv[1], json.loads(sys.argv[2])
        rcs = [harness.main(argv + ["--out", os.path.join(out, str(i))])
               for i, argv in enumerate(runs)]
        run_experiment(ExperimentConfig("averaged", n=50, dim=2, iters=20, reps=2,
                                        out=os.path.join(out, "library")))
        print(rcs, sorted(m for m, mod in sys.modules.items()
                          if mod is not None and m.split(".")[0] in test_extras))
        """)
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                          str(tmp_path), json.dumps(TOY_RUNS)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout.splitlines()[-1] == f"{[0] * len(TOY_RUNS)} []"


def test_bench_records_name_their_machine():
    # a timing without its machine cannot be compared
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = glob.glob(os.path.join(root, "BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    for path in paths:
        with open(path) as fh:
            assert "machine" in json.load(fh), path
