"""Experiment driver: config resolution, artifact layout, serial/parallel
agreement, per-experiment summaries."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import Future
from dataclasses import asdict

import numpy as np
import pytest

from sgdmlab import (
    DivergedError,
    ExperimentConfig,
    GENERATOR_NAME,
    HessianSpectrum,
    MomentumConfig,
    RngStream,
    choose_burn_in,
    main,
    normal_quantile,
    numeric_spectral_radius,
    parse_config,
    read_csv,
    run_cells,
    run_experiment,
)
from sgdmlab import harness
from sgdmlab.harness import Z_CRIT, _grid, _run_replication, _tag


# ---------------------------------------------------------------------------
# config resolution

def test_parse_flags_full_set():
    cfg = parse_config([
        "convergence", "--alpha", "0.01", "0.02",
        "--gamma", "0", "0.5", "adaptive",
        "--batch-frac", "0.25", "--n", "2000", "--dim", "6", "--seed", "7",
    ])
    assert cfg.experiment == "convergence"
    assert cfg.alphas == [0.01, 0.02]
    assert cfg.gammas == ["0", "0.5", "adaptive"]
    assert cfg.batch == 500
    assert cfg.n == 2000 and cfg.dim == 6 and cfg.seed == 7
    assert cfg.iters == 1000  # experiment default
    assert cfg.n0 == 0
    assert cfg.reps == 100  # desk scale


def test_parse_defaults_per_experiment(monkeypatch):
    monkeypatch.delenv("SGDMLAB_THREADS", raising=False)
    dyadic = [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
    # experiment: iters, gammas, n0
    table = {
        "convergence": (1000, ["0", "0.9", "adaptive"], 0),
        "averaged": (2000, ["0", "0.9", "adaptive"], "auto"),
        "sensitivity": (500, ["0", "0.8", "0.9"], 0),
        "coverage": (2000, ["adaptive"], "auto"),
        "spectrum-map": (0, ["0"], 0),
        "power-bound": (200, ["0"], 0),
    }
    for experiment, (iters, gammas, n0) in table.items():
        desk = parse_config([experiment])
        assert (desk.iters, desk.gammas, desk.n0) == (iters, gammas, n0), experiment
        sens = experiment == "sensitivity"
        assert desk.alphas == (dyadic if sens else [0.001]), experiment
        logistic = parse_config([experiment, "--problem", "logistic"])
        assert logistic.alphas == (dyadic if sens else [0.5]), experiment
        # batch_frac 0.2 of n unless given
        assert (desk.n, desk.reps, desk.batch, desk.threads) == (4000, 100, 800, 1)
        paper = parse_config([experiment, "--paper-scale"])
        assert (paper.n, paper.reps, paper.batch) == (20000, 200, 4000)
        assert parse_config([experiment, "--paper-scale", "--batch-frac", "0.1"]).batch == 2000
        # the library path takes the same defaults as the command line
        for kwargs, flags in [
            ({}, []),
            ({"problem": "logistic"}, ["--problem", "logistic"]),
            ({"paper_scale": True}, ["--paper-scale"]),
            ({"paper_scale": True, "batch_frac": 0.1}, ["--paper-scale", "--batch-frac", "0.1"]),
        ]:
            assert (asdict(ExperimentConfig(experiment, **kwargs))
                    == asdict(parse_config([experiment, *flags]))), (experiment, flags)


def test_parse_paper_scale():
    cfg = parse_config(["convergence", "--paper-scale"])
    assert cfg.n == 20000 and cfg.reps == 200
    assert cfg.paper_scale


def test_parse_rejects_bad_gamma():
    with pytest.raises(ValueError, match=r"gamma must lie in \[0,1\)"):
        parse_config(["convergence", "--gamma", "1.0"])
    with pytest.raises(ValueError, match="adaptive"):
        parse_config(["convergence", "--gamma", "sometimes"])


def test_parse_rejects_bad_n0():
    with pytest.raises(ValueError, match="n0 expects"):
        parse_config(["convergence", "--n0", "soon"])
    cfg = parse_config(["convergence", "--n0", "auto"])
    assert cfg.n0 == "auto"
    cfg = parse_config(["convergence", "--n0", "25"])
    assert cfg.n0 == 25
    with pytest.raises(ValueError, match="n0 must be < iters"):
        parse_config(["convergence", "--n0", "5000", "--iters", "100"])


def test_parse_config_file_and_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "coverage", "reps": 5, "n": 300, "n0": 20,
        "gamma": "0.5", "alpha": 0.01,
    }))
    cfg = parse_config(["--config", str(path)])
    assert cfg.experiment == "coverage"
    assert cfg.reps == 5 and cfg.n == 300 and cfg.n0 == 20
    assert cfg.gammas == ["0.5"] and cfg.alphas == [0.01]
    # flags win over the file; the positional experiment too
    cfg = parse_config(["convergence", "--config", str(path), "--n", "400"])
    assert cfg.experiment == "convergence"
    assert cfg.n == 400
    assert cfg.reps == 5
    # a file's gamma list mixes a token and a number, its alpha is a scalar
    path.write_text(json.dumps({"experiment": "averaged", "n": 50, "dim": 2, "iters": 20,
                                "reps": 2, "gamma": ["adaptive", 0.5], "alpha": 0.01}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(path), "--out", str(tmp_path / "from-file")]) == 0


def test_parse_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "convergence", "stepsize": 0.1}))
    with pytest.raises(ValueError, match="unknown config key 'stepsize'"):
        parse_config(["--config", str(path)])


def test_parse_config_file_rejects_malformed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("not json")
    with pytest.raises(ValueError, match="malformed config file"):
        parse_config(["--config", str(path)])
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        parse_config(["--config", str(path)])


def test_parse_requires_experiment():
    with pytest.raises(ValueError, match="no experiment given"):
        parse_config([])


def test_parse_batch_exclusivity(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "convergence", "batch": 10}))
    with pytest.raises(ValueError, match="either batch or batch_frac"):
        parse_config(["--config", str(path), "--batch-frac", "0.1"])


def test_batch_from_flag_and_file(tmp_path):
    # n = 60 would take batch 12 from the default batch_frac 0.2
    argv = ["convergence", "--n", "60", "--dim", "2", "--iters", "5", "--reps", "1"]
    assert parse_config(argv + ["--batch", "10"]).batch == 10
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "convergence", "n": 60, "batch": 10}))
    assert parse_config(["--config", str(path)]).batch == 10
    out_dir = tmp_path / "b10"
    assert main(argv + ["--batch", "10", "--out", str(out_dir)]) == 0
    names = [n for n in os.listdir(out_dir) if n.endswith(".csv")]
    assert len(names) == 3 + 1
    for name in names:
        meta, _ = read_csv(str(out_dir / name))
        assert meta["batch"] == "10", name


def test_parse_threads_from_environment(monkeypatch):
    monkeypatch.setenv("SGDMLAB_THREADS", "3")
    assert parse_config(["convergence"]).threads == 3
    assert parse_config(["convergence", "--threads", "2"]).threads == 2
    monkeypatch.setenv("SGDMLAB_THREADS", "x")
    with pytest.raises(ValueError, match="threads expects int, got 'x'"):
        parse_config(["convergence"])
    assert parse_config(["convergence", "--threads", "2"]).threads == 2
    monkeypatch.delenv("SGDMLAB_THREADS")
    assert parse_config(["convergence"]).threads == 1


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(experiment="warmup")
    with pytest.raises(ValueError, match="unknown problem"):
        ExperimentConfig(experiment="convergence", problem="cubic")
    with pytest.raises(ValueError, match="reps"):
        ExperimentConfig(experiment="convergence", reps=0)
    with pytest.raises(ValueError, match="alpha values must be positive"):
        ExperimentConfig(experiment="convergence", alphas=[0.0])
    with pytest.raises(ValueError, match="at least one value"):
        ExperimentConfig(experiment="convergence", alphas=[])
    with pytest.raises(ValueError, match="at least one value"):
        ExperimentConfig(experiment="convergence", gammas=[])
    for bad in ([False], [np.True_]):
        with pytest.raises(ValueError, match=r"^gamma expects numbers in \[0,1\) or 'adaptive', got"):
            ExperimentConfig(experiment="convergence", gammas=bad)
    with pytest.raises(ValueError, match="batch"):
        ExperimentConfig(experiment="convergence", batch=0)
    with pytest.raises(ValueError, match="either batch or batch_frac"):
        ExperimentConfig(experiment="convergence", batch=10, batch_frac=0.1)
    for bad in ("yes", 1, None):
        with pytest.raises(ValueError, match="paper_scale expects bool"):
            ExperimentConfig(experiment="convergence", paper_scale=bad)
    # the library path types each key as the command line does and refuses a
    # mistyped one before any sweep, naming it
    for key, bad in [("reps", 2.5), ("n", 100.0), ("iters", 20.0), ("dim", True),
                     ("threads", 2.0), ("batch", 10.0), ("alphas", ["0.1"]),
                     ("offset", "1"), ("n0", 1.5), ("seed", 1.5), ("batch_frac", True),
                     ("mu", None)]:
        name = {"alphas": "alpha"}.get(key, key)  # as the command line names it
        with pytest.raises(ValueError, match=rf"^{name} expects"):
            ExperimentConfig(experiment="convergence", **{key: bad})
    with pytest.raises(ValueError, match="iters"):
        ExperimentConfig(experiment="power-bound", iters=0)
    with pytest.raises(ValueError, match="n must be >= dim"):
        ExperimentConfig(experiment="coverage", n=5, dim=10)
    with pytest.raises(ValueError, match="n0 must be < iters"):
        ExperimentConfig(experiment="averaged", iters=100, n0=100)
    with pytest.raises(ValueError, match="n0 'auto' needs iters >= 2"):
        ExperimentConfig(experiment="averaged", iters=1, n0="auto")
    with pytest.raises(ValueError, match="dim must be >= 1"):
        ExperimentConfig(experiment="convergence", n=50, dim=0)
    for n in (3, 5):
        with pytest.raises(ValueError, match="n must be > dim for the logistic"):
            ExperimentConfig(experiment="averaged", problem="logistic", n=n, dim=5)
    with pytest.raises(ValueError, match="grid must be >= 1"):
        ExperimentConfig(experiment="spectrum-map", iters=0, grid=0)
    for mu, ell in ((0.0, 5.0), (1.0, -5.0), (1.0, math.inf), (math.nan, 5.0)):
        with pytest.raises(ValueError, match="mu and ell"):
            ExperimentConfig(experiment="spectrum-map", iters=0, mu=mu, ell=ell)
    for bad in ((-1.0, 0.5), (0.02, math.inf), (math.nan, 0.5)):
        with pytest.raises(ValueError, match="alpha_range"):
            ExperimentConfig(experiment="spectrum-map", iters=0, alpha_range=bad)
    for bad in ((0.0, 1.5), (-0.1, 0.5), (0.0, 1.0)):
        with pytest.raises(ValueError, match="gamma_range"):
            ExperimentConfig(experiment="spectrum-map", iters=0, gamma_range=bad)
    # the logistic family (penalized) and the step-free spectrum map take these
    ExperimentConfig(experiment="averaged", problem="logistic", n=5, dim=10, nu=0.1)
    ExperimentConfig(experiment="averaged", problem="logistic", n=6, dim=5)
    ExperimentConfig(experiment="spectrum-map", iters=0, n0="auto")


# ---------------------------------------------------------------------------
# artifacts

def tiny_config(out, **over):
    base = dict(
        experiment="convergence", n=120, dim=3, gammas=["0", "adaptive"],
        alphas=[0.005], batch=20, iters=60, n0=0, reps=4, seed=9,
        out=str(out),
    )
    base.update(over)
    return ExperimentConfig(**base)


# summary.csv bodies of golden_configs as recorded from a reference build; a
# change to the sweep's arithmetic, seeding or aggregation shows up here
GOLDEN_SUMMARIES = {
    "convergence": """\
experiment,problem,gamma,alpha,batch,iters,n0,reps,divergent,gamma_resolved_mean,lam_mean,final_err_mean,final_err_median,best_err_mean,final_err_avg_mean,steady_mse,iters_to_threshold,coverage,p_abs_z,region_coverage,ks_stat,ks_pass
convergence,quadratic,0,0.005,20,60,0,4,0,0.0,0.9486493434505419,0.028019961494966356,0.0252189096512771,0.028019961494966356,0.3462726714534504,0.002156217568457251,42,nan,nan,nan,nan,nan
convergence,quadratic,adaptive,0.005,20,60,0,4,0,0.8141722194035867,0.9023149016507566,0.005074639563129186,0.005027103406346723,0.003481594209326635,0.35331597800076464,2.7325508625960167e-05,46,nan,nan,nan,nan,nan
""",
    "sensitivity": """\
experiment,problem,gamma,alpha,batch,iters,n0,reps,divergent,gamma_resolved_mean,lam_mean,final_err_mean,final_err_median,best_err_mean,final_err_avg_mean,steady_mse,iters_to_threshold,coverage,p_abs_z,region_coverage,ks_stat,ks_pass
sensitivity,quadratic,0,0.01,20,50,0,3,0,0.0,0.8972180901211083,0.020974479795379298,0.015925884340122515,0.020974479795379298,2.662386161393853,0.0027152988740277717,38,nan,nan,nan,nan,nan
sensitivity,quadratic,0,2.0,20,50,0,3,3,0.0,32.42896051168413,inf,inf,inf,inf,nan,nan,nan,nan,nan,nan,nan
sensitivity,quadratic,0.8,0.01,20,50,0,3,0,0.8000000000000002,0.8944271909999159,0.08191318145167513,0.05660706054760118,0.02942186790593183,2.6517098512918866,0.005478053815257208,39,nan,nan,nan,nan,nan
sensitivity,quadratic,0.8,2.0,20,50,0,3,3,0.8000000000000002,4.71607761773366,inf,inf,inf,inf,nan,nan,nan,nan,nan,nan,nan
""",
}


# SHA-256 of every per-cell CSV of golden_configs, recorded from a reference
# build: per-step error means/medians, the divergent cells' rows and the
# coverage z, interval and region columns must stay byte for byte what they
# were
GOLDEN_CELL_DIGESTS = {
    "convergence": {
        "convergence_g0_a0.005.csv":
            "a27379558f7c8e2731effe88768a61d10fc50884c1edc83eccb64cd5a7a80a97",
        "convergence_gadaptive_a0.005.csv":
            "5a759e5aa1dc8e6bc60e349b6738cdd9fb591bead696a31bf48b6f614c80ca82",
    },
    "sensitivity": {
        "sensitivity_g0.8_a0.01.csv":
            "78b2761071b40481965b3094346004c638825d66e614eee69643d70e93a7bcfb",
        "sensitivity_g0.8_a2.csv":
            "8a540b78151b37802d8e428e80fcf909b99d9f4078b2115867ed05b6a51396e2",
        "sensitivity_g0_a0.01.csv":
            "b83f13a6d10090249bccd6c5b0f51777fb823fad2087334712746fccba9135d7",
        "sensitivity_g0_a2.csv":
            "669cedeef6a16776411dbb51eab273bda918f3f8d6b6510560232eb165801a0c",
    },
    "coverage": {
        "coverage_g0.5_a0.005.csv":
            "cb70730779b79716a1a33df0635bc74cd27fb42f5c2a5be4ec43c4a6533663ec",
        "coverage_gadaptive_a0.005.csv":
            "7a5a6a5f22ec51818f2fab1d109f7a52c2f4bb8ab122ef8f0e52d54c435917b1",
    },
    "coverage-logistic": {
        "coverage_gadaptive_a0.5.csv":
            "f0f55ddc46157c5fc8f5c65a567485099abc026587333056e1983debf3dba3a1",
        "coverage_gadaptive_a1.csv":
            "837043a20031dfb81da5d15181956e816e34847cecf8776de3f49293ff3757b5",
    },
}


def golden_configs(out):
    return {
        "convergence": tiny_config(out / "convergence"),
        # the divergence config below plus a stable step size and gamma
        "sensitivity": ExperimentConfig(
            experiment="sensitivity", n=100, dim=3, gammas=["0", "0.8"],
            alphas=[0.01, 2.0], batch=20, iters=50, n0=0, reps=3, seed=1,
            offset=10.0, out=str(out / "sensitivity"),
        ),
        # odd dof (dim 3) and even dof (dim 2) in the region statistic
        "coverage": ExperimentConfig(
            experiment="coverage", n=120, dim=3, gammas=["0.5", "adaptive"],
            alphas=[0.005], batch=20, iters=200, n0="auto", reps=6, seed=9,
            out=str(out / "coverage"),
        ),
        "coverage-logistic": ExperimentConfig(
            experiment="coverage", problem="logistic", n=150, dim=2, nu=0.1,
            gammas=["adaptive"], alphas=[0.5, 1.0], batch=15, iters=150, n0=30,
            reps=5, seed=3, out=str(out / "coverage-logistic"),
        ),
    }


@pytest.mark.parametrize("experiment", sorted(GOLDEN_SUMMARIES))
def test_summary_matches_golden(tmp_path, experiment):
    cfg = golden_configs(tmp_path)[experiment]
    run_experiment(cfg)
    golden = tmp_path / "golden.csv"
    golden.write_text(GOLDEN_SUMMARIES[experiment])
    _, want = read_csv(str(golden))
    _, got = read_csv(os.path.join(cfg.out, "summary.csv"))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, nan_ok=True)


@pytest.mark.parametrize("experiment", sorted(GOLDEN_CELL_DIGESTS))
def test_cell_csvs_match_golden_digests(tmp_path, experiment):
    cfg = golden_configs(tmp_path)[experiment]
    run_experiment(cfg)
    got = {
        name: hashlib.sha256((tmp_path / experiment / name).read_bytes()).hexdigest()
        for name in os.listdir(cfg.out)
        if name.endswith(".csv") and name != "summary.csv"
    }
    assert got == GOLDEN_CELL_DIGESTS[experiment]


# SHA-256 of each golden_configs summary.csv, recorded from a reference
# build: the summary above is compared to 1e-12, this pins its bytes
GOLDEN_SUMMARY_DIGESTS = {
    "convergence": "5545e7699fa2c7e1ed887ddaf5ad40880d6283ec5b830403eeb4eb7f6f0a70bd",
    "sensitivity": "48119d64e6ca1f9c9008e2936bb5516e7696e7cfb912f7d71e7af1a1e0c12f45",
    "coverage": "798c554353b0efd3a2f8b6c651d7b55abeac217e4d61d072b96d22e85cad299d",
    "coverage-logistic": "9a82fbf571c0115e7527aecd4e5cf89db2a678c34be127448ce92c6f69bb04eb",
}


@pytest.mark.parametrize("experiment", sorted(GOLDEN_SUMMARY_DIGESTS))
def test_summary_csv_matches_golden_digest(tmp_path, experiment):
    cfg = golden_configs(tmp_path)[experiment]
    run_experiment(cfg)
    got = hashlib.sha256((tmp_path / experiment / "summary.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_SUMMARY_DIGESTS[experiment]


# SHA-256 of the grid and bound experiments' tables, recorded from a
# reference build: a 40 x 40 map over alpha in [0, 3] spans two of the
# writer's chunks and holds an inadmissible band
GOLDEN_THEORY_DIGESTS = {
    "spectrum_map.csv": (
        dict(experiment="spectrum-map", grid=40, alpha_range=(0.0, 3.0)),
        "7a21f6b1e0d652d649555fafff3fead6e3b73514184934bb33727ef15f2ca61a"),
    "power_bound.csv": (
        dict(experiment="power-bound", reps=25, iters=100),
        "0211b658a5fa68a2ce63fe34363e8e99aad9d0ea80a38b62cf0cc992ee8a6642"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_THEORY_DIGESTS))
def test_theory_csvs_match_golden_digests(tmp_path, name):
    over, digest = GOLDEN_THEORY_DIGESTS[name]
    run_experiment(ExperimentConfig(**over, out=str(tmp_path)))
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def write_csv_per_row(path, header, table):
    """The CSV writer written out one dict row at a time, an array's values
    as the Python scalars of its `.tolist()` (a float32 array's as doubles)."""
    columns = list(table)
    values = (c.tolist() if isinstance(c, np.ndarray) else c for c in table.values())
    with open(path, "w", newline="") as fh:
        for key, val in header.items():
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in (dict(zip(columns, row_values)) for row_values in zip(*values)):
            writer.writerow([harness._fmt(row[c]) for c in columns])


@pytest.mark.parametrize("offset", [None, -1, 0, 1, 5])
def test_write_csv_matches_per_row_writer(tmp_path, monkeypatch, offset):
    monkeypatch.setattr(harness, "_CSV_CHUNK", 4)
    rows = 0 if offset is None else harness._CSV_CHUNK + offset
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 2.0]
    texts = ["adaptive", "a,b", 'say "hi"', "", "cr\r", "lf\n", "crlf\r\n"]

    def take(values):
        return [values[i % len(values)] for i in range(rows)]

    table = {
        "float": take(floats),
        "float_array": np.array(take(floats)),
        "float32_array": np.array(take([math.nan, -math.inf, -0.0, 1e-45, 0.1, 3e38]),
                                  dtype=np.float32),
        "numpy_floats": list(np.array(take(floats))),
        "int": take([0, -3, 2**63]),
        "int_array": np.arange(rows, dtype=np.int64),
        "int32_array": np.array(take([0, -3, 2**31 - 1]), dtype=np.int32),
        "bool": take([True, False]),
        "bool_array": np.array(take([True, False])),
        "numpy_bools": list(np.array(take([False, True]))),
        "str": take(texts),
        'needs,"quotes"': take(["x"]),
    }
    header = {"experiment": "convergence", "seed": 42}
    # and one-column tables, where csv.writer quotes a lone empty field
    for i, one in enumerate([table, {"str": take(texts)}, {"": take(["", "x"])}]):
        harness._write_csv(str(tmp_path / f"chunked{i}.csv"), header, one)
        write_csv_per_row(str(tmp_path / f"per_row{i}.csv"), header, one)
        got = (tmp_path / f"chunked{i}.csv").read_bytes()
        assert got == (tmp_path / f"per_row{i}.csv").read_bytes(), one
        assert len(read_csv(str(tmp_path / f"chunked{i}.csv"))[1]) == rows
    assert got.startswith(b'# experiment=convergence\n# seed=42\n""\r\n')


def test_fmt_writes_numpy_bools_as_python_bools():
    values = [True, False, np.True_, np.False_, *np.array([True, False]).tolist()]
    assert [harness._fmt(v) for v in values] == ["1", "0", "1", "0", "1", "0"]


# the tiny sweep at 9 and 100 replications (from 8 replications on, a
# sequential sum over them and numpy's pairwise one differ in the last bits,
# which the golden digests' 3 or 4 cannot show; alpha 2 diverges in every
# replication), and a sweep whose steady_mse moves by an ulp if the summary
# sums the replications in sequence
STEP_AGGREGATE_CASES = {
    "9": dict(alphas=[0.005, 2.0], iters=30, reps=9),
    "100": dict(alphas=[0.005, 2.0], iters=30, reps=100),
    "n800": dict(n=800, dim=10, gammas=["0"], alphas=[0.001], batch=160, iters=400,
                 reps=12, seed=42),
}


@pytest.mark.parametrize("case", list(STEP_AGGREGATE_CASES))
def test_step_aggregates_match_per_column_reference(tmp_path, case):
    cfg = tiny_config(tmp_path, **STEP_AGGREGATE_CASES[case])
    run_experiment(cfg)
    _, summary = read_csv(os.path.join(cfg.out, "summary.csv"))
    by_rep = [_run_replication(cfg, rep) for rep in range(cfg.reps)]
    for ci, cell in enumerate(_grid(cfg)):
        alive = [recs[ci] for recs in by_rep if not recs[ci]["diverged"]]
        assert len(alive) == (0 if cell.alpha == 2.0 else cfg.reps)
        _, rows = read_csv(os.path.join(cfg.out, f"convergence_{cell.tag}.csv"))
        assert len(rows) == (0 if cell.alpha == 2.0 else cfg.iters)
        for key in ("err_last", "err_avg"):
            errs = np.array([r[key] for r in alive])
            for j, row in enumerate(rows):
                assert row[f"{key}_mean"] == errs[:, j].mean()
                assert row[f"{key}_median"] == np.median(errs[:, j])
        # the summary's curve columns come from the CSV's own mean curve
        if rows:
            curve = np.array([row["err_last_mean"] for row in rows])
            steady = float(np.mean(curve[-max(1, curve.size // 4):] ** 2))
            below = np.flatnonzero(curve <= 2.0 * math.sqrt(steady))
            assert summary[ci]["steady_mse"] == steady
            assert summary[ci]["iters_to_threshold"] == rows[below[0]]["step"]


def test_run_convergence_artifacts(tmp_path):
    cfg = tiny_config(tmp_path / "conv")
    summary = run_experiment(cfg)
    assert summary.divergent_total == 0
    assert len(summary.cells) == 2
    for f in summary.files:
        assert os.path.exists(f)
    meta, rows = read_csv(os.path.join(cfg.out, "summary.csv"))
    assert meta["experiment"] == "convergence"
    assert meta["generator"] == GENERATOR_NAME
    assert len(rows) == 2
    for row in rows:
        assert row["reps"] == 4 and row["divergent"] == 0
        assert 0.0 < row["lam_mean"] < 1.0
        assert 0.0 < row["final_err_mean"] < math.inf
    gtoks = {row["gamma"] for row in rows}
    assert gtoks == {0, "adaptive"}
    _, cell_rows = read_csv(os.path.join(cfg.out, "convergence_g0_a0.005.csv"))
    assert len(cell_rows) == 60
    assert cell_rows[0]["step"] == 1 and cell_rows[-1]["step"] == 60
    errs = [r["err_last_mean"] for r in cell_rows]
    assert errs[-1] < errs[0]


def test_run_echoes_resolved_config(tmp_path):
    cfg = tiny_config(tmp_path / "echo")
    run_experiment(cfg)
    with open(os.path.join(cfg.out, "config.json")) as fh:
        payload = json.load(fh)
    assert payload["experiment"] == "convergence"
    assert payload["generator"] == GENERATOR_NAME
    assert payload["alphas"] == [0.005]
    assert payload["seed"] == 9


def test_serial_and_parallel_agree(tmp_path):
    cfg1 = tiny_config(tmp_path / "serial", threads=1)
    cfg2 = tiny_config(tmp_path / "parallel", threads=2)
    run_experiment(cfg1)
    run_experiment(cfg2)
    for name in ("summary.csv", "convergence_g0_a0.005.csv",
                 "convergence_gadaptive_a0.005.csv"):
        with open(os.path.join(cfg1.out, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(cfg2.out, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


def test_spectrum_map_summary(tmp_path):
    cfg = ExperimentConfig(experiment="spectrum-map", mu=1.0, ell=5.0, grid=40,
                           out=str(tmp_path / "map"))
    summary = run_experiment(cfg)
    cell = summary.cells[0]
    assert abs(cell["lam_opt"] - 0.3819660112501051) <= 1e-12
    assert abs(cell["alpha_opt"] - 1 / math.sqrt(5.0)) <= 1e-12
    assert abs(cell["lam_min"] - cell["lam_opt"]) <= 0.02
    astep = (0.8 - 0.02) / 39
    gstep = 0.6 / 39
    assert abs(cell["alpha_at_min"] - cell["alpha_opt"]) <= astep + 1e-12
    assert abs(cell["gamma_at_min"] - cell["gamma_opt"]) <= gstep + 1e-12
    _, rows = read_csv(os.path.join(cfg.out, "spectrum_map.csv"))
    assert len(rows) == 40 * 40
    lams = [r["lam"] for r in rows if r["admissible"] == 1]
    assert abs(min(lams) - cell["lam_min"]) <= 1e-15
    # every radius, inadmissible ones included, against the dense eigensolver
    spec = HessianSpectrum.from_extremes(1.0, 5.0)
    for r in rows:
        a, g = r["alpha"], r["gamma"]
        assert r["admissible"] == int(a * 5.0 < 2.0 * (1.0 + g) / (1.0 - g)), r
        oracle = numeric_spectral_radius(spec, MomentumConfig(alpha=a, gamma=g))
        assert r["lam"] == pytest.approx(oracle, rel=1e-13), r


def test_power_bound_all_hold(tmp_path):
    cfg = ExperimentConfig(experiment="power-bound", reps=25, iters=100,
                           seed=42, out=str(tmp_path / "pb"))
    summary = run_experiment(cfg)
    cell = summary.cells[0]
    assert cell["configs"] == 25
    assert cell["failures"] == 0
    assert cell["max_ratio"] <= 1.0
    _, rows = read_csv(os.path.join(cfg.out, "power_bound.csv"))
    assert len(rows) == 25
    assert all(r["ok"] == 1 for r in rows)
    assert all(r["delta"] > 1e-6 for r in rows)


def test_sensitivity_divergent_cells_use_inf_sentinel(tmp_path):
    cfg = ExperimentConfig(
        experiment="sensitivity", n=100, dim=3, gammas=["0"], alphas=[2.0],
        batch=20, iters=50, n0=0, reps=3, seed=1, offset=10.0,
        out=str(tmp_path / "sens"),
    )
    summary = run_experiment(cfg)
    assert summary.divergent_total == 3
    row = summary.cells[0]
    assert row["divergent"] == 3
    assert math.isinf(row["final_err_mean"])
    meta, rows = read_csv(os.path.join(cfg.out, "sensitivity_g0_a2.csv"))
    assert len(rows) == 3
    assert all(r["diverged"] == 1 for r in rows)
    assert all(math.isinf(r["final_err"]) for r in rows)
    _, srows = read_csv(os.path.join(cfg.out, "summary.csv"))
    assert math.isinf(srows[0]["final_err_mean"])  # 'inf' survives the file


def test_sensitivity_diverged_step_is_the_engine_step(tmp_path):
    # each replication's diverged_step is the step of the DivergedError that
    # a direct run_cells call on its problem, stream and start raises, and 0
    # for a replication that finished; the cells diverge at steps 8 to 23
    cfg = ExperimentConfig(
        experiment="sensitivity", n=100, dim=3, gammas=["0", "0.8"], alphas=[0.01, 0.5, 2.0],
        batch=20, iters=50, n0=0, reps=3, seed=1, offset=10.0, out=str(tmp_path / "sens"),
    )
    run_experiment(cfg)
    cells = _grid(cfg)
    want = {cell: [] for cell in cells}
    for rep in range(cfg.reps):
        problem = harness._make_problem(cfg, rep)
        stream = RngStream(cfg.seed + rep, stream=1)
        x0 = problem.x_star + cfg.offset * stream.normal_vector(cfg.dim)
        configs = [MomentumConfig(alpha=cell.alpha, gamma=float(cell.gamma), batch_size=cfg.batch)
                   for cell in cells]
        results = run_cells(problem, configs, cfg.iters, stream, [0] * len(cells), x_init=x0)
        for cell, result in zip(cells, results):
            want[cell].append(result.step if isinstance(result, DivergedError) else 0)
    steps = set()
    for cell in cells:
        _, rows = read_csv(os.path.join(cfg.out, f"sensitivity_{cell.tag}.csv"))
        assert [r["diverged_step"] for r in rows] == want[cell]
        assert [r["diverged"] for r in rows] == [int(s > 0) for s in want[cell]]
        steps.update(want[cell])
    assert 0 in steps and len(steps) > 4


def test_z_cut_off_is_the_interval_quantile():
    # p_abs_z counts |z| below the quantile the intervals are built from, so
    # the two columns test against one cut-off
    assert Z_CRIT == normal_quantile(0.975)


def test_coverage_small_run_layout(tmp_path):
    cfg = ExperimentConfig(
        experiment="coverage", n=200, dim=4, gammas=["0"], alphas=[0.01],
        batch=50, iters=300, n0=100, reps=30, seed=3,
        out=str(tmp_path / "cov"),
    )
    summary = run_experiment(cfg)
    row = summary.cells[0]
    assert 0.0 <= row["coverage"] <= 1.0
    assert 0.0 <= row["region_coverage"] <= 1.0
    assert math.isnan(row["ks_stat"])  # needs >= 100 replications
    _, rows = read_csv(os.path.join(cfg.out, "coverage_g0_a0.01.csv"))
    assert len(rows) == 30
    for r in rows[:5]:
        assert r["covered"] in (0, 1)
        assert r["region_covered"] in (0, 1)
        assert r["ci_lo"] < r["ci_hi"]
        assert math.isfinite(r["z"]) and math.isfinite(r["region_stat"])


def test_coverage_auto_burn_in_resolves(tmp_path):
    cfg = ExperimentConfig(
        experiment="coverage", n=200, dim=4, gammas=["0.8"], alphas=[0.01],
        batch=50, iters=400, n0="auto", reps=3, seed=5,
        out=str(tmp_path / "covauto"),
    )
    summary = run_experiment(cfg)
    n0 = summary.cells[0]["n0"]
    assert isinstance(n0, int)
    assert 1 <= n0 <= 200  # clamped to iters // 2


def test_auto_burn_in_falls_back_off_the_contractive_radius(tmp_path, capsys):
    # alpha 5 puts every cell's predicted radius above 1, where no burn-in
    # can be derived from it: n0 auto takes half the run instead
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["averaged", "--n", "50", "--dim", "2", "--iters", "20", "--reps", "2",
                     "--alpha", "5", "--n0", "auto", "--out", str(tmp_path / "fb")]) == 0
    assert "3 cell(s), 4 divergent run(s)" in capsys.readouterr().out
    _, rows = read_csv(str(tmp_path / "fb" / "summary.csv"))
    assert [r["gamma"] for r in rows] == [0, 0.9, "adaptive"]
    assert all(r["lam_mean"] > 1.0 for r in rows)
    assert [r["n0"] for r in rows] == [10, 10, 10]
    assert [r["divergent"] for r in rows] == [2, 0, 2]


def test_coverage_frozen_reference_run(tmp_path):
    # statistical regression anchor: adaptive-free fixed-momentum coverage
    # with a known-good configuration; bands are generous against seed drift
    cfg = ExperimentConfig(
        experiment="coverage", n=1000, dim=10, gammas=["0.9"], alphas=[0.004],
        batch=200, iters=1000, n0=500, reps=500, seed=42,
        out=str(tmp_path / "covref"),
    )
    summary = run_experiment(cfg)
    row = summary.cells[0]
    assert row["divergent"] == 0
    assert abs(row["lam_mean"] - math.sqrt(0.9)) <= 1e-12
    assert row["coverage"] == row["p_abs_z"]  # interval/Z duality, exactly
    assert 0.93 <= row["p_abs_z"] <= 0.97
    assert 0.93 <= row["region_coverage"] <= 0.98
    assert row["ks_pass"] == 1
    assert row["ks_stat"] < 1.358 / math.sqrt(500)


# ---------------------------------------------------------------------------
# CLI entry

def test_main_success_and_error_paths(tmp_path, capsys, monkeypatch):
    rc = main(["spectrum-map", "--grid", "12", "--out", str(tmp_path / "m")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "spectrum-map: 1 cell(s)" in out
    # neither theory experiment averages, so neither checks n0 against iters
    for argv in (["spectrum-map", "--grid", "3"], ["power-bound", "--reps", "2"]):
        assert main(argv + ["--n0", "300", "--iters", "200", "--out", str(tmp_path / "n0")]) == 0
    capsys.readouterr()
    rc = main([])
    out = capsys.readouterr().out
    assert rc == 2
    assert "error: no experiment given" in out
    # refused before any artifact is written
    for i, argv in enumerate([
        ["convergence", "--iters", "0"],
        ["convergence", "--n", "5", "--dim", "10"],
        ["convergence", "--n0", "5000", "--iters", "100"],
        ["averaged", "--n0", "auto", "--iters", "1", "--n", "50", "--dim", "2"],
        ["convergence", "--dim", "0", "--n", "50", "--iters", "5"],
        ["averaged", "--problem", "logistic", "--n", "3", "--dim", "5", "--iters", "5"],
        ["averaged", "--problem", "logistic", "--n", "5", "--dim", "5", "--iters", "5"],
        ["spectrum-map", "--gamma-range", "0", "1.5"],
        ["spectrum-map", "--alpha-range", "-1", "0.5"],
        ["spectrum-map", "--grid", "0"],
        ["spectrum-map", "--mu", "0"],
        ["spectrum-map", "--ell", "-1"],
        # from_extremes would sort them, and the files would say mu=5.0, ell=1.0
        ["spectrum-map", "--grid", "10", "--mu", "5", "--ell", "1"],
        ["convergence", "--seed", "-1", "--n", "50", "--dim", "2", "--iters", "5",
         "--reps", "1"],
        # replication 1 would be keyed by 2**64
        ["convergence", "--seed", str(2**64 - 1), "--reps", "2", "--n", "50",
         "--dim", "2", "--iters", "5"],
        ["power-bound", "--seed", str(2**64), "--reps", "2"],
        ["convergence", "--alpha", "inf"],
        ["convergence", "--shift", "0"],
        ["convergence", "--rho", "-5"],
        ["convergence", "--rho", "nan"],
        ["averaged", "--problem", "logistic", "--nu", "-1"],
        ["averaged", "--problem", "logistic", "--nu", "nan"],
        ["convergence", "--batch-frac", "inf"],
        ["convergence", "--batch-frac", "-1"],
        ["convergence", "--offset", "-1"],
        ["convergence", "--offset", "nan"],
    ]):
        out_dir = tmp_path / f"bad{i}"
        rc = main(argv + ["--out", str(out_dir)])
        assert rc == 2, argv
        assert capsys.readouterr().out.startswith("error: "), argv
        assert not (out_dir / "config.json").exists(), argv
    (tmp_path / "nope.json").write_text(json.dumps({"experiment": "nope"}))
    for argv, message in [
        (["convergence", "--n0", "-1"], "error: n0 must be 'auto' or a nonnegative integer"),
        (["convergence", "--threads", "0"], "error: threads must be >= 1"),
        (["--config", str(tmp_path / "nope.json")], "error: unknown experiment 'nope'"),
    ]:
        out_dir = tmp_path / "refused"
        assert main(argv + ["--out", str(out_dir)]) == 2, argv
        assert capsys.readouterr().out.strip() == message, argv
        assert not out_dir.exists(), argv
    # config-file values of a JSON type the field cannot take; a payload
    # that sets out gets no --out flag, which would win over it
    monkeypatch.chdir(tmp_path)
    for i, payload in enumerate([
        {"experiment": "convergence", "dim": None},
        {"experiment": "convergence", "reps": None},
        {"experiment": "convergence", "alpha": [None]},
        {"experiment": "convergence", "gamma": None},
        {"experiment": "convergence", "alpha": []},
        {"experiment": "spectrum-map", "alpha_range": 3},
        {"experiment": "convergence", "paper_scale": "no"},
        {"experiment": "convergence", "out": None},
        {"experiment": "convergence", "reps": 2.7},
        {"experiment": "convergence", "dim": True},
        {"experiment": "convergence", "seed": 4.9},
        {"experiment": "convergence", "n0": 2.7},
        {"experiment": "convergence", "n0": True},
        {"experiment": "convergence", "batch_frac": True},
        {"experiment": "convergence", "alpha": [True]},
        {"experiment": "convergence", "gamma": False},
        {"experiment": "convergence", "gamma": [True]},
        {"experiment": "convergence", "threads": "2"},
        {"experiment": "convergence", "threads": None},
        {"experiment": "convergence", "n": None},
        {"experiment": "convergence", "batch": None},
        {"experiment": "convergence", "iters": None},
        {"experiment": "convergence", "n0": None},
        {"experiment": "spectrum-map", "alpha_range": [0.1, None]},
    ]):
        path = tmp_path / f"typed{i}.json"
        path.write_text(json.dumps(payload))
        out_dir = tmp_path / f"typed{i}"
        argv = ["--config", str(path)]
        if "out" not in payload:
            argv += ["--out", str(out_dir)]
        rc = main(argv)
        assert rc == 2, payload
        out = capsys.readouterr().out
        assert out.startswith("error: "), payload
        for key in {"paper_scale", "out"} & payload.keys():
            assert out.startswith(f"error: {key} expects"), payload
        # every refused value's message names its own key
        (key,) = payload.keys() - {"experiment"}
        assert re.search(rf"\b{key}\b", out), (payload, out)
        assert not (out_dir / "config.json").exists(), payload
        assert not (tmp_path / "None").exists(), payload


def test_cell_files_keep_full_precision(tmp_path, capsys):
    # a value :g reads back exactly keeps its old token and file name
    assert [_tag(v) for v in (0.005, 2.0, 1e-05, 0.015625, "adaptive")] == [
        "0.005", "2", "1e-05", "0.015625", "adaptive"]
    cfg = parse_config(["convergence", "--gamma", "0.123456789", "0.9", "0.90000001",
                        "--alpha", "0.001", "0.0010000001"])
    assert cfg.gammas == ["0.123456789", "0.9", "0.90000001"]
    rc = main(["convergence", "--n", "60", "--dim", "2", "--iters", "5", "--reps", "2",
               "--gamma", "0.123456789", "0.9", "0.90000001",
               "--alpha", "0.001", "0.0010000001", "--out", str(tmp_path / "fine")])
    assert rc == 0
    names = sorted(os.listdir(tmp_path / "fine"))
    assert len(names) == 6 + 2  # every cell its own file, summary, config
    assert "convergence_g0.123456789_a0.0010000001.csv" in names
    _, rows = read_csv(str(tmp_path / "fine" / "summary.csv"))
    assert [r["gamma_resolved_mean"] for r in rows[::2]] == [0.123456789, 0.9, 0.90000001]
    # cells that would still share a file are refused before anything runs
    for argv in (["--gamma", "0.9", "0.90"], ["--alpha", "0.001", "0.0010"],
                 ["--gamma", "0.5", "0.5"]):
        out_dir = tmp_path / "clash"
        assert main(["convergence", *argv, "--out", str(out_dir)]) == 2
        assert "would write one file" in capsys.readouterr().out
        assert not out_dir.exists()


@pytest.mark.parametrize("argv,divergent", [
    # the sigmoid saturates (exp overflows to inf, its value is 0)
    (["sensitivity", "--problem", "logistic", "--n", "200", "--dim", "3",
      "--iters", "200", "--reps", "2", "--alpha", "1000", "100000"], 0),
    # the first step's error norm overflows
    (["convergence", "--n", "100", "--iters", "5", "--reps", "1", "--offset", "1e200"], 3),
    # so does the predicted radius of a far inadmissible step
    (["convergence", "--n", "100", "--iters", "5", "--reps", "1", "--dim", "2",
      "--alpha", "1e300"], 3),
    # the index budget (65,536 indices a draw) makes 8-step blocks; the alpha 5
    # cells diverge inside a block and at the last one's final step
    (["sensitivity", "--n", "50", "--dim", "2", "--iters", "20", "--reps", "2",
      "--batch", "8192", "--alpha", "5", "0.01"], 5),
    # every second step is recorded past step 1000, across several step blocks
    (["convergence", "--n", "50", "--dim", "2", "--iters", "2500", "--reps", "1"], 0),
    # grid points far outside the stable region
    (["spectrum-map", "--grid", "10", "--alpha-range", "0", "1e300"], 0),
    # the quadratic gather's d = 1 branch sums one-double rows pairwise
    (["convergence", "--n", "50", "--dim", "1", "--iters", "20", "--reps", "2"], 0),
    (["coverage", "--n", "50", "--dim", "1", "--iters", "20", "--reps", "2"], 0),
])
def test_overflowing_sweeps_warn_nothing(tmp_path, capsys, argv, divergent):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
    assert f"{divergent} divergent run(s)" in capsys.readouterr().out


def test_replication_resolves_gamma_and_inference_once(monkeypatch, tmp_path):
    calls = {"adaptive_gamma": 0, "plug_in_covariance": 0, "chi_square_quantile": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(harness, "adaptive_gamma")
    counted(harness, "plug_in_covariance")
    counted(harness, "chi_square_quantile")
    cfg = ExperimentConfig(
        experiment="coverage", n=200, dim=3, gammas=["adaptive", "0.5"],
        alphas=[0.01, 0.02], batch=20, iters=40, n0=10, reps=3, seed=2,
        out=str(tmp_path / "once"),
    )
    summary = run_experiment(cfg)
    assert summary.divergent_total == 0
    # per replication: one adaptive gamma per adaptive cell, and one
    # covariance and quantile for all four cells
    assert calls == {"adaptive_gamma": 2 * 3, "plug_in_covariance": 3,
                     "chi_square_quantile": 3}


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_generation_exits_1_without_traceback(tmp_path, capsys, monkeypatch, threads):
    submitted = []

    class CountingPool(harness.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    for i, (argv, message) in enumerate([
        # near-separable data: the full-batch solver stops short of its tolerance
        (["coverage", "--problem", "logistic", "--nu", "0", "--n", "12", "--dim", "10",
          "--iters", "50"], "error: full-batch descent did not reach gradient norm"),
        # the sum of 50 diagonals of 1e307 behind the mean Hessian overflows
        (["convergence", "--n", "50", "--dim", "2", "--iters", "20", "--shift", "1e307"],
         "error: quadratic instance's sigma_hat is not finite"),
    ]):
        submitted.clear()
        out_dir = tmp_path / f"failed{i}"
        rc = main(argv + ["--reps", "6", "--threads", str(threads), "--out", str(out_dir)])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith(message), out
        # refused at run time, after the configuration was echoed
        assert (out_dir / "config.json").exists()
        # every replication fails, so none starts after the first `threads`
        assert len(submitted) == (0 if threads == 1 else 2)


def test_pool_never_outnumbers_replications(tmp_path, monkeypatch):
    # a pool starts all its workers at its first task, so it is sized by
    # min(threads, reps); this inline stand-in starts no process
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    for threads, reps, want in [(1, 3, []), (4, 1, []), (4, 2, [2]), (2, 3, [2])]:
        pools.clear()
        run_experiment(tiny_config(tmp_path / f"t{threads}r{reps}", threads=threads, reps=reps))
        assert pools == want, (threads, reps)


def test_offset_zero_starts_at_the_minimizer(tmp_path, monkeypatch):
    starts, run_cells = [], harness.run_cells

    def spy(*args, **kwargs):
        starts.append(kwargs["x_init"])
        return run_cells(*args, **kwargs)

    cfg = ExperimentConfig(experiment="convergence", n=400, dim=3, gammas=["0"], batch=80,
                           iters=5, reps=2, offset=0.0, out=str(tmp_path / "zero"))
    monkeypatch.setattr(harness, "run_cells", spy)
    run_experiment(cfg)
    monkeypatch.undo()
    x_stars = [harness._make_problem(cfg, rep).x_star for rep in range(cfg.reps)]
    assert len(starts) == 2
    assert all(np.array_equal(x0, x_star) for x0, x_star in zip(starts, x_stars))
    # one step from x* moves by alpha times a batch's noise, not by |x*|
    _, rows = read_csv(os.path.join(cfg.out, "convergence_g0_a0.001.csv"))
    assert rows[0]["err_last_mean"] < 0.1 * min(np.linalg.norm(x) for x in x_stars)


def test_seed_keys_fill_64_bits(tmp_path):
    for experiment, seed, reps in [("convergence", 2**64 - 1, 2), ("coverage", 2**63, 2**63 + 1),
                                   ("power-bound", 2**64, 1)]:
        with pytest.raises(ValueError, match="2\\*\\*64"):
            ExperimentConfig(experiment=experiment, seed=seed, reps=reps)
    # the largest keys run, each replication on its own stream
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_experiment(tiny_config(tmp_path / "top", seed=2**64 - 4, reps=4))
        run_experiment(tiny_config(tmp_path / "wrap", seed=0, reps=4))
        run_experiment(ExperimentConfig(experiment="power-bound", seed=2**64 - 1, reps=3,
                                        iters=20, out=str(tmp_path / "pb")))
    _, top = read_csv(str(tmp_path / "top" / "summary.csv"))
    _, wrap = read_csv(str(tmp_path / "wrap" / "summary.csv"))
    assert summary.divergent_total == 0
    assert top[0]["final_err_mean"] != wrap[0]["final_err_mean"]


def test_logistic_strong_ridge_runs(tmp_path, capsys):
    # nu = 2 puts the curvature of the mean loss above 2, where a unit
    # descent step cannot converge; generation must still find x_star
    rc = main(["averaged", "--problem", "logistic", "--nu", "2", "--reps", "1",
               "--iters", "5", "--out", str(tmp_path / "ridge")])
    assert rc == 0
    assert "averaged: 3 cell(s), 0 divergent run(s)" in capsys.readouterr().out


def test_console_script_runs(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "sgdmlab", "spectrum-map",
         "--grid", "10", "--out", str(tmp_path / "cli")],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert res.stderr == ""
    assert "artifacts in" in res.stdout
    assert os.path.exists(tmp_path / "cli" / "spectrum_map.csv")


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 100])
def test_median_equals_numpy_median(count):
    # the step CSV's and the summary's medians must be np.median's bits,
    # on rows that hold a NaN, an inf or a -inf too
    rows = RngStream(8, 0).standard_normal((7, count))
    rows[1, 0] = math.nan
    rows[2, -1] = math.inf
    rows[3, count // 2] = -math.inf
    rows[4, :] = math.inf
    rows[5, : (count + 1) // 2] = -math.inf
    rows[6, -1] = math.nan
    rows[6, 0] = math.inf
    with np.errstate(invalid="ignore"):
        got, want = harness._median(rows, 1), np.median(rows, axis=1)
        assert np.array_equal(got, want, equal_nan=True)
        for row in rows:
            assert np.array_equal(harness._median(list(row), 0), np.median(list(row)),
                                  equal_nan=True)


def test_sweep_does_not_import_numpy_ma(tmp_path):
    # np.median's NaN check imports numpy.ma on numpy 2, some ms inside
    # the timed sweep; the harness's own median must not
    script = ("import sys, numpy\n"
              "loaded = 'numpy.ma' in sys.modules\n"
              "from sgdmlab import harness\n"
              "harness.main(['convergence', '--n', '50', '--dim', '2', '--iters', '20',\n"
              "              '--reps', '2', '--out', sys.argv[1]])\n"
              "print(loaded, 'numpy.ma' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path / "toy")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded, after = res.stdout.split()[-2:]
    if loaded == "True":
        pytest.skip("import numpy alone loads numpy.ma on this numpy")
    assert after == "False"
