"""Experiment drivers and command-line interface.

Each subcommand sweeps momentum-SGD runs over a (gamma, alpha) grid on a
generated problem family, repeats every cell over independent replications,
and writes per-cell CSV files plus a summary table and a resolved-config
echo file. Replication r regenerates its problem and batch stream from
seed_base + r, so any cell reruns bit-identically in isolation and serial
and parallel execution produce the same aggregates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import InitVar, asdict, dataclass, fields
from functools import partial
from itertools import islice

import numpy as np

from .inference import (
    chi_square_quantile,
    confidence_interval,
    confidence_region_statistic,
    ks_normality,
    normal_quantile,
    plug_in_covariance,
    z_statistic,
)
from .optimizer import DivergedError, choose_burn_in, run_cells
from .problems import GenerationError, generate_logistic, generate_quadratic
from .rand import GENERATOR_NAME, RngStream
from .spectrum import (
    HessianSpectrum,
    MomentumConfig,
    adaptive_gamma,
    build_gamma_matrix,
    optimal_hyperparameters,
    spectral_radius_closed_form,
    spectral_report_arrays,
    verify_power_bounds,
)

__all__ = [
    "ExperimentConfig",
    "RunSummary",
    "parse_config",
    "run_experiment",
    "read_csv",
    "main",
]

THREADS_ENV_VAR = "SGDMLAB_THREADS"
Z_CRIT = normal_quantile(0.975)

_DYADIC_ALPHAS = [2.0**k for k in range(1, -7, -1)]
# each experiment's own defaults; an experiment without alphas here steps at
# 0.5 on the logistic family and 0.001 on the quadratic one
_EXPERIMENT_DEFAULTS = {
    "convergence": {"iters": 1000, "gammas": ["0", "0.9", "adaptive"], "n0": 0},
    "averaged": {"iters": 2000, "gammas": ["0", "0.9", "adaptive"], "n0": "auto"},
    "sensitivity": {"iters": 500, "gammas": ["0", "0.8", "0.9"], "n0": 0,
                    "alphas": _DYADIC_ALPHAS},
    "coverage": {"iters": 2000, "gammas": ["adaptive"], "n0": "auto"},
    "spectrum-map": {"iters": 0, "gammas": ["0"], "n0": 0},
    "power-bound": {"iters": 200, "gammas": ["0"], "n0": 0},
}
EXPERIMENTS = tuple(_EXPERIMENT_DEFAULTS)
# desk and paper (--paper-scale) scale
_SCALES = {False: {"n": 4000, "reps": 100}, True: {"n": 20000, "reps": 200}}


def _tag(value) -> str:
    """A gamma token or alpha as it names cells: the number's :g form where
    that reads back as the same float, its repr where it does not."""
    if value == "adaptive":
        return "adaptive"
    short = f"{float(value):g}"
    return short if float(short) == float(value) else repr(float(value))


@dataclass(frozen=True)
class _Cell:
    """One (gamma token, alpha) point of a sweep's grid, written to f"{experiment}_{tag}.csv"."""

    gamma: str
    alpha: float

    @property
    def tag(self) -> str:
        return f"g{_tag(self.gamma)}_a{_tag(self.alpha)}"

    def resolve(self, cfg: ExperimentConfig, problem) -> tuple[MomentumConfig, float, int]:
        """The cell on a replication's problem: (configuration, tuning radius lam, burn-in n0)."""
        gamma = adaptive_gamma(problem.mu, self.alpha) if self.gamma == "adaptive" else float(self.gamma)
        mcfg = MomentumConfig(alpha=self.alpha, gamma=gamma, batch_size=cfg.batch)
        lam = spectral_radius_closed_form(problem.tuning_spectrum(), mcfg).lam
        if cfg.n0 != "auto":
            return mcfg, lam, cfg.n0
        half = max(cfg.iters // 2, 1)
        return mcfg, lam, min(choose_burn_in(lam, cfg.batch), half) if 0.0 < lam < 1.0 else half


def _grid(cfg: ExperimentConfig) -> list:
    """The sweep's cells, gamma-major; two that would write one file are refused."""
    cells = [_Cell(g, a) for g in cfg.gammas for a in cfg.alphas]
    if len({cell.tag for cell in cells}) < len(cells):
        raise ValueError("two (gamma, alpha) cells would write one file: give distinct values")
    return cells


@dataclass
class ExperimentConfig:
    """Experiment description; each key is typed as on the command line, and
    one left at None takes the default of its experiment, scale and problem."""

    experiment: str
    problem: str = "quadratic"
    n: int = None
    dim: int = 10
    rho: float = 1.0
    shift: float = 10.0
    nu: float = 0.0
    gammas: list = None
    alphas: list = None
    batch: int = None
    iters: int = None
    n0: object = None
    reps: int = None
    seed: int = 42
    out: str = "sgdmlab_out"
    paper_scale: bool = False
    threads: int = 1
    offset: float = 1.0
    mu: float = 1.0
    ell: float = 5.0
    grid: int = 200
    alpha_range: tuple = (0.02, 0.8)
    gamma_range: tuple = (0.0, 0.6)
    batch_frac: InitVar[float] = None  # batch is this (0.2 if None) of n unless given

    def __post_init__(self, batch_frac):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        # type each key (experiment is checked above); a None default is filled below
        for f in fields(self)[1:]:
            if getattr(self, f.name) is not None or f.default is not None:
                setattr(self, f.name, _field(f.name, getattr(self, f.name)))
        if self.problem not in ("quadratic", "logistic"):
            raise ValueError(f"unknown problem {self.problem!r}")
        defaults = {"alphas": [0.5] if self.problem == "logistic" else [0.001],
                    **_SCALES[self.paper_scale], **_EXPERIMENT_DEFAULTS[self.experiment]}
        for key, val in defaults.items():
            if getattr(self, key) is None:
                setattr(self, key, list(val) if isinstance(val, list) else val)
        if self.batch is not None and batch_frac is not None:
            raise ValueError("give either batch or batch_frac, not both")
        if self.batch is None:
            frac = 0.2 if batch_frac is None else _typed("batch_frac", batch_frac)
            if not 0.0 < frac < math.inf:
                raise ValueError("batch_frac must be positive and finite")
            self.batch = max(1, int(round(frac * self.n)))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.problem == "quadratic" and self.n < self.dim:
            raise ValueError("n must be >= dim for the quadratic family")
        # unpenalized logistic data with n <= dim is separable: no minimizer
        if self.problem == "logistic" and self.nu == 0.0 and self.n <= self.dim:
            raise ValueError("n must be > dim for the logistic family with nu = 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        # spectrum-map takes no steps (its iters is 0); only a sweep uses n0
        sweep = self.experiment not in ("spectrum-map", "power-bound")
        if self.experiment != "spectrum-map" and self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # a sweep's replication r is keyed by seed + r, a 64-bit word
        if self.seed + (self.reps - 1 if sweep else 0) >= 2**64:
            raise ValueError("seed (plus reps - 1 for a sweep) must be < 2**64")
        if not (self.gammas and self.alphas):
            raise ValueError("gamma and alpha need at least one value each")
        _grid(self)
        if sweep and self.n0 != "auto" and self.n0 >= self.iters:
            raise ValueError("n0 must be < iters")
        # auto resolves to at least 1, which needs a step after it
        if sweep and self.n0 == "auto" and self.iters < 2:
            raise ValueError("n0 'auto' needs iters >= 2")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 0.0 < self.shift < math.inf:
            raise ValueError("shift must be positive and finite")
        for key in ("rho", "nu", "offset"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be nonnegative and finite")
        # the spectrum map checks its grid here, not per point
        if not 0.0 < self.mu <= self.ell < math.inf:
            raise ValueError("mu and ell must be positive and finite with mu <= ell")
        if self.grid < 1:
            raise ValueError("grid must be >= 1")
        if not all(0.0 <= a < math.inf for a in self.alpha_range):
            raise ValueError("alpha_range values must be nonnegative and finite")
        if not all(0.0 <= g < 1.0 for g in self.gamma_range):
            raise ValueError("gamma_range values must lie in [0,1)")

    def header(self) -> dict:
        keys = ("experiment", "problem", "n", "dim", "rho", "shift", "nu", "batch",
                "iters", "n0", "reps", "seed", "offset")
        return dict({k: getattr(self, k) for k in keys}, generator=GENERATOR_NAME)


@dataclass
class RunSummary:
    """Aggregates per (gamma, alpha) cell plus the emitted file list."""

    experiment: str
    out_dir: str
    cells: list
    files: list
    divergent_total: int = 0


# ---------------------------------------------------------------------------
# CSV plumbing

def _fmt(v) -> str:
    # floats first, the bulk of every table; no bool is a float
    if isinstance(v, float):
        # cast first: numpy scalars subclass float but repr unparseably
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    return str(v)


# rows formatted per pass: formatting a 200 x 200 spectrum map's whole
# columns at once peaked 0.9 MB higher than 1,024-row chunks (2-core Xeon,
# numpy 2.4.6)
_CSV_CHUNK = 1024
# what csv's QUOTE_MINIMAL quotes a field for
_QUOTED_CHARS = (",", '"', "\r", "\n")


def _field_texts(values, alone: bool) -> list:
    """Column values (or column names) as csv.writer writes them: a float
    array's by float.__repr__, a bool array's as 0/1, and any other value a
    str as it is or through _fmt, quoted where QUOTE_MINIMAL quotes it (an
    empty field too, when it is `alone` in its row)."""
    if isinstance(values, np.ndarray):
        if values.dtype.char in "efd":
            return list(map(float.__repr__, values.tolist()))
        if values.dtype.kind == "b":
            return list(map(("0", "1").__getitem__, values.tolist()))
        values = values.tolist()
    texts = [v if isinstance(v, str) else _fmt(v) for v in values]
    joined = "".join(texts)
    if any(c in joined for c in _QUOTED_CHARS):
        texts = [('"' + t.replace('"', '""') + '"') if any(c in t for c in _QUOTED_CHARS)
                 else t for t in texts]
    if alone and "" in texts:
        texts = ['""' if t == "" else t for t in texts]
    return texts


def _write_csv(path: str, header: dict, table: dict) -> None:
    """Write `table`, columns of equal length (lists or numpy arrays) under
    their names, below the header's `# key=value` lines, in csv.writer's
    bytes. Each chunk of rows formats a column in one pass (an array's
    values as the Python scalars of its `.tolist()`), then joins the
    chunk's rows and writes them at once."""
    alone = len(table) == 1
    with open(path, "w", newline="") as fh:
        for key, val in header.items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(_field_texts(list(table), alone)) + "\r\n")
        rows = len(next(iter(table.values()), ()))
        for start in range(0, rows, _CSV_CHUNK):
            columns = [_field_texts(col[start:start + _CSV_CHUNK], alone) for col in table.values()]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def read_csv(path: str) -> tuple[dict, list]:
    """Parse a harness CSV back into (header-metadata dict, row dicts).

    Numeric fields come back as int or float ('inf' and 'nan' included);
    everything else stays a string.
    """
    meta: dict = {}
    with open(path) as fh:
        lines = fh.readlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key.strip()] = val
            body_start = i + 1
        else:
            break
    rows = []
    reader = csv.DictReader(lines[body_start:])
    for raw in reader:
        row = {}
        for key, val in raw.items():
            try:
                row[key] = int(val)
            except (TypeError, ValueError):
                try:
                    row[key] = float(val)
                except (TypeError, ValueError):
                    row[key] = val
        rows.append(row)
    return meta, rows


# ---------------------------------------------------------------------------
# single-replication execution

def _make_problem(cfg: ExperimentConfig, rep: int):
    seed = cfg.seed + rep
    if cfg.problem == "quadratic":
        return generate_quadratic(cfg.n, cfg.dim, cfg.rho, cfg.shift, seed)
    x_true = np.ones(cfg.dim) / math.sqrt(cfg.dim)
    return generate_logistic(cfg.n, cfg.dim, x_true, cfg.nu, seed)


def _fill_coverage(cfg: ExperimentConfig, problem, alive: list) -> None:
    """Interval and region statistics of each record in `alive`, from its
    averaged iterate and the replication's one plug-in covariance."""
    cov = plug_in_covariance(problem)
    direction = np.ones(cfg.dim) / math.sqrt(cfg.dim)
    target = float(direction @ problem.x_star)
    chi2 = chi_square_quantile(cfg.dim, 0.05)
    for rec in alive:
        xbar, args = rec["xbar"], (cov, cfg.iters, rec["n0"], cfg.batch)
        lo, hi = confidence_interval(xbar, direction, *args)
        stat = confidence_region_statistic(xbar, problem.x_star, *args)
        rec["z"] = z_statistic(xbar, problem.x_star, direction, *args)
        rec["ci_lo"] = lo
        rec["ci_hi"] = hi
        rec["covered"] = bool(lo <= target <= hi)
        rec["region_stat"] = stat
        rec["region_covered"] = bool(stat <= chi2)


def _run_replication(cfg: ExperimentConfig, rep: int) -> list:
    """Replication `rep` of every cell: one generated problem, and one batch
    stream that all cells step through together (common random numbers)."""
    problem = _make_problem(cfg, rep)
    stream = RngStream(cfg.seed + rep, stream=1)
    x_init = problem.x_star
    if cfg.offset > 0.0:
        x_init = x_init + cfg.offset * stream.normal_vector(cfg.dim)
    mcfgs, lams, n0s = zip(*(cell.resolve(cfg, problem) for cell in _grid(cfg)))
    results = run_cells(problem, mcfgs, cfg.iters, stream, n0s,
                        record_stride=max(1, cfg.iters // 1000), x_init=x_init)
    recs = []
    for mcfg, lam, n0, result in zip(mcfgs, lams, n0s, results):
        diverged = isinstance(result, DivergedError)
        # steps count from 1, so step 0 marks a replication that finished
        rec = {"rep": rep, "gamma_resolved": mcfg.gamma, "lam": lam, "n0": n0,
               "diverged": diverged, "diverged_step": result.step if diverged else 0}
        if diverged:
            rec.update(final_err=math.inf, best_err=math.inf)
        else:
            _, avg, traj = result
            rec.update(steps=traj.steps, err_last=traj.err_last, err_avg=traj.err_avg,
                       final_err=float(traj.err_last[-1]),
                       best_err=float(np.min(traj.err_last)),
                       final_err_avg=float(traj.err_avg[-1]), xbar=avg.mean)
        recs.append(rec)
    alive = [rec for rec in recs if not rec["diverged"]]
    if cfg.experiment == "coverage" and alive:
        _fill_coverage(cfg, problem, alive)
    return recs


# ---------------------------------------------------------------------------
# sweep execution and aggregation

def _execute_cells(cfg: ExperimentConfig) -> list:
    """Run reps x cells, returning per cell its records ordered by
    replication index regardless of execution order. In parallel at most
    `threads` replications run at once, and none starts after one fails.
    The pool starts all its workers at once, so it gets no more than reps."""
    task = partial(_run_replication, cfg)
    workers = min(cfg.threads, cfg.reps)
    if workers == 1:
        by_rep = list(map(task, range(cfg.reps)))
    else:
        todo = iter(range(cfg.reps))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task, rep) for rep in islice(todo, workers)]
            running = set(futures)
            while running:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(future.exception() is not None for future in done):
                    break
                started = [pool.submit(task, rep) for rep in islice(todo, len(done))]
                futures += started
                running.update(started)
        # the pool's exit waits for the replications still running; the
        # first failed one in replication order raises here
        by_rep = [future.result() for future in futures]
    return [list(recs) for recs in zip(*by_rep)]


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else math.inf


def _median(a, axis: int):
    """`np.median(a, axis)` bit for bit, without its NaN check, which imports
    numpy.ma on numpy 2: the middle value along the sorted axis or the
    `.mean` of the two middle values, and NaN where the axis holds a NaN
    (sorted last)."""
    s = np.sort(a, axis)
    n = s.shape[axis]
    last = s.take(-1, axis)
    return np.where(np.isnan(last), last, s.take(range((n - 1) // 2, n // 2 + 1), axis).mean(axis))


def _cell_summary(cfg: ExperimentConfig, cell: _Cell, recs: list, alive: list, curve) -> dict:
    """A cell's summary row; `curve` is the err_last_mean a step CSV holds."""
    steady = hit = math.nan
    if alive:
        steady = float(np.mean(curve[-max(1, curve.size // 4):] ** 2))
        below = np.flatnonzero(curve <= 2.0 * math.sqrt(steady))
        hit = int(alive[0]["steps"][below[0]]) if below.size else math.inf
    covered = cfg.experiment == "coverage" and bool(alive)
    zs = np.array([r["z"] for r in alive]) if covered else np.empty(0)
    ks_stat, ks_pass = ks_normality(zs) if zs.size >= 100 else (math.nan, math.nan)
    return {
        "experiment": cfg.experiment,
        "problem": cfg.problem,
        **asdict(cell),
        "batch": cfg.batch,
        "iters": cfg.iters,
        "n0": recs[0]["n0"],
        "reps": len(recs),
        "divergent": len(recs) - len(alive),
        "gamma_resolved_mean": _mean([r["gamma_resolved"] for r in recs]),
        "lam_mean": _mean([r["lam"] for r in recs]),
        "final_err_mean": _mean([r["final_err"] for r in alive]),
        "final_err_median": (
            float(_median([r["final_err"] for r in alive], 0)) if alive else math.inf
        ),
        "best_err_mean": _mean([r["best_err"] for r in alive]),
        "final_err_avg_mean": _mean([r["final_err_avg"] for r in alive]),
        "steady_mse": steady,
        "iters_to_threshold": hit,
        "coverage": float(np.mean([r["covered"] for r in alive])) if covered else math.nan,
        "p_abs_z": float(np.mean(np.abs(zs) < Z_CRIT)) if covered else math.nan,
        "region_coverage": (
            float(np.mean([r["region_covered"] for r in alive])) if covered else math.nan
        ),
        "ks_stat": ks_stat,
        "ks_pass": float(ks_pass),
    }


# per-cell CSV columns of the experiments that list replications; one without
# a `diverged` column lists only the live ones (a diverged record holds inf
# final_err and best_err, and no z); the other experiments list the steps
_CELL_COLUMNS = {
    "coverage": ["rep", "gamma_resolved", "z", "ci_lo", "ci_hi", "covered",
                 "region_stat", "region_covered"],
    "sensitivity": ["rep", "diverged", "final_err", "best_err", "diverged_step"],
}
_STEP_COLUMNS = ["step", "err_last_mean", "err_last_median", "err_avg_mean", "err_avg_median"]


def _sweep(cfg: ExperimentConfig) -> tuple[list, list]:
    """Run every cell of the grid; write its CSV and return the files and summary rows."""
    columns = _CELL_COLUMNS.get(cfg.experiment, _STEP_COLUMNS)
    files, summary_rows = [], []
    for cell, recs in zip(_grid(cfg), _execute_cells(cfg)):
        alive = [r for r in recs if not r["diverged"]]
        curve = table = None
        # (steps, reps), C-contiguous: reducing the last axis sums a step's
        # replications pairwise, as the 1-D mean of its column does; axis 0
        # of (reps, steps) would sum them in sequence, which differs in the
        # last bits from 8 replications on
        if alive:
            err_last = np.array([r["err_last"] for r in alive]).T.copy()
            curve = err_last.mean(axis=1)
            if columns is _STEP_COLUMNS:
                err_avg = np.array([r["err_avg"] for r in alive]).T.copy()
                table = dict(zip(columns, (alive[0]["steps"], curve, _median(err_last, 1),
                                           err_avg.mean(axis=1), _median(err_avg, 1))))
        if table is None:
            rows = recs if "diverged" in columns else alive
            table = {c: [row[c] for row in rows] for c in columns}
        path = os.path.join(cfg.out, f"{cfg.experiment}_{cell.tag}.csv")
        _write_csv(path, dict(cfg.header(), **asdict(cell)), table)
        files.append(path)
        summary_rows.append(_cell_summary(cfg, cell, recs, alive, curve))
    return files, summary_rows


# ---------------------------------------------------------------------------
# grid and bound experiments (no problem instances involved)

def _spectrum_map(cfg: ExperimentConfig) -> tuple[list, list]:
    spectrum = HessianSpectrum.from_extremes(cfg.mu, cfg.ell)
    alphas = np.linspace(cfg.alpha_range[0], cfg.alpha_range[1], cfg.grid)
    gammas = np.linspace(cfg.gamma_range[0], cfg.gamma_range[1], cfg.grid)
    g, a = (m.ravel() for m in np.meshgrid(gammas, alphas, indexing="ij"))
    report = spectral_report_arrays(spectrum, a, g)
    lam = report["lam"]
    best = int(np.argmin(lam))  # the first minimum wins
    path = os.path.join(cfg.out, "spectrum_map.csv")
    # gamma-major: each grid value is formatted once and its text repeated
    alpha_texts, gamma_texts = ([_fmt(v) for v in axis.tolist()] for axis in (alphas, gammas))
    _write_csv(path, cfg.header(), {
        "alpha": alpha_texts * cfg.grid,
        "gamma": [text for text in gamma_texts for _ in alpha_texts],
        "lam": lam, "admissible": report["admissible"]})
    a_opt, g_opt, lam_opt = optimal_hyperparameters(spectrum)
    cell = {
        "experiment": cfg.experiment, "mu": cfg.mu, "ell": cfg.ell,
        "grid": cfg.grid, "lam_min": float(lam[best]),
        "alpha_at_min": float(a[best]), "gamma_at_min": float(g[best]),
        "alpha_opt": a_opt, "gamma_opt": g_opt, "lam_opt": lam_opt,
    }
    return [path], [cell]


def _power_bound(cfg: ExperimentConfig) -> tuple[list, list]:
    stream = RngStream(cfg.seed, stream=3)
    rows, maps = [], []
    attempts = 0
    while len(rows) < cfg.reps and attempts < 100 * cfg.reps:
        attempts += 1
        mu = 10.0 ** float(stream.uniform() * 2.0 - 1.0)
        ell = mu * 10.0 ** float(stream.uniform() * 2.0)
        gamma = float(stream.uniform() * 0.95)
        alpha_cap = 2.0 * (1.0 + gamma) / ((1.0 - gamma) * ell)
        alpha = float(0.05 + 0.9 * stream.uniform()) * alpha_cap
        spectrum = HessianSpectrum.from_extremes(mu, ell)
        mcfg = MomentumConfig(alpha=alpha, gamma=gamma)
        rep = spectral_radius_closed_form(spectrum, mcfg)
        if not rep.admissible or rep.delta <= 1e-6 or not math.isfinite(rep.big_m):
            continue
        maps.append(build_gamma_matrix(spectrum, mcfg))
        rows.append({"mu": mu, "ell": ell, "alpha": alpha, "gamma": gamma,
                     "lam": rep.lam, "big_m": rep.big_m, "delta": rep.delta})
    # every accepted configuration's map checked as one stack
    results = verify_power_bounds(maps, [row["big_m"] for row in rows],
                                  [row["lam"] for row in rows], cfg.iters)
    for row, res in zip(rows, results):
        row.update(ok=int(res.ok), max_ratio=res.max_ratio,
                   steps_done=res.steps_done, partial=int(res.partial))
    failures = sum(not res.ok for res in results)
    path = os.path.join(cfg.out, "power_bound.csv")
    columns = ["mu", "ell", "alpha", "gamma", "lam", "big_m", "delta",
               "ok", "max_ratio", "steps_done", "partial"]
    _write_csv(path, cfg.header(), {c: [row[c] for row in rows] for c in columns})
    cell = {
        "experiment": cfg.experiment, "configs": len(rows),
        "horizon": cfg.iters, "failures": failures,
        "max_ratio": max((r["max_ratio"] for r in rows), default=math.nan),
    }
    return [path], [cell]


# ---------------------------------------------------------------------------
# top-level driver

def _echo_config(cfg: ExperimentConfig) -> str:
    path = os.path.join(cfg.out, "config.json")
    payload = dict(asdict(cfg), generator=GENERATOR_NAME)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Execute one experiment sweep and write its artifacts under cfg.out."""
    os.makedirs(cfg.out, exist_ok=True)
    echo = _echo_config(cfg)
    run = {"spectrum-map": _spectrum_map, "power-bound": _power_bound}.get(cfg.experiment, _sweep)
    files, rows = run(cfg)
    spath = os.path.join(cfg.out, "summary.csv")
    _write_csv(spath, cfg.header(), {c: [row[c] for row in rows] for c in rows[0]})
    divergent = sum(row.get("divergent", 0) for row in rows)
    return RunSummary(cfg.experiment, cfg.out, rows, files + [spath, echo], divergent)


# ---------------------------------------------------------------------------
# CLI

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdmlab",
        description="Momentum-SGD experiment sweeps (CSV artifacts).",
    )
    parser.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                        help="experiment to run (may come from --config instead)")
    parser.add_argument("--config", help="JSON file of config keys (flags win)")
    parser.add_argument("--problem", choices=["quadratic", "logistic"])
    parser.add_argument("--n", type=int, help="sample count")
    parser.add_argument("--dim", type=int, help="parameter dimension")
    parser.add_argument("--rho", type=float, help="quadratic curvature scale")
    parser.add_argument("--shift", type=float, help="quadratic diagonal shift")
    parser.add_argument("--nu", type=float, help="logistic l2 penalty")
    parser.add_argument("--gamma", nargs="+", dest="gammas", metavar="GAMMA",
                        help="momentum weights: numbers in [0,1) and/or 'adaptive'")
    parser.add_argument("--alpha", nargs="+", type=float, dest="alphas", metavar="ALPHA",
                        help="step sizes")
    batch_group = parser.add_mutually_exclusive_group()
    batch_group.add_argument("--batch", type=int, help="batch size")
    batch_group.add_argument("--batch-frac", type=float,
                             help="batch size as a fraction of n")
    parser.add_argument("--iters", type=int, help="steps per run")
    parser.add_argument("--n0", help="burn-in: integer or 'auto'")
    parser.add_argument("--reps", type=int, help="replications per cell")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--paper-scale", action="store_true", default=None,
                        help="full-size sweep (n=20000, reps=200)")
    parser.add_argument("--threads", type=int,
                        help=f"worker processes (default ${THREADS_ENV_VAR} or 1)")
    parser.add_argument("--offset", type=float,
                        help="initial point scale: x* + offset * N(0, I)")
    parser.add_argument("--mu", type=float, help="spectrum-map smallest curvature")
    parser.add_argument("--ell", type=float, help="spectrum-map largest curvature")
    parser.add_argument("--grid", type=int, help="spectrum-map grid side")
    parser.add_argument("--alpha-range", nargs=2, type=float, metavar=("LO", "HI"))
    parser.add_argument("--gamma-range", nargs=2, type=float, metavar=("LO", "HI"))
    return parser


# each config key's kind: its field default's type or the kind given here
# (gammas, alphas and n0 have their own parsers)
_KIND = {f.name: type(f.default) for f in fields(ExperimentConfig)} | {
    "n": int, "batch": int, "iters": int, "n0": int, "reps": int, "batch_frac": float}


def _typed(key: str, val, kind=None):
    """val as key's kind (`_KIND[key]` unless given) of its own JSON type: an
    int takes only an integer, a float any number, a bool or a str only its
    own type, a tuple two numbers. Anything else (a file's value may be any
    JSON) is refused with a ValueError, never truncated."""
    kind = kind or _KIND[key]
    if kind is tuple:
        if not isinstance(val, (list, tuple)) or len(val) != 2:
            raise ValueError(f"{key} expects two numbers, got {val!r}")
        return tuple(_typed(key, v, float) for v in val)
    if (not isinstance(val, (int, float) if kind is float else kind)
            or isinstance(val, bool) != (kind is bool)):
        raise ValueError(f"{key} expects {kind.__name__}, got {val!r}")
    return kind(val)


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    aliases = {"gamma": "gammas", "alpha": "alphas"}
    out = {}
    for key, val in data.items():
        key = aliases.get(key, key)
        if key not in _KIND:
            raise ValueError(f"unknown config key {key!r} in {path}")
        out[key] = val
    return out


def _gamma_tokens(raw) -> list:
    toks = []
    for g in raw if isinstance(raw, (list, tuple)) else [raw]:
        if isinstance(g, str) and g.strip().lower() == "adaptive":
            toks.append("adaptive")
            continue
        try:
            # float() would take a bool (a config file's true or false) as 1 or 0
            if isinstance(g, (bool, np.bool_)):
                raise TypeError
            toks.append(_tag(float(g)))
        except (TypeError, ValueError):
            raise ValueError(f"gamma expects numbers in [0,1) or 'adaptive', got {g!r}") from None
        if not 0.0 <= float(toks[-1]) < 1.0:
            raise ValueError("gamma must lie in [0,1)")
    return toks


def _alphas(raw) -> list:
    alphas = [_typed("alpha", a, float) for a in (raw if isinstance(raw, (list, tuple)) else [raw])]
    if not all(0.0 < a < math.inf for a in alphas):
        raise ValueError("alpha values must be positive and finite")
    return alphas


def _n0(raw):
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        return "auto"
    try:
        # a flag is a string to parse; a file's number must be an integer
        n0 = int(raw) if isinstance(raw, str) else _typed("n0", raw)
    except ValueError:
        raise ValueError(f"n0 expects an integer or 'auto', got {raw!r}") from None
    if n0 < 0:
        raise ValueError("n0 must be 'auto' or a nonnegative integer")
    return n0


def _field(key: str, val):
    """val as config key `key` takes it: through `_typed` or the key's own parser."""
    return {"gammas": _gamma_tokens, "alphas": _alphas, "n0": _n0}.get(key, partial(_typed, key))(val)


def parse_config(argv=None) -> ExperimentConfig:
    """Merge CLI flags over an optional JSON config file into an
    ExperimentConfig, which fills in the defaults of every key not given."""
    args = _build_parser().parse_args(argv)
    merged: dict = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    merged.update({k: v for k, v in vars(args).items() if k in _KIND and v is not None})
    experiment = merged.pop("experiment", None)
    if experiment is None:
        raise ValueError("no experiment given (positional argument or config file)")
    # a file's null would read as "not given"; its key's parser refuses it
    for key in [k for k, v in merged.items() if v is None]:
        _field(key, None)
    if "threads" not in merged:
        env = os.environ.get(THREADS_ENV_VAR, "1")
        try:
            merged["threads"] = int(env)
        except ValueError:
            raise ValueError(f"threads expects int, got {env!r}") from None
    return ExperimentConfig(experiment, **merged)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    try:
        summary = run_experiment(cfg)
    except GenerationError as exc:
        print(f"error: {exc}")
        return 1
    print(
        f"{summary.experiment}: {len(summary.cells)} cell(s), "
        f"{summary.divergent_total} divergent run(s), "
        f"artifacts in {summary.out_dir}"
    )
    return 0
