"""sgdmlab benchmark: end-to-end sweep cost and an outside-in per-layer trace.

    python3 perfbench/run.py --workload quad-sweep --seed 42 --seconds 20 --trace 0

Runs sweeps of one workload (see README.md), each in a fresh interpreter
(worker.py), until --seconds have passed and at least a minimum number of
sweeps is done. With --trace 0 it reports the end-to-end metrics as medians
over sweeps; with --trace 1 it alternates untraced and traced sweeps and
reports the per-layer metrics of the traced ones. After the timed sweeps it
checks the outputs. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--record-reference (default seed, full scale only) stores the first sweep's
outputs as perfbench/reference/<workload>.json, the reference later runs of
the default seed are compared against.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import WORKLOADS, cli_argvs, resolve  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench_run")
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 42
MIN_SWEEPS = 4
WORKER_TIMEOUT_S = 120
STOP_STARTING_AFTER_S = 110
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "steps_per_s": "1/s",
}
_SPAN_METRICS = {
    "rand.batch_indices.calls": "count",
    "rand.batch_indices.self_s": "s",
    "rand.batch_indices.us_p50": "us",
    "rand.batch_indices.us_p99": "us",
    "problems.minibatch_gradient.calls": "count",
    "problems.minibatch_gradient.self_s": "s",
    "problems.minibatch_gradient.us_p50": "us",
    "problems.minibatch_gradient.us_p99": "us",
    "problems.minibatch_gradient.bytes_computed": "B",
    "problems.minibatch_gradient.flops_computed": "flop",
    "problems.generate.calls": "count",
    "problems.generate.self_s": "s",
    "problems.generate.per_rep": "ratio",
    "problems.state_bytes": "B",
    "optimizer.run.calls": "count",
    "optimizer.run.self_s": "s",
    "optimizer.run.us_per_step_self": "us",
    "optimizer.fold.calls": "count",
    "optimizer.fold.self_s": "s",
    "optimizer.steps": "count",
    "optimizer.records": "count",
    "optimizer.diverged": "count",
    "spectrum.closed_form.calls": "count",
    "spectrum.closed_form.self_s": "s",
    "spectrum.power_bound.calls": "count",
    "spectrum.power_bound.self_s": "s",
    "inference.calls": "count",
    "inference.self_s": "s",
    "harness.self_s": "s",
    "rand.share": "fraction",
    "problems.share": "fraction",
    "optimizer.share": "fraction",
    "spectrum.share": "fraction",
    "inference.share": "fraction",
    "harness.share": "fraction",
    "trace.unwrapped_s": "s",
    "trace.spans": "count",
}
PER_LAYER = dict(_SPAN_METRICS, **{
    "harness.bytes_written": "B",
    "harness.files_written": "count",
    "harness.artifacts_identical": "fraction",
    "trace.overhead_s": "s",
})

# Output-check constants.
REL_TOL = 1e-9  # reference floats
ORACLE_TOL = 1e-12  # |xbar - oracle xbar|
ORACLE_SAMPLES = 3
KS_MIN_SAMPLES = 100
# KS screen at the 0.1% level (asymptotic critical value 1.949/sqrt(n)): the
# benchmark is run on many seeds, and a 5% screen would refuse one seed in
# twenty of a correct program. The 5% verdict of ks_normality is printed
# beside it.
KS_CRIT_COEF = 1.949
COVERAGE_SIGMAS = 4.0  # P(|Z| < 1.96) band half-width in binomial std errors
Z_CRIT = 1.959963984540054


class SetupFailure(RuntimeError):
    """The benchmark itself cannot run (no program, worker crashed)."""


def read_rows_text(text: str) -> list[dict]:
    """Rows of an sgdmlab CSV as strings (the '# key=value' header skipped)."""
    return list(csv.DictReader([line for line in text.splitlines() if not line.startswith("#")]))


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return read_rows_text(fh.read())


def same_value(got: str, want: str) -> bool:
    """Counts exactly, floats to relative REL_TOL, anything else verbatim."""
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return math.isclose(g, w, rel_tol=REL_TOL, abs_tol=0.0)


def same_rows(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        g.keys() == w.keys() and all(same_value(g[k], w[k]) for k in w)
        for g, w in zip(got, want)
    )


def digests(out: str) -> dict:
    """sha256 and size of every file a sweep wrote, by relative path."""
    found = {}
    for path in sorted(glob.glob(os.path.join(out, "**", "*"), recursive=True)):
        rel = os.path.relpath(path, out)
        if os.path.isfile(path) and not rel.startswith(("result.json", "spans")):
            with open(path, "rb") as fh:
                found[rel] = (hashlib.sha256(fh.read()).hexdigest(), os.path.getsize(path))
    return found


def csv_digests(res: dict) -> dict:
    # config.json echoes the sweep's own output directory, so only the CSVs
    # are compared across sweeps
    return {k: v[0] for k, v in res["files"].items() if k.endswith(".csv")}


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# manifest

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int) -> int:
    """Cache size in bytes as `getconf` reports it; 0 when unknown."""
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
        return int(out.stdout.strip() or 0)
    except (OSError, subprocess.TimeoutExpired, ValueError):
        return 0


def _git_revision() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a git checkout; source_sha256 identifies the code
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "sgdmlab", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def manifest(args, spec: dict, env: dict) -> dict:
    import numpy as np

    from sgdmlab import harness

    state = ("none", 0)  # theory-map holds no problem instance
    if spec["kind"] == "clt":
        state = ("a_mats", spec["clt"]["n"] * spec["clt"]["dim"] ** 2 * 8)
    elif spec["kind"] == "sweep":
        cfg = harness.parse_config(cli_argvs(spec, args.seed, "unused")[0])
        state = (("a_mats", cfg.n * cfg.dim ** 2 * 8) if cfg.problem == "quadratic"
                 else ("features", cfg.n * cfg.dim * 8))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": "toy" if args.toy else "full",
        "reps_per_sweep": spec.get("reps", 0),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: env.get(k, "unset") for k in BLAS_THREAD_VARS},
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "state_array": state[0],
        "state_bytes": state[1],
        "cache_l2_bytes": _cache_bytes(2),
        "cache_llc_bytes": _cache_bytes(3),
    }


# ---------------------------------------------------------------------------
# sweeps

def run_sweep(args, k: int, traced: bool, env: dict) -> dict:
    out = os.path.join(WORK_DIR, args.workload, f"sweep{k}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--sweep", str(k), "--out", out]
    cmd += ["--trace"] if traced else []
    cmd += ["--toy"] if args.toy else []
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SetupFailure(f"sweep {k} exceeded {WORKER_TIMEOUT_S} s") from exc
    result_path = os.path.join(out, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise SetupFailure(f"sweep {k} worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_s"] = res["t_first_call"] - spawned
    res["files"] = digests(out)
    res["dir"] = out
    if res["error"]:
        print(f"sweep {k} failed:\n{res['error']}", file=sys.stderr)
    return res


def read_outputs(spec: dict, res: dict) -> None:
    """Parse what the checks and the step count need from a sweep's CSVs."""
    out = res["dir"]
    if spec["kind"] == "sweep":
        res["summary"] = {"summary.csv": read_rows(os.path.join(out, "summary.csv"))}
        res["steps"] = sum((int(r["reps"]) - int(r["divergent"])) * int(r["iters"])
                           for r in res["summary"]["summary.csv"])
        res["failed_ops"] = sum(int(r["divergent"]) for r in res["summary"]["summary.csv"])
    elif spec["kind"] == "theory":
        res["summary"] = {name: read_rows(os.path.join(out, name))
                          for name in ("spectrum-map/summary.csv", "power-bound/summary.csv")}
        grid = int(res["summary"]["spectrum-map/summary.csv"][0]["grid"])
        bound = read_rows(os.path.join(out, "power-bound/power_bound.csv"))
        # theory-map has no SGDM steps: its steps are the grid's closed-form
        # radii plus the matrix powers the power-bound check took
        res["steps"] = grid * grid + sum(int(r["steps_done"]) for r in bound)
        res["failed_ops"] = int(res["summary"]["power-bound/summary.csv"][0]["failures"])
    else:
        c = spec["clt"]
        res["steps"] = (len(res["reps"]) - len(res["diverged"])) * c["iters"]
        res["failed_ops"] = len(res["diverged"])


# ---------------------------------------------------------------------------
# output checks

def oracle_xbar(problem, c: dict, seed: int, rep: int):
    """Averaged iterate of one quad-clt replication by the textbook recursion
    m <- gamma m + (1-gamma) g, x <- x - alpha m, with g the batch mean of the
    per-sample gradients A_i x - b_i and the streams of the reproducibility
    contract (batch indices from stream 1, initial offset from stream 2)."""
    import numpy as np

    from sgdmlab import RngStream

    a_mats, b_vecs = problem.a_mats, problem.b_vecs
    n, d = b_vecs.shape
    x_star = np.linalg.solve(a_mats.sum(axis=0), b_vecs.sum(axis=0))
    mu_alpha = float(np.linalg.eigvalsh(a_mats)[:, 0].mean()) * c["alpha"]
    gamma = ((1.0 - mu_alpha) / (1.0 + mu_alpha)) ** 2 if mu_alpha < 1.0 else 0.0
    batches = RngStream(seed + rep, 1)
    x = x_star + RngStream(seed + rep, 2).standard_normal(d)
    m = np.zeros(d)
    total = np.zeros(d)
    for t in range(1, c["iters"] + 1):
        idx = batches.batch_indices(n, c["batch"])
        g = (np.einsum("bij,j->bi", a_mats[idx], x) - b_vecs[idx]).mean(axis=0)
        m = gamma * m + (1.0 - gamma) * g
        x = x - c["alpha"] * m
        if t > c["n0"]:
            total += x
    return total / (c["iters"] - c["n0"])


def check_outputs(args, spec: dict, sweeps: list, reference: dict | None) -> list:
    """(name, ok, detail) for every output check; each is one operation."""
    checks = []
    if spec["kind"] in ("sweep", "theory"):
        same = all(csv_digests(s) == csv_digests(sweeps[0]) for s in sweeps)
        checks.append(("sweeps_repeat_bytes", same, f"{len(sweeps)} sweeps"))
        if reference is not None:
            ok = all(same_rows(rows, read_rows_text(reference["summaries"][name]))
                     for name, rows in sweeps[0]["summary"].items())
            checks.append(("summary_matches_reference", ok, f"rel {REL_TOL:g}"))
    if spec["kind"] == "sweep":
        rows = [r for s in sweeps for r in s["summary"]["summary.csv"]]
        divergent = sum(int(r["divergent"]) for r in rows)
        checks.append(("no_divergence", divergent == 0, f"{divergent} divergent"))
        cfg_reps = spec["reps"]
        shape_ok = all(len(s["summary"]["summary.csv"]) == 3 and all(
            int(r["reps"]) == cfg_reps for r in s["summary"]["summary.csv"]) for s in sweeps)
        checks.append(("summary_shape", shape_ok, f"3 cells x {cfg_reps} reps"))
    elif spec["kind"] == "theory":
        # the sweeps are byte-identical (checked above), so the first stands for all
        m = sweeps[0]["summary"]["spectrum-map/summary.csv"][0]
        b = sweeps[0]["summary"]["power-bound/summary.csv"][0]
        failures = int(b["failures"])
        checks.append(("power_bound_no_failures", failures == 0, f"{failures} of {b['configs']}"))
        mu, ell, grid = float(m["mu"]), float(m["ell"]), int(m["grid"])
        a_opt = 1.0 / math.sqrt(mu * ell)
        g_opt = ((math.sqrt(ell) - math.sqrt(mu)) / (math.sqrt(ell) + math.sqrt(mu))) ** 2
        closed = (math.isclose(float(m["alpha_opt"]), a_opt, rel_tol=1e-12)
                  and math.isclose(float(m["gamma_opt"]), g_opt, rel_tol=1e-12))
        checks.append(("optimum_closed_form", closed, f"alpha* {a_opt:.6g} gamma* {g_opt:.6g}"))
        from sgdmlab import harness

        cfg = harness.parse_config(cli_argvs(spec, args.seed, "unused")[0])
        da = (cfg.alpha_range[1] - cfg.alpha_range[0]) / (grid - 1)
        dg = (cfg.gamma_range[1] - cfg.gamma_range[0]) / (grid - 1)
        near = (abs(float(m["alpha_at_min"]) - a_opt) <= da * (1 + 1e-9)
                and abs(float(m["gamma_at_min"]) - g_opt) <= dg * (1 + 1e-9))
        checks.append(("grid_argmin_within_one_cell", near,
                       f"grid ({m['alpha_at_min']}, {m['gamma_at_min']})"))
    else:
        checks.extend(_clt_checks(args, spec, sweeps, reference))
    for s in sweeps:
        if s.get("trace"):
            checks.append(("trace_accounting", s["trace"]["trace.accounting_ok"],
                           f"sweep {s['sweep']}"))
    return checks


def _clt_checks(args, spec, sweeps, reference) -> list:
    import numpy as np

    import sgdmlab

    c = spec["clt"]
    checks = []
    runs = {r: (x, z) for s in sweeps
            for r, x, z in zip([r for r in s["reps"] if r not in s["diverged"]], s["xbar"], s["z"])}
    problem = sgdmlab.generate_quadratic(c["n"], c["dim"], c["rho"], c["shift"], args.seed)
    for rep in sorted(random.Random(args.seed).sample(sorted(runs), min(ORACLE_SAMPLES, len(runs)))):
        err = float(np.max(np.abs(np.array(runs[rep][0]) - oracle_xbar(problem, c, args.seed, rep))))
        checks.append(("oracle_xbar", err <= ORACLE_TOL, f"rep {rep}: max |dx| {err:.3g}"))
    zs = np.array([z for _, z in runs.values()])
    if not args.toy:
        n = zs.size
        if n >= KS_MIN_SAMPLES:
            stat, pass05 = sgdmlab.ks_normality(zs)
            crit = KS_CRIT_COEF / math.sqrt(n)
            checks.append(("ks_screen", stat < crit,
                           f"D={stat:.4f} < {crit:.4f} (n={n}); 5% verdict {'pass' if pass05 else 'fail'}"))
        else:
            checks.append(("ks_screen", False, f"only {n} z statistics"))
        se = math.sqrt(0.95 * 0.05 / max(n, 1))
        p_abs = float(np.mean(np.abs(zs) < Z_CRIT)) if n else 0.0
        lo, hi = 0.95 - COVERAGE_SIGMAS * se, 0.95 + COVERAGE_SIGMAS * se
        checks.append(("p_abs_z_band", lo <= p_abs <= hi, f"{p_abs:.3f} in [{lo:.3f}, {hi:.3f}]"))
    if reference is not None:
        got = sweeps[0]["z"]
        ok = len(got) == len(reference["z"]) and all(
            math.isclose(g, w, rel_tol=REL_TOL, abs_tol=1e-12) for g, w in zip(got, reference["z"]))
        checks.append(("z_matches_reference", ok, f"{len(got)} z, rel {REL_TOL:g}"))
    return checks


# ---------------------------------------------------------------------------
# reference

def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(args, spec) -> dict | None:
    if args.toy or args.seed != REFERENCE_SEED or not os.path.exists(reference_path(args.workload)):
        return None
    with open(reference_path(args.workload)) as fh:
        ref = json.load(fh)
    return ref if ref.get("reps_per_sweep") == spec.get("reps", 0) else None


def record_reference(args, spec, res: dict) -> None:
    ref = {"workload": args.workload, "seed": args.seed, "reps_per_sweep": spec.get("reps", 0),
           "csv_sha256": csv_digests(res)}
    if spec["kind"] == "clt":
        ref["z"] = res["z"]
    else:
        ref["summaries"] = {}
        for name in res["summary"]:
            with open(os.path.join(res["dir"], name)) as fh:
                ref["summaries"][name] = fh.read()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(reference_path(args.workload), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def artifacts_identical(sweeps: list, reference: dict | None) -> float:
    """Share of sweeps whose CSVs are byte-identical to the reference (the
    recorded one for the default seed, else the run's first sweep)."""
    want = reference["csv_sha256"] if reference else csv_digests(sweeps[0])
    if not want:
        return 0.0
    return sum(csv_digests(s) == want for s in sweeps) / len(sweeps)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="smoke-test scale")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record_reference and (args.toy or args.seed != REFERENCE_SEED):
        parser.error(f"--record-reference needs full scale and --seed {REFERENCE_SEED}")

    if not os.path.isfile(os.path.join(ROOT, "src", "sgdmlab", "__init__.py")):
        print(f"error: no sgdmlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    spec = resolve(args.workload, args.toy)
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    shutil.rmtree(os.path.join(WORK_DIR, args.workload), ignore_errors=True)

    min_sweeps = MIN_SWEEPS
    if spec["kind"] == "clt" and not args.toy:
        min_sweeps = max(min_sweeps, math.ceil(KS_MIN_SAMPLES / spec["reps"]))
    try:
        info = manifest(args, spec, env)
        sweeps = []
        start = time.monotonic()
        while (len(sweeps) < min_sweeps or time.monotonic() - start < args.seconds) \
                and time.monotonic() - start < STOP_STARTING_AFTER_S:
            k = len(sweeps)
            res = run_sweep(args, k, bool(args.trace) and k % 2 == 1, env)
            if not res["error"]:
                try:
                    read_outputs(spec, res)
                except (OSError, KeyError, IndexError, ValueError) as exc:
                    res["error"] = f"unreadable outputs: {exc!r}"
            sweeps.append(res)
            if k > 0 and spec["kind"] != "clt":
                shutil.rmtree(res["dir"])  # the first sweep's files suffice
    except SetupFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ok_sweeps = [s for s in sweeps if not s["error"]]
    if args.record_reference and len(ok_sweeps) == len(sweeps):
        record_reference(args, spec, sweeps[0])
    reference = load_reference(args, spec)
    checks = check_outputs(args, spec, ok_sweeps, reference) if ok_sweeps else []
    ops = sum(s["ops"] for s in sweeps)
    failed_ops = sum(s["ops"] if s["error"] else s["failed_ops"] for s in sweeps)
    attempted = ops + len(checks)
    failed = failed_ops + sum(not ok for _, ok, _ in checks)

    plain = [s for s in ok_sweeps if not s["traced"]]
    traced = [s for s in ok_sweeps if s["traced"]]
    if args.trace:
        values = {name: median([s["trace"][name] for s in traced]) for name in _SPAN_METRICS}
        files = sweeps[0]["files"]
        values["harness.bytes_written"] = sum(size for _, size in files.values())
        values["harness.files_written"] = len(files)
        values["harness.artifacts_identical"] = (
            artifacts_identical(ok_sweeps, reference) if spec["kind"] != "clt" else 0.0)
        values["trace.overhead_s"] = (median([s["wall_s"] for s in traced])
                                      - median([s["wall_s"] for s in plain]))
        units = PER_LAYER
    else:
        values = {
            "wall_s": median([s["wall_s"] for s in plain]),
            "setup_s": median([s["setup_s"] for s in plain]),
            "cpu_s": median([s["cpu_s"] for s in plain]),
            "peak_rss_mb": median([s["peak_rss_kb"] / 1024.0 for s in plain]),
            "steps_per_s": median([s["steps"] / s["wall_s"] for s in plain]),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    info.update(sweeps=len(sweeps), traced_sweeps=len(traced), attempted=attempted,
                failed=failed, failed_frac=failed / attempted)
    print("manifest " + json.dumps(info, sort_keys=True))
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_frac {failed / attempted!r} fraction ({failed} of {attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(WORK_DIR, args.workload, f"result_trace{args.trace}.json"), "w") as fh:
        per_sweep = [{k: s.get(k) for k in ("sweep", "traced", "wall_s", "setup_s", "cpu_s",
                                            "peak_rss_kb", "steps")} for s in sweeps]
        json.dump(dict(result, manifest=info, checks=checks, sweeps=per_sweep), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
