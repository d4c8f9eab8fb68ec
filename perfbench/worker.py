"""One sweep of one benchmark workload, in a fresh interpreter.

run.py starts this script once per sweep, so every sweep pays interpreter
start, imports and set-up like a user's run does, and its peak memory is its
own. The script writes ``result.json`` into its output directory: when the
first timed call began (CLOCK_MONOTONIC, comparable across processes), the
wall and CPU time of the timed section, peak RSS, and, for a traced sweep,
the per-layer summary. Output checks happen in run.py, not here.

    python3 perfbench/worker.py --workload quad-sweep --seed 42 --sweep 0 \\
        --out .perfbench_run/quad-sweep/sweep0 [--trace] [--toy]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-sweep sizes. A sweep takes about 2-4 s on one core of a 2-core Xeon,
# so a run of a few tens of seconds holds several sweeps to take medians
# over. `toy` is the smoke-test scale.
WORKLOADS = {
    "quad-sweep": {
        "kind": "sweep",
        "argv": ["convergence"],
        "reps": 4,
        "toy": {"reps": 1, "argv": ["--n", "400", "--iters", "100"]},
    },
    "logit-avg": {
        "kind": "sweep",
        "argv": ["averaged", "--problem", "logistic"],
        "reps": 5,
        "toy": {"reps": 1, "argv": ["--n", "400", "--iters", "200"]},
    },
    "quad-clt": {
        # criterion 09's quadratic arm; successive sweeps take successive
        # replication blocks, so a run pools enough z statistics for the
        # KS screen
        "kind": "clt",
        "reps": 25,
        "clt": {"n": 4000, "dim": 10, "rho": 1.0, "shift": 10.0, "alpha": 0.001,
                "batch": 100, "iters": 2000, "n0": 1000},
        "toy": {"reps": 5, "clt": {"n": 400, "iters": 400, "n0": 200}},
    },
    "theory-map": {
        "kind": "theory",
        "argv": [["spectrum-map", "--grid", "200"],
                 ["power-bound", "--reps", "200", "--iters", "200"]],
        "toy": {"argv": [["spectrum-map", "--grid", "20"],
                         ["power-bound", "--reps", "10", "--iters", "50"]]},
    },
}


def resolve(workload: str, toy: bool) -> dict:
    """The workload's spec at full or toy scale."""
    spec = dict(WORKLOADS[workload])
    small = spec.pop("toy")
    if toy:
        if "reps" in small:
            spec["reps"] = small["reps"]
        if spec["kind"] == "clt":
            spec["clt"] = dict(spec["clt"], **small["clt"])
        elif spec["kind"] == "sweep":
            spec["argv"] = spec["argv"] + small["argv"]
        else:
            spec["argv"] = small["argv"]
    return spec


def cli_argvs(spec: dict, seed: int, out: str) -> list:
    """The sgdmlab command lines one sweep runs."""
    if spec["kind"] == "sweep":
        return [spec["argv"] + ["--reps", str(spec["reps"]), "--seed", str(seed),
                                "--threads", "1", "--out", out]]
    return [argv + ["--seed", str(seed), "--out", os.path.join(out, argv[0])]
            for argv in spec["argv"]]


def _planned_ops(cfg) -> int:
    """Operations one command performs: a (cell, replication) run, a
    power-bound configuration, or the whole spectrum map."""
    if cfg.experiment == "spectrum-map":
        return 1
    if cfg.experiment == "power-bound":
        return cfg.reps
    return len(cfg.gammas) * len(cfg.alphas) * cfg.reps


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import sgdmlab
    from sgdmlab import harness

    spec = resolve(args.workload, args.toy)
    os.makedirs(args.out, exist_ok=True)
    result: dict = {"workload": args.workload, "seed": args.seed, "sweep": args.sweep,
                    "traced": args.trace, "error": None}

    if spec["kind"] == "clt":
        c = spec["clt"]
        problem = sgdmlab.generate_quadratic(c["n"], c["dim"], c["rho"], c["shift"], args.seed)
        cov = sgdmlab.plug_in_covariance(problem)
        direction = np.ones(c["dim"]) / math.sqrt(c["dim"])
        mcfg = sgdmlab.MomentumConfig(alpha=c["alpha"], gamma_mode=sgdmlab.GammaMode.ADAPTIVE,
                                      batch_size=c["batch"])
        reps = list(range(args.sweep * spec["reps"], (args.sweep + 1) * spec["reps"]))
        result.update(reps=reps, z=[], xbar=[], diverged=[])
        result["ops"] = len(reps)

        def timed():
            for r in reps:
                x_init = problem.x_star + sgdmlab.RngStream(args.seed + r, 2).standard_normal(c["dim"])
                try:
                    _, avg, _ = sgdmlab.run(problem, mcfg, iters=c["iters"],
                                            seed=sgdmlab.RngStream(args.seed + r, 1),
                                            n0=c["n0"], record_stride=10**9, x_init=x_init)
                except sgdmlab.DivergedError:
                    result["diverged"].append(r)
                    continue
                result["xbar"].append(avg.mean.tolist())
                result["z"].append(sgdmlab.z_statistic(avg.mean, problem.x_star, direction, cov,
                                                       c["iters"], c["n0"], c["batch"]))
    else:
        argvs = cli_argvs(spec, args.seed, args.out)
        cfgs = [harness.parse_config(a) for a in argvs]
        result["ops"] = sum(_planned_ops(cfg) for cfg in cfgs)
        reps = range(cfgs[0].reps if spec["kind"] == "sweep" else 0)

        def timed():
            for a in argvs:
                if harness.main(a) != 0:
                    raise RuntimeError(f"sgdmlab {' '.join(a)} exited non-zero")

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        if spec["kind"] == "clt":  # generated during set-up, before tracing
            tracer.state_bytes = problem.a_mats.nbytes

    result["t_first_call"] = time.monotonic()
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        timed()
    except Exception:  # the program failed: every operation of the sweep fails
        result["error"] = traceback.format_exc()
    wall = time.perf_counter() - t0
    result["cpu_s"] = _cpu() - cpu0
    result["wall_s"] = wall
    if tracer is not None:
        result["trace"] = tracer.summary(wall, max(len(reps), 1))
        tracer.write(os.path.join(args.out, "spans"))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
