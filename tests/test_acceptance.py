"""Desk-scale acceptance suite.

Eleven end-to-end checks covering the closed-form spectral theory, the
optimizer dynamics, averaging, inference calibration, and the experiment
driver. Sample sizes: N=4000, d=10, replication counts as noted per check;
every randomized check runs under a frozen seed. Each test prints one
summary line on success.
"""

import math
import os
import tempfile

import numpy as np
import pytest

from sgdmlab import (
    ExperimentConfig,
    GammaMode,
    HessianSpectrum,
    MomentumConfig,
    OptimizerState,
    RngStream,
    adaptive_gamma,
    build_gamma_matrix,
    generate_logistic,
    generate_quadratic,
    ks_normality,
    numeric_spectral_radius,
    optimal_hyperparameters,
    plug_in_covariance,
    confidence_interval,
    read_csv,
    run,
    run_experiment,
    sgdm_step,
    spectral_radius_closed_form,
    verify_power_bound,
    z_statistic,
)
from sgdmlab.harness import _DYADIC_ALPHAS, Z_CRIT

DESK_N, DESK_D = 4000, 10


@pytest.fixture(scope="module")
def desk_quadratic():
    return generate_quadratic(DESK_N, DESK_D, rho=1.0, diag_shift=10.0, seed=42)


def test_criterion_01_closed_form_matches_eigensolver():
    # 2000 random admissible configs on the contraction domain (step size
    # below 1/mu, condition number <= 1e4); the separation floor Delta > 1e-6
    # keeps the dense oracle itself trustworthy at the 1e-10 level (it loses
    # half its digits at defective blocks)
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 2000:
        mu = 10.0 ** rng.uniform(-2, 2)
        cond = 10.0 ** rng.uniform(0, 4)
        ell = mu * cond
        d = int(rng.integers(2, 7))
        interior = np.sort(rng.uniform(mu, ell, size=d - 2)) if d > 2 else []
        spec = HessianSpectrum(np.concatenate([[mu], interior, [ell]]))
        gamma = rng.uniform(0.0, 0.97)
        cap = 2.0 * (1.0 + gamma) / ((1.0 - gamma) * ell)
        alpha = rng.uniform(0.02, 0.98) * min(cap, 1.0 / mu)
        cfg = MomentumConfig(alpha=alpha, gamma=gamma)
        rep = spectral_radius_closed_form(spec, cfg)
        if not rep.admissible or rep.delta <= 1e-6:
            continue
        count += 1
        dev = abs(rep.lam - numeric_spectral_radius(spec, cfg))
        worst = max(worst, dev)
        assert dev <= 1e-10
    print(f"criterion 01 PASS: max |closed form - eigensolver| = {worst:.3e} "
          f"over {count} configs")


def test_criterion_02_optimal_point_and_grid_minimum():
    alpha_opt, gamma_opt, lam_opt = optimal_hyperparameters(
        HessianSpectrum.from_extremes(1.0, 5.0)
    )
    want = (math.sqrt(5.0) - 1.0) / (math.sqrt(5.0) + 1.0)
    assert abs(lam_opt - want) <= 1e-9
    cfg = ExperimentConfig(experiment="spectrum-map", mu=1.0, ell=5.0, grid=200,
                           out=tempfile.mkdtemp())
    cell = run_experiment(cfg).cells[0]
    astep = (0.8 - 0.02) / 199
    gstep = 0.6 / 199
    assert abs(cell["alpha_at_min"] - 1.0 / math.sqrt(5.0)) <= astep + 1e-12
    assert abs(cell["gamma_at_min"] - 0.1459) <= gstep + 1e-4
    print(f"criterion 02 PASS: lam* = {lam_opt:.9f}, grid argmin "
          f"({cell['alpha_at_min']:.4f}, {cell['gamma_at_min']:.4f}) within one cell")


def test_criterion_03_power_bound_holds():
    rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    while checked < 500:
        mu = 10.0 ** rng.uniform(-1, 1)
        ell = mu * 10.0 ** rng.uniform(0, 2)
        gamma = rng.uniform(0.0, 0.95)
        alpha = (0.05 + 0.9 * rng.uniform()) * 2.0 * (1.0 + gamma) / ((1.0 - gamma) * ell)
        spec = HessianSpectrum.from_extremes(mu, ell)
        cfg = MomentumConfig(alpha=alpha, gamma=gamma)
        rep = spectral_radius_closed_form(spec, cfg)
        if not rep.admissible or rep.delta <= 1e-6 or not math.isfinite(rep.big_m):
            continue
        res = verify_power_bound(build_gamma_matrix(spec, cfg), rep.big_m,
                                 rep.lam, 200)
        checked += 1
        worst = max(worst, res.max_ratio)
        assert res.ok
    print(f"criterion 03 PASS: 0 violations over {checked} configs "
          f"(max ratio {worst:.3e})")


def test_criterion_04_noiseless_rate_at_optimum(desk_quadratic):
    p = desk_quadratic
    alpha_opt, gamma_opt, lam_opt = optimal_hyperparameters(p.tuning_spectrum())
    x0 = p.x_star + RngStream(7).standard_normal(DESK_D)
    state = OptimizerState(x=x0, m=np.zeros(DESK_D), t=1,
                           config=MomentumConfig(alpha=alpha_opt, gamma=gamma_opt))
    errs = []
    for _ in range(30):
        state = sgdm_step(state, p.full_gradient(state.x))
        errs.append(np.linalg.norm(state.x - p.x_star))
    # fit before the float floor (the contraction reaches machine precision
    # within ~35 steps at this radius)
    t = np.arange(1, 31)
    sel = (t >= 3) & (t <= 28)
    rate = math.exp(np.polyfit(t[sel], np.log(np.array(errs)[sel]), 1)[0])
    assert abs(rate - lam_opt) <= 0.10 * lam_opt
    rep0 = spectral_radius_closed_form(p.tuning_spectrum(),
                                       MomentumConfig(alpha=alpha_opt, gamma=0.0))
    assert rate < rep0.lam
    print(f"criterion 04 PASS: measured rate {rate:.4f} vs lam* {lam_opt:.4f} "
          f"({100*abs(rate-lam_opt)/lam_opt:.1f}%), momentum-free rate {rep0.lam:.4f}")


def test_criterion_05_adaptive_weight_bands():
    g_quad = [
        adaptive_gamma(generate_quadratic(DESK_N, DESK_D, 1.0, 10.0, s).mu, 0.001)
        for s in range(100)
    ]
    mean_quad = float(np.mean(g_quad))
    assert 0.95 <= mean_quad <= 0.97
    x_true = np.ones(DESK_D) / math.sqrt(DESK_D)
    g_log = [
        adaptive_gamma(generate_logistic(DESK_N, DESK_D, x_true, 0.0, s).mu, 0.5)
        for s in range(100)
    ]
    mean_log = float(np.mean(g_log))
    assert 0.70 <= mean_log <= 0.80
    print(f"criterion 05 PASS: mean adaptive weight quadratic {mean_quad:.4f}, "
          f"logistic {mean_log:.4f}")


def test_criterion_06_threshold_crossing_order():
    out = tempfile.mkdtemp()
    cfg = ExperimentConfig(
        experiment="convergence", n=DESK_N, dim=DESK_D,
        gammas=["adaptive", "0", "0.99"], alphas=[0.001], batch=400,
        iters=2600, n0=0, reps=40, seed=42, offset=10.0, out=out,
    )
    summary = run_experiment(cfg)
    assert summary.divergent_total == 0
    cross = {}
    for tok in ("adaptive", "0", "0.99"):
        _, rows = read_csv(os.path.join(out, f"convergence_g{tok}_a0.001.csv"))
        steps = np.array([r["step"] for r in rows])
        curve = np.array([r["err_last_mean"] for r in rows])
        floor = curve[steps > 2200].mean()
        cross[tok] = int(steps[np.nonzero(curve <= 10.0 * floor)[0][0]])
    assert cross["adaptive"] < cross["0"] < cross["0.99"]
    print(f"criterion 06 PASS: crossings adaptive {cross['adaptive']} < "
          f"fixed-0 {cross['0']} < fixed-0.99 {cross['0.99']}")


def test_criterion_07_floor_scaling(desk_quadratic):
    p = desk_quadratic

    def steady(alpha, batch, reps=50):
        vals = []
        for r in range(reps):
            _, _, traj = run(
                p, MomentumConfig(alpha=alpha, gamma=0.0, batch_size=batch),
                iters=400, seed=1000 + r, x_init=p.x_star,
            )
            vals.append(float(np.mean(traj.err_last[300:] ** 2)))
        return float(np.mean(vals))

    base = steady(0.065, 800)
    r_alpha = base / steady(0.0325, 800)
    r_batch = base / steady(0.065, 1600)
    assert 2.5 <= r_alpha <= 6.0
    assert 1.4 <= r_batch <= 2.8
    print(f"criterion 07 PASS: halving alpha shrinks the floor by {r_alpha:.2f} "
          f"(target 4), doubling the batch by {r_batch:.2f} (target 2)")


def test_criterion_08_averaged_decay_and_momentum_free_limit():
    checks = np.unique(np.round(np.geomspace(300, 3000, 8)).astype(int))
    reps = 60
    terminal = {"sgdm": np.empty(reps), "sgd": np.empty(reps)}
    mse_sgdm = np.empty((reps, len(checks)))
    for r in range(reps):
        p = generate_quadratic(DESK_N, DESK_D, 1.0, 10.0, 42 + r)
        x0 = p.x_star + RngStream(42 + r, 2).standard_normal(DESK_D)
        for name, cfg in (
            ("sgdm", MomentumConfig(alpha=0.02, gamma_mode=GammaMode.ADAPTIVE,
                                    batch_size=200)),
            ("sgd", MomentumConfig(alpha=0.02, gamma=0.0, batch_size=200)),
        ):
            _, _, traj = run(p, cfg, iters=3000, seed=RngStream(42 + r, 1),
                             n0=25, record_stride=1, x_init=x0)
            idx = np.searchsorted(traj.steps, checks)
            curve = traj.err_avg[idx] ** 2
            if name == "sgdm":
                mse_sgdm[r] = curve
            terminal[name][r] = curve[-1]
    slope = float(np.polyfit(np.log(checks), np.log(mse_sgdm.mean(axis=0)), 1)[0])
    assert -1.15 <= slope <= -0.85
    diff = terminal["sgdm"].mean() - terminal["sgd"].mean()
    se = math.sqrt(terminal["sgdm"].var(ddof=1) / reps
                   + terminal["sgd"].var(ddof=1) / reps)
    assert abs(diff) <= 2.0 * se
    print(f"criterion 08 PASS: averaged-MSE slope {slope:.3f}, "
          f"terminal momentum effect {abs(diff)/se:.2f} SE")


def test_criterion_09_clt_and_coverage(desk_quadratic):
    # quadratic arm: fixed instance, 1000 independent optimizer streams
    p = desk_quadratic
    cov = plug_in_covariance(p)
    w = np.ones(DESK_D) / math.sqrt(DESK_D)
    n, n0, B, reps = 2000, 1000, 100, 1000
    cfg = MomentumConfig(alpha=0.001, gamma_mode=GammaMode.ADAPTIVE, batch_size=B)
    zs = np.empty(reps)
    for r in range(reps):
        _, avg, _ = run(p, cfg, iters=n, seed=RngStream(42 + r, 1), n0=n0,
                        record_stride=10**9,
                        x_init=p.x_star + RngStream(42 + r, 2).standard_normal(DESK_D))
        zs[r] = z_statistic(avg.mean, p.x_star, w, cov, n, n0, B)
    stat, ks_ok = ks_normality(zs)
    assert ks_ok
    p_abs = float(np.mean(np.abs(zs) < Z_CRIT))
    assert 0.93 <= p_abs <= 0.97

    # logistic arm: ridge 1.0 keeps the mixing time feasible at this scale,
    # step size follows the n^{-0.6} decay regime
    lp = generate_logistic(DESK_N, DESK_D, w, nu=1.0, seed=42)
    lcov = plug_in_covariance(lp)
    ln, ln0, lB, lreps = 3000, 1500, 800, 300
    lalpha = ln ** (-0.6)
    lcfg = MomentumConfig(alpha=lalpha, gamma_mode=GammaMode.ADAPTIVE, batch_size=lB)
    target = float(w @ lp.x_star)
    hits = 0
    for r in range(lreps):
        _, avg, _ = run(lp, lcfg, iters=ln, seed=RngStream(42 + r, 1), n0=ln0,
                        record_stride=10**9,
                        x_init=lp.x_star + RngStream(42 + r, 2).standard_normal(DESK_D))
        lo, hi = confidence_interval(avg.mean, w, lcov, ln, ln0, lB)
        hits += lo <= target <= hi
    lcov_rate = hits / lreps
    assert 0.92 <= lcov_rate <= 0.97
    print(f"criterion 09 PASS: KS {stat:.4f} (crit {1.358/math.sqrt(reps):.4f}), "
          f"P(|Z|<1.96) = {p_abs:.3f}, logistic coverage {lcov_rate:.3f}")


def test_criterion_10_stability_window_ratio():
    out = tempfile.mkdtemp()
    cfg = ExperimentConfig(
        experiment="sensitivity", n=DESK_N, dim=DESK_D, shift=1.0,
        gammas=["0", "0.8"], alphas=list(_DYADIC_ALPHAS), batch=800,
        iters=500, reps=3, seed=42, offset=10.0, out=out,
    )
    summary = run_experiment(cfg)
    best = {}
    for row in summary.cells:
        if row["divergent"] == 0:
            g = str(row["gamma"])
            best[g] = max(best.get(g, 0.0), row["alpha"])
    ratio = best["0.8"] / best["0"]
    # within one dyadic step of (1 + gamma) / (1 - gamma) = 9
    assert 4.5 <= ratio <= 18.0
    print(f"criterion 10 PASS: max stable step {best['0.8']:g} (momentum 0.8) vs "
          f"{best['0']:g} (none), ratio {ratio:g}")


def test_criterion_11_gradient_and_hessian_oracles():
    rng = np.random.default_rng(3)
    worst_g, worst_h = 0.0, 0.0
    quad = generate_quadratic(60, 5, 1.0, 10.0, 5)
    logit = [generate_logistic(60, 5, np.ones(5) / math.sqrt(5.0), nu, 6)
             for nu in (0.0, 0.1)]
    for problem in [quad] + logit:
        for _ in range(25):
            i = int(rng.integers(0, problem.n_samples))
            x = rng.standard_normal(problem.dim)
            step = 1e-6 * (1.0 + np.linalg.norm(x))
            got = problem.per_sample_gradients(x)[i]
            fd = np.empty(problem.dim)
            for j in range(problem.dim):
                e = np.zeros(problem.dim)
                e[j] = step
                fd[j] = (problem.per_sample_loss(x + e, i)
                         - problem.per_sample_loss(x - e, i)) / (2.0 * step)
            rel = np.linalg.norm(got - fd) / (1.0 + np.linalg.norm(fd))
            worst_g = max(worst_g, rel)
            assert rel <= 1e-6
    for problem in logit:
        for _ in range(5):
            x = rng.standard_normal(problem.dim) * 0.5
            h = problem.hessian_at(x)
            fd = np.empty_like(h)
            for j in range(problem.dim):
                e = np.zeros(problem.dim)
                e[j] = 1e-6
                fd[:, j] = (problem.full_gradient(x + e)
                            - problem.full_gradient(x - e)) / 2e-6
            rel = np.linalg.norm(h - fd, 2) / (1.0 + np.linalg.norm(h, 2))
            worst_h = max(worst_h, rel)
            assert rel <= 1e-5
    print(f"criterion 11 PASS: worst gradient deviation {worst_g:.2e}, "
          f"worst Hessian deviation {worst_h:.2e}")
