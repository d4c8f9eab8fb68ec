"""Momentum SGD stepper and driver: exact recursions, determinism, averaging,
divergence handling, burn-in rule."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sgdmlab import (
    AveragingState,
    DegenerateDirectionError,
    DivergedError,
    GammaMode,
    HessianSpectrum,
    MomentumConfig,
    OptimizerState,
    RngStream,
    adaptive_gamma,
    choose_burn_in,
    generate_logistic,
    generate_quadratic,
    plug_in_covariance,
    resolve_gamma,
    run,
    run_cells,
    sgdm_step,
    spectral_radius_closed_form,
    z_statistic,
)
from sgdmlab import optimizer
from sgdmlab.problems import QuadraticProblem


def constant_quadratic(dim=3, n=16):
    """All components share one Hessian and b_i = A x_star, so every
    mini-batch gradient vanishes identically at the minimizer."""
    base = generate_quadratic(n, dim, 1.0, 10.0, 2)
    a = base.sigma_hat.copy()
    x_true = np.arange(1.0, dim + 1.0)
    b = a @ x_true
    ev = np.linalg.eigvalsh(a)
    return QuadraticProblem(
        a_mats=np.repeat(a[None], n, axis=0),
        b_vecs=np.repeat(b[None], n, axis=0),
        x_star=x_true,
        sigma_hat=a,
        mu=float(ev[0]),
        ell=float(ev[-1]),
        seed=0,
        rho=1.0,
        diag_shift=10.0,
    )


# ---------------------------------------------------------------------------
# single step

def test_step_gamma_zero_is_plain_sgd():
    cfg = MomentumConfig(alpha=0.2, gamma=0.0)
    state = OptimizerState(x=np.array([1.0, -2.0]), m=np.zeros(2), t=1, config=cfg)
    g = np.array([0.5, 1.5])
    nxt = sgdm_step(state, g)
    assert np.array_equal(nxt.m, g)
    assert np.array_equal(nxt.x, state.x - 0.2 * g)
    assert nxt.t == 2


def test_step_zero_gradient_zero_momentum_is_fixed_point():
    cfg = MomentumConfig(alpha=0.2, gamma=0.7)
    state = OptimizerState(x=np.array([1.0, -2.0]), m=np.zeros(2), t=5, config=cfg)
    nxt = sgdm_step(state, np.zeros(2))
    assert np.array_equal(nxt.x, state.x)
    assert np.array_equal(nxt.m, np.zeros(2))
    assert nxt.t == 6


def test_step_first_momentum_step_scales_gradient():
    cfg = MomentumConfig(alpha=0.1, gamma=0.9)
    x = np.array([0.0, 1.0, 2.0])
    g = np.array([1.0, -1.0, 4.0])
    nxt = sgdm_step(OptimizerState(x=x, m=np.zeros(3), t=1, config=cfg), g)
    assert np.allclose(nxt.m, 0.1 * g, atol=1e-16)
    assert np.allclose(nxt.x, x - 0.01 * g, atol=1e-16)


def test_step_is_pure():
    cfg = MomentumConfig(alpha=0.1, gamma=0.5)
    x = np.array([1.0, 2.0])
    m = np.array([0.3, -0.1])
    state = OptimizerState(x=x.copy(), m=m.copy(), t=3, config=cfg)
    sgdm_step(state, np.array([1.0, 1.0]))
    assert np.array_equal(state.x, x)
    assert np.array_equal(state.m, m)
    assert state.t == 3


def test_step_rejects_bad_gradient():
    cfg = MomentumConfig(alpha=0.1)
    state = OptimizerState(x=np.zeros(2), m=np.zeros(2), t=7, config=cfg)
    with pytest.raises(ValueError):
        sgdm_step(state, np.zeros(3))
    with pytest.raises(DivergedError) as err:
        sgdm_step(state, np.array([1.0, math.nan]))
    assert err.value.step == 7


# ---------------------------------------------------------------------------
# driver

def test_run_stays_at_minimizer_without_noise():
    p = constant_quadratic()
    cfg = MomentumConfig(alpha=0.01, gamma=0.5, batch_size=4)
    state, avg, traj = run(p, cfg, iters=50, seed=3, x_init=p.x_star)
    assert np.array_equal(state.x, p.x_star)
    assert traj.err_last.max() == 0.0
    assert np.linalg.norm(avg.mean - p.x_star) == 0.0


def test_noiseless_instance_has_zero_plug_in_sandwich():
    # at dim 2, x_star = (1, 2) makes every product exact, so each
    # per-sample gradient at x_star is zero bit for bit in any summation order
    p = constant_quadratic(dim=2)
    assert not p.per_sample_gradients(p.x_star).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 in the gradient Gram
        cov = plug_in_covariance(p, at=p.x_star)
    assert cov.sigma2 == 0.0
    assert not cov.omega.any() and not cov.sandwich.any()
    with pytest.raises(DegenerateDirectionError):
        z_statistic(p.x_star, p.x_star, np.array([1.0, 0.0]), cov, 100, 0, 10)


def test_run_is_deterministic():
    p = generate_quadratic(60, 4, 1.0, 10.0, 1)
    cfg = MomentumConfig(alpha=0.01, gamma=0.6, batch_size=8)
    s1, _, t1 = run(p, cfg, iters=120, seed=9, n0=20)
    s2, _, t2 = run(p, cfg, iters=120, seed=9, n0=20)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(t1.err_last, t2.err_last)
    assert np.array_equal(t1.err_avg[20:], t2.err_avg[20:])


def test_run_matches_inlined_reference_loop():
    p = generate_quadratic(60, 4, 1.0, 10.0, 1)
    cfg = MomentumConfig(alpha=0.01, gamma=0.6, batch_size=8)
    state, _, _ = run(p, cfg, iters=80, seed=5)
    rng = RngStream(5)
    ref = OptimizerState(x=np.zeros(4), m=np.zeros(4), t=1, config=cfg)
    for _ in range(80):
        idx = rng.batch_indices(p.n_samples, 8)
        ref = sgdm_step(ref, p.minibatch_gradient(ref.x, idx))
    assert np.array_equal(state.x, ref.x)
    assert np.array_equal(state.m, ref.m)


@pytest.mark.parametrize("gamma", [0.0, 0.6])
def test_run_matches_textbook_sgdm_loop(gamma):
    # independent of sgdm_step: the two-line recursion written out
    p = generate_quadratic(60, 4, 1.0, 10.0, 6)
    cfg = MomentumConfig(alpha=0.02, gamma=gamma, batch_size=8)
    state, _, _ = run(p, cfg, iters=60, seed=7)
    rng = RngStream(7)
    x, m = np.zeros(4), np.zeros(4)
    for _ in range(60):
        g = p.minibatch_gradient(x, rng.batch_indices(p.n_samples, 8))
        m = gamma * m + (1.0 - gamma) * g
        x = x - 0.02 * m
    assert np.array_equal(state.x, x)
    assert np.array_equal(state.m, m)


def test_run_records_all_early_steps_then_stride():
    p = generate_quadratic(40, 3, 1.0, 10.0, 8)
    cfg = MomentumConfig(alpha=0.005, gamma=0.3, batch_size=4)
    _, _, traj = run(p, cfg, iters=1500, seed=2, n0=500, record_stride=100)
    want = list(range(1, 1001)) + [1100, 1200, 1300, 1400, 1500]
    assert traj.steps.tolist() == want
    assert math.isnan(traj.err_avg[499])
    assert math.isfinite(traj.err_avg[500])


def test_run_divergence_raises_with_step():
    p = generate_quadratic(40, 3, 1.0, 10.0, 8)
    cfg = MomentumConfig(alpha=10.0, gamma=0.0, batch_size=4)
    with pytest.raises(DivergedError) as err:
        run(p, cfg, iters=500, seed=1, x_init=p.x_star + 1.0)
    assert isinstance(err.value.step, int)
    assert 1 <= err.value.step <= 500
    assert "blow-up" in str(err.value) or "non-finite" in str(err.value)


def test_run_custom_blowup_triggers_earlier():
    p = generate_quadratic(40, 3, 1.0, 10.0, 8)
    cfg = MomentumConfig(alpha=10.0, gamma=0.0, batch_size=4)
    with pytest.raises(DivergedError) as tight:
        run(p, cfg, iters=500, seed=1, x_init=p.x_star + 1.0, blowup=1e2)
    with pytest.raises(DivergedError) as loose:
        run(p, cfg, iters=500, seed=1, x_init=p.x_star + 1.0, blowup=1e9)
    assert tight.value.step <= loose.value.step


def test_run_validates_arguments():
    p = generate_quadratic(40, 3, 1.0, 10.0, 8)
    with pytest.raises(ValueError):
        run(p, MomentumConfig(alpha=0.01), iters=0, seed=1)
    with pytest.raises(ValueError):
        run(p, MomentumConfig(alpha=0.01), iters=10, seed=1, n0=10)
    with pytest.raises(ValueError, match="n0 must be >= 0"):
        run(p, MomentumConfig(alpha=0.01), iters=10, seed=1, n0=-5)
    with pytest.raises(ValueError, match="record_stride"):
        run(p, MomentumConfig(alpha=0.01), iters=10, seed=1, record_stride=0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        run(p, MomentumConfig(alpha=0.0), iters=10, seed=1)
    with pytest.raises(ValueError):
        run(p, MomentumConfig(alpha=0.01), iters=10, seed=1, x_init=np.zeros(2))


def test_run_non_finite_start_raises_at_first_step():
    p = generate_quadratic(40, 3, 1.0, 10.0, 8)
    cfg = MomentumConfig(alpha=0.01, gamma=0.5, batch_size=4)
    with pytest.raises(DivergedError) as err:
        run(p, cfg, iters=10, seed=1, x_init=np.full(3, math.nan))
    assert err.value.step == 1


def textbook_gradient(p, x, idx):
    """The mini-batch gradient: the quadratic batch mean through
    `minibatch_gradient`, the logistic one written out on the batch rows."""
    if p.family == "quadratic":
        return p.minibatch_gradient(x, idx)
    features, labels = p.features[idx], p.labels[idx]
    with np.errstate(over="ignore"):  # exp saturates, the sigmoid is 0
        prob = 1.0 / (1.0 + np.exp(-(features @ x)))
    return features.T @ (prob - labels) / len(idx) + p.nu * x


def textbook_cell(p, gamma, alpha, n0, iters, seed, batch, x0, blowup=1e12):
    """The two-line recursion written out, with its own running sum and
    error norms at every step; returns the divergence step or the final
    quantities."""
    rng = RngStream(seed)
    x, m, total, count = x0.copy(), np.zeros_like(x0), np.zeros_like(x0), 0
    err_last, err_avg = [], []
    for t in range(1, iters + 1):
        g = textbook_gradient(p, x, rng.batch_indices(p.n_samples, batch))
        m = gamma * m + (1.0 - gamma) * g
        x = x - alpha * m
        if t > n0:
            total += x
            count += 1
        err = float(np.linalg.norm(x - p.x_star))
        if not err <= blowup:
            return {"step": t}
        err_last.append(err)
        err_avg.append(float(np.linalg.norm(total / count - p.x_star)) if count else math.nan)
    return {"x": x, "m": m, "sum": total, "count": count,
            "err_last": err_last, "err_avg": err_avg}


def assert_cells_match_textbook(p, configs, n0s, iters, seed, x0, blowup=1e12):
    """run_cells against textbook_cell per configuration, bit for bit;
    returns the divergence steps."""
    batch = configs[0].batch_size
    results = run_cells(p, configs, iters=iters, seed=seed, n0s=n0s, x_init=x0, blowup=blowup)
    assert len(results) == len(configs)
    diverged = []
    for cfg, n0, got in zip(configs, n0s, results):
        want = textbook_cell(p, resolve_gamma(p, cfg), cfg.alpha, n0, iters, seed, batch, x0,
                             blowup)
        if "step" in want:
            assert isinstance(got, DivergedError)
            assert got.step == want["step"]
            with pytest.raises(DivergedError) as alone:
                run(p, cfg, iters=iters, seed=seed, n0=n0, x_init=x0, blowup=blowup)
            assert alone.value.step == got.step
            diverged.append(got.step)
            continue
        state, avg, traj = got
        assert state.t == iters + 1
        assert np.array_equal(state.x, want["x"])
        assert np.array_equal(state.m, want["m"])
        assert np.array_equal(avg.sum, want["sum"])
        assert avg.count == iters - n0
        assert traj.steps.tolist() == list(range(1, iters + 1))
        np.testing.assert_array_equal(traj.err_last, want["err_last"])
        np.testing.assert_array_equal(traj.err_avg, want["err_avg"])  # nan == nan here
    return diverged


def test_run_cells_matches_textbook_loops():
    p = generate_quadratic(60, 4, 1.0, 10.0, 6)
    x0 = p.x_star + np.array([1.0, -0.5, 0.3, 0.8])
    adaptive = MomentumConfig(alpha=0.02, gamma_mode=GammaMode.ADAPTIVE, batch_size=8)
    configs = [
        MomentumConfig(alpha=0.02, gamma=0.0, batch_size=8),
        MomentumConfig(alpha=0.02, gamma=0.6, batch_size=8),
        adaptive,
        MomentumConfig(alpha=10.0, gamma=0.0, batch_size=8),  # diverges
        MomentumConfig(alpha=0.01, gamma=0.3, batch_size=8),
    ]
    diverged = assert_cells_match_textbook(p, configs, [0, 10, 20, 0, 59], 60, 7, x0)
    assert len(diverged) == 1


def test_run_cells_matches_textbook_loops_across_index_blocks():
    # B = 8192 makes an index block 8 steps (optimizer._INDEX_BLOCK // B):
    # 21 steps are two full blocks and a partial one, against per-step draws
    batch = 8192
    assert optimizer._INDEX_BLOCK // batch == 8
    p = generate_quadratic(60, 4, 1.0, 10.0, 6)
    x0 = p.x_star + np.array([1.0, -0.5, 0.3, 0.8])
    configs = [
        MomentumConfig(alpha=0.02, gamma=0.6, batch_size=batch),
        MomentumConfig(alpha=0.02, gamma_mode=GammaMode.ADAPTIVE, batch_size=batch),
        MomentumConfig(alpha=0.8, gamma=0.0, batch_size=batch),  # diverges
        MomentumConfig(alpha=0.01, gamma=0.3, batch_size=batch),
    ]
    diverged = assert_cells_match_textbook(p, configs, [0, 5, 0, 17], 21, 7, x0)
    (step,) = diverged
    assert 9 < step < 16  # inside the second block (steps 9-16), not at its edges


def test_run_cells_matches_textbook_loops_across_gather_blocks():
    # B = 700 at d = 4 (10 + 4 packed doubles per sample) makes a gather
    # block 3 steps: cells diverge in the middle of the block of steps 7-9,
    # at its last step and at the first step of the next block, while the
    # others step on to a partial block
    batch = 700
    assert optimizer._GATHER_BLOCK // (batch * 14) == 3
    p = generate_quadratic(60, 4, 1.0, 10.0, 6)
    x0 = p.x_star + np.array([1.0, -0.5, 0.3, 0.8])
    configs = [
        MomentumConfig(alpha=0.02, gamma=0.6, batch_size=batch),
        MomentumConfig(alpha=2.3, gamma=0.0, batch_size=batch),  # diverges at 8
        MomentumConfig(alpha=1.6, gamma=0.0, batch_size=batch),  # diverges at 9
        MomentumConfig(alpha=1.2, gamma=0.0, batch_size=batch),  # diverges at 10
        MomentumConfig(alpha=0.02, gamma_mode=GammaMode.ADAPTIVE, batch_size=batch),
    ]
    diverged = assert_cells_match_textbook(p, configs, [0, 0, 0, 0, 3], 14, 7, x0)
    assert diverged == [8, 9, 10]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim, per_block, diverging, steps", [
    (1, 3, [(2.6e9, 0.0), (1.1e9, 0.0), (2e9, 0.5)], [2, 6, 7]),
    (3, 6, [(3e9, 0.5), (1.6e9, 0.0), (1.7e9, 0.5)], [5, 6, 7]),
])
def test_run_cells_matches_textbook_logistic_loops(monkeypatch, dim, per_block, diverging, steps):
    # the logistic engine against the sigmoid gradient written out: an
    # alpha of 1e5 saturates exp (the sigmoid reads 0 or 1) and survives the
    # blow-up radius 1e9, and three cells pass it inside a step block, at
    # its last step and at the next block's first step
    p = generate_logistic(60, dim, np.ones(dim) / math.sqrt(dim), nu=0.0, seed=3)
    x0 = p.x_star + 0.5
    configs = [
        MomentumConfig(alpha=0.5, gamma=0.6, batch_size=5),
        MomentumConfig(alpha=0.5, gamma_mode=GammaMode.ADAPTIVE, batch_size=5),
        MomentumConfig(alpha=1e5, gamma=0.0, batch_size=5),
    ] + [MomentumConfig(alpha=alpha, gamma=gamma, batch_size=5) for alpha, gamma in diverging]
    monkeypatch.setattr(optimizer, "_STEP_BLOCK", per_block * len(configs) * dim)
    diverged = assert_cells_match_textbook(p, configs, [0, 4, 10, 0, 0, 0], 24, 7, x0,
                                           blowup=1e9)
    assert diverged == steps


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("per_block", [None, 3])
def test_run_bookkeeping_across_step_blocks(monkeypatch, per_block):
    # run_cells norms, folds and records once per block of steps: stride 7
    # past step 1000 and n0 1200 fall inside blocks, at the default block
    # (1024 steps here) and at 3 steps
    if per_block is not None:
        monkeypatch.setattr(optimizer, "_STEP_BLOCK", per_block * 4)
    p = generate_quadratic(60, 4, 1.0, 10.0, 6)
    x0 = p.x_star + np.array([1.0, -0.5, 0.3, 0.8])
    cfg = MomentumConfig(alpha=0.02, gamma=0.6, batch_size=8)
    state, avg, traj = run(p, cfg, iters=2500, seed=7, n0=1200, record_stride=7, x_init=x0)
    want = textbook_cell(p, 0.6, 0.02, 1200, 2500, 7, 8, x0)
    steps = list(range(1, 1001)) + list(range(1001, 2500, 7)) + [2500]
    assert traj.steps.tolist() == steps
    at = np.array(steps) - 1
    assert np.isnan(traj.err_avg[traj.steps <= 1200]).all()
    assert not np.isnan(traj.err_avg[traj.steps > 1200]).any()
    np.testing.assert_array_equal(traj.err_last, np.array(want["err_last"])[at])
    np.testing.assert_array_equal(traj.err_avg, np.array(want["err_avg"])[at])
    assert avg.count == want["count"] == 1300
    assert np.array_equal(avg.sum, want["sum"])
    assert np.array_equal(state.x, want["x"]) and np.array_equal(state.m, want["m"])


def test_record_steps_need_no_iters_long_temporary():
    # a NaN start diverges in the first step block, so this run of two
    # million steps allocates its 2,999 record steps, one index draw (512 KB)
    # and one gather block (256 KB); building the steps from a mask over
    # every step would take 16 MB more
    p = generate_quadratic(40, 3, 1.0, 10.0, 8)
    cfg = MomentumConfig(alpha=0.01, batch_size=4)
    tracemalloc.start()
    try:
        with pytest.raises(DivergedError) as err:
            run(p, cfg, iters=2_000_000, seed=1, record_stride=1000, x_init=np.full(3, math.nan))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.step == 1
    assert peak < 4_000_000


@pytest.mark.filterwarnings("error")
def test_run_cells_all_cells_diverge(monkeypatch):
    # every row leaves the stack with its own step, in blocks of 5 steps;
    # a row that diverges first steps on to its block's end without a warning
    configs = [MomentumConfig(alpha=alpha, gamma=0.0, batch_size=8)
               for alpha in (10.0, 2.0, 1.2, 0.9, 0.2)]
    monkeypatch.setattr(optimizer, "_STEP_BLOCK", 5 * len(configs) * 4)
    p = generate_quadratic(60, 4, 1.0, 10.0, 6)
    x0 = p.x_star + np.array([1.0, -0.5, 0.3, 0.8])
    n0s = [0, 0, 5, 0, 30]
    results = run_cells(p, configs, iters=400, seed=7, n0s=n0s, x_init=x0)
    steps = []
    for cfg, n0, got in zip(configs, n0s, results):
        want = textbook_cell(p, 0.0, cfg.alpha, n0, 400, 7, 8, x0)
        assert isinstance(got, DivergedError)
        assert got.step == want["step"]
        steps.append(got.step)
    assert steps == [6, 9, 11, 12, 48]


def assert_stream_at(rng, seed, n_samples, used):
    """rng draws next what a fresh RngStream(seed) draws after skipping
    `used` indices."""
    fresh = RngStream(seed)
    fresh.batch_indices(n_samples, used)
    assert np.array_equal(rng.batch_indices(n_samples, 64), fresh.batch_indices(n_samples, 64))


def test_run_cells_leaves_the_stream_after_its_last_step_block(monkeypatch):
    # blocks of 5 steps: a finished call leaves the stream after iters*B
    # indices; once every cell has diverged (the last at step 48), at the
    # end of that step block, step 50
    configs = [MomentumConfig(alpha=alpha, gamma=0.0, batch_size=8)
               for alpha in (10.0, 2.0, 1.2, 0.9, 0.2)]
    monkeypatch.setattr(optimizer, "_STEP_BLOCK", 5 * len(configs) * 4)
    p = generate_quadratic(60, 4, 1.0, 10.0, 6)
    x0 = p.x_star + np.array([1.0, -0.5, 0.3, 0.8])
    rng = RngStream(7)
    run_cells(p, [MomentumConfig(alpha=0.02, gamma=0.6, batch_size=8)] * 5, iters=23,
              seed=rng, n0s=[0] * 5, x_init=x0)
    assert_stream_at(rng, 7, 60, 23 * 8)
    rng = RngStream(7)
    results = run_cells(p, configs, iters=400, seed=rng, n0s=[0, 0, 5, 0, 30], x_init=x0)
    assert max(err.step for err in results) == 48
    assert_stream_at(rng, 7, 60, 50 * 8)


def test_run_cells_returns_the_resolved_configs():
    # a returned config holds the gamma the cell ran with, as FIXED: passed
    # straight back in it reruns the cell, and the spectral layer takes it
    p = generate_quadratic(60, 4, 1.0, 10.0, 6)
    x0 = p.x_star + np.array([1.0, -0.5, 0.3, 0.8])
    adaptive = MomentumConfig(alpha=0.02, gamma_mode=GammaMode.ADAPTIVE, batch_size=8)
    ((state, avg, traj),) = run_cells(p, [adaptive], iters=30, seed=7, n0s=[5], x_init=x0)
    gamma = adaptive_gamma(p.mu, 0.02)
    assert state.config == MomentumConfig(alpha=0.02, gamma=gamma, batch_size=8)
    ((again, avg2, traj2),) = run_cells(p, [state.config], iters=30, seed=7, n0s=[5],
                                        x_init=x0)
    assert again.config == state.config
    assert np.array_equal(again.x, state.x) and np.array_equal(avg2.sum, avg.sum)
    np.testing.assert_array_equal(traj2.err_avg, traj.err_avg)
    rep = spectral_radius_closed_form(p.tuning_spectrum(), state.config)
    assert rep.lam == pytest.approx(math.sqrt(gamma))


def test_run_cells_validates_arguments():
    p = generate_quadratic(40, 3, 1.0, 10.0, 8)
    small = MomentumConfig(alpha=0.01, batch_size=4)
    large = MomentumConfig(alpha=0.01, batch_size=8)
    with pytest.raises(ValueError, match="batch size"):
        run_cells(p, [small, large], iters=10, seed=1, n0s=[0, 0])
    with pytest.raises(ValueError, match="n0s"):
        run_cells(p, [small, small], iters=10, seed=1, n0s=[0])
    with pytest.raises(ValueError, match="empty"):
        run_cells(p, [], iters=10, seed=1, n0s=[])


def test_resolve_gamma_adaptive_uses_problem_curvature():
    p = generate_quadratic(60, 4, 1.0, 10.0, 1)
    cfg = MomentumConfig(alpha=0.02, gamma_mode=GammaMode.ADAPTIVE)
    assert resolve_gamma(p, cfg) == adaptive_gamma(p.mu, 0.02)
    fixed = MomentumConfig(alpha=0.02, gamma=0.4)
    assert resolve_gamma(p, fixed) == 0.4


# ---------------------------------------------------------------------------
# dynamics match the spectral theory

def test_full_batch_rate_matches_closed_form_radius():
    p = generate_quadratic(60, 4, 0.0, 2.5, 11)  # isotropic Hessian 2.5 I
    cfg = MomentumConfig(alpha=0.1, gamma=0.2)
    rep = spectral_radius_closed_form(HessianSpectrum.from_extremes(2.5, 2.5), cfg)
    assert rep.branch == "real"
    state = OptimizerState(
        x=p.x_star + np.array([1.0, -0.5, 0.3, 0.8]), m=np.zeros(4), t=1, config=cfg
    )
    errs = []
    for _ in range(60):
        state = sgdm_step(state, p.full_gradient(state.x))
        errs.append(np.linalg.norm(state.x - p.x_star))
    rate = (errs[59] / errs[19]) ** (1.0 / 40.0)
    assert abs(rate - rep.lam) <= 1e-9


def test_full_batch_sgd_contracts_by_exact_factor_each_step():
    p = generate_quadratic(60, 4, 0.0, 2.5, 11)
    cfg = MomentumConfig(alpha=0.1, gamma=0.0)
    state = OptimizerState(
        x=p.x_star + np.array([1.0, -0.5, 0.3, 0.8]), m=np.zeros(4), t=1, config=cfg
    )
    prev = np.linalg.norm(state.x - p.x_star)
    for _ in range(20):
        state = sgdm_step(state, p.full_gradient(state.x))
        err = np.linalg.norm(state.x - p.x_star)
        assert abs(err / prev - 0.75) <= 1e-12  # |1 - alpha * curvature|
        prev = err


def test_adaptive_momentum_reaches_threshold_before_sgd():
    p = generate_quadratic(100, 6, 1.0, 10.0, 4)
    alpha = 0.005
    start = p.x_star + np.array([1.0, -0.5, 0.3, 0.8, -1.2, 0.4])
    e0 = np.linalg.norm(start - p.x_star)

    def steps_to_threshold(gamma):
        state = OptimizerState(
            x=start, m=np.zeros(6), t=1,
            config=MomentumConfig(alpha=alpha, gamma=gamma),
        )
        for t in range(1, 20001):
            state = sgdm_step(state, p.full_gradient(state.x))
            if np.linalg.norm(state.x - p.x_star) <= 1e-3 * e0:
                return t
        raise AssertionError("threshold never reached")

    assert steps_to_threshold(adaptive_gamma(p.mu, alpha)) < steps_to_threshold(0.0)


# ---------------------------------------------------------------------------
# averaging

def test_averaging_matches_arithmetic_mean():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((40, 5))
    avg = AveragingState(n0=15)
    for t, x in enumerate(xs, start=1):
        avg.fold(x, t)
    want = xs[15:].mean(axis=0)
    assert avg.count == 25
    assert np.allclose(avg.mean, want, atol=1e-12 * avg.count)


def test_averaging_before_burn_in_raises():
    avg = AveragingState(n0=10)
    avg.fold(np.ones(2), 5)
    assert avg.count == 0
    with pytest.raises(ValueError):
        avg.mean


# ---------------------------------------------------------------------------
# burn-in rule

def test_burn_in_examples():
    assert choose_burn_in(0.9, 4000) == 51
    assert choose_burn_in(0.99, 4000) == 642
    assert choose_burn_in(0.5, 1) == 1


def test_burn_in_least_integer_property():
    for lam in (0.3, 0.9, 0.99, 0.999):
        for batch in (1, 10, 4000):
            n = choose_burn_in(lam, batch)
            target = (1.0 - lam) / batch
            assert lam ** (2 * n) <= target
            if n > 1:
                assert lam ** (2 * (n - 1)) > target


def test_burn_in_validates_arguments():
    with pytest.raises(ValueError):
        choose_burn_in(1.0, 10)
    with pytest.raises(ValueError):
        choose_burn_in(0.0, 10)
    with pytest.raises(ValueError):
        choose_burn_in(0.5, 0)

