"""Synthetic problem generators: exact minimizers, gradient/Hessian oracles,
noise statistics, the full-batch logistic solver."""

import dataclasses
import math

import numpy as np
import pytest

from sgdmlab import MomentumConfig, RngStream, generate_logistic, generate_quadratic, optimizer, run
from sgdmlab.problems import (
    GenerationError,
    _logistic_gradient,
    _logistic_loss,
    _minimize_full_batch,
    _sigmoid,
)


def fd_gradient(f, x, step):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2 * step)
    return g


# ---------------------------------------------------------------------------
# quadratic family

def test_quadratic_condition_band_default_shift():
    ratios = []
    for seed in range(5):
        p = generate_quadratic(200, 10, rho=1.0, diag_shift=10.0, seed=seed)
        ratios.append(p.ell / p.mu)
    assert 3.0 <= np.mean(ratios) <= 5.5


def test_quadratic_condition_band_small_shift():
    ratios = []
    for seed in range(5):
        p = generate_quadratic(200, 10, rho=1.0, diag_shift=1.0, seed=seed)
        ratios.append(p.ell / p.mu)
    assert 20.0 <= np.mean(ratios) <= 45.0


def test_quadratic_isotropic_limit_is_exact():
    p = generate_quadratic(100, 6, rho=0.0, diag_shift=2.5, seed=11)
    assert np.array_equal(p.a_mats, np.broadcast_to(2.5 * np.eye(6), (100, 6, 6)))
    assert p.mu == 2.5 and p.ell == 2.5
    assert np.allclose(p.x_star, p.b_vecs.mean(axis=0) / 2.5, atol=1e-13)


def test_quadratic_minimizer_zeroes_full_gradient():
    p = generate_quadratic(300, 8, rho=1.0, diag_shift=10.0, seed=4)
    assert np.linalg.norm(p.full_gradient(p.x_star)) <= 1e-10


def test_quadratic_hessian_constant():
    p = generate_quadratic(50, 5, rho=1.0, diag_shift=10.0, seed=1)
    rng = np.random.default_rng(0)
    h0 = p.hessian_at(np.zeros(5))
    for _ in range(3):
        assert np.array_equal(p.hessian_at(rng.standard_normal(5)), h0)
    assert np.array_equal(h0, p.a_mats.mean(axis=0))


def test_quadratic_spectra_views():
    p = generate_quadratic(200, 6, rho=1.0, diag_shift=10.0, seed=9)
    hs = p.hessian_spectrum()
    ev = np.linalg.eigvalsh(p.sigma_hat)
    assert abs(hs.mu - ev[0]) <= 1e-12 and abs(hs.ell - ev[-1]) <= 1e-12
    ts = p.tuning_spectrum()
    assert ts.mu == p.mu and ts.ell == p.ell
    # averaged per-sample extremes bracket the mean-Hessian extremes
    assert ts.mu <= hs.mu + 1e-12
    assert ts.ell >= hs.ell - 1e-12


# ---------------------------------------------------------------------------
# logistic family

def test_logistic_minimizer_gradient_norm():
    d = 8
    p = generate_logistic(500, d, np.ones(d) / math.sqrt(d), nu=0.1, seed=3)
    assert np.linalg.norm(p.full_gradient(p.x_star)) <= 1e-10


def test_logistic_unregularized_minimizer_gradient_norm():
    d = 5
    p = generate_logistic(800, d, np.ones(d) / math.sqrt(d), nu=0.0, seed=7)
    assert np.linalg.norm(p.full_gradient(p.x_star)) <= 1e-10


def test_zero_features_minimize_at_origin():
    x, iters = _minimize_full_batch(np.zeros((50, 4)), np.zeros(50), nu=0.5)
    assert np.linalg.norm(x) == 0.0
    assert iters == 0


def test_logistic_hessian_saturates_to_ridge():
    d = 4
    nu = 0.3
    p = generate_logistic(200, d, np.ones(d) / 2.0, nu=nu, seed=5)
    far = 1e8 * np.ones(d) / 2.0  # every margin saturates, weights underflow
    with np.errstate(over="ignore"):
        h = p.hessian_at(far)
    assert np.allclose(h, nu * np.eye(d), atol=1e-12)


def test_logistic_hessian_lipschitz_bound():
    d = 8
    p = generate_logistic(500, d, np.ones(d) / math.sqrt(d), nu=0.1, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = p.x_star + 0.5 * rng.standard_normal(d)
        gap = np.linalg.norm(p.hessian_at(x) - p.sigma_at_star, 2)
        assert gap <= p.lbar * np.linalg.norm(x - p.x_star)


def test_logistic_gradient_lipschitz_bound():
    d = 6
    p = generate_logistic(400, d, np.ones(d) / math.sqrt(d), nu=0.2, seed=8)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(d)
        assert np.linalg.norm(p.hessian_at(x), 2) <= p.lf


def test_logistic_smoothness_constants_formulas():
    d = 3
    p = generate_logistic(150, d, np.zeros(d), nu=0.25, seed=2)
    norms = np.linalg.norm(p.features, axis=1)
    assert abs(p.lbar - (math.sqrt(3) / 6 * np.mean(norms**3) + 0.25)) <= 1e-12
    assert abs(p.lf - (np.mean(norms**2) + 0.25)) <= 1e-12


# ---------------------------------------------------------------------------
# gradient oracles

@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_per_sample_gradient_matches_finite_differences(family):
    if family == "quadratic":
        p = generate_quadratic(40, 5, rho=1.0, diag_shift=10.0, seed=6)
    else:
        p = generate_logistic(40, 5, np.ones(5) / math.sqrt(5), nu=0.1, seed=6)
    rng = np.random.default_rng(2)
    for i in (0, 17, 39):
        x = rng.standard_normal(5)
        step = 1e-6 * (1.0 + np.linalg.norm(x))
        got = p.per_sample_gradients(x)[i]
        want = fd_gradient(lambda y: p.per_sample_loss(y, i), x, step)
        assert np.linalg.norm(got - want) <= 1e-6 * (1.0 + np.linalg.norm(want))


def test_logistic_hessian_matches_finite_differences():
    d = 4
    p = generate_logistic(60, d, np.ones(d) / 2.0, nu=0.1, seed=10)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    step = 1e-6
    want = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        want[:, j] = (p.full_gradient(x + e) - p.full_gradient(x - e)) / (2 * step)
    assert np.linalg.norm(p.hessian_at(x) - want, 2) <= 1e-5


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_full_batch_equals_full_gradient(family):
    if family == "quadratic":
        p = generate_quadratic(30, 4, rho=1.0, diag_shift=10.0, seed=13)
    else:
        p = generate_logistic(30, 4, np.ones(4) / 2.0, nu=0.1, seed=13)
    x = np.array([0.1, -0.7, 0.4, 0.2])
    got = p.minibatch_gradient(x, np.arange(30))
    assert np.allclose(got, p.full_gradient(x), atol=1e-12)


@pytest.mark.parametrize("batch", [1, 7, 100, 128, 129, 800])
def test_gather_equals_fancy_index_and_mean(batch):
    # run_cells steps on gather's result; it must be the plain definition,
    # bit for bit, on batches with and without repeated indices
    quad = generate_quadratic(400, 10, rho=1.0, diag_shift=10.0, seed=4)
    logit = generate_logistic(400, 5, np.ones(5) / math.sqrt(5), nu=0.1, seed=4)
    stream = RngStream(4, 1)
    for _ in range(20):
        idx = stream.batch_indices(400, batch)
        a_mean, b_mean = quad.gather(idx)
        assert np.array_equal(a_mean, quad.a_mats[idx].mean(axis=0))
        assert np.array_equal(b_mean, quad.b_vecs[idx].mean(axis=0))
        features, labels = logit.gather(idx)
        assert np.array_equal(features, logit.features[idx])
        assert np.array_equal(labels, logit.labels[idx])
    for p in (quad, logit):
        with pytest.raises(IndexError):
            p.gather(np.array([0, 400]))


@pytest.mark.parametrize("dim", [1, 2, 3, 10])
@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_gather_block_equals_per_step_gathers(family, dim):
    # run_cells gathers C steps' batches at once: step c's slice of the
    # block must be that batch's own gather and the plain definition, bit
    # for bit, and the quadratic mean Hessian must be C-contiguous (the
    # matvec's last bits depend on the layout)
    if family == "quadratic":
        p = generate_quadratic(400, dim, rho=1.0, diag_shift=10.0, seed=5)
        arrays = (p.a_mats, p.b_vecs)
    else:
        p = generate_logistic(400, dim, np.ones(dim) / math.sqrt(dim), nu=0.1, seed=5)
        arrays = (p.features, p.labels)
    stream = RngStream(5, 1)
    for batch in (1, 7, 100, 800):
        for steps in (1, 3, 5):
            block = stream.batch_indices(400, steps * batch).reshape(steps, batch)
            got = p.gather(block)
            for c, indices in enumerate(block):
                alone = p.gather(indices)
                for part, one, full in zip(got, alone, arrays):
                    want = full[indices].mean(axis=0) if family == "quadratic" else full[indices]
                    assert np.array_equal(part[c], one)
                    assert np.array_equal(part[c], want)
                if family == "quadratic":
                    assert alone[0].flags.c_contiguous
            if family == "quadratic":
                assert got[0].shape == (steps, dim, dim) and got[0].flags.c_contiguous


def test_generated_hessians_are_bitwise_symmetric():
    # the quadratic gather sums upper triangles only, which needs A_i == A_i'
    for dim in (1, 2, 3, 5, 10):
        for seed in (0, 1, 2, 3):
            for rho in (0.3, 1.0):
                p = generate_quadratic(20, dim, rho=rho, diag_shift=10.0, seed=seed)
                assert np.array_equal(p.a_mats, p.a_mats.transpose(0, 2, 1))


@pytest.mark.parametrize("dim", [1, 2, 10, 33])
@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_stacked_batch_gradient_and_norms_equal_per_row(family, dim):
    # run_cells takes one batch_gradient over its (K, d) iterate stack and
    # one stacked row dot for the error norms: numpy must make the same
    # gemv and dot call per row as for a 1-D x, bit for bit
    if family == "quadratic":
        p = generate_quadratic(100, dim, rho=1.0, diag_shift=10.0, seed=6)
    else:
        p = generate_logistic(100, dim, np.ones(dim) / math.sqrt(dim), nu=0.1, seed=6)
    stream = RngStream(6, 1)
    for batch in (1, 7, 800):
        data = p.gather(stream.batch_indices(100, batch))
        # the 1-D expressions, as written before the engine stacked cells
        if family == "quadratic":
            plain = lambda x: data[0] @ x - data[1]  # noqa: E731
        else:
            plain = lambda x: (data[0].T @ (_sigmoid(data[0] @ x) - data[1])  # noqa: E731
                               / batch + p.nu * x)
        for cells in (1, 3, 5):
            xs = p.x_star + stream.standard_normal((cells, dim))
            got = p.batch_gradient(data, xs)
            assert got.shape == (cells, dim)
            assert np.array_equal(got, [p.batch_gradient(data, x) for x in xs])
            assert np.array_equal(got, [plain(x) for x in xs])
            norms = optimizer._row_norms(got)
            assert norms.tolist() == [math.sqrt(g.dot(g)) for g in got]
            assert optimizer._row_norms(got[None]).tolist() == [norms.tolist()]


def test_gather_refuses_asymmetric_hessians():
    p = generate_quadratic(30, 3, rho=1.0, diag_shift=10.0, seed=2)
    a_mats = p.a_mats.copy()
    a_mats[4, 0, 2] = np.nextafter(a_mats[4, 0, 2], np.inf)
    bad = dataclasses.replace(p, a_mats=a_mats)
    with pytest.raises(ValueError, match="symmetric"):
        bad.gather(np.arange(3))
    with pytest.raises(ValueError, match="symmetric"):
        run(bad, MomentumConfig(alpha=0.01, batch_size=4), iters=5, seed=1)


# ---------------------------------------------------------------------------
# noise statistics

@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_gradient_gram_statistics(family):
    if family == "quadratic":
        p = generate_quadratic(120, 6, rho=1.0, diag_shift=10.0, seed=21)
    else:
        p = generate_logistic(120, 6, np.ones(6) / math.sqrt(6), nu=0.1, seed=21)
    assert np.allclose(p.omega, p.omega.T, atol=1e-14)
    assert np.linalg.eigvalsh(p.omega)[0] >= -1e-12
    assert abs(np.trace(p.omega) - 1.0) <= 1e-12
    if family == "quadratic":
        grads = [p.a_mats[i] @ p.x_star - p.b_vecs[i] for i in range(p.n_samples)]
    else:
        grads = [(_sigmoid(a @ p.x_star) - b) * a + p.nu * p.x_star
                 for a, b in zip(p.features, p.labels)]
    mean_sq = np.mean([g @ g for g in grads])
    assert abs(p.sigma2 - mean_sq) <= 1e-12 * max(1.0, mean_sq)


# ---------------------------------------------------------------------------
# determinism

def test_same_seed_regenerates_identically():
    a = generate_quadratic(25, 4, rho=1.0, diag_shift=10.0, seed=77)
    b = generate_quadratic(25, 4, rho=1.0, diag_shift=10.0, seed=77)
    assert np.array_equal(a.a_mats, b.a_mats)
    assert np.array_equal(a.b_vecs, b.b_vecs)
    assert np.array_equal(a.x_star, b.x_star)
    la = generate_logistic(25, 4, np.ones(4) / 2.0, nu=0.1, seed=77)
    lb = generate_logistic(25, 4, np.ones(4) / 2.0, nu=0.1, seed=77)
    assert np.array_equal(la.features, lb.features)
    assert np.array_equal(la.labels, lb.labels)
    assert np.array_equal(la.x_star, lb.x_star)


def test_stream_seed_equivalent_to_int_seed():
    a = generate_quadratic(15, 3, rho=1.0, diag_shift=10.0, seed=5)
    b = generate_quadratic(15, 3, rho=1.0, diag_shift=10.0, seed=RngStream(5))
    assert np.array_equal(a.a_mats, b.a_mats)
    assert a.seed == b.seed == 5


# ---------------------------------------------------------------------------
# validation

def test_generation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_quadratic(2, 3, rho=1.0, diag_shift=10.0, seed=0)  # n < dim
    for rho, shift in [(1.0, 0.0), (1.0, math.nan), (-5.0, 10.0), (math.nan, 10.0)]:
        with pytest.raises(ValueError):
            generate_quadratic(10, 3, rho=rho, diag_shift=shift, seed=0)
    with pytest.raises(ValueError):
        generate_logistic(10, 3, np.ones(4), nu=0.1, seed=0)  # shape mismatch
    for nu in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            generate_logistic(10, 3, np.ones(3), nu=nu, seed=0)


def test_minimize_full_batch_reports_failure():
    # perfectly separable single direction with no ridge: the minimum is at
    # infinity, so the solver must give up loudly rather than return junk
    features = np.ones((40, 1))
    labels = np.ones(40)
    with pytest.raises(GenerationError):
        _minimize_full_batch(features, labels, nu=0.0, max_iters=200)


def descent_reference(features, labels, nu, tol=1e-10, max_iters=100_000):
    """The backtracking descent the solver ran before its fixed step: try
    step 1, halve it until an Armijo test with a small slack passes; also
    returns how many halvings it made."""
    x = np.zeros(features.shape[1])
    halvings = 0
    for it in range(max_iters):
        g = _logistic_gradient(features, labels, nu, x)
        gn2 = float(g @ g)
        if math.sqrt(gn2) <= tol:
            return x, it, halvings
        f0 = _logistic_loss(features, labels, nu, x)
        step = 1.0
        slack = 8e-16 * max(1.0, abs(f0))
        while (step > 1e-12 and _logistic_loss(features, labels, nu, x - step * g)
               > f0 - 0.5 * step * gn2 + slack):
            step *= 0.5
            halvings += 1
        x = x - step * g
    raise AssertionError("reference descent did not converge")


def curvature_bound(features, nu):
    """nu + lambda_max(F'F) / (4n), the largest curvature of the mean loss."""
    return nu + np.linalg.eigvalsh(features.T @ features)[-1] / (4 * features.shape[0])


def solver_data(n, d, scale, seed):
    stream = RngStream(seed)
    features = scale * stream.standard_normal((n, d))
    labels = stream.bernoulli(_sigmoid(features @ np.ones(d) / (math.sqrt(d) * scale)))
    return features, labels


def test_minimize_full_batch_matches_reference_loop():
    # where L <= 1 the fixed step is 1, the step the reference always took
    for n, d, nu, seed in [(500, 8, 0.1, 3), (800, 5, 0.0, 7)]:
        features, labels = solver_data(n, d, 1.0, seed)
        assert curvature_bound(features, nu) <= 1.0
        x_ref, it_ref, halvings = descent_reference(features, labels, nu)
        assert halvings == 0
        x, it = _minimize_full_batch(features, labels, nu)
        assert np.array_equal(x, x_ref) and it == it_ref
    # where step 1 exceeds 2/L: scaled features (L about 3), and a ridge on
    # which the backtracking solver oscillated until its iteration cap
    ridge = generate_logistic(200, 4, np.ones(4) / 2.0, nu=2.0, seed=1)
    for features, labels, nu in [(*solver_data(200, 4, 3.0, 11), 0.1),
                                 (ridge.features, ridge.labels, ridge.nu)]:
        assert curvature_bound(features, nu) > 2.0
        x, _ = _minimize_full_batch(features, labels, nu)
        assert np.linalg.norm(_logistic_gradient(features, labels, nu, x)) <= 1e-10
