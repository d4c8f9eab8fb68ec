"""Distribution functions, plug-in sandwich covariance, studentized statistics,
confidence intervals and regions."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats

from sgdmlab import (
    CovarianceEstimate,
    DegenerateDirectionError,
    MomentumConfig,
    RngStream,
    chi_square_quantile,
    confidence_interval,
    confidence_region_statistic,
    generate_logistic,
    generate_quadratic,
    ks_normality,
    normal_cdf,
    normal_quantile,
    plug_in_covariance,
    run,
    z_statistic,
)
from sgdmlab.problems import QuadraticProblem


# ---------------------------------------------------------------------------
# distribution functions

def test_normal_quantile_examples():
    assert abs(normal_quantile(0.975) - 1.959963984540054) <= 1e-9
    assert abs(normal_quantile(0.5)) <= 1e-12
    assert abs(normal_quantile(0.025) + normal_quantile(0.975)) <= 1e-9


def test_chi_square_quantile_examples():
    assert abs(chi_square_quantile(1, 0.05) - 3.841458820694124) <= 1e-6
    assert abs(chi_square_quantile(2, 0.05) - 5.991464547107979) <= 1e-6
    assert abs(chi_square_quantile(10, 0.05) - 18.307038053275146) <= 1e-6


def test_normal_cdf_quantile_mutual_inverses():
    for x in np.linspace(-6.0, 6.0, 25):
        assert abs(normal_quantile(normal_cdf(float(x))) - x) <= 1e-8
    for p in (1e-6, 0.01, 0.3, 0.5, 0.9, 0.999999):
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12


def test_normal_cdf_array_equals_scalar_path():
    xs = np.concatenate([np.linspace(-40.0, 40.0, 1601), [-np.inf, np.inf, -0.0, 5e-324, np.nan],
                         RngStream(3).standard_normal(500)])
    want = np.array([0.5 * math.erfc(-float(x) / math.sqrt(2.0)) for x in xs])
    assert np.array_equal(normal_cdf(xs), want, equal_nan=True)
    assert np.array_equal(normal_cdf(xs[:1600].reshape(40, 40)), want[:1600].reshape(40, 40))
    assert normal_cdf(np.array(0.3)) == normal_cdf(0.3)


def test_normal_cdf_array_and_symmetry():
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    vals = normal_cdf(xs)
    assert vals.shape == xs.shape
    assert np.allclose(vals + normal_cdf(-xs), 1.0, atol=1e-15)
    assert normal_cdf(0.0) == 0.5


def test_quantiles_against_scipy():
    for p in (0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999):
        assert abs(normal_quantile(p) - scipy.stats.norm.ppf(p)) <= 1e-9
    for dof in (1, 2, 3, 5, 10, 30, 100):
        for tail in (0.01, 0.05, 0.5, 0.95):
            want = scipy.stats.chi2.ppf(1.0 - tail, dof)
            assert abs(chi_square_quantile(dof, tail) - want) <= 1e-6 * (1 + want)
    # far tails and large dof, relative to the inverse survival function
    for dof in (1, 2, 3, 5, 10, 30, 100, 1000):
        for tail in (1e-10, 0.01, 0.05, 0.5, 0.95, 1.0 - 1e-6):
            want = scipy.stats.chi2.isf(tail, dof)
            assert chi_square_quantile(dof, tail) == pytest.approx(want, rel=1e-8), (dof, tail)


def test_quantile_domain_errors():
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)
    with pytest.raises(ValueError):
        chi_square_quantile(0, 0.05)
    # the closed-form tail holds at integer dof only
    for dof in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            chi_square_quantile(dof, 0.05)
    with pytest.raises(ValueError):
        chi_square_quantile(3, 1.0)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov screen

def test_ks_passes_on_standard_normal_draws():
    for seed in (3, 4, 5):
        stat, ok = ks_normality(RngStream(seed).standard_normal(1000))
        assert ok
        assert stat < 1.358 / math.sqrt(1000)


def test_ks_rejects_shifted_and_degenerate_samples():
    stat, ok = ks_normality(RngStream(3).standard_normal(1000) + 0.5)
    assert not ok
    assert stat > 0.2
    stat, ok = ks_normality(np.zeros(500))
    assert not ok


def test_ks_matches_scipy_statistic():
    z = RngStream(6).standard_normal(400)
    stat, _ = ks_normality(z)
    want = scipy.stats.kstest(z, "norm").statistic
    assert abs(stat - want) <= 1e-12


def test_ks_requires_enough_samples():
    with pytest.raises(ValueError):
        ks_normality(np.zeros(99))


# ---------------------------------------------------------------------------
# sandwich covariance

def test_sandwich_is_symmetrized_product_of_inverses():
    p = generate_quadratic(120, 5, 1.0, 10.0, 4)
    cov = plug_in_covariance(p)
    si = np.linalg.inv(p.sigma_hat)
    want = si @ cov.omega @ si
    assert np.allclose(cov.sandwich, 0.5 * (want + want.T), atol=1e-14)
    # multiplying back recovers the identity when omega is invertible
    back = cov.sandwich @ p.sigma_hat @ np.linalg.inv(cov.omega) @ p.sigma_hat
    assert np.allclose(back, np.eye(5), atol=1e-8)


def test_plug_in_estimation_mode_matches_known_minimizer_mode():
    # the oracle is the estimate taken at x_star, bit for bit
    for p in (generate_quadratic(120, 5, 1.0, 10.0, 4),
              generate_logistic(120, 5, np.ones(5) / math.sqrt(5.0), nu=0.1, seed=4)):
        known = plug_in_covariance(p)
        est = plug_in_covariance(p, at=list(p.x_star))
        assert np.array_equal(est.sigma_matrix, known.sigma_matrix)
        assert np.array_equal(est.omega, known.omega)
        assert est.sigma2 == known.sigma2
        assert np.array_equal(est.sandwich, known.sandwich)


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_plug_in_away_from_minimizer_matches_per_sample_loop(family):
    rng = np.random.default_rng(5)
    if family == "quadratic":
        p = generate_quadratic(120, 5, 1.0, 10.0, 4)
    else:
        p = generate_logistic(120, 5, np.ones(5) / math.sqrt(5.0), nu=0.1, seed=4)
    x = p.x_star + 0.3 * rng.standard_normal(5)
    # the estimator written out one sample at a time
    grads, hess = [], np.zeros((5, 5))
    for i in range(p.n_samples):
        if family == "quadratic":
            grads.append(p.a_mats[i] @ x - p.b_vecs[i])
            hess += p.a_mats[i]
        else:
            a = p.features[i]
            s = 1.0 / (1.0 + math.exp(-(a @ x)))
            grads.append((s - p.labels[i]) * a + p.nu * x)
            hess += s * (1.0 - s) * np.outer(a, a) + p.nu * np.eye(5)
    grads = np.array(grads)
    sigma2 = float(np.mean(np.sum(grads * grads, axis=1)))
    omega = grads.T @ grads / (p.n_samples * sigma2)
    est = plug_in_covariance(p, at=x)
    assert abs(est.sigma2 - sigma2) <= 1e-12 * sigma2
    assert np.linalg.norm(est.omega - omega) <= 1e-12 * np.linalg.norm(omega)
    assert (np.linalg.norm(est.sigma_matrix - hess / p.n_samples)
            <= 1e-12 * np.linalg.norm(est.sigma_matrix))
    # away from the minimizer the estimate differs from the oracle's
    assert est.sigma2 > 1.01 * plug_in_covariance(p).sigma2


def test_inference_is_rotation_equivariant():
    p = generate_quadratic(80, 4, 1.0, 10.0, 9)
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rot = QuadraticProblem(
        a_mats=np.einsum("ij,njk,lk->nil", u, p.a_mats, u),
        b_vecs=p.b_vecs @ u.T,
        x_star=u @ p.x_star,
        sigma_hat=u @ p.sigma_hat @ u.T,
        mu=p.mu, ell=p.ell, seed=p.seed, rho=p.rho, diag_shift=p.diag_shift,
    )
    xbar = p.x_star + 0.01 * rng.standard_normal(4)
    w = rng.standard_normal(4)
    w /= np.linalg.norm(w)
    uw = u @ w
    uw /= np.linalg.norm(uw)
    cov = plug_in_covariance(p, at=xbar)
    cov_r = plug_in_covariance(rot, at=u @ xbar)
    z = z_statistic(xbar, p.x_star, w, cov, 400, 100, 50)
    z_r = z_statistic(u @ xbar, rot.x_star, uw, cov_r, 400, 100, 50)
    assert abs(z - z_r) <= 1e-10 * max(1.0, abs(z))
    r = confidence_region_statistic(xbar, p.x_star, cov, 400, 100, 50)
    r_r = confidence_region_statistic(u @ xbar, rot.x_star, cov_r, 400, 100, 50)
    assert abs(r - r_r) <= 1e-10 * max(1.0, r)


# ---------------------------------------------------------------------------
# studentized statistics

@pytest.fixture(scope="module")
def quad_and_cov():
    p = generate_quadratic(100, 3, 1.0, 10.0, 7)
    return p, plug_in_covariance(p)


def test_z_zero_at_minimizer(quad_and_cov):
    p, cov = quad_and_cov
    w = np.array([1.0, 0.0, 0.0])
    assert z_statistic(p.x_star, p.x_star, w, cov, 200, 50, 40) == 0.0


def test_z_scales_with_information(quad_and_cov):
    p, cov = quad_and_cov
    w = np.array([0.0, 1.0, 0.0])
    xbar = p.x_star + np.array([0.0, 0.02, 0.0])
    z1 = z_statistic(xbar, p.x_star, w, cov, 200, 50, 40)
    z2 = z_statistic(xbar, p.x_star, w, cov, 200, 50, 80)
    assert abs(z2 - math.sqrt(2.0) * z1) <= 1e-12 * abs(z1)


def test_interval_width_scales_inverse_sqrt(quad_and_cov):
    p, cov = quad_and_cov
    w = np.array([0.0, 0.0, 1.0])
    xbar = p.x_star + 0.05
    lo1, hi1 = confidence_interval(xbar, w, cov, 200, 100, 40)
    lo2, hi2 = confidence_interval(xbar, w, cov, 500, 100, 40)
    # quadrupling B (n - n0) halves the half-width
    assert abs((hi1 - lo1) - 2.0 * (hi2 - lo2)) <= 1e-12 * (hi1 - lo1)
    assert abs(0.5 * (lo1 + hi1) - float(w @ xbar)) <= 1e-15


def test_interval_and_z_agree_on_coverage(quad_and_cov):
    p, cov = quad_and_cov
    w = np.array([1.0, 0.0, 0.0])
    z975 = normal_quantile(0.975)
    rng = np.random.default_rng(5)
    for _ in range(50):
        xbar = p.x_star + 0.01 * rng.standard_normal(3)
        z = z_statistic(xbar, p.x_star, w, cov, 300, 100, 40)
        lo, hi = confidence_interval(xbar, w, cov, 300, 100, 40)
        covered = lo <= float(w @ p.x_star) <= hi
        assert covered == (abs(z) <= z975)


def test_region_statistic_zero_at_center(quad_and_cov):
    p, cov = quad_and_cov
    xbar = p.x_star + 0.02
    assert confidence_region_statistic(xbar, xbar, cov, 200, 50, 40) == 0.0


def test_region_statistic_equals_z_squared_in_1d():
    p = generate_quadratic(50, 1, 1.0, 10.0, 2)
    cov = plug_in_covariance(p)
    xbar = p.x_star + 0.003
    z = z_statistic(xbar, p.x_star, np.array([1.0]), cov, 300, 50, 20)
    r = confidence_region_statistic(xbar, p.x_star, cov, 300, 50, 20)
    assert abs(r - z * z) <= 1e-12 * max(1.0, r)


def test_monte_carlo_z_variance_matches_sandwich():
    # 500 independent averaged runs started at the minimizer: the studentized
    # projection should have unit variance up to Monte Carlo error
    p = generate_quadratic(100, 2, 1.0, 10.0, 3)
    cov = plug_in_covariance(p)
    cfg = MomentumConfig(alpha=0.01, gamma=0.0, batch_size=50)
    w = np.array([1.0, 0.0])
    n, n0, reps = 400, 100, 500
    zs = np.empty(reps)
    for r in range(reps):
        _, avg, _ = run(p, cfg, iters=n, seed=1000 + r, n0=n0,
                        record_stride=10**9, x_init=p.x_star)
        zs[r] = z_statistic(avg.mean, p.x_star, w, cov, n, n0, 50)
    assert abs(zs.mean()) <= 3.0 / math.sqrt(reps) + 0.05
    assert abs(zs.var() - 1.0) <= 3.0 * math.sqrt(2.0 / reps)


# ---------------------------------------------------------------------------
# failure modes

def test_degenerate_direction_raises():
    cov = CovarianceEstimate(
        sigma_matrix=np.eye(2), omega=np.diag([1.0, 0.0]), sigma2=1.0
    )
    with pytest.raises(DegenerateDirectionError):
        z_statistic(np.zeros(2), np.zeros(2), np.array([0.0, 1.0]), cov, 100, 0, 10)


def test_non_unit_direction_rejected(quad_and_cov):
    p, cov = quad_and_cov
    with pytest.raises(ValueError, match="unit vector"):
        z_statistic(p.x_star, p.x_star, np.array([1.0, 1.0, 0.0]), cov, 100, 0, 10)


def test_sample_budget_validation(quad_and_cov):
    p, cov = quad_and_cov
    w = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        z_statistic(p.x_star, p.x_star, w, cov, 100, 100, 10)
    with pytest.raises(ValueError):
        confidence_interval(p.x_star, w, cov, 50, 100, 10)
    with pytest.raises(ValueError):
        confidence_region_statistic(p.x_star, p.x_star, cov, 100, 200, 10)
    with pytest.raises(ValueError):
        confidence_interval(p.x_star, w, cov, 200, 100, 10, level=1.0)


def test_near_singular_omega_gets_ridge_and_warns():
    cov = CovarianceEstimate(
        sigma_matrix=np.eye(2), omega=np.diag([1.0, 1e-15]), sigma2=1.0
    )
    with pytest.warns(RuntimeWarning, match="ridge"):
        stat = confidence_region_statistic(
            np.array([0.01, 0.01]), np.zeros(2), cov, 200, 0, 10
        )
    assert math.isfinite(stat)
    assert stat > 0.0
