"""Plug-in asymptotic inference for averaged iterates.

The averaged estimate satisfies a central limit theorem with sandwich
covariance Sigma^{-1} Omega Sigma^{-1}, where Sigma is the Hessian at the
minimizer and Omega the normalized Gram matrix of per-sample gradients
there. This module builds that plug-in covariance, forms studentized
statistics, one-dimensional confidence intervals and the chi-square
confidence-region statistic, and provides the normal/chi-square quantile
and Kolmogorov-Smirnov machinery itself or from the standard library, so
the library needs no external statistical dependency.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemInstance

__all__ = [
    "CovarianceEstimate",
    "DegenerateDirectionError",
    "plug_in_covariance",
    "z_statistic",
    "confidence_interval",
    "confidence_region_statistic",
    "normal_cdf",
    "normal_quantile",
    "chi_square_quantile",
    "ks_normality",
]


# ---------------------------------------------------------------------------
# distribution helpers

_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function; an array
    gets math.erfc element by element, the scalar path's values."""
    if np.isscalar(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, by the standard library's NormalDist
    (absolute error below 3e-15 for p in [1e-12, 1 - 1e-12])."""
    # NormalDist refuses p outside (0, 1) but passes nan through
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    return statistics.NormalDist().inv_cdf(p)


def _chi_square_tail(dof: int, x: float) -> float:
    """P(chi2_dof > x) for x > 0 in closed form at integer dof. With h = x/2
    it is the Poisson sum exp(-h) sum h^j / j! over j = 0, 1, ... < dof/2
    for even dof, and erfc(sqrt(h)) plus the same sum over j = 1/2, 3/2,
    ... < dof/2 for odd dof. Each term is exp(j log h - h - lgamma(j+1)),
    which is at most 1, so none overflows."""
    h = 0.5 * x
    log_h = math.log(h)
    j = 0.5 * (dof % 2)
    total = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    while j < 0.5 * dof:
        total += math.exp(j * log_h - h - math.lgamma(j + 1.0))
        j += 1.0
    return total


def chi_square_quantile(dof: int, upper_tail: float) -> float:
    """x with P(chi2_dof > x) = upper_tail: the smallest double the closed-form
    tail puts at or below upper_tail, found by bisection down to adjacent
    doubles."""
    if not dof >= 1 or dof % 1:
        raise ValueError("dof must be an integer >= 1")
    if not (0.0 < upper_tail < 1.0):
        raise ValueError("upper_tail must lie in (0, 1)")
    dof = int(dof)
    lo, hi = 0.0, float(dof)
    while _chi_square_tail(dof, hi) > upper_tail:
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _chi_square_tail(dof, mid) > upper_tail:
            lo = mid
        else:
            hi = mid
    return hi


def ks_normality(samples) -> tuple[float, bool]:
    """One-sample Kolmogorov-Smirnov distance to N(0,1) and the 5% verdict
    (pass iff statistic < 1.358/sqrt(n), the asymptotic critical value)."""
    z = np.sort(np.asarray(samples, dtype=float))
    n = z.size
    if n < 100:
        raise ValueError("need at least 100 samples")
    cdf = normal_cdf(z)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    stat = float(max(d_plus, d_minus))
    return stat, stat < 1.358 / math.sqrt(n)


# ---------------------------------------------------------------------------
# plug-in covariance and studentized statistics

class DegenerateDirectionError(ValueError):
    pass


@dataclass
class CovarianceEstimate:
    """Hessian Sigma, normalized gradient Gram Omega, noise scale sigma2, and
    the sandwich Sigma^{-1} Omega Sigma^{-1}."""

    sigma_matrix: np.ndarray
    omega: np.ndarray
    sigma2: float
    sandwich: np.ndarray = field(init=False)

    def __post_init__(self):
        si = np.linalg.inv(self.sigma_matrix)
        sw = si @ self.omega @ si
        self.sandwich = 0.5 * (sw + sw.T)


def gradient_gram(grads: np.ndarray) -> tuple[float, np.ndarray]:
    """(sigma2, omega) of an (N, d) per-sample gradient array: the mean
    squared gradient norm and the gradient Gram normalized by N*sigma2.
    Where every gradient is zero, so is omega."""
    sigma2 = float(np.mean(np.sum(grads * grads, axis=1)))
    if sigma2 == 0.0:
        return sigma2, np.zeros((grads.shape[1], grads.shape[1]))
    return sigma2, grads.T @ grads / (grads.shape[0] * sigma2)


def plug_in_covariance(problem: ProblemInstance, at: np.ndarray | None = None) -> CovarianceEstimate:
    """The Hessian and the gradient Gram of `problem`'s per-sample gradients
    at one point: the known minimizer by default, the simulation protocol's
    oracle, or `at` (e.g. the averaged iterate) when it is unknown."""
    at = problem.x_star if at is None else np.asarray(at, dtype=float)
    sigma2, omega = gradient_gram(problem.per_sample_gradients(at))
    return CovarianceEstimate(sigma_matrix=problem.hessian_at(at), omega=omega, sigma2=sigma2)


def _direction_scale(omega_vec: np.ndarray, cov: CovarianceEstimate) -> float:
    omega_vec = np.asarray(omega_vec, dtype=float)
    if abs(np.linalg.norm(omega_vec) - 1.0) > 1e-12:
        raise ValueError("omega_vec must be a unit vector")
    q = float(omega_vec @ cov.sandwich @ omega_vec)
    if q <= 0.0:
        raise DegenerateDirectionError("sandwich quadratic form is not positive")
    return q


def z_statistic(xbar, x_star, omega_vec, cov: CovarianceEstimate,
                n: int, n0: int, B: int) -> float:
    """Studentized projection sqrt(B (n-n0)) w'(xbar - x*) / (sigma sqrt(w'Sw));
    asymptotically standard normal under the averaged CLT."""
    if n <= n0:
        raise ValueError("need n > n0")
    q = _direction_scale(omega_vec, cov)
    omega_vec = np.asarray(omega_vec, dtype=float)
    dev = float(omega_vec @ (np.asarray(xbar) - np.asarray(x_star)))
    return math.sqrt(B * (n - n0)) * dev / (math.sqrt(cov.sigma2) * math.sqrt(q))


def confidence_interval(xbar, omega_vec, cov: CovarianceEstimate,
                        n: int, n0: int, B: int, level: float = 0.95) -> tuple[float, float]:
    """Symmetric interval for w'x*: center w'xbar, half-width
    z_{(1-level)/2} sigma sqrt(w'Sw) / sqrt(B (n-n0))."""
    if n <= n0:
        raise ValueError("need n > n0")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    q = _direction_scale(omega_vec, cov)
    z = normal_quantile(1.0 - (1.0 - level) / 2.0)
    omega_vec = np.asarray(omega_vec, dtype=float)
    center = float(omega_vec @ np.asarray(xbar))
    half = z * math.sqrt(cov.sigma2) * math.sqrt(q) / math.sqrt(B * (n - n0))
    return center - half, center + half


def confidence_region_statistic(xbar, x_candidate, cov: CovarianceEstimate,
                                n: int, n0: int, B: int) -> float:
    """Ellipsoidal statistic B (n-n0) / sigma2 * d' Sigma Omega^{-1} Sigma d
    with d = xbar - x_candidate; compare against the chi-square upper
    quantile with d degrees of freedom. A near-singular Omega gets a ridge
    of 1e-10 trace/d (with a warning) before inversion; the one-dimensional
    statistics never invert Omega."""
    if n <= n0:
        raise ValueError("need n > n0")
    omega = cov.omega
    d = omega.shape[0]
    cond = np.linalg.cond(omega)
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn(
            "omega is near-singular; adding ridge 1e-10 trace/d before inversion",
            RuntimeWarning, stacklevel=2,
        )
        omega = omega + (1e-10 * np.trace(omega) / d) * np.eye(d)
    dev = np.asarray(xbar, dtype=float) - np.asarray(x_candidate, dtype=float)
    sd = cov.sigma_matrix @ dev
    try:
        w = np.linalg.solve(omega, sd)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "omega is singular even after ridge; supply a ridge-regularized omega"
        ) from exc
    return float(B * (n - n0) / cov.sigma2 * (sd @ w))
