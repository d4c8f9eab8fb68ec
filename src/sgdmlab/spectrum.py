"""Linear convergence analysis of momentum SGD on quadratic objectives.

The update with momentum weight gamma and learning rate alpha contracts the
(momentum, error) pair by a fixed 2d x 2d matrix whose spectral radius is the
linear rate. This module builds that matrix, evaluates its radius in closed
form (no complex arithmetic), classifies the oscillatory phase, computes the
diagonalization constants (M, Delta) behind the power bound ||G^j|| <= M lam^j,
and recommends the rate-optimal (alpha, gamma).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "GammaMode",
    "HessianSpectrum",
    "MomentumConfig",
    "SpectralReport",
    "build_gamma_matrix",
    "numeric_spectral_radius",
    "spectral_radius_closed_form",
    "spectral_report_arrays",
    "optimal_hyperparameters",
    "adaptive_gamma",
    "verify_power_bound",
    "PowerBoundResult",
]


class GammaMode(Enum):
    FIXED = "fixed"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class HessianSpectrum:
    """Ordered positive curvatures kappa_1 <= ... <= kappa_d of a Hessian.

    mu and ell are the extreme values; strong convexity requires mu > 0.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float))
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(ev)) or ev[0] <= 0:
            raise ValueError("all eigenvalues must be finite and strictly positive")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def mu(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ell(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @classmethod
    def from_matrix(cls, hessian: np.ndarray) -> "HessianSpectrum":
        hessian = np.asarray(hessian, dtype=float)
        if hessian.ndim != 2 or hessian.shape[0] != hessian.shape[1]:
            raise ValueError("hessian must be square")
        if not np.allclose(hessian, hessian.T, atol=1e-10 * (1 + abs(hessian).max())):
            raise ValueError("hessian must be symmetric")
        return cls(np.linalg.eigvalsh(hessian))

    @classmethod
    def from_extremes(cls, mu: float, ell: float) -> "HessianSpectrum":
        return cls(np.array([mu, ell], dtype=float))


@dataclass(frozen=True)
class MomentumConfig:
    """Hyperparameters of one momentum-SGD run."""

    alpha: float
    gamma: float = 0.0
    batch_size: int = 1
    gamma_mode: GammaMode = GammaMode.FIXED

    def __post_init__(self):
        # alpha = 0 is allowed so the frozen iteration map itself can be
        # inspected; anything that actually steps requires alpha > 0
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be nonnegative and finite")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0,1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class SpectralReport:
    """Closed-form rate report for one (spectrum, config) pair.

    lam is the spectral radius of the iteration matrix; phi the contraction
    margin min{alpha*mu, 2(1+gamma)/(1-gamma) - alpha*ell}; branch tells
    whether the binding eigenvalues are real or a complex pair (then
    lam = sqrt(gamma) exactly); delta is the minimal distance of any block
    discriminant from zero and big_m the power-bound constant (infinite at
    the non-diagonalizable boundary delta = 0, NaN where delta overflows on
    a far-inadmissible step).
    """

    lam: float
    phi: float
    branch: str
    big_m: float
    delta: float
    admissible: bool
    gamma_threshold: float


def _fixed_gamma(config: MomentumConfig) -> float:
    """The config's gamma; an adaptive one has none until a problem's mu
    resolves it, so it is refused rather than read as its placeholder."""
    if config.gamma_mode is GammaMode.ADAPTIVE:
        raise ValueError("an adaptive config has no gamma of its own: resolve it with "
                         "optimizer.resolve_gamma(problem, config) and pass a FIXED config")
    return config.gamma


def build_gamma_matrix(spectrum_or_hessian, config: MomentumConfig) -> np.ndarray:
    """The 2d x 2d linear map of the (momentum, error) pair.

    With Hessian S the blocks are [[g I, (1-g) S], [-a g I, I - a (1-g) S]].
    Given only a spectrum, S = diag(kappa_1 ... kappa_d), which is the
    block-diagonalizable form with the same eigenvalues.
    """
    if isinstance(spectrum_or_hessian, HessianSpectrum):
        S = np.diag(spectrum_or_hessian.eigenvalues)
    else:
        S = np.asarray(spectrum_or_hessian, dtype=float)
        HessianSpectrum.from_matrix(S)  # validates symmetry and positive definiteness
    d = S.shape[0]
    a, g = config.alpha, _fixed_gamma(config)
    eye = np.eye(d)
    return np.block([[g * eye, (1 - g) * S], [-a * g * eye, eye - a * (1 - g) * S]])


def numeric_spectral_radius(spectrum_or_hessian, config: MomentumConfig) -> float:
    """Dense-eigensolver oracle: max |eig| of the full iteration matrix."""
    G = build_gamma_matrix(spectrum_or_hessian, config)
    return float(np.max(np.abs(np.linalg.eigvals(G))))


def spectral_report_arrays(spectrum: HessianSpectrum, alpha, gamma) -> dict:
    """Every SpectralReport field as an array, broadcast over alpha and gamma.

    The map is block-diagonal; block k has the roots of z^2 - s_k z + gamma,
    s_k = gamma + 1 - alpha(1-gamma) kappa_k, so its radius is sqrt(gamma)
    on a complex pair and (|s_k| + sqrt(s_k^2 - 4 gamma))/2 on a real one.
    The largest block radius is the spectral radius, exact for every
    (alpha, gamma), inadmissible included, with no complex arithmetic; it
    sits at an extreme kappa, where |s_k| peaks.
    """
    a, g = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(gamma, dtype=float))
    mu, ell = spectrum.mu, spectrum.ell
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        margin = 2.0 * (1.0 + g) / (1.0 - g)
        admissible = a * ell < margin
        phi = np.minimum(a * mu, margin - a * ell)
        # the real/complex phase threshold only exists on the contractive side
        gamma_threshold = np.where(phi > 0.0, ((1.0 - phi) / (1.0 + phi)) ** 2, np.nan)

        sqrt_g = np.sqrt(g)
        s = g[..., None] + 1.0 - (a * (1.0 - g))[..., None] * spectrum.eigenvalues
        disc = s * s - 4.0 * g[..., None]
        delta = np.abs(disc).min(axis=-1)
        big_m = np.where(delta > 0.0, (4.0 / np.sqrt(delta)) * (
            2.0 * (1.0 - g) * (1.0 + a * ell + ell) + 3.0 * a * g), np.inf)
        big_m = np.where(np.isfinite(delta), big_m, np.nan)
        blocks = np.where(disc > 0.0, 0.5 * (np.abs(s) + np.sqrt(disc)), sqrt_g[..., None])
        lam_exact = blocks.max(axis=-1)

        # branch by the threshold so the complex side returns sqrt(gamma)
        # exactly; the block form carries ~sqrt(eps) noise right at the
        # boundary. The guard absorbs one-ulp misses at the exact boundary
        # (the optimal point lands there); it is far below any Delta > 1e-6
        # separation. Only admissible steps have a threshold (phi > 0)
        on_threshold = g >= gamma_threshold - 1e-12 * (1.0 + gamma_threshold)
    # an inadmissible step is complex when every block is
    complex_branch = on_threshold | (~admissible & np.all(disc <= 0.0, axis=-1))
    return {
        "lam": np.where(on_threshold, sqrt_g, lam_exact),
        "phi": phi,
        "branch": np.where(complex_branch, "complex", "real"),
        "big_m": big_m,
        "delta": delta,
        "admissible": admissible,
        "gamma_threshold": gamma_threshold,
    }


def spectral_radius_closed_form(
    spectrum: HessianSpectrum, config: MomentumConfig
) -> SpectralReport:
    """Closed-form spectral radius, phase, and power-bound constants: the
    scalar case of spectral_report_arrays. Inadmissible steps
    (alpha*ell >= 2(1+gamma)/(1-gamma)) are not an error: their block
    radius (>= 1) comes with admissible=False, so sensitivity sweeps can
    chart divergence.
    """
    report = spectral_report_arrays(spectrum, config.alpha, _fixed_gamma(config))
    return SpectralReport(**{k: v.item() for k, v in report.items()})


def optimal_hyperparameters(spectrum: HessianSpectrum):
    """Rate-optimal (alpha*, gamma*, lam*) for extreme curvatures (mu, ell).

    alpha* = 1/sqrt(mu ell), gamma* = ((sqrt(ell)-sqrt(mu))/(sqrt(ell)+sqrt(mu)))^2,
    and the attained radius lam* = sqrt(gamma*).
    """
    mu, ell = spectrum.mu, spectrum.ell
    alpha = 1.0 / math.sqrt(mu * ell)
    lam = (math.sqrt(ell) - math.sqrt(mu)) / (math.sqrt(ell) + math.sqrt(mu))
    return alpha, lam * lam, lam


def adaptive_gamma(mu: float, alpha: float) -> float:
    """Momentum weight ((1 - mu alpha)/(1 + mu alpha))^2, clamped to 0 if
    mu alpha >= 1. This choice sits exactly on the real/complex phase
    threshold, so the resulting rate is sqrt(gamma)."""
    if mu <= 0 or alpha <= 0:
        raise ValueError("mu and alpha must be positive")
    p = mu * alpha
    if p >= 1.0:
        return 0.0
    r = (1.0 - p) / (1.0 + p)
    return r * r


# most doubles of matrix powers held for one batched norm call: 512 KB, the
# budget of optimizer._INDEX_BLOCK
_POWER_BLOCK = 1 << 16


@dataclass
class PowerBoundResult:
    ok: bool
    max_ratio: float
    steps_done: int
    partial: bool = False


def verify_power_bound(
    gamma_matrix: np.ndarray, big_m: float, lam: float, horizon: int
) -> PowerBoundResult:
    """Check ||G^j||_2 <= big_m * lam^j for j = 1..horizon.

    Returns the maximum observed ||G^j|| / (big_m lam^j). Stops early (with
    partial=True) before the first power that overflows, which can happen
    for lam near 1 and long horizons, or whose bound big_m lam^j falls below
    the smallest normal double, where the ratio would be inf or NaN. The
    powers are formed a block of at most _POWER_BLOCK doubles at a time,
    with one finiteness test and one batched SVD call per block; the ratios
    and their maximum are the per-power loop's, bit for bit. A block's
    products only note which of them set a floating-point flag; each noted
    one up to the stopping power is formed again under the caller's error
    state, so the warnings (or the FloatingPointError) are the loop's too.
    """
    if not math.isfinite(big_m):
        raise ValueError(f"big_m = {big_m} is not finite (delta = 0 boundary, or delta "
                         "overflowed on an inadmissible step); bound undefined")
    G = np.asarray(gamma_matrix, dtype=float)
    block = np.empty((max(1, min(horizon, _POWER_BLOCK // G.size)),) + G.shape)
    P = np.eye(G.shape[0])
    max_ratio = 0.0
    done, stopped = 0, False
    while done < horizon and not stopped:
        size = min(len(block), horizon - done)
        flagged = set()
        with np.errstate(all="call", call=lambda *_: flagged.add(i)):
            prev = P
            for i in range(size):
                prev = np.matmul(prev, G, out=block[i])
        finite = np.isfinite(block[:size]).all(axis=(1, 2)).tolist()
        filled = 0
        while filled < size and not stopped:
            # lam**j only for a finite power, as the ratio below takes it
            stopped = (not finite[filled]
                       or big_m * lam ** (done + filled + 1) < sys.float_info.min)
            filled += not stopped
        for i in sorted(flagged):
            if i <= filled:
                np.matmul(block[i - 1] if i else P, G)
        if filled:
            norms = np.linalg.norm(block[:filled], 2, axis=(1, 2))
            for j, nrm in enumerate(norms.tolist(), done + 1):
                max_ratio = max(max_ratio, nrm / (big_m * lam**j))
        done += filled
        # a copy: with one power per block, the next product would overwrite its input
        P = block[size - 1].copy()
    return PowerBoundResult(ok=max_ratio <= 1.0, max_ratio=max_ratio,
                            steps_done=done if stopped else horizon, partial=stopped)
