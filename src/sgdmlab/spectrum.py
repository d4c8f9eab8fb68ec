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
    "verify_power_bounds",
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


# most doubles of matrix powers held at once, over the whole stack of maps:
# 128 KB, so power-bound's 200 4 x 4 maps take 5 powers a block. At 65,536
# doubles (20 powers a block) theory-map ran about 5% faster but peaked
# 0.6 MB higher (2-core Xeon, numpy 2.4.6)
_POWER_BLOCK = 1 << 14


@dataclass
class PowerBoundResult:
    ok: bool
    max_ratio: float
    steps_done: int
    partial: bool = False


def verify_power_bounds(gamma_matrices, big_ms, lams, horizon: int) -> list:
    """Check ||G^j||_2 <= big_m * lam^j for j = 1..horizon, for each map.

    The maps share one size and form one stack: each power of every map is
    one stacked product, and each block of at most _POWER_BLOCK doubles of
    powers has one finiteness test and one batched SVD call. A map stops on
    its own (with partial=True) before its first power that overflows,
    which can happen for lam near 1 and long horizons, or whose bound
    big_m lam^j falls below the smallest normal double, where the ratio
    would be inf or NaN; it leaves the stack at the end of that block. Each
    map's ratios are folded in order, so its result is the per-power loop's
    on that map alone, bit for bit. A block's products only note which of
    them set a floating-point flag; each noted one up to a map's stopping
    power is formed again for that map under the caller's error state,
    earliest power first and at one power maps in order. So a single map
    warns (or raises) as the loop does, and under an error state that
    raises, a stack raises the error of its earliest flagged power that a
    map keeps (of the first such map at a tie), not that of the first map
    that raises when each is checked alone.
    """
    maps = [np.asarray(g, dtype=float) for g in gamma_matrices]
    if not len(maps) == len(big_ms) == len(lams):
        raise ValueError("gamma_matrices, big_ms and lams need one length")
    if len({g.shape for g in maps}) > 1:
        raise ValueError("the maps must share one size")
    for big_m in big_ms:
        if not math.isfinite(big_m):
            raise ValueError(f"big_m = {big_m} is not finite (delta = 0 boundary, or delta "
                             "overflowed on an inadmissible step); bound undefined")
    if not maps:
        return []
    G = np.stack(maps)
    buf = np.empty((max(1, min(horizon, _POWER_BLOCK // G.size)),) + G.shape)
    P = np.broadcast_to(np.eye(G.shape[-1]), G.shape)
    live = list(range(len(maps)))
    results = [PowerBoundResult(ok=True, max_ratio=0.0, steps_done=horizon) for _ in maps]
    done = 0
    while done < horizon and live:
        size = min(len(buf), horizon - done)
        block = buf[:size, :len(live)]
        flagged = set()
        with np.errstate(all="call", call=lambda *_: flagged.add(i)):
            prev = P
            for i in range(size):
                prev = np.matmul(prev, G, out=block[i])
        # each live map's bounds of the powers it keeps: up to its first
        # non-finite power (lam**j only for a finite one, as its ratio takes
        # it) or its first bound below the normal range
        finite = np.isfinite(block).all(axis=(2, 3))
        kept = []
        for r, row_finite in zip(live, finite.T.tolist()):
            big_m, lam, bounds = big_ms[r], lams[r], []
            for j, finite_j in enumerate(row_finite, done + 1):
                if not finite_j:
                    break
                bound = big_m * lam**j
                if bound < sys.float_info.min:
                    break
                bounds.append(bound)
            kept.append(bounds)
        for i in sorted(flagged):
            for k, bounds in enumerate(kept):
                if i <= len(bounds):
                    np.matmul(block[i - 1, k] if i else P[k], G[k])
        # zeros in place of the non-finite powers, whose SVD would fail; the
        # zip below takes each map's norms of the powers it keeps only
        block[~finite] = 0.0
        norms = np.linalg.norm(block, 2, axis=(2, 3)).T.tolist()
        for r, bounds, row_norms in zip(live, kept, norms):
            res = results[r]
            for nrm, bound in zip(row_norms, bounds):
                res.max_ratio = max(res.max_ratio, nrm / bound)
            if len(bounds) < size:
                res.steps_done, res.partial = done + len(bounds), True
        done += size
        stay = [k for k, bounds in enumerate(kept) if len(bounds) == size]
        if len(stay) < len(live):
            live, G = [live[k] for k in stay], G[stay]
        # a copy (stay is a list): with one power per block, the next product
        # would overwrite its input
        P = block[size - 1, stay]
    for res in results:
        res.ok = res.max_ratio <= 1.0
    return results


def verify_power_bound(
    gamma_matrix: np.ndarray, big_m: float, lam: float, horizon: int
) -> PowerBoundResult:
    """verify_power_bounds for one map: the maximum observed
    ||G^j|| / (big_m lam^j) over j = 1..horizon, stopping early (with
    partial=True) before a power that overflows or whose bound falls below
    the smallest normal double."""
    (result,) = verify_power_bounds([gamma_matrix], [big_m], [lam], horizon)
    return result
