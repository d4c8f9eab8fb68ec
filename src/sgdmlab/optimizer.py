"""Momentum SGD state machine with mini-batch sampling and iterate averaging.

The recursion is m_{t+1} = gamma m_t + (1-gamma) g_t, x_{t+1} = x_t - alpha
m_{t+1}, with g_t the mini-batch gradient at x_t; gamma = 0 recovers plain
SGD. The momentum buffer starts at zero, so the first step is a scaled SGD
step. Averaging accumulates the plain arithmetic mean of x_t for t > n0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .problems import ProblemInstance
from .rand import RngStream
from .spectrum import GammaMode, MomentumConfig, adaptive_gamma

__all__ = [
    "DivergedError",
    "OptimizerState",
    "AveragingState",
    "Trajectory",
    "sgdm_step",
    "run",
    "choose_burn_in",
    "resolve_gamma",
]

BLOWUP_DEFAULT = 1e12


class DivergedError(RuntimeError):
    """Raised when an iterate or gradient stops being finite or leaves the
    blow-up radius; carries the offending step index."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"diverged at step {step}: {reason}")
        self.step = step


@dataclass(frozen=True)
class OptimizerState:
    """Current iterate x, momentum buffer m, and 1-based step counter."""

    x: np.ndarray
    m: np.ndarray
    t: int
    config: MomentumConfig


@dataclass
class AveragingState:
    """Running arithmetic mean of iterates x_t for t > n0 (no decay weights)."""

    n0: int
    count: int = 0
    sum: np.ndarray | None = None

    def fold(self, x: np.ndarray, t: int) -> None:
        if t > self.n0:
            if self.sum is None:
                self.sum = np.zeros_like(x)
            self.sum += x
            self.count += 1

    @property
    def mean(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no iterates averaged yet (t <= n0)")
        return self.sum / self.count


@dataclass
class Trajectory:
    """Per-step records at the recording points.

    Every step is recorded while t <= 1000; beyond that only multiples of
    the stride (and the final step), which bounds memory on long runs.
    Error norms are computed in full precision at the record points; loss
    recording is optional because a full-batch loss per step is the
    dominant cost on large sample sets.
    """

    steps: np.ndarray
    err_last: np.ndarray
    err_avg: np.ndarray
    loss: np.ndarray
    stride: int


def sgdm_step(state: OptimizerState, gradient: np.ndarray) -> OptimizerState:
    """One momentum update; pure, returns the successor state."""
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != state.x.shape:
        raise ValueError("gradient dimension mismatch")
    if not np.all(np.isfinite(gradient)):
        raise DivergedError(state.t, "non-finite gradient")
    cfg = state.config
    m_next = cfg.gamma * state.m + (1.0 - cfg.gamma) * gradient
    x_next = state.x - cfg.alpha * m_next
    return OptimizerState(x=x_next, m=m_next, t=state.t + 1, config=cfg)


def resolve_gamma(problem: ProblemInstance, config: MomentumConfig) -> float:
    """The momentum weight a run will actually use: the configured value, or
    the adaptive choice computed once at run start from the problem's known
    average smallest curvature (no online re-estimation)."""
    if config.gamma_mode is GammaMode.ADAPTIVE:
        return adaptive_gamma(problem.mu, config.alpha)
    return config.gamma


def run(
    problem: ProblemInstance,
    config: MomentumConfig,
    iters: int,
    seed: int,
    n0: int = 0,
    record_stride: int = 1,
    x_init: np.ndarray | None = None,
    blowup: float = BLOWUP_DEFAULT,
    record_loss: bool = False,
):
    """Run momentum SGD for `iters` steps with i.i.d.-with-replacement batches.

    Each step draws `config.batch_size` uniform sample indices (duplicates
    allowed) from a stream keyed by `seed`, so identical inputs reproduce
    bit-identical trajectories. Iterates with t > n0 fold into the running
    average. Returns (OptimizerState, AveragingState, Trajectory).

    Raises DivergedError if the error norm exceeds `blowup` or anything
    stops being finite.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if n0 >= iters:
        raise ValueError("n0 must be < iters")
    if config.alpha <= 0:
        raise ValueError("alpha must be positive to take steps")
    cfg = replace(config, gamma=resolve_gamma(problem, config))
    batch = cfg.batch_size
    x_star = problem.x_star
    x = np.array(x_init, dtype=float) if x_init is not None else np.zeros(problem.dim)
    state = OptimizerState(x=x, m=np.zeros(problem.dim), t=1, config=cfg)
    rng = seed if isinstance(seed, RngStream) else RngStream(int(seed))
    avg = AveragingState(n0=n0)
    rec_steps: list[int] = []
    rec_last: list[float] = []
    rec_avg: list[float] = []
    rec_loss: list[float] = []
    n_samples = problem.n_samples

    for t in range(1, iters + 1):
        idx = rng.batch_indices(n_samples, batch)
        state = sgdm_step(state, problem.minibatch_gradient(state.x, idx))
        x = state.x
        avg.fold(x, t)
        err = float(np.linalg.norm(x - x_star))
        if not math.isfinite(err) or err > blowup:
            raise DivergedError(t, f"error norm {err:.3e} beyond blow-up threshold")
        if t <= 1000 or t % record_stride == 0 or t == iters:
            rec_steps.append(t)
            rec_last.append(err)
            rec_avg.append(
                float(np.linalg.norm(avg.mean - x_star)) if avg.count else math.nan
            )
            rec_loss.append(problem.loss(x) if record_loss else math.nan)

    traj = Trajectory(
        steps=np.array(rec_steps),
        err_last=np.array(rec_last),
        err_avg=np.array(rec_avg),
        loss=np.array(rec_loss),
        stride=record_stride,
    )
    return state, avg, traj


def choose_burn_in(lam: float, batch_size: int) -> int:
    """Least n0 with lam^(2 n0) <= (1-lam)/B.

    The closed-form ceil is taken as a starting point and then adjusted so
    the least-integer property holds exactly in floating point.
    """
    if not (0.0 < lam < 1.0):
        raise ValueError("lam must lie in (0, 1)")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    target = (1.0 - lam) / batch_size

    def holds(n: int) -> bool:
        return lam ** (2 * n) <= target

    n = max(1, math.ceil(math.log(target) / (2.0 * math.log(lam))))
    while n > 1 and holds(n - 1):
        n -= 1
    while not holds(n):
        n += 1
    return n
