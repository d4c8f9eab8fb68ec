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
    "run_cells",
    "choose_burn_in",
    "resolve_gamma",
]

BLOWUP_DEFAULT = 1e12
# most indices per draw in run_cells: 512 KB of int64
_INDEX_BLOCK = 1 << 16
# doubles per gather in run_cells, 256 KB: a gather takes as many steps'
# batches as fit, but always at least one step's, however large its batch
_GATHER_BLOCK = 1 << 15
# most doubles of iterates run_cells steps between bookkeeping passes: 32 KB
_STEP_BLOCK = 1 << 12


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
    record_stride (and the final step), which bounds memory on long runs.
    The arrays are allocated once per run and filled once per block of
    steps; each error norm is sqrt(e.dot(e)), np.linalg.norm's arithmetic,
    of the iterate's or the running average's error at that step.
    """

    steps: np.ndarray
    err_last: np.ndarray
    err_avg: np.ndarray


def _momentum_update(x: np.ndarray, m: np.ndarray, gamma, alpha,
                     gradient: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SGDM recursion; returns the successor (x, m). gamma and alpha are
    scalars, or arrays shaped like x that hold each row's scalar."""
    m_next = gamma * m + (1.0 - gamma) * gradient
    return x - alpha * m_next, m_next


def sgdm_step(state: OptimizerState, gradient: np.ndarray) -> OptimizerState:
    """One momentum update; pure, returns the successor state."""
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != state.x.shape:
        raise ValueError("gradient dimension mismatch")
    if not np.all(np.isfinite(gradient)):
        raise DivergedError(state.t, "non-finite gradient")
    cfg = state.config
    x_next, m_next = _momentum_update(state.x, state.m, cfg.gamma, cfg.alpha, gradient)
    return OptimizerState(x=x_next, m=m_next, t=state.t + 1, config=cfg)


def resolve_gamma(problem: ProblemInstance, config: MomentumConfig) -> float:
    """The momentum weight a run will actually use: the configured value, or
    the adaptive choice computed once at run start from the problem's known
    average smallest curvature (no online re-estimation)."""
    if config.gamma_mode is GammaMode.ADAPTIVE:
        return adaptive_gamma(problem.mu, config.alpha)
    return config.gamma


def _row_norms(d: np.ndarray) -> np.ndarray:
    """The norm of each row of d along its last axis: sqrt(row.dot(row)),
    np.linalg.norm's arithmetic for a 1-D float vector, one stacked matmul
    making the dot call of each row."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _record_steps(iters: int, stride: int) -> np.ndarray:
    """The steps a Trajectory records: every t <= 1000, then the multiples
    of `stride` and the last step, built without an iters-long temporary."""
    steps = np.concatenate([np.arange(1, min(iters, 1000) + 1),
                            np.arange((1000 // stride + 1) * stride, iters + 1, stride)])
    return steps if steps[-1] == iters else np.append(steps, iters)


def run_cells(
    problem: ProblemInstance,
    configs: list,
    iters: int,
    seed: int,
    n0s: list,
    record_stride: int = 1,
    x_init: np.ndarray | None = None,
    blowup: float = BLOWUP_DEFAULT,
) -> list:
    """`run` for K configurations (one batch size) in lockstep on one stream.

    Every cell starts at `x_init` (zeros if None) and sees the same batches.
    The K iterates and momentum buffers are one (K, d) stack each: a step
    takes one stacked `batch_gradient` on the step's gathered batch and one
    `_momentum_update` with per-cell coefficients, row k doing exactly the
    arithmetic of cell k alone. Each new iterate stack goes into a buffer
    of at most _STEP_BLOCK doubles; after each block of steps, stacked
    reductions give every step's error norm, each cell's first step whose
    norm fails `<= blowup` (or is not finite), the running sums (an
    in-order cumsum that folds x_t for t > n0, so the first fold is 0.0 + x)
    and the error of the average at the record steps. So each cell is
    bit-identical to a `run` of it alone. A block's indices are one draw,
    gathered in slices, with the values and order of per-step draws and
    gathers. A finished call leaves the stream after iters*B indices; once
    every cell has diverged, it sits at the end of the step block in which
    the last one did.

    Returns per configuration (OptimizerState, whose config holds the
    resolved gamma as FIXED, AveragingState, Trajectory), or the
    DivergedError of a cell whose error norm stopped being finite or
    exceeded `blowup`; a diverged cell leaves the stack at the end of that
    step block with the step it failed at, and the others go on.
    """
    configs, n0s = list(configs), list(n0s)
    if not configs:
        raise ValueError("configs must not be empty")
    if len(n0s) != len(configs):
        raise ValueError("n0s must give one burn-in per configuration")
    if len({cfg.batch_size for cfg in configs}) != 1:
        raise ValueError("configurations must share one batch size")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    for cfg, n0 in zip(configs, n0s):
        if n0 < 0:
            raise ValueError("n0 must be >= 0")
        if n0 >= iters:
            raise ValueError("n0 must be < iters")
        if cfg.alpha <= 0:
            raise ValueError("alpha must be positive to take steps")
    x0 = np.array(x_init, dtype=float) if x_init is not None else np.zeros(problem.dim)
    if x0.shape != (problem.dim,):
        raise ValueError("x_init must have shape (dim,)")
    configs = [replace(cfg, gamma=resolve_gamma(problem, cfg), gamma_mode=GammaMode.FIXED)
               for cfg in configs]
    cells, dim = len(configs), problem.dim
    results: list = [None] * cells
    # row i of every stack below is cell live[i]; (K, d) coefficient arrays
    # multiply elementwise as the scalars would, without a broadcast
    live = np.arange(cells)
    gamma = np.repeat([[cfg.gamma] for cfg in configs], dim, 1)
    alpha = np.repeat([[cfg.alpha] for cfg in configs], dim, 1)
    n0 = np.array(n0s)
    x = np.repeat(x0[None], cells, 0)
    m = np.zeros_like(x)
    total = np.zeros_like(x)
    steps = _record_steps(iters, record_stride)
    err_last = np.empty((cells, steps.size))
    err_avg = np.empty_like(err_last)
    recorded = 0
    batch = configs[0].batch_size
    per_block = max(1, min(_STEP_BLOCK // (cells * dim), _INDEX_BLOCK // batch))
    per_gather = max(1, _GATHER_BLOCK // (batch * problem._gathered_per_sample))
    block = np.empty((per_block, cells, dim))
    rng = seed if isinstance(seed, RngStream) else RngStream(int(seed))
    x_star = problem.x_star

    # no finiteness check on the gradient: a non-finite one makes x, and so
    # the error norm, non-finite at the same step. An overflow or invalid
    # value is a diverged row stepping on to its block's end, or exp
    # saturating in the logistic sigmoid (whose value, 0, is right): none
    # is worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, iters + 1, per_block):
            size = min(per_block, iters + 1 - first)
            # numpy fills a bounded int64 draw one value at a time, so one
            # draw of size*B indices equals `size` draws of B, in order
            idx = rng.batch_indices(problem.n_samples, batch * size).reshape(size, batch)
            for lo in range(0, size, per_gather):
                for j, data in enumerate(zip(*problem.gather(idx[lo:lo + per_gather])), lo):
                    g = problem.batch_gradient(data, x)
                    x, m = _momentum_update(x, m, gamma, alpha, g)
                    block[j] = x
            xs = block[:size]
            err = _row_norms(xs - x_star)
            t = np.arange(first, first + size)
            folds = np.where((t[:, None] > n0)[..., None], xs, 0.0)
            folds[0] += total
            sums = np.cumsum(folds, axis=0, out=folds)
            total = sums[-1].copy()
            stop = np.searchsorted(steps, first + size - 1, "right")
            at = steps[recorded:stop] - first
            count = steps[recorded:stop, None] - n0
            avg_err = _row_norms(sums[at] / np.maximum(count, 1)[..., None] - x_star)
            err_last[live, recorded:stop] = err[at].T
            err_avg[live, recorded:stop] = np.where(count > 0, avg_err, math.nan).T
            recorded = stop
            failed = ~(np.isfinite(err) & (err <= blowup))
            gone = failed.any(0)
            if gone.any():
                for row in np.flatnonzero(gone):
                    j = int(failed[:, row].argmax())
                    results[live[row]] = DivergedError(
                        first + j, f"error norm {err[j, row]:.3e} beyond blow-up threshold")
                live, x, m, total, gamma, alpha, n0 = (
                    a[~gone] for a in (live, x, m, total, gamma, alpha, n0))
                if not live.size:
                    break
                block = block[:, :live.size]

    for row, k in enumerate(live):
        traj = Trajectory(steps=steps, err_last=err_last[k], err_avg=err_avg[k])
        state = OptimizerState(x=x[row], m=m[row], t=iters + 1, config=configs[k])
        avg = AveragingState(n0=n0s[k], count=iters - n0s[k], sum=total[row])
        results[k] = (state, avg, traj)
    return results


def run(
    problem: ProblemInstance,
    config: MomentumConfig,
    iters: int,
    seed: int,
    n0: int = 0,
    record_stride: int = 1,
    x_init: np.ndarray | None = None,
    blowup: float = BLOWUP_DEFAULT,
):
    """Run momentum SGD for `iters` steps with i.i.d.-with-replacement batches.

    Each step draws `config.batch_size` uniform sample indices (duplicates
    allowed) from a stream keyed by `seed`, so identical inputs reproduce
    bit-identical trajectories. Iterates with t > n0 fold into the running
    average. Returns (OptimizerState, AveragingState, Trajectory); this is
    `run_cells` with one configuration.

    Raises DivergedError if the error norm stops being finite or exceeds
    `blowup`.
    """
    (result,) = run_cells(problem, [config], iters, seed, [n0], record_stride=record_stride,
                          x_init=x_init, blowup=blowup)
    if isinstance(result, DivergedError):
        raise result
    return result


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
