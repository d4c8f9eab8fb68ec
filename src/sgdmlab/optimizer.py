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
# most doubles per gather in run_cells: 256 KB
_GATHER_BLOCK = 1 << 15


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
    Error norms are computed in full precision at the record points.
    """

    steps: np.ndarray
    err_last: np.ndarray
    err_avg: np.ndarray


def _momentum_update(x: np.ndarray, m: np.ndarray, gamma: float, alpha: float,
                     gradient: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SGDM recursion; returns the successor (x, m)."""
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


def _dist(x: np.ndarray, y: np.ndarray) -> float:
    """||x - y||, by np.linalg.norm's own arithmetic for a 1-D float vector."""
    d = x - y
    return math.sqrt(d.dot(d))


def _batches(rng: RngStream, problem: ProblemInstance, batch: int, iters: int):
    """Each step's `gather` result, for steps 1..iters in order.

    The indices of up to _INDEX_BLOCK // batch steps come from one draw:
    numpy fills a bounded int64 draw one value at a time from the bit
    generator, so one draw of C*B indices holds the values of C draws of B
    in order and leaves the stream where they would. The steps of a draw
    are gathered in blocks of at most _GATHER_BLOCK doubles.
    """
    per_gather = max(1, _GATHER_BLOCK // (batch * problem._gathered_per_sample))
    per_block = max(1, _INDEX_BLOCK // batch)
    for start in range(1, iters + 1, per_block):
        steps = min(per_block, iters + 1 - start)
        block = rng.batch_indices(problem.n_samples, batch * steps).reshape(steps, batch)
        for first in range(0, steps, per_gather):
            yield from zip(*problem.gather(block[first:first + per_gather]))


class _Cell:
    """One configuration's live iterate, average and records in run_cells."""

    def __init__(self, config: MomentumConfig, n0: int, x: np.ndarray):
        self.config = config
        self.x = x
        self.m = np.zeros_like(x)
        self.avg = AveragingState(n0=n0)
        self.records: list[tuple] = []  # (t, err_last, err_avg)


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

    Every cell starts at `x_init` (zeros if None) and sees the same batches:
    each step's batch is gathered once, then every live cell takes its own
    gradient, update, fold (t > its n0) and error check, so each cell is
    bit-identical to a `run` of it alone. The indices are drawn and
    gathered in blocks of steps (`_batches`) with the values and order of
    per-step draws and gathers; once every cell has diverged, the stream
    may sit past the last index used, up to its block's end.

    Returns per configuration (OptimizerState, AveragingState, Trajectory),
    or the DivergedError of a cell whose error norm stopped being finite or
    exceeded `blowup`; a diverged cell leaves the stack, the others go on.
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
    for cfg, n0 in zip(configs, n0s):
        if n0 >= iters:
            raise ValueError("n0 must be < iters")
        if cfg.alpha <= 0:
            raise ValueError("alpha must be positive to take steps")
    x0 = np.array(x_init, dtype=float) if x_init is not None else np.zeros(problem.dim)
    if x0.shape != (problem.dim,):
        raise ValueError("x_init must have shape (dim,)")
    cells = [
        _Cell(replace(cfg, gamma=resolve_gamma(problem, cfg)), n0, x0.copy())
        for cfg, n0 in zip(configs, n0s)
    ]
    results: list = [None] * len(cells)
    live = list(enumerate(cells))
    rng = seed if isinstance(seed, RngStream) else RngStream(int(seed))
    batches = _batches(rng, problem, configs[0].batch_size, iters)
    x_star = problem.x_star

    # no finiteness check on the gradient: a non-finite one makes x, and so
    # the error norm, non-finite at the same step. An overflow in a step is
    # that step's divergence, or exp saturating in the logistic sigmoid
    # (whose value, 0, is right): neither is worth a warning
    with np.errstate(over="ignore"):
        for t, data in enumerate(batches, 1):
            record = t <= 1000 or t % record_stride == 0 or t == iters
            diverged = False
            for k, cell in live:
                cfg = cell.config
                g = problem.batch_gradient(data, cell.x)
                cell.x, cell.m = _momentum_update(cell.x, cell.m, cfg.gamma, cfg.alpha, g)
                x, avg = cell.x, cell.avg
                avg.fold(x, t)
                err = _dist(x, x_star)
                if not math.isfinite(err) or err > blowup:
                    results[k] = DivergedError(
                        t, f"error norm {err:.3e} beyond blow-up threshold")
                    diverged = True
                    continue
                if record:
                    cell.records.append((
                        t,
                        err,
                        _dist(avg.mean, x_star) if avg.count else math.nan,
                    ))
            if diverged:
                live = [(k, cell) for k, cell in live if results[k] is None]
                if not live:
                    break

    for k, cell in live:
        steps, err_last, err_avg = (np.array(col) for col in zip(*cell.records))
        traj = Trajectory(steps=steps, err_last=err_last, err_avg=err_avg)
        state = OptimizerState(x=cell.x, m=cell.m, t=iters + 1, config=cell.config)
        results[k] = (state, cell.avg, traj)
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
