"""Deterministic random-number substrate for reproducible experiments.

Built on numpy's Philox counter-based bit generator. A stream is keyed by
(seed, stream id), two 64-bit words; distinct keys give statistically
independent streams without sequential skipping. The harness keys
replication r by seed + r, and the stream id names the role a stream plays
there: 0 generates the problem, 1 draws the batches and the initial offset,
2 the criterion-09 offset, 3 the power-bound configurations.

Reproducibility contract: Philox 4x64 keyed sequences are identical across
platforms, and standard normal draws use numpy's ziggurat transform. Both
facts are part of the output format (seeds and algorithm name are echoed in
experiment headers), so the generator and transform are fixed here and must
not be swapped silently.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GENERATOR_NAME", "RngStream"]

GENERATOR_NAME = "philox4x64-ziggurat"


class RngStream:
    """One independently-seeded random stream.

    Parameters
    ----------
    seed : int
        Base seed shared by an experiment, in [0, 2**64).
    stream : int
        Stream id in [0, 2**64); distinct ids are independent streams under
        the same seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
            raise ValueError("seed and stream id must lie in [0, 2**64)")
        self.seed = int(seed)
        self.stream = int(stream)
        # uint64 words: numpy takes a list's word above 2**63 through float64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, stream: int) -> "RngStream":
        """A new independent stream under the same seed."""
        return RngStream(self.seed, stream)

    def normal_vector(self, dim: int) -> np.ndarray:
        """i.i.d. standard normal entries."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        return self._gen.standard_normal(dim)

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def batch_indices(self, n_samples: int, batch_size: int) -> np.ndarray:
        """batch_size i.i.d. uniform indices in [0, n_samples); duplicates allowed."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        return self._gen.integers(0, n_samples, size=batch_size)

    def uniform(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def bernoulli(self, p: np.ndarray) -> np.ndarray:
        """0/1 draws with per-entry success probabilities p."""
        return (self._gen.random(np.shape(p)) < p).astype(float)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream}, algo={GENERATOR_NAME})"
