"""Random index selection for constraint minibatches.

All randomness flows through numpy's PCG64 generator.  A sampler is owned by
one run and draws every minibatch before its feasibility pass, so a fixed seed
reproduces the exact index stream.
"""

from __future__ import annotations

import numpy as np


class SamplerConfigError(ValueError):
    """Invalid sampler configuration (bad block structure, N > m, ...)."""


class Sampler:
    """Minibatch index source over a finite index space {0..m-1}.

    Variants:
      * ``iid-uniform``: each draw uniform and independent;
      * ``without-replacement``: the N indices of one minibatch are distinct;
      * ``partition``: draw i is uniform over block i of a disjoint cover, so
        one minibatch takes exactly one index per block.
    """

    VARIANTS = ("iid-uniform", "without-replacement", "partition")

    def __init__(self, variant: str, m: int, blocks=None, seed=None):
        if variant not in self.VARIANTS:
            raise SamplerConfigError(f"unknown sampler variant {variant!r}")
        if m < 1:
            raise SamplerConfigError("index space must be nonempty")
        self.variant = variant
        self.m = int(m)
        self.blocks = None
        if variant == "partition":
            if not blocks:
                raise SamplerConfigError("partition sampler requires blocks")
            blocks = [np.asarray(sorted(b), dtype=np.int64) for b in blocks]
            flat = np.concatenate(blocks)
            if (np.unique(flat).size != flat.size
                    or flat.min() < 0 or flat.max() >= m or flat.size != m):
                raise SamplerConfigError(
                    "partition blocks must be disjoint and cover the index space")
            self.blocks = blocks
        self._rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)

    @classmethod
    def iid_uniform(cls, m: int, seed=None) -> "Sampler":
        return cls("iid-uniform", m, seed=seed)

    @classmethod
    def without_replacement(cls, m: int, seed=None) -> "Sampler":
        return cls("without-replacement", m, seed=seed)

    @classmethod
    def partition(cls, blocks, seed=None) -> "Sampler":
        blocks = [list(b) for b in blocks]
        m = sum(len(b) for b in blocks)
        return cls("partition", m, blocks=blocks, seed=seed)

    def draw(self, batch_size: int) -> np.ndarray:
        """Draw one minibatch of indices, advancing the stream deterministically."""
        if batch_size < 1:
            raise SamplerConfigError("batch size must be >= 1")
        if self.variant == "iid-uniform":
            return self._rng.integers(0, self.m, size=batch_size)
        if self.variant == "without-replacement":
            if batch_size > self.m:
                raise SamplerConfigError(
                    f"cannot draw {batch_size} distinct indices from {self.m}")
            return self._rng.choice(self.m, size=batch_size, replace=False)
        if batch_size != len(self.blocks):
            raise SamplerConfigError(
                f"partition sampler draws one index per block "
                f"({len(self.blocks)} blocks, requested {batch_size})")
        out = np.empty(batch_size, dtype=np.int64)
        for i, block in enumerate(self.blocks):
            out[i] = block[self._rng.integers(0, block.size)]
        return out

    def first_draw_weights(self) -> np.ndarray:
        """Marginal law of the first index of a minibatch, as weights over {0..m-1}.

        For history-dependent variants later draws have different marginals;
        regularity estimation is anchored to the first draw.
        """
        w = np.zeros(self.m)
        if self.variant == "partition":
            block = self.blocks[0]
            w[block] = 1.0 / block.size
        else:
            w[:] = 1.0 / self.m
        return w
