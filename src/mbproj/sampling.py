"""Random index selection for constraint minibatches.

All randomness flows through numpy's PCG64 generator.  A sampler is owned by
one run and draws every minibatch before its feasibility pass, so a fixed seed
reproduces the exact index stream.  The sampler checks nothing: ``run``
creates one only after ``SolverConfig.validate`` has accepted its variant,
a nonempty index space and a batch size N >= 1, at most m under sampling
without replacement.
"""

from __future__ import annotations

import numpy as np


class Sampler:
    """Minibatch index source over a finite index space {0..m-1}.

    Variants:
      * ``iid-uniform``: each draw uniform and independent;
      * ``without-replacement``: the N indices of one minibatch are distinct.
    """

    VARIANTS = ("iid-uniform", "without-replacement")

    def __init__(self, variant: str, m: int, seed=None):
        self.variant = variant
        self.m = int(m)
        self._rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)

    def draw(self, batch_size: int) -> np.ndarray:
        """Draw one minibatch of indices, advancing the stream deterministically."""
        if self.variant == "iid-uniform":
            return self._rng.integers(0, self.m, size=batch_size)
        return self._rng.choice(self.m, size=batch_size, replace=False)
