"""Random index selection for constraint minibatches.

All randomness flows through numpy's PCG64 generator.  A sampler is owned by
one run, which draws each seed's minibatches ahead in blocks of iterations,
one ``draw`` call per block, so a fixed seed reproduces the exact index
stream.  A block of ``count`` minibatches holds the same indices, and leaves
the generator in the same state, as ``count`` one-minibatch calls of
``Generator.integers`` or ``Generator.choice``.  The sampler checks nothing:
``run`` creates one only after ``solver.validate`` has accepted its
variant, a nonempty index space and a batch size N >= 1, at most m under
sampling without replacement.
"""

from __future__ import annotations

import numpy as np

# numpy's ``choice(m, N, replace=False)`` takes a tail shuffle instead of
# Floyd's algorithm when m exceeds this and N > m // 50; ``_floyd_block``
# follows Floyd's algorithm only.
FLOYD_MAX_POPULATION = 10000


class Sampler:
    """Minibatch index source over a finite index space {0..m-1}.

    Variants:
      * ``iid-uniform``: each draw uniform and independent;
      * ``without-replacement``: the N indices of one minibatch are distinct.
    """

    VARIANTS = ("iid-uniform", "without-replacement")

    def __init__(self, variant: str, m: int, rng: np.random.Generator):
        self.variant = variant
        self.m = int(m)
        self._rng = rng

    def draw(self, batch_size: int, count: int = 1) -> np.ndarray:
        """Draw ``count`` minibatches of ``batch_size`` indices, flat in draw
        order (a 1-D array of count * batch_size indices), advancing the
        stream exactly as ``count`` one-minibatch draws would."""
        if self.variant == "iid-uniform":
            return self._rng.integers(0, self.m, size=count * batch_size)
        if self.m > FLOYD_MAX_POPULATION and batch_size > self.m // 50:
            return np.concatenate([
                self._rng.choice(self.m, size=batch_size, replace=False)
                for _ in range(count)])
        return _floyd_block(self._rng, self.m, batch_size, count).ravel()


def _floyd_block(rng: np.random.Generator, m: int, size: int,
                 count: int) -> np.ndarray:
    """``count`` rows of ``rng.choice(m, size, replace=False)``, from one
    ``integers`` call.

    numpy draws each minibatch by Floyd's algorithm, with one bounded draw in
    [0, j] for j = m-size, ..., m-1, and then shuffles it by Fisher-Yates,
    with one bounded draw in [0, i] for i = size-1, ..., 1.  Both use the
    same bounded-integer routine as ``integers``, so drawing every bound of
    the block at once and replaying the two steps row-wise reproduces the
    per-minibatch stream.
    """
    highs = np.concatenate([np.arange(m - size + 1, m + 1),
                            np.arange(size, 1, -1)])
    draws = rng.integers(0, highs, size=(count, len(highs)))
    rows = np.empty((count, size), dtype=np.int64)
    for i in range(size):
        t = draws[:, i]
        taken = (rows[:, :i] == t[:, None]).any(axis=1)
        rows[:, i] = np.where(taken, m - size + i, t)
    every = np.arange(count)
    for col, i in enumerate(range(size - 1, 0, -1), start=size):
        j = draws[:, col]
        swapped = rows[every, j]
        rows[every, j] = rows[:, i]
        rows[:, i] = swapped
    return rows
