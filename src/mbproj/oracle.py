"""Problem data model: objective, constraint family and simple-set oracles.

A point is a 1-D float64 numpy array of a fixed dimension n.  The solver
advances a block of S independent seeds at once, so the oracles it calls on
every iteration take a leading seed axis: an (S, n) array holds one point per
row, and ``SimpleSet.project`` treats a 1-D point as a single row.  The
simple set is a ball, the whole space when its radius is infinite.  Arrays
are treated as immutable by every routine in this package.  Oracles carry no
mutable state; random state always lives with the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class OracleError(ValueError):
    """An oracle violated its contract (zero direction, non-finite output, ...)."""


def as_point(v) -> np.ndarray:
    """Coerce to a 1-D float64 array without copying when already one."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise OracleError(f"expected a 1-D point, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# simple sets


@dataclass(frozen=True)
class SimpleSet:
    """The simple set Y: the closed ball of ``center`` and ``radius``, whose
    exact Euclidean projection is cheap.  An infinite radius makes Y the
    whole space, the other set that the builtins and the instance format
    can name; ``ball`` is the checked constructor."""

    center: np.ndarray
    radius: float

    @property
    def dimension(self) -> int:
        return self.center.size

    @staticmethod
    def whole_space(dimension: int) -> "SimpleSet":
        return SimpleSet.ball(np.zeros(dimension), math.inf)

    @staticmethod
    def ball(center, radius: float) -> "SimpleSet":
        center = as_point(center)
        if not radius > 0:
            raise OracleError(f"ball radius must be positive, got {radius!r}")
        return SimpleSet(center, float(radius))

    def project(self, v: np.ndarray) -> np.ndarray:
        """Exact Euclidean projection of each row of ``v``, shape (..., n);
        a 1-D point is one row.  Rows already inside are returned unchanged,
        and ``v`` itself when every row is inside; in the whole space, that
        is every row without a NaN.  A row with a NaN, or an infinite entry,
        comes back non-finite with no warning (the latter at scale 1, not at
        its finite limit), so a run aborts on it; a finite row whose squared
        length overflows projects as e = d / max |d_i|, center + e * (radius
        / |e|), since d and e point the same way."""
        d = v - self.center
        # one vecdot per row, so a row rounds as np.linalg.norm of that
        # row alone, whatever the number of rows
        r = np.sqrt(np.vecdot(d, d))
        inside = r <= self.radius
        if np.count_nonzero(inside) == inside.size:
            return v
        scaled = ~inside
        lost = np.isinf(r)
        if lost.any():  # a finite row's square overflowed: project d / max |d_i|
            top = np.max(np.abs(d), axis=-1)
            finite = np.isfinite(top)
            lost &= finite
            scaled &= finite           # an infinite entry times radius / inf is invalid
            d = d / np.where(lost, top, 1.0)[..., None]
            r = np.where(lost, np.sqrt(np.vecdot(d, d)), r)
        # an inside row keeps scale 1: radius / 1 is inf in the whole
        # space, and inf times a zero entry is invalid
        scale = np.divide(self.radius, r, out=np.ones_like(r), where=scaled)
        return np.where(inside[..., None], v, self.center + d * scale[..., None])


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class ObjectiveOracle:
    """Convex objective accessed through value and subgradient queries.

    ``evaluate`` takes one point.  ``subgradient`` works row-wise: given an
    (S, n) array it returns one subgradient per row, shape (S, n).
    """

    evaluate: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ConstraintFamily:
    """Constraint collection {x : g_w(x) <= 0}, one convex g_w per index
    w in 0..size-1, reached only through the first-order oracle ``batch``.

    ``batch(indices, v)`` takes a leading seed axis: integer indices of shape
    (S, k) and points of shape (S, n), seed s asking about its own point
    v[s].  It returns ``(values, rows)`` in index order: the float64 values
    g_w(v[s]), shape (S, k), and one row per index, shape (S, k, n).  Where
    g_w(v[s]) > 0 the row must be a subgradient of max(g_w, 0) at v[s];
    elsewhere it may be any finite row, since both feasibility passes ignore
    the rows of satisfied constraints.  A value and its row depend only on
    the index and the point: not on the other seeds of the block, nor on
    the other indices asked with it, so a batch's columns equal those of
    any wider or narrower batch that asks the same index at the same point.
    The paper's problem always has functional constraints, so ``size`` is at
    least 1.
    """

    size: int
    batch: Callable[[np.ndarray, np.ndarray], tuple]

    def __post_init__(self):
        if self.size < 1:
            raise OracleError(f"a constraint family needs at least one "
                              f"constraint, got size {self.size}")


@dataclass(frozen=True)
class KnownOptimum:
    f_star: float
    x_star: np.ndarray


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance: oracles, simple set (whose dimension is the
    problem's) and the constants mu and M_g, which the package sets only
    in ``problems._build_instance``, its one builder of a spec."""

    objective: ObjectiveOracle
    constraints: ConstraintFamily
    simple_set: SimpleSet
    mu: float
    M_g: float
    known_optimum: Optional[KnownOptimum] = None

    def __post_init__(self):
        for name in ("mu", "M_g"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise OracleError(f"constant {name} must be finite and positive, "
                                  f"got {value!r}")
        n = self.simple_set.dimension
        if self.known_optimum is not None and \
                np.shape(self.known_optimum.x_star) != (n,):
            raise OracleError(
                f"x_star has shape {np.shape(self.known_optimum.x_star)}, "
                f"expected ({n},)")
