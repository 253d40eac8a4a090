"""Problem data model: objective, constraint family and simple-set oracles.

A point is a 1-D float64 numpy array of a fixed dimension n.  The solver
advances a block of S independent seeds at once, so every oracle it calls
takes a leading seed axis: an (S, n) array holds one point per row, and
``SimpleSet.project`` treats a 1-D point as a single row.  The simple set
is a ball, the whole space when its radius is infinite.  Arrays are
treated as immutable by every routine in this package.  Oracles carry no
mutable state; random state always lives with the caller.
"""

from __future__ import annotations

import functools
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


def row_norms(d: np.ndarray) -> np.ndarray:
    """|d| of each row of d, (..., n): one vecdot per row, so a row rounds
    as np.linalg.norm of that row alone, whatever the number of rows."""
    return np.sqrt(np.vecdot(d, d))


# ---------------------------------------------------------------------------
# simple sets


@dataclass(frozen=True)
class SimpleSet:
    """The simple set Y: the closed ball of ``center`` and ``radius``, whose
    exact Euclidean projection is cheap.  An infinite radius makes Y the
    whole space, the other set that the builtins and the instance format
    can name; ``ball`` is the checked constructor.  ``project`` tests a row
    against the ball by its squared length and ``limit``, the exact
    threshold for the rounded square root, so a call whose rows are all
    inside takes no square root."""

    center: np.ndarray
    radius: float

    @property
    def dimension(self) -> int:
        return self.center.size

    @functools.cached_property
    def limit(self) -> float:
        """The largest float q whose rounded square root is at most
        ``radius``, infinite for the whole space, computed once per ball.  A
        correctly rounded square root is monotone, so q <= limit holds
        exactly when sqrt(q) <= radius, and neither holds for a NaN."""
        limit = self.radius
        if limit < math.inf:
            # radius**2 rounds to within a few steps of that q: step down
            # past it, then up to it
            limit *= self.radius
            while math.sqrt(limit) > self.radius:
                limit = math.nextafter(limit, 0.0)
            while math.sqrt(up := math.nextafter(limit, math.inf)) <= self.radius:
                limit = up
        return limit

    @staticmethod
    def whole_space(dimension: int) -> "SimpleSet":
        return SimpleSet.ball(np.zeros(dimension), math.inf)

    @staticmethod
    def ball(center, radius: float) -> "SimpleSet":
        center = as_point(center)
        if not np.isfinite(center).all():
            raise OracleError("ball center must be finite")
        if not radius > 0:
            raise OracleError(f"ball radius must be positive, got {radius!r}")
        return SimpleSet(center, float(radius))

    def project(self, v: np.ndarray) -> np.ndarray:
        """Exact Euclidean projection of each row of ``v``, shape (..., n);
        a 1-D point is one row.  Rows already inside are returned unchanged,
        and ``v`` itself when every row is inside; in the whole space, that
        is every row without a NaN.  A row is inside where its squared
        length q = d . d, d = v - center, is at most ``limit``, which is
        exactly where |d| = sqrt(q) is at most ``radius`` (see ``limit``),
        so only a call with a row outside takes a square root.
        A row with a NaN, or an infinite entry, comes back non-finite with
        no warning (the latter at scale 1, not at its finite limit), so a
        run aborts on it; a finite row whose squared length overflows
        projects as e = d / max |d_i|, center + e * (radius / |e|), since d
        and e point the same way."""
        d = v - self.center
        q = np.vecdot(d, d)
        inside = q <= self.limit
        if np.count_nonzero(inside) == inside.size:
            return v
        r = np.sqrt(q)
        scaled = ~inside
        lost = np.isinf(r)
        if lost.any():  # a finite row's square overflowed: project d / max |d_i|
            top = np.max(np.abs(d), axis=-1)
            finite = np.isfinite(top)
            lost &= finite
            scaled &= finite           # an infinite entry times radius / inf is invalid
            d = d / np.where(lost, top, 1.0)[..., None]
            r = np.where(lost, row_norms(d), r)
        # an inside row keeps scale 1: radius / 1 is inf in the whole
        # space, and inf times a zero entry is invalid
        scale = np.divide(self.radius, r, out=np.ones_like(r), where=scaled)
        return np.where(inside[..., None], v, self.center + d * scale[..., None])


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class ObjectiveOracle:
    """Convex objective accessed through value and subgradient queries, both
    row-wise: given an (S, n) array, ``evaluate`` returns one value per row,
    shape (S,), and ``subgradient`` one subgradient per row, shape (S, n)."""

    evaluate: Callable[[np.ndarray], np.ndarray]
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
