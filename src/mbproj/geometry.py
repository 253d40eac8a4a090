"""Polyhedral geometry: linear constraint systems with unit rows and a
high-accuracy distance-to-feasible-set oracle.

The distance oracle runs Dykstra's alternating projection scheme over the
halfspaces and the simple set, which converges to the true Euclidean
projection onto the intersection.  It is the reference metric used by the
benchmark harness and by the per-iteration inequality checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import OracleError, SimpleSet, as_point

TOL_METRIC = 1e-8   # default tolerance for metric computations
TOL_ASSERT = 1e-7   # slack allowed by per-iteration inequality assertions

MAX_SWEEPS = 10 ** 6


class DistanceOracleError(RuntimeError):
    """Distance iteration hit the sweep cap; carries the best estimate found."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class PolyhedronSpec:
    """Linear constraints a_w^T x + b_w <= 0 with unit-norm rows.

    Row normalization is the natural scaling for relaxed projection steps:
    with |a_w| = 1 the violation a_w^T x + b_w equals the distance to the
    halfspace, and constraint subgradients satisfy M_g = 1.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = as_point(self.b)
        if A.shape[0] != b.size:
            raise OracleError("row count of A must match length of b")
        norms = np.linalg.norm(A, axis=1)
        if A.shape[0] and not np.allclose(norms, 1.0, atol=1e-9):
            raise OracleError("every row of A must have unit Euclidean norm")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def max_violation(poly: PolyhedronSpec, v: np.ndarray) -> float:
    """Largest positive part over the linear constraints; 0 iff all satisfied."""
    if poly.m == 0:
        return 0.0
    return float(max(np.max(poly.A @ v + poly.b), 0.0))


def project_intersection(poly: PolyhedronSpec, simple_set: SimpleSet,
                         v: np.ndarray, tol: float = TOL_METRIC,
                         max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Project v onto (simple set) intersect (all halfspaces) via Dykstra sweeps.

    Deterministic given its inputs.  Stops once successive distance estimates
    differ by less than tol/10 and all halfspace violations are below tol (the
    iterate ends each sweep inside the simple set by construction).  Raises
    DistanceOracleError with the best estimate when the sweep cap is reached.
    """
    if tol <= 0:
        raise OracleError("tol must be positive")
    v = as_point(v)
    if poly.m == 0:
        return simple_set.project(v)

    A, b = poly.A, poly.b
    m = poly.m
    x = v.copy()
    corrections = np.zeros((m + 1, v.size))  # one Dykstra increment per set
    prev_dist = np.inf
    for _ in range(max_sweeps):
        for i in range(m):
            y = x + corrections[i]
            s = float(A[i] @ y) + b[i]
            if s > 0.0:
                proj = y - s * A[i]
            else:
                proj = y
            corrections[i] = y - proj
            x = proj
        y = x + corrections[m]
        proj = simple_set.project(y)
        corrections[m] = y - proj
        x = proj

        dist = float(np.linalg.norm(x - v))
        if abs(dist - prev_dist) < tol / 10.0 and max_violation(poly, x) < tol:
            return x
        prev_dist = dist
    raise DistanceOracleError(
        f"projection did not stabilize within {max_sweeps} sweeps "
        f"(ill-conditioned instance); best distance estimate {prev_dist}",
        best_estimate=prev_dist)


def distance_oracle(poly: PolyhedronSpec, simple_set: SimpleSet,
                    v: np.ndarray, tol: float = TOL_METRIC) -> float:
    """Distance from v to the feasible intersection, within tol."""
    return float(np.linalg.norm(project_intersection(poly, simple_set, v, tol) - v))
