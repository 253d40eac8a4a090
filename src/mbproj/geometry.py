"""Polyhedral geometry: linear constraint systems with unit rows, their
constraint family, and an exact, certified distance-to-feasible-set oracle.

``PolyhedronSpec`` is the one owner of the rows A and b: it checks them once,
and ``linear_family`` reads them from it for the solver's constraint oracle.

``project_intersection`` computes the Euclidean projection of v onto
{x : Ax + b <= 0} intersected with the ball Y (the whole space at radius
inf).  The polyhedral part is the Goldfarb-Idnani dual active-set method
with identity Hessian (Goldfarb & Idnani, Math. Programming 27, 1983): start
at x = v with no active rows, add the most violated row, and drop an active
row whose multiplier would turn negative on the way.  The active rows stay
linearly independent, so m > n is not degenerate, and a violated row in the
span of the active ones with no multiplier to release proves the polyhedron
empty.  When the polyhedral projection leaves the ball, the ball multiplier
nu comes from bisection on the nonincreasing |P_P((v + 2 nu c)/(1 + 2 nu)) - c|
= r, run in theta = 2 nu / (1 + 2 nu) over [0, 1).

A projection can start from a warm active set, such as the final one of a
nearby point: the method solves N N^T mu = N w + b_S for those rows,
drops every row whose multiplier is negative and solves again until none is
(or no row is left).  That point is tight on the rows it keeps, with
multipliers >= 0, so it is a valid start for the dual method, which then
runs unchanged.  The ball bisection starts each step from the rows of the
step before.  On return the final active set is sorted and x = w - N^T mu
is solved once more from it.  The projection is unique, and so, away from
degenerate ties, is its active set; x then depends only on the point and
that sorted set, not on the path the method took to it, so a warm and a cold
start return the same bits.

Every projection is certified before it is returned: the KKT residuals
(stationarity, primal violation, ball excess, negative multipliers,
complementarity) must lie below ``TOL_METRIC`` times s = 1 + the largest
coordinate of v or x in magnitude (s^2 for complementarity, a product of two
lengths), or ``DistanceOracleError`` is raised with them; the method's last
A x + b and the ball test's projection of x are shared, not recomputed.  An
empty feasible set raises ``EmptyFeasibleSetError``.  The oracle is the
reference metric of the harness and of the per-iteration inequality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import ConstraintFamily, OracleError, SimpleSet, as_point

TOL_METRIC = 1e-8   # certificate bound on the projection's KKT residuals
TOL_ASSERT = 1e-7   # slack allowed by per-iteration inequality assertions

# A row is violated above EPS times 1 + |v|_inf; a step direction of norm
# below EPS, or a multiplier rate below EPS, counts as zero.
EPS = 1e-12


class DistanceOracleError(RuntimeError):
    """A projection failed its KKT certificate; carries the residuals."""

    def __init__(self, message: str, residuals: dict):
        super().__init__(message)
        self.residuals = residuals


class EmptyFeasibleSetError(OracleError):
    """The linear constraints and the simple set have no common point."""


@dataclass(frozen=True)
class PolyhedronSpec:
    """Linear constraints a_w^T x + b_w <= 0 with unit-norm rows.

    Row normalization is the natural scaling for relaxed projection steps:
    with |a_w| = 1 the violation a_w^T x + b_w equals the distance to the
    halfspace, and constraint subgradients satisfy M_g = 1.  The paper's
    problem always has functional constraints, so there is at least one row.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = as_point(self.b)
        if A.shape[0] != b.size:
            raise OracleError("row count of A must match length of b")
        if b.size == 0:
            raise OracleError("a polyhedron needs at least one constraint row")
        norms = np.linalg.norm(A, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise OracleError("every row of A must have unit Euclidean norm")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def linear_family(poly: PolyhedronSpec) -> ConstraintFamily:
    """The constraint family of ``poly``'s rows, a_w^T x + b_w <= 0 for
    w in 0..m-1."""
    A, b = poly.A, poly.b

    def batch(indices, v):
        rows = A[indices]
        # one dot product per value: each rounds the same whatever the
        # number of seeds and the width of the batch, which a stacked
        # matrix-vector product does not
        return np.vecdot(rows, v[:, None, :]) + b[indices], rows

    return ConstraintFamily(size=poly.m, batch=batch)


def max_violation(poly: PolyhedronSpec, v: np.ndarray) -> float:
    """Largest positive part over the linear constraints; 0 iff all satisfied."""
    return float(max(np.max(poly.A @ v + poly.b), 0.0))


def _solve_active(A, b, w, active):
    """The point x = w - A[active]^T mu at which the rows ``active``, linearly
    independent, hold with equality, and their multipliers mu."""
    if not active:
        return w.copy(), np.zeros(0)
    N = A[active]
    mu = np.linalg.solve(N @ N.T, N @ w + b[active])
    return w - mu @ N, mu


def _project_polyhedron(poly: PolyhedronSpec, w: np.ndarray, scale: float,
                        start=()):
    """Projection of w onto {Ax + b <= 0} by the dual active-set method,
    warm-started from the linearly independent rows ``start``.

    Returns (x, active, mu, s) with ``active`` sorted, x = w - A[active]^T mu,
    mu >= 0, the active rows linearly independent and tight at x, and s =
    A x + b (None if x was re-solved).  Raises ``EmptyFeasibleSetError``
    when the polyhedron is empty.
    """
    A, b = poly.A, poly.b
    # the rows of start with their multipliers, dropping negative ones until
    # none is left: a dual feasible point to start from
    active = sorted(start)
    x, mu = _solve_active(A, b, w, active)
    while (mu < 0.0).any():
        active = [row for row, m in zip(active, mu) if m >= 0.0]
        x, mu = _solve_active(A, b, w, active)
    solved = True      # (x, mu) is _solve_active of the sorted active rows
    # the method is finite; the cap only guards against cycling in rounding
    for _ in range(10 * (poly.m + poly.n)):
        s = A @ x + b
        p = int(s.argmax())
        if s[p] <= EPS * scale:
            if not solved:
                active = sorted(active)
                x, mu = _solve_active(A, b, w, active)
            return x, active, mu, s if solved else None
        a_p, mu_p, solved = A[p], 0.0, False
        while True:
            if active:
                N = A[active]
                r = np.linalg.solve(N @ N.T, N @ a_p)
                z = a_p - r @ N
            else:
                r, z = mu, a_p
            zz = float(z @ z)
            dependent = zz <= EPS * EPS    # a_p lies in the span of the active rows
            full = np.inf if dependent else (float(a_p @ x) + b[p]) / zz
            blocking = np.flatnonzero(r > EPS)
            ratios = mu[blocking] / r[blocking]
            partial = float(ratios.min(initial=np.inf))
            t = min(full, partial)
            if t == np.inf:
                raise EmptyFeasibleSetError(
                    f"feasible set is empty: row {p} is violated and in the "
                    f"span of rows {sorted(active)} with no multiplier to release")
            if not dependent:
                x = x - t * z
            mu = mu - t * r
            mu_p += t
            if full <= partial:
                active.append(p)
                mu = np.append(mu, mu_p)
                break
            k = int(blocking[ratios.argmin()])
            del active[k]
            mu = np.delete(mu, k)
    raise DistanceOracleError(
        f"active-set method did not terminate within {10 * (poly.m + poly.n)} steps",
        residuals={})


def _norm(d: np.ndarray) -> float:   # np.linalg.norm's bits for 1-D d, cheaper
    return math.sqrt(d @ d)


def _certify(poly: PolyhedronSpec, simple_set: SimpleSet, v, x, active, lam,
             nu: float, scale: float, s, excess: float) -> None:
    """Raise ``DistanceOracleError`` unless (x, lam, nu) satisfies the KKT
    conditions of the projection of v within ``TOL_METRIC``, from the
    residuals s = A x + b (None: not yet computed) and |P_Y(x) - x| at x."""
    s = poly.A @ x + poly.b if s is None else s
    grad = x - v + lam @ poly.A[active]
    comp = float(np.abs(lam * s[active]).max(initial=0.0))
    if nu > 0.0:
        d = x - simple_set.center
        grad = grad + 2.0 * nu * d
        comp = max(comp, nu * abs(float(d @ d) - simple_set.radius ** 2))
    residuals = {
        "stationarity": _norm(grad),
        "primal_violation": max(float(s.max()), 0.0),
        "ball_excess": excess,
        "negative_multiplier": max(-float(lam.min(initial=0.0)), 0.0),
        "complementarity": comp,
    }
    # complementarity is a product of two lengths
    bound = TOL_METRIC * scale
    failed = {key: val for key, val in residuals.items()
              if not val <= (bound * scale if key == "complementarity" else bound)}
    if failed:
        raise DistanceOracleError(
            f"projection certificate failed ({', '.join(failed)} above "
            f"{bound:g} at scale {scale:g}); residuals {residuals}",
            residuals=residuals)


def project_intersection(poly: PolyhedronSpec, simple_set: SimpleSet,
                         v: np.ndarray, active: Optional[list] = None) -> np.ndarray:
    """Exact Euclidean projection of v onto {Ax + b <= 0} intersect Y.

    ``active``, when given, is a list of linearly independent rows, such as
    the final active set of an earlier call: the projection starts from it,
    and on return the list holds this projection's final active set.  The
    result does not depend on it (see the module docstring).  Certified as
    the module docstring describes, from the residuals and ball projection
    the method computed.  Raises ``EmptyFeasibleSetError`` when the set is
    empty and ``DistanceOracleError`` when the certificate fails.
    """
    v = as_point(v)
    scale = 1.0 + float(np.abs(v).max())
    x, rows, lam, s = _project_polyhedron(poly, v, scale, active or ())
    nu, excess = 0.0, _norm(simple_set.project(x) - x)
    if not excess <= 0.0:
        c, radius = simple_set.center, simple_set.radius

        def project_toward_center(theta, start):
            return _project_polyhedron(poly, (1.0 - theta) * v + theta * c, scale,
                                       start)

        # the largest theta below 1: nu stays finite, and the projection is
        # as close to the center as it gets; each step starts from the rows
        # of the step before
        lo, hi = 0.0, float(np.nextafter(1.0, 0.0))
        y, rows, _, _ = project_toward_center(hi, rows)
        if _norm(y - c) > radius:
            raise EmptyFeasibleSetError(
                "feasible set is empty: the ball does not meet the polyhedron")
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            y, rows, _, _ = project_toward_center(mid, rows)
            if _norm(y - c) > radius:
                lo = mid
            else:
                hi = mid
        x, rows, mu, s = project_toward_center(hi, rows)
        # 1 + 2 nu = 1 / (1 - theta) rescales the polyhedral multipliers
        nu = hi / (2.0 * (1.0 - hi))
        lam = mu / (1.0 - hi)
        excess = _norm(simple_set.project(x) - x)
    _certify(poly, simple_set, v, x, rows, lam, nu,
             max(scale, 1.0 + float(np.abs(x).max())), s, excess)
    if active is not None:
        active[:] = rows
    return x


def distance_oracle(poly: PolyhedronSpec, simple_set: SimpleSet,
                    v: np.ndarray, active: Optional[list] = None) -> float:
    """Certified distance from v to the feasible intersection;
    ``active`` as for ``project_intersection``."""
    return _norm(project_intersection(poly, simple_set, v, active) - v)
