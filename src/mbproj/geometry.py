"""Polyhedral geometry: linear constraint systems with unit rows and an exact,
certified distance-to-feasible-set oracle.

``project_intersection`` computes the Euclidean projection of v onto
{x : Ax + b <= 0} intersected with the simple set Y (a ball or the whole
space).  The polyhedral part is the Goldfarb-Idnani dual active-set method
with identity Hessian (Goldfarb & Idnani, Math. Programming 27, 1983): start
at x = v with no active rows, add the most violated row, and drop an active
row whose multiplier would turn negative on the way.  The active rows stay
linearly independent, so m > n is not degenerate, and a violated row in the
span of the active ones with no multiplier to release proves the polyhedron
empty.  When the polyhedral projection leaves the ball, the ball multiplier
nu comes from bisection on the nonincreasing |P_P((v + 2 nu c)/(1 + 2 nu)) - c|
= r, run in theta = 2 nu / (1 + 2 nu) over [0, 1).

Every projection is certified before it is returned: the KKT residuals
(stationarity, primal violation, ball excess, negative multipliers,
complementarity) must lie below ``TOL_METRIC`` times s = 1 + the largest
coordinate of v or x in magnitude (s^2 for complementarity, a product of two
lengths), or ``DistanceOracleError`` is raised with them.  An empty feasible set raises
``EmptyFeasibleSetError``.  The oracle is the reference metric of the harness
and of the per-iteration inequality checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import OracleError, SimpleSet, as_point

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


def _project_polyhedron(poly: PolyhedronSpec, w: np.ndarray, scale: float):
    """Projection of w onto {Ax + b <= 0} by the dual active-set method.

    Returns (x, active, mu) with x = w - A[active]^T mu, mu >= 0 and the
    active rows linearly independent and tight at x.  Raises
    ``EmptyFeasibleSetError`` when the polyhedron is empty.
    """
    A, b = poly.A, poly.b
    x = w.copy()
    active = []
    mu = np.zeros(0)
    # the method is finite; the cap only guards against cycling in rounding
    for _ in range(10 * (poly.m + poly.n)):
        s = A @ x + b
        p = int(np.argmax(s))
        if s[p] <= EPS * scale:
            return x, active, mu
        a_p, mu_p = A[p], 0.0
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
            partial = float(np.min(ratios, initial=np.inf))
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
            k = int(blocking[np.argmin(ratios)])
            del active[k]
            mu = np.delete(mu, k)
    raise DistanceOracleError(
        f"active-set method did not terminate within {10 * (poly.m + poly.n)} steps",
        residuals={})


def _certify(poly: PolyhedronSpec, simple_set: SimpleSet, v, x, active, lam,
             nu: float, scale: float) -> None:
    """Raise ``DistanceOracleError`` unless (x, lam, nu) satisfies the KKT
    conditions of the projection of v within ``TOL_METRIC``."""
    s = poly.A @ x + poly.b
    grad = x - v + lam @ poly.A[active]
    comp = float(np.max(np.abs(lam * s[active]), initial=0.0))
    if nu > 0.0:
        d = x - simple_set.center
        grad = grad + 2.0 * nu * d
        comp = max(comp, nu * abs(float(d @ d) - simple_set.radius ** 2))
    residuals = {
        "stationarity": float(np.linalg.norm(grad)),
        "primal_violation": max(float(np.max(s)), 0.0),
        "ball_excess": float(np.linalg.norm(simple_set.project(x) - x)),
        "negative_multiplier": max(-float(np.min(lam, initial=0.0)), 0.0),
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
                         v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of v onto {Ax + b <= 0} intersect Y.

    Deterministic given its inputs; certified as the module docstring
    describes.  Raises ``EmptyFeasibleSetError`` when the set is empty and
    ``DistanceOracleError`` when the certificate fails.
    """
    v = as_point(v)
    if poly.m == 0:
        return simple_set.project(v)
    scale = 1.0 + float(np.max(np.abs(v)))
    x, active, lam = _project_polyhedron(poly, v, scale)
    nu = 0.0
    if not simple_set.contains(x):
        c, radius = simple_set.center, simple_set.radius

        def project_toward_center(theta):
            return _project_polyhedron(poly, (1.0 - theta) * v + theta * c, scale)

        # the largest theta below 1: nu stays finite, and the projection is
        # as close to the center as it gets
        lo, hi = 0.0, float(np.nextafter(1.0, 0.0))
        y, _, _ = project_toward_center(hi)
        if float(np.linalg.norm(y - c)) > radius:
            raise EmptyFeasibleSetError(
                "feasible set is empty: the ball does not meet the polyhedron")
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            y, _, _ = project_toward_center(mid)
            if float(np.linalg.norm(y - c)) > radius:
                lo = mid
            else:
                hi = mid
        x, active, mu = project_toward_center(hi)
        # 1 + 2 nu = 1 / (1 - theta) rescales the polyhedral multipliers
        nu = hi / (2.0 * (1.0 - hi))
        lam = mu / (1.0 - hi)
    _certify(poly, simple_set, v, x, active, lam, nu,
             max(scale, 1.0 + float(np.max(np.abs(x)))))
    return x


def distance_oracle(poly: PolyhedronSpec, simple_set: SimpleSet,
                    v: np.ndarray) -> float:
    """Certified distance from v to the feasible intersection."""
    return float(np.linalg.norm(project_intersection(poly, simple_set, v) - v))
