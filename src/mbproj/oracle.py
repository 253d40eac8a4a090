"""Problem data model: objective, constraint family and simple-set oracles.

Points are plain 1-D float64 numpy arrays of a fixed dimension; they are
treated as immutable by every routine in this package.  Oracles carry no
mutable state; random state always lives with the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

VALIDATION_TOL = 1e-9  # absolute slack allowed on sampled inequality checks


class OracleError(ValueError):
    """An oracle violated its contract (zero direction, non-finite output, ...)."""


def as_point(v) -> np.ndarray:
    """Coerce to a 1-D float64 array without copying when already one."""
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise OracleError(f"expected a 1-D point, got shape {a.shape}")
    return a


def check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise OracleError(f"{name} produced a non-finite value: {value!r}")


def fallback_direction(n: int) -> np.ndarray:
    """Fixed nonzero direction (first unit vector) used when the positive part is zero."""
    d = np.zeros(n)
    d[0] = 1.0
    return d


# ---------------------------------------------------------------------------
# simple sets


@dataclass(frozen=True)
class SimpleSet:
    """A closed convex set with a cheap exact Euclidean projection.

    Variants: ``whole-space``, ``box`` (per-coordinate bounds), ``ball``
    (center + radius) and ``halfspace`` ({x : <normal, x> + offset <= 0}).
    """

    variant: str
    dimension: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    normal: Optional[np.ndarray] = None
    offset: Optional[float] = None

    @staticmethod
    def whole_space(dimension: int) -> "SimpleSet":
        return SimpleSet("whole-space", dimension)

    @staticmethod
    def box(lower, upper) -> "SimpleSet":
        lower, upper = as_point(lower), as_point(upper)
        if lower.shape != upper.shape or np.any(lower > upper):
            raise OracleError("box bounds must satisfy lower <= upper componentwise")
        return SimpleSet("box", lower.size, lower=lower, upper=upper)

    @staticmethod
    def ball(center, radius: float) -> "SimpleSet":
        center = as_point(center)
        if radius <= 0:
            raise OracleError("ball radius must be positive")
        return SimpleSet("ball", center.size, center=center, radius=float(radius))

    @staticmethod
    def halfspace(normal, offset: float) -> "SimpleSet":
        normal = as_point(normal)
        if np.linalg.norm(normal) == 0:
            raise OracleError("halfspace normal must be nonzero")
        return SimpleSet("halfspace", normal.size, normal=normal, offset=float(offset))

    def project(self, v: np.ndarray) -> np.ndarray:
        """Exact Euclidean projection; returns ``v`` itself when already inside."""
        if self.variant == "whole-space":
            return v
        if self.variant == "box":
            return np.clip(v, self.lower, self.upper)
        if self.variant == "ball":
            d = v - self.center
            r = np.linalg.norm(d)
            if r <= self.radius:
                return v
            return self.center + d * (self.radius / r)
        if self.variant == "halfspace":
            s = float(self.normal @ v) + self.offset
            if s <= 0.0:
                return v
            return v - (s / float(self.normal @ self.normal)) * self.normal
        raise OracleError(f"unknown simple-set variant {self.variant!r}")

    def contains(self, v: np.ndarray, tol: float = 0.0) -> bool:
        return float(np.linalg.norm(self.project(v) - v)) <= tol


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class ObjectiveOracle:
    """Convex objective accessed through value and subgradient queries."""

    evaluate: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ConstraintFamily:
    """Constraint collection {x : g_w(x) <= 0}, one convex g_w per index w.

    ``size`` is the number of indices for a finite family (indices are
    0..size-1); ``None`` marks a generator-keyed infinite family, in which
    case callers supply index values themselves.  ``subgradient_plus`` must
    return a subgradient of max(g_w, 0) wherever g_w > 0 and any fixed
    nonzero vector elsewhere.  ``batch`` maps ``(indices, v)`` to the values
    and the directions (one row per index) in index order; it is the only
    path the solver queries.  A family may give a vectorized ``batch`` that
    agrees with the scalar oracles; otherwise one is derived that calls
    ``evaluate`` and ``subgradient_plus`` once per index.
    """

    size: Optional[int]
    evaluate: Callable[[object, np.ndarray], float]
    subgradient_plus: Callable[[object, np.ndarray], np.ndarray]
    batch: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

    def __post_init__(self):
        if self.batch is None:
            evaluate, subgradient_plus = self.evaluate, self.subgradient_plus

            def batch(indices, v):
                ws = np.asarray(indices).tolist()
                return (np.array([evaluate(w, v) for w in ws], dtype=np.float64),
                        np.array([subgradient_plus(w, v) for w in ws],
                                 dtype=np.float64))

            object.__setattr__(self, "batch", batch)


def empty_family() -> ConstraintFamily:
    """Family with no constraints; every point is feasible."""

    def _no_index(w, v):
        raise OracleError("empty constraint family has no indices")

    return ConstraintFamily(size=0, evaluate=_no_index, subgradient_plus=_no_index)


def linear_family(A, b) -> ConstraintFamily:
    """Family of affine constraints a_w^T x + b_w <= 0 given by matrix rows."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = as_point(b)
    if A.shape[0] != b.size:
        raise OracleError("row count of A must match length of b")

    def evaluate(w, v):
        return float(A[w] @ v + b[w])

    def subgradient_plus(w, v):
        return A[w]

    def batch(indices, v):
        rows = A[indices]
        return rows @ v + b[indices], rows

    return ConstraintFamily(size=A.shape[0], evaluate=evaluate,
                            subgradient_plus=subgradient_plus, batch=batch)


def distance_family(projectors: Sequence[Callable[[np.ndarray], np.ndarray]],
                    dimension: int) -> ConstraintFamily:
    """Adapter turning projectable sets into functional constraints.

    Each set with projection P becomes g(x) = dist(x, set) = ||x - P(x)||,
    whose positive-part subgradient is (x - P(x)) / dist(x, set) away from the
    set; subgradients have norm 1, so the family satisfies the bound M_g = 1.
    """
    projectors = list(projectors)

    def residual(w, v):
        r = v - projectors[w](v)
        return r, np.linalg.norm(r)

    def direction(r, dist):
        if dist == 0.0:
            return fallback_direction(dimension)
        return r / dist

    def evaluate(w, v):
        return float(residual(w, v)[1])

    def subgradient_plus(w, v):
        return direction(*residual(w, v))

    def batch(indices, v):
        # one projection per index serves both the value and the direction
        pairs = [residual(w, v) for w in np.asarray(indices).tolist()]
        return (np.array([dist for _, dist in pairs], dtype=np.float64),
                np.array([direction(r, dist) for r, dist in pairs],
                         dtype=np.float64))

    return ConstraintFamily(size=len(projectors), evaluate=evaluate,
                            subgradient_plus=subgradient_plus, batch=batch)


@dataclass(frozen=True)
class KnownOptimum:
    f_star: float
    x_star: np.ndarray


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance: oracles, simple set and the declared constants."""

    dimension: int
    objective: ObjectiveOracle
    constraints: ConstraintFamily
    simple_set: SimpleSet
    mu: float
    M_f: float
    M_g: float
    known_optimum: Optional[KnownOptimum] = None

    def __post_init__(self):
        if self.mu <= 0 or self.M_f <= 0 or self.M_g <= 0:
            raise OracleError("constants mu, M_f, M_g must be positive")
        if self.simple_set.dimension != self.dimension:
            raise OracleError("simple set dimension does not match problem dimension")


# ---------------------------------------------------------------------------
# operations


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}  worst margin {c.margin:+.3e}  {c.detail}")
        return "\n".join(lines)


def _sample_points(spec: ProblemSpec, n_samples: int, rng: np.random.Generator):
    """Seeded sample cloud in Y: projected Gaussians at a few radii."""
    ss = spec.simple_set
    if ss.variant == "ball":
        base, scale = ss.center, ss.radius
    elif ss.variant == "box":
        base = 0.5 * (ss.lower + ss.upper)
        scale = max(float(np.linalg.norm(ss.upper - ss.lower)) / 2.0, 1.0)
    else:
        base, scale = np.zeros(spec.dimension), 1.0
    radii = np.array([0.1, 0.5, 1.0])
    points = []
    for i in range(n_samples):
        g = rng.standard_normal(spec.dimension)
        r = radii[i % radii.size] * scale
        points.append(ss.project(base + r * g))
    return points


def validate_assumptions(spec: ProblemSpec, n_samples: int, seed: int) -> ValidationReport:
    """Empirically spot-check the declared problem assumptions on seeded samples.

    Checks subgradient bounds and convexity witnesses for the objective and
    the constraint family, projection idempotence / non-expansiveness / the
    projection decrease inequality, and, when an optimum is declared, its
    feasibility plus the strong-convexity-toward-the-optimum inequality.
    Each check reports its worst margin; a margin below -1e-9 fails.
    """
    if n_samples < 1:
        raise OracleError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    tol = VALIDATION_TOL

    try:
        points = _sample_points(spec, n_samples, rng)
    except OracleError as exc:
        report.checks.append(CheckResult("sampling", False, -np.inf, str(exc)))
        return report

    def add(name, margin, detail=""):
        report.checks.append(CheckResult(name, margin >= -tol, float(margin), detail))

    # objective subgradient bound and convexity
    margin, detail = np.inf, ""
    try:
        for x in points:
            s = np.asarray(spec.objective.subgradient(x), dtype=np.float64)
            check_finite("objective subgradient", s)
            m = spec.M_f - float(np.linalg.norm(s))
            if m < margin:
                margin, detail = m, f"witness point with |x| = {np.linalg.norm(x):.6g}"
        add("objective_subgradient_bound", margin, detail)
    except OracleError as exc:
        report.checks.append(CheckResult("objective_subgradient_bound", False, -np.inf, str(exc)))

    margin, detail = np.inf, ""
    try:
        for i in range(len(points) - 1):
            x, y = points[i], points[i + 1]
            fx = float(spec.objective.evaluate(x))
            fy = float(spec.objective.evaluate(y))
            check_finite("objective value", [fx, fy])
            s = np.asarray(spec.objective.subgradient(x), dtype=np.float64)
            m = fy - fx - float(s @ (y - x))
            if m < margin:
                margin, detail = m, f"pair index {i}"
        add("objective_convexity", margin, detail)
    except OracleError as exc:
        report.checks.append(CheckResult("objective_convexity", False, -np.inf, str(exc)))

    # constraint family checks (finite families only)
    fam = spec.constraints
    if fam.size is None:
        report.checks.append(CheckResult(
            "constraint_checks", True, np.inf,
            "skipped: infinite index space, sampling law is the caller's burden"))
    elif fam.size > 0:
        idx = rng.integers(0, fam.size, size=len(points))
        margin, detail = np.inf, ""
        try:
            for w, x in zip(idx, points):
                d = np.asarray(fam.subgradient_plus(int(w), x), dtype=np.float64)
                check_finite("constraint subgradient", d)
                m = spec.M_g - float(np.linalg.norm(d))
                if m < margin:
                    margin, detail = m, f"constraint index {int(w)}"
            add("constraint_subgradient_bound", margin, detail)
        except OracleError as exc:
            report.checks.append(CheckResult("constraint_subgradient_bound", False, -np.inf, str(exc)))

        margin, detail = np.inf, ""
        try:
            for i in range(len(points) - 1):
                w = int(idx[i])
                x, y = points[i], points[i + 1]
                gx = float(fam.evaluate(w, x))
                gy = float(fam.evaluate(w, y))
                check_finite("constraint value", [gx, gy])
                if gx <= 0.0:
                    continue  # direction is only a subgradient where g > 0
                d = np.asarray(fam.subgradient_plus(w, x), dtype=np.float64)
                m = max(gy, 0.0) - gx - float(d @ (y - x))
                if m < margin:
                    margin, detail = m, f"constraint index {w}"
            add("constraint_convexity", margin if margin < np.inf else np.inf, detail)
        except OracleError as exc:
            report.checks.append(CheckResult("constraint_convexity", False, -np.inf, str(exc)))

    # projection properties of Y
    ss = spec.simple_set
    margin = np.inf
    for x in points:
        p = ss.project(x)
        margin = min(margin, tol - float(np.linalg.norm(ss.project(p) - p)))
    add("projection_idempotent", margin)

    margin = np.inf
    raw = [p + 0.5 * rng.standard_normal(spec.dimension) for p in points]
    for i in range(len(raw) - 1):
        u, v = raw[i], raw[i + 1]
        margin = min(margin, float(np.linalg.norm(u - v))
                     - float(np.linalg.norm(ss.project(u) - ss.project(v))))
    add("projection_nonexpansive", margin)

    margin = np.inf
    for i in range(len(raw)):
        v = raw[i]
        y = ss.project(points[-1 - (i % len(points))])  # a member point
        pv = ss.project(v)
        slack = (float(np.linalg.norm(v - y)) ** 2
                 - float(np.linalg.norm(pv - v)) ** 2
                 - float(np.linalg.norm(pv - y)) ** 2)
        margin = min(margin, slack)
    add("projection_decrease", margin)

    # declared optimum
    if spec.known_optimum is not None:
        opt = spec.known_optimum
        viol = float(np.linalg.norm(ss.project(opt.x_star) - opt.x_star))
        if fam.size:
            for w in range(fam.size):
                viol = max(viol, max(float(fam.evaluate(w, opt.x_star)), 0.0))
        add("optimum_feasible", 1e-6 - viol, "tolerance 1e-6 on constraint violation")

        margin, detail = np.inf, ""
        for x in points:
            fx = float(spec.objective.evaluate(x))
            m = fx - opt.f_star - 0.5 * spec.mu * float(np.linalg.norm(x - opt.x_star)) ** 2
            if m < margin:
                margin, detail = m, f"witness at distance {np.linalg.norm(x - opt.x_star):.6g} from optimum"
        add("strong_convexity_toward_optimum", margin, detail)

    return report
