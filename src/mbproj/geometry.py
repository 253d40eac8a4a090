"""Polyhedral geometry: linear constraint systems with unit rows, their
constraint family, and an exact, certified distance-to-feasible-set oracle.

``PolyhedronSpec`` is the one owner of the rows A and b: it checks them once,
and ``linear_family`` reads them from it for the solver's constraint oracle.

``project_intersection`` computes the Euclidean projection of each row of
an (R, n) block of points v onto {x : Ax + b <= 0} intersected with the
ball Y (the whole space at radius inf); a 1-D point is the one-row case.
The polyhedral part is the Goldfarb-Idnani dual active-set method
with identity Hessian (Goldfarb & Idnani, Math. Programming 27, 1983): start
at x = v with no active rows, add the most violated row, and drop an active
row whose multiplier would turn negative on the way.  The active rows stay
linearly independent, so m > n is not degenerate, and a violated row in the
span of the active ones with no multiplier to release proves the polyhedron
empty.  When the polyhedral projection leaves the ball, the ball multiplier
nu comes from bisection on the nonincreasing |P_P((v + 2 nu c)/(1 + 2 nu)) - c|
= r, run in theta = 2 nu / (1 + 2 nu) over [0, 1).  The method advances
all of a block's rows at once, one step per row per outer step: one
product X A^T + b finds each row's most violated row, one stacked solve
over the rows' active sets, padded to a common width, prices each row's
add or drop, and a finished row leaves the search.  A block of one row
is not padded.  The rows that leave the ball bisect together, each over
its own interval.

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
start return the same bits.  For the same reason the search's own rounding,
which the padding and the other rows of a block change, is never returned:
the returned x and multipliers of a row are solved from its sorted final
set alone, unpadded, so a row of a block gets the bits of a call of its
point alone.  One routine makes these exact solves, of the starts and of
the final sets, stacked by set size: the rows whose sets have k rows make
one solve of a (G, k, k) stack, whose products N N^T, N w and mu N are
taken set by set, so each row rounds as a solve of its own set would.

Every projection is certified before it is returned: the KKT residuals
(stationarity, primal violation, ball excess, negative multipliers,
complementarity) must lie below ``TOL_METRIC`` times s = 1 + the largest
coordinate of v or x in magnitude (s^2 for complementarity, a product of two
lengths), checked for every row at once, or ``DistanceOracleError`` is
raised with the first failing row's.  The certificate computes A x + b and
s from the point it certifies, not from the method's bookkeeping; only the
ball test's projection of x is shared.  An empty feasible set raises
``EmptyFeasibleSetError``.  The oracle is the reference metric of the
harness and of the per-iteration inequality checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import ConstraintFamily, OracleError, SimpleSet, as_point, row_norms

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
        if not np.isfinite(b).all():
            raise OracleError("every entry of b must be finite")
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
        # ``take`` gathers the same rows as ``A[indices]``, with the same
        # out-of-range error, in half the time of a 2-D fancy index; every
        # oracle call of a run comes through here
        rows = A.take(indices, axis=0)
        # one dot product per value: each rounds the same whatever the
        # number of seeds and the width of the batch, which a stacked
        # matrix-vector product does not
        return np.vecdot(rows, v[:, None, :]) + b.take(indices), rows

    return ConstraintFamily(size=poly.m, batch=batch)


def max_violation(poly: PolyhedronSpec, v: np.ndarray):
    """Largest positive part over the linear constraints of each row of v,
    (R, n), an (R,) array; a float for a 1-D point.  0 iff all satisfied.
    One matrix-vector product per row, so a row rounds as ``A @ x + b`` of
    that row alone, whatever the number of rows."""
    V = np.asarray(v, dtype=np.float64)
    viol = np.maximum((np.matmul(poly.A, np.atleast_2d(V)[:, :, None])[:, :, 0]
                       + poly.b).max(axis=1), 0.0)
    return float(viol[0]) if V.ndim == 1 else viol


def _solve_active(A, b, W, S):
    """The points X = W - A[S]^T mu at which the rows S[i] of each point
    W[i], linearly independent, hold with equality, and their multipliers
    mu: one stacked solve for the (G, k) sets S of one size k.  Each product
    is one per set, so row i has the bits of a solve of its set alone."""
    N = A[S]
    mu = np.linalg.solve(N @ N.transpose(0, 2, 1),
                         ((N @ W[:, :, None])[:, :, 0] + b[S])[..., None])[..., 0]
    return W - (mu[:, None, :] @ N)[:, 0], mu


def _by_size(sets, rows):
    """The rows ``rows`` grouped by the size of their sets, and each group's
    sets as a (G, k) array."""
    groups = {}
    for i in rows:
        groups.setdefault(len(sets[i]), []).append(i)
    return [(np.array(idx), np.array([sets[i] for i in idx], dtype=np.intp))
            for idx in groups.values()]


def _resolve(A, b, W, X, active, mu, rows) -> list:
    """Solve X[i] and mu[i] of each row i of ``rows`` exactly from W[i] and
    its own set active[i], one stacked ``_solve_active`` per set size;
    returns the rows with a negative multiplier."""
    negative = []
    for idx, S in _by_size(active, rows):
        X[idx], lam = _solve_active(A, b, W[idx], S)
        for i, m in zip(idx.tolist(), lam):
            mu[i] = m
        if (lam < 0.0).any():
            negative += idx[(lam < 0.0).any(axis=1)].tolist()
    return negative


def _project_polyhedron(poly: PolyhedronSpec, W: np.ndarray, scale: np.ndarray,
                        starts):
    """Projections of the rows of W, (R, n), onto {Ax + b <= 0} by the dual
    active-set method, each warm-started from its own linearly independent
    rows in ``starts`` and violated above EPS times its entry of ``scale``.

    Returns (X, active, mu): X (R, n), and per row its sorted active rows and
    their multipliers, with X[i] = W[i] - A[active[i]]^T mu[i], mu[i] >= 0
    and the active rows linearly independent and tight at X[i].  Raises
    ``EmptyFeasibleSetError`` when the polyhedron is empty.  Every exact
    solve, of a start or of a final set, is ``_resolve``'s.
    """
    A, b = poly.A, poly.b
    count, n = W.shape
    X, active, mu = W.copy(), [sorted(start) for start in starts], [np.zeros(0)] * count
    # each start with its multipliers, dropping negative ones until none is
    # left: a dual feasible point to start from
    pending = started = [i for i, rows in enumerate(active) if rows]
    while pending:
        pending = _resolve(A, b, W, X, active, mu, pending)
        for i in pending:
            active[i] = [row for row, m in zip(active[i], mu[i].tolist()) if m >= 0.0]
    threshold = EPS * scale
    if not np.count_nonzero((X @ A.T + b).max(axis=1) > threshold):
        return X, active, mu
    # slot 0 of each row holds the row it is adding, slots 1 to size its
    # active rows, the latest to join first, and lams their multipliers,
    # slot 0 the adding row's so far; a start's rows are filled in sorted
    slots, lams = np.zeros((count, n + 1), dtype=np.intp), np.zeros((count, n + 1))
    for idx, S in _by_size(active, started):
        slots[idx, 1:S.shape[1] + 1], lams[idx, 1:S.shape[1] + 1] = S, [mu[i] for i in idx]
    size = np.array([len(rows) for rows in active], dtype=np.intp)
    # the rows still searching advance together, compacted: each with its
    # original row, point, slots, multipliers, size and threshold
    origin, x, at = np.arange(count), X, np.arange(count)
    joined, moved, AT, width = np.ones(count, dtype=bool), [], A.T, None
    # the method is finite; the cap only guards against cycling in rounding
    for step in range(10 * (poly.m + poly.n)):
        # a row that joined looks for the next most violated row, and is done
        # when none is violated above its threshold
        s = x @ AT + b
        np.copyto(slots[:, 0], s.argmax(axis=1), where=joined)
        viol = s[at, slots[:, 0]]
        done = joined & ~(viol > threshold)
        if np.count_nonzero(done):
            if step:
                for j in np.flatnonzero(done):
                    active[origin[j]] = sorted(slots[j, 1:size[j] + 1].tolist())
                    moved.append(origin[j])
            keep = ~done
            if not np.count_nonzero(keep):
                break
            origin, x, slots, lams, size, threshold, viol = (
                origin[keep], x[keep], slots[keep], lams[keep], size[keep],
                threshold[keep], viol[keep])
            at, width = np.arange(len(x)), None
        # one stacked solve over the active sets, padded to a common width:
        # a pad is a zero row of N, an identity row of N N^T, and solves to 0
        if width is None:      # the widest set, unless every row joined
            width = int(size.max())
            padded = size.min() < width
        block = A[slots[:, :width + 1]]
        a_p, N = block[:, 0], block[:, 1:]
        if padded:
            pad = np.arange(width) >= size[:, None]
            N[pad] = 0.0
        gram = block @ block.transpose(0, 2, 1)
        if padded:
            gram.reshape(len(x), -1)[:, width + 2::width + 2] += pad
        r = np.linalg.solve(gram[:, 1:, 1:], gram[:, 1:, :1])[:, :, 0]
        z = a_p - (r[:, None, :] @ N)[:, 0]
        zz = np.vecdot(z, z)
        dependent = zz <= EPS * EPS    # a_p lies in the span of the active rows
        full = viol / np.maximum(zz, EPS * EPS)
        lam = lams[:, 1:width + 1]
        ratios = np.divide(lam, r, out=np.full_like(r, np.inf), where=r > EPS)
        partial = ratios.min(axis=1, initial=np.inf)
        if np.count_nonzero(dependent):
            full[dependent] = np.inf
            t = np.minimum(full, partial)
            if np.isinf(t).any():
                j = int(np.argmax(np.isinf(t)))
                raise EmptyFeasibleSetError(
                    f"feasible set is empty: row {slots[j, 0]} is violated and in "
                    f"the span of rows {sorted(slots[j, 1:size[j] + 1].tolist())} "
                    f"with no multiplier to release")
            z[dependent] = 0.0
        else:
            t = np.minimum(full, partial)
        x = x - t[:, None] * z
        lam -= t[:, None] * r
        lams[:, 0] += t
        # a blocking row that leaves hands its slot and those after it to the
        # rows after it; a row that joins shifts its slots one to the right,
        # so the added row becomes slot 1 and slot 0 is free for the next
        joined = full <= partial
        if np.count_nonzero(joined) < len(x):
            drop = np.flatnonzero(~joined)
            column = np.arange(1, width + 1)
            source = np.minimum(
                column + (column > ratios[drop].argmin(axis=1)[:, None]), width)
            slots[drop, 1:width + 1] = np.take_along_axis(slots[drop], source, axis=1)
            lams[drop, 1:width + 1] = np.take_along_axis(lams[drop], source, axis=1)
            size[drop] -= 1
            width = None
        np.copyto(slots[:, 1:], slots[:, :-1], where=joined[:, None])
        np.copyto(lams[:, 1:], lams[:, :-1], where=joined[:, None])
        np.copyto(lams[:, 0], 0.0, where=joined)
        size += joined
        if width is not None:
            width += 1
    else:
        raise DistanceOracleError(
            f"active-set method did not terminate within {10 * (poly.m + poly.n)} steps",
            residuals={})
    # the returned bits are solved from each moved row's sorted final set alone
    _resolve(A, b, W, X, active, mu, moved)
    return X, active, mu


def _certify(poly: PolyhedronSpec, simple_set: SimpleSet, V, X, active, lam,
             nu: np.ndarray, excess: np.ndarray) -> None:
    """Raise ``DistanceOracleError``, naming the first failing row, unless
    each row's (X[i], lam[i], nu[i]) satisfies the KKT conditions of the
    projection of V[i] within ``TOL_METRIC``, given its ball excess
    |P_Y(X[i]) - X[i]|; A x + b and the scale are computed here from X.
    The multipliers enter an (R, m) matrix by one flat-index assignment."""
    s = X @ poly.A.T + poly.b
    scale = 1.0 + np.abs(np.concatenate((V, X), axis=1)).max(axis=1)
    # each row's multipliers on its active rows, 0 on the others
    full, m = np.zeros_like(s), poly.m
    full.ravel()[[i * m + row for i, rows in enumerate(active) for row in rows]] = \
        np.concatenate(lam)
    grad = X - V + full @ poly.A
    comp = np.abs(full * s).max(axis=1)
    if np.count_nonzero(nu):
        ball = np.flatnonzero(nu > 0.0)
        d = X[ball] - simple_set.center
        grad[ball] += 2.0 * nu[ball, None] * d
        comp[ball] = np.maximum(comp[ball], nu[ball] * np.abs(
            np.vecdot(d, d) - simple_set.radius ** 2))
    residuals = np.maximum(np.array([row_norms(grad), s.max(axis=1), excess,
                                     -full.min(axis=1), comp]), 0.0)
    bound = TOL_METRIC * scale
    failed = ~(residuals <= bound)
    # complementarity is a product of two lengths
    failed[-1] = ~(comp <= bound * scale)
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        names = ("stationarity", "primal_violation", "ball_excess",
                 "negative_multiplier", "complementarity")
        row = dict(zip(names, residuals[:, i].tolist()))
        raise DistanceOracleError(
            f"projection certificate failed for point {i} "
            f"({', '.join(np.compress(failed[:, i], names))} above "
            f"{bound[i]:g} at scale {scale[i]:g}); residuals {row}", residuals=row)


def project_intersection(poly: PolyhedronSpec, simple_set: SimpleSet,
                         v: np.ndarray, active: Optional[list] = None) -> np.ndarray:
    """Exact Euclidean projection of each row of v, (R, n), onto
    {Ax + b <= 0} intersect Y; a 1-D point is one row, returned 1-D.

    ``active``, when given, holds one list of linearly independent rows per
    row of v (for a 1-D point, the one list), such as the final active set
    of an earlier call: each projection starts from its own, and on return
    each list holds its row's final active set.  No row's result depends on
    its start or on the other rows (see the module docstring).  Certified
    as the module docstring describes, from x itself and the ball
    projection the method computed.  Raises ``EmptyFeasibleSetError`` when
    the set is empty and ``DistanceOracleError`` when a certificate fails.
    """
    V = np.asarray(v, dtype=np.float64)
    one = V.ndim == 1
    if one:
        V = V[None]
    starts = [()] * len(V) if active is None else [active] if one else active
    scale = 1.0 + np.abs(V).max(axis=1)
    X, rows, lam = _project_polyhedron(poly, V, scale, starts)
    nu, excess = np.zeros(len(V)), row_norms(simple_set.project(X) - X)
    ball = np.flatnonzero(~(excess <= 0.0))
    if ball.size:
        c, radius, w = simple_set.center, simple_set.radius, V[ball]

        def project_toward_center(theta, of, starts):
            return _project_polyhedron(
                poly, (1.0 - theta)[:, None] * w[of] + theta[:, None] * c,
                scale[ball[of]], starts)

        # the rows that leave the ball bisect together, each over its own
        # [lo, hi]; hi starts at the largest theta below 1: nu stays finite,
        # and the projection is as close to the center as it gets.  Each
        # step starts a row from its rows of the step before.
        every = np.arange(ball.size)
        lo, hi = np.zeros(ball.size), np.full(ball.size, np.nextafter(1.0, 0.0))
        y, sets, _ = project_toward_center(hi, every, [rows[i] for i in ball])
        if (row_norms(y - c) > radius).any():
            raise EmptyFeasibleSetError(
                "feasible set is empty: the ball does not meet the polyhedron")
        while True:
            mid = 0.5 * (lo + hi)
            of = np.flatnonzero((lo < mid) & (mid < hi))
            if not of.size:
                break
            y, moved, _ = project_toward_center(mid[of], of, [sets[j] for j in of])
            for j, final in zip(of, moved):
                sets[j] = final
            out = row_norms(y - c) > radius
            lo[of[out]], hi[of[~out]] = mid[of[out]], mid[of[~out]]
        X[ball], sets, mu = project_toward_center(hi, every, sets)
        # 1 + 2 nu = 1 / (1 - theta) rescales the polyhedral multipliers
        nu[ball] = hi / (2.0 * (1.0 - hi))
        for j, i in enumerate(ball):
            rows[i], lam[i] = sets[j], mu[j] / (1.0 - hi[j])
        excess[ball] = row_norms(simple_set.project(X[ball]) - X[ball])
    _certify(poly, simple_set, V, X, rows, lam, nu, excess)
    if active is not None:
        for start, final in zip(starts, rows):
            start[:] = final
    return X[0] if one else X


def distance_oracle(poly: PolyhedronSpec, simple_set: SimpleSet,
                    v: np.ndarray, active: Optional[list] = None):
    """Certified distance from each row of v, (R, n), to the feasible
    intersection, an (R,) array; a float for a 1-D point.  ``active`` as
    for ``project_intersection``."""
    d = row_norms(project_intersection(poly, simple_set, v, active) - v)
    return float(d) if d.ndim == 0 else d
