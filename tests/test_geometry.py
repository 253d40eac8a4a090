import math

import numpy as np
import pytest

from mbproj import geometry
from mbproj.geometry import (DistanceOracleError, EmptyFeasibleSetError,
                             PolyhedronSpec, distance_oracle, max_violation,
                             project_intersection)
from mbproj.oracle import OracleError, SimpleSet
from mbproj.problems import BUILTINS, make_builtin, make_orthant2, make_polyhedral_benchmark

QUADRANT = PolyhedronSpec(A=np.eye(2), b=np.zeros(2))  # x1 <= 0, x2 <= 0
PLANE = SimpleSet.whole_space(2)


def brute_force_distance(poly, v, ball=None, half_width=6.0):
    """Independent 2-D oracle: exhaustive grid search with zoom-in levels.

    Each level lays a full 81 x 81 grid over a square around the current best
    feasible point and keeps the feasible grid point closest to v; with a
    ``ball`` (a SimpleSet) a feasible point must also lie in it.  The grid
    error per level is below half a spacing, so shrinking the square by 0.35
    keeps the true minimizer inside every subsequent square.
    """
    center = np.zeros(2)
    best_d, best_p = None, None
    for _ in range(26):
        pts = np.linspace(-half_width, half_width, 81)
        g1, g2 = np.meshgrid(pts, pts, indexing="ij")
        cloud = np.column_stack([g1.ravel(), g2.ravel()]) + center
        feasible = np.all(cloud @ poly.A.T + poly.b <= 1e-12, axis=1)
        if ball is not None:
            feasible &= np.linalg.norm(cloud - ball.center, axis=1) <= ball.radius
        if np.any(feasible):
            pts_ok = cloud[feasible]
            dists = np.linalg.norm(pts_ok - v, axis=1)
            i = int(np.argmin(dists))
            if best_d is None or dists[i] < best_d:
                best_d, best_p = float(dists[i]), pts_ok[i]
        center = best_p
        half_width *= 0.35
    return best_d


def reference_dykstra(poly, simple_set, v, tol=1e-12):
    """Dykstra's alternating projections over the rows, then the simple set,
    stopped once a sweep moves the distance by less than tol / 10 and every
    row holds within tol."""
    x, prev = v.copy(), np.inf
    increments = np.zeros((poly.m + 1, v.size))
    while True:
        for i in range(poly.m + 1):
            y = x + increments[i]
            if i < poly.m:
                x = y - max(float(poly.A[i] @ y) + poly.b[i], 0.0) * poly.A[i]
            else:
                x = simple_set.project(y)
            increments[i] = y - x
        dist = float(np.linalg.norm(x - v))
        if abs(dist - prev) < tol / 10 and max_violation(poly, x) < tol:
            return dist
        prev = dist


def assert_kkt(poly, simple_set, v, x, tol=1e-9):
    """x is the projection of v: feasible, and v - x is a nonnegative
    combination of the tight rows and, on the sphere, of x - center."""
    s = poly.A @ x + poly.b
    assert s.max() <= tol
    normals = [poly.A[s >= -tol]]
    if math.isfinite(simple_set.radius):
        gap = float(np.linalg.norm(x - simple_set.center)) - simple_set.radius
        assert gap <= tol
        if gap >= -tol:
            normals.append((x - simple_set.center)[None, :])
    M = np.vstack(normals).T
    mult, *_ = np.linalg.lstsq(M, v - x, rcond=None)
    assert np.linalg.norm(M @ mult - (v - x)) <= tol
    assert mult.min(initial=0.0) >= -tol


def random_2d_ball_cases(seed, count):
    """(poly, ball, v) triples whose polyhedral projection leaves the ball."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        A = rng.standard_normal((4, 2))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=-rng.uniform(0.2, 0.8, size=4))
        ball = SimpleSet.ball(rng.uniform(-0.5, 0.5, size=2), 1.0)
        v = 3.0 * rng.standard_normal(2)
        x = project_intersection(poly, PLANE, v)
        if not np.array_equal(ball.project(x), x):
            cases.append((poly, ball, v))
    return cases


class TestMaxViolation:
    def test_componentwise(self):
        assert max_violation(QUADRANT, np.array([3.0, 4.0])) == 4.0

    def test_strictly_feasible(self):
        assert max_violation(QUADRANT, np.array([-1.0, -1.0])) == 0.0

    def test_boundary_point(self):
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0]]), b=np.array([-1.0]))
        assert max_violation(poly, np.array([1.0, 0.0])) == 0.0

    def test_never_violated_row(self):
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0]]), b=np.array([-1e6]))
        assert max_violation(poly, np.array([9.0, 9.0])) == 0.0


    @pytest.mark.parametrize("builtin", sorted(BUILTINS))
    def test_block_rows_have_their_one_row_bits(self, builtin):
        # one matrix-vector product per row: each value of a block is the
        # one-row value A @ x + b, bit for bit, feasible rows' 0 included
        inst = make_builtin(builtin, n=10, m=20, seed=0)
        poly, x_star = inst.poly, inst.spec.known_optimum.x_star
        rng = np.random.default_rng(len(builtin))
        V = x_star + rng.standard_normal((18, poly.n)) * rng.uniform(0.01, 3.0, (18, 1))
        V[0] = 0.5 * x_star
        want = np.array([max(np.max(poly.A @ v + poly.b), 0.0) for v in V])
        got = max_violation(poly, V)
        assert got.shape == (18,) and got.tobytes() == want.tobytes()
        assert got[0] == 0.0 and got.max() > 0.0
        for rows in (slice(5, 6), [3, 17, 0]):
            assert max_violation(poly, V[rows]).tobytes() == want[rows].tobytes()

    def test_a_point_gives_a_float(self):
        assert type(max_violation(QUADRANT, np.array([3.0, 4.0]))) is float
        assert type(max_violation(QUADRANT, np.array([-1.0, -1.0]))) is float


class TestPolyhedronSpec:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(OracleError, match="unit"):
            PolyhedronSpec(A=np.array([[2.0, 0.0]]), b=np.array([0.0]))

    def test_rejects_no_rows(self):
        # the paper's problem always has functional constraints
        with pytest.raises(OracleError, match="at least one constraint row"):
            PolyhedronSpec(A=np.zeros((0, 2)), b=np.zeros(0))


class TestDistanceOracle:
    def test_quadrant_distance(self):
        assert distance_oracle(QUADRANT, PLANE, np.array([3.0, 4.0])) == \
            pytest.approx(5.0, abs=1e-8)

    def test_feasible_point_zero(self):
        assert distance_oracle(QUADRANT, PLANE, np.array([-0.5, -2.0])) == \
            pytest.approx(0.0, abs=1e-8)

    def test_slab_distance(self):
        # 0 >= x1 >= -1
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                              b=np.array([0.0, -1.0]))
        assert distance_oracle(poly, PLANE, np.array([2.0, 0.0])) == \
            pytest.approx(2.0, abs=1e-8)

    def test_projection_is_returned_point(self):
        p = project_intersection(QUADRANT, PLANE, np.array([3.0, 4.0]))
        np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-8)

    def test_agrees_with_brute_force_on_2d(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 2))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=-rng.uniform(0.2, 0.8, size=4))
        for _ in range(5):
            v = 3.0 * rng.standard_normal(2)
            d_fast = distance_oracle(poly, PLANE, v)
            d_slow = brute_force_distance(poly, v)
            assert d_fast == pytest.approx(d_slow, abs=1e-6)

    def test_simple_set_participates(self):
        # intersection of x1 <= 0 with the unit ball centered at (0, 3)
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0]]), b=np.array([0.0]))
        ball = SimpleSet.ball(np.array([0.0, 3.0]), 1.0)
        d = distance_oracle(poly, ball, np.array([0.0, 0.0]))
        assert d == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("simple_set", [PLANE, SimpleSet.ball(np.zeros(2), 10.0)],
                             ids=["plane", "ball"])
    def test_empty_intersection_raises(self, simple_set):
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                              b=np.array([0.0, 1.0]))  # x1 <= 0 and x1 >= 1
        with pytest.raises(EmptyFeasibleSetError, match="feasible set is empty"):
            project_intersection(poly, simple_set, np.array([0.3, 0.2]))

    def test_ball_missing_the_polyhedron_raises(self):
        poly = PolyhedronSpec(A=np.array([[-1.0, 0.0]]), b=np.array([20.0]))
        with pytest.raises(EmptyFeasibleSetError, match="ball"):
            project_intersection(poly, SimpleSet.ball(np.zeros(2), 10.0),
                                 np.array([0.3, 0.2]))

    def test_single_point_intersection(self):
        # x1 >= 10 touches the radius-10 ball only at (10, 0); the ball
        # multiplier grows without bound toward it
        poly = PolyhedronSpec(A=np.array([[-1.0, 0.0]]), b=np.array([10.0]))
        p = project_intersection(poly, SimpleSet.ball(np.zeros(2), 10.0),
                                 np.array([0.3, 0.2]))
        np.testing.assert_allclose(p, [10.0, 0.0], atol=1e-6)

    def test_failed_certificate_carries_residuals(self, monkeypatch):
        monkeypatch.setattr(geometry, "TOL_METRIC", -1.0)
        with pytest.raises(DistanceOracleError) as err:
            project_intersection(QUADRANT, PLANE, np.array([3.0, 4.0]))
        assert set(err.value.residuals) == {
            "stationarity", "primal_violation", "ball_excess",
            "negative_multiplier", "complementarity"}
        assert err.value.residuals["primal_violation"] == 0.0

    def test_ball_active_agrees_with_brute_force(self):
        for poly, ball, v in random_2d_ball_cases(seed=11, count=6):
            d_fast = distance_oracle(poly, ball, v)
            assert d_fast == pytest.approx(brute_force_distance(poly, v, ball),
                                           abs=1e-6)

    @pytest.mark.parametrize("ball_active", [False, True])
    def test_kkt_conditions_hold(self, ball_active):
        if ball_active:
            cases = random_2d_ball_cases(seed=12, count=8)
        else:
            inst = make_polyhedral_benchmark(10, 20, seed=4)
            rng = np.random.default_rng(4)
            x_star = inst.spec.known_optimum.x_star
            cases = [(inst.poly, inst.spec.simple_set,
                      x_star + 2.0 * rng.standard_normal(10)) for _ in range(8)]
        for poly, simple_set, v in cases:
            assert_kkt(poly, simple_set, v, project_intersection(poly, simple_set, v))

    @pytest.mark.parametrize("ball_active", [False, True])
    def test_distance_is_the_norm_of_the_projection_step(self, ball_active,
                                                         monkeypatch):
        # bit for bit np.linalg.norm; a point whose polyhedral projection
        # leaves the ball takes the ball branch, a bisection of many
        # polyhedral projections, and ends in the ball
        if ball_active:
            cases = random_2d_ball_cases(seed=13, count=8)
        else:
            inst = make_polyhedral_benchmark(10, 20, seed=5)
            rng = np.random.default_rng(5)
            x_star = inst.spec.known_optimum.x_star
            cases = [(inst.poly, inst.spec.simple_set,
                      x_star + 2.0 * rng.standard_normal(10)) for _ in range(8)]
        calls = []
        polyhedron = geometry._project_polyhedron

        def counted(*args):
            calls.append(args)
            return polyhedron(*args)

        monkeypatch.setattr(geometry, "_project_polyhedron", counted)
        for poly, simple_set, v in cases:
            del calls[:]
            x = project_intersection(poly, simple_set, v)
            assert (len(calls) > 1) == ball_active
            assert np.linalg.norm(simple_set.project(x) - x) <= 1e-9
            assert distance_oracle(poly, simple_set, v) == float(np.linalg.norm(x - v))

    @pytest.mark.parametrize("n,m", [(10, 20), (50, 200)])
    def test_agrees_with_reference_dykstra(self, n, m):
        inst = make_polyhedral_benchmark(n, m, seed=0)
        rng = np.random.default_rng(n)
        x_star = inst.spec.known_optimum.x_star
        points = [inst.pull_center] + [x_star + rng.standard_normal(n) / np.sqrt(n)
                                       for _ in range(2)]
        for v in points:
            assert distance_oracle(inst.poly, inst.spec.simple_set, v) == \
                pytest.approx(reference_dykstra(inst.poly, inst.spec.simple_set, v),
                              abs=1e-8)

    def test_zero_iff_feasible(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((5, 3))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=-rng.uniform(0.3, 1.0, size=5))
        ball = SimpleSet.ball(np.zeros(3), 5.0)
        for _ in range(20):
            v = ball.project(2.0 * rng.standard_normal(3))
            d = distance_oracle(poly, ball, v)
            feas = max_violation(poly, v) <= 1e-8
            assert (d <= 1e-7) == feas

    def test_violation_bounded_by_distance(self):
        # each positive part is at most M_g times the distance to the full
        # intersection (with unit rows, M_g = 1)
        rng = np.random.default_rng(14)
        A = rng.standard_normal((5, 3))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=-rng.uniform(0.2, 0.7, size=5))
        ball = SimpleSet.ball(np.zeros(3), 5.0)
        for _ in range(25):
            y = ball.project(3.0 * rng.standard_normal(3))
            dist = distance_oracle(poly, ball, y)
            gplus = np.maximum(poly.A @ y + poly.b, 0.0)
            assert np.max(gplus) <= dist + 1e-7


class TestWarmStart:
    """A projection started from a list of rows ends where a cold one does,
    bit for bit, and leaves its own final active set in the list."""

    @staticmethod
    def points(inst, count, seed):
        rng = np.random.default_rng(seed)
        x_star = inst.spec.known_optimum.x_star
        step = rng.standard_normal((count, x_star.size))
        return x_star + np.cumsum(step, axis=0) / np.sqrt(x_star.size)

    @pytest.mark.parametrize("n,m", [(10, 20), (50, 200)])
    def test_previous_points_set_gives_the_cold_bits(self, n, m, monkeypatch):
        inst = make_polyhedral_benchmark(n, m, seed=0)
        poly, ball = inst.poly, inst.spec.simple_set
        certified = []
        certify = geometry._certify

        def recording(poly, simple_set, v, x, *args):
            certified.append(x)
            return certify(poly, simple_set, v, x, *args)

        monkeypatch.setattr(geometry, "_certify", recording)
        active = []
        for v in self.points(inst, 12, seed=n):
            x = project_intersection(poly, ball, v, active)
            cold = project_intersection(poly, ball, v)
            assert x.tobytes() == cold.tobytes()
            # the certified block is the one whose row is returned
            assert x.base is certified[-2]
            assert active == sorted(active)
            assert_kkt(poly, ball, v, x)

    def test_stale_set_with_negative_multipliers(self):
        inst = make_polyhedral_benchmark(50, 200, seed=0)
        poly, ball = inst.poly, inst.spec.simple_set
        near, other = self.points(inst, 2, seed=1)
        x_star = inst.spec.known_optimum.x_star
        far = x_star + 3.0 * (other - x_star)
        stale = []
        project_intersection(poly, ball, far, stale)
        # the stale rows' own multipliers at `near` are partly negative, so
        # the start drops rows before the active-set method runs
        N = poly.A[stale]
        assert np.linalg.solve(N @ N.T, N @ near + poly.b[stale]).min() < 0.0
        for start in (stale, []):
            active = list(start)
            x = project_intersection(poly, ball, near, active)
            assert x.tobytes() == project_intersection(poly, ball, near).tobytes()

    @pytest.mark.parametrize("n,m", [(10, 20), (50, 200)])
    def test_own_final_set_is_a_fixed_point(self, n, m):
        inst = make_polyhedral_benchmark(n, m, seed=0)
        poly, ball = inst.poly, inst.spec.simple_set
        for v in self.points(inst, 4, seed=m):
            active = []
            x = project_intersection(poly, ball, v, active)
            final = list(active)
            assert final
            again = project_intersection(poly, ball, v, active)
            assert active == final
            assert again.tobytes() == x.tobytes()

    def test_feasible_point_from_a_warm_start(self):
        # a strictly feasible point drops every warm row: the final active
        # set is empty, solved as any other, and x has the point's bits,
        # -0.0 included, from a warm start and a cold one
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        poly, ball = inst.poly, inst.spec.simple_set
        stale = []
        project_intersection(poly, ball,
                             inst.spec.known_optimum.x_star + 3.0 * poly.A[0], stale)
        assert stale
        v = np.full(10, -0.0)
        assert (poly.A @ v + poly.b).max() < 0.0
        for start in (stale, []):
            active = list(start)
            x = project_intersection(poly, ball, v, active)
            assert active == []
            assert x.tobytes() == v.tobytes()

    @pytest.mark.parametrize("ball", [False, True], ids=["plane", "ball"])
    def test_empty_polyhedron_raises_from_a_warm_start(self, ball):
        # row 0 of the benchmark reversed and pushed past it: a_0 x >= 1 - b_0
        # and a_0 x <= -b_0 cannot both hold
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        A = np.vstack([inst.poly.A, -inst.poly.A[:1]])
        b = np.append(inst.poly.b, 1.0 + inst.poly.b[0])
        empty = PolyhedronSpec(A=A, b=b)
        simple_set = inst.spec.simple_set if ball else SimpleSet.whole_space(10)
        active = []
        v = inst.spec.known_optimum.x_star + 3.0 * inst.poly.A[0]
        project_intersection(inst.poly, simple_set, v, active)
        assert active
        with pytest.raises(EmptyFeasibleSetError, match="feasible set is empty"):
            project_intersection(empty, simple_set, v, list(active))


class TestStackedRows:
    """A block of points projects as its rows do alone: each row of one
    stacked call has the bits of a one-row call from its own start, in x,
    in distance and in final active set, whatever the other rows are."""

    @staticmethod
    def case(seed):
        """A benchmark, points about x* (the first strictly feasible), a
        ball Y about the origin that half of their polyhedral projections
        leave, and the final active sets of far points, stale at these."""
        inst = make_polyhedral_benchmark(10, 20, seed=seed)
        poly, x_star = inst.poly, inst.spec.known_optimum.x_star
        rng = np.random.default_rng(seed)
        V = x_star + rng.standard_normal((12, 10)) * rng.uniform(0.1, 2.0, (12, 1))
        V[0] = 0.5 * x_star
        polyhedral = project_intersection(poly, SimpleSet.whole_space(10), V)
        ball = SimpleSet.ball(np.zeros(10),
                              float(np.median(np.linalg.norm(polyhedral, axis=1))))
        leave = (ball.project(polyhedral) != polyhedral).any(axis=1)
        assert 0 < np.count_nonzero(leave) < len(V)
        stale = [[] for _ in V]
        project_intersection(poly, ball, x_star + 3.0 * (V[::-1] - x_star), stale)
        return poly, ball, V, stale

    @staticmethod
    def alone(poly, simple_set, V, starts):
        """Each row's x bits, distance and final active set, one row a call."""
        out = []
        for v, start in zip(V, starts):
            active = list(start)
            x = project_intersection(poly, simple_set, v, active)
            out.append((x.tobytes(), distance_oracle(poly, simple_set, v, list(start)),
                        active))
        return out

    @staticmethod
    def together(poly, simple_set, V, starts):
        """The same of one stacked call for all of V's rows."""
        active = [list(start) for start in starts]
        X = project_intersection(poly, simple_set, V, active)
        d = distance_oracle(poly, simple_set, V, [list(start) for start in starts])
        assert X.shape == V.shape and d.shape == (len(V),)
        return [(x.tobytes(), float(dist), rows) for x, dist, rows in zip(X, d, active)]

    def assert_rows_alone(self, poly, simple_set, V, starts, seed):
        want = self.alone(poly, simple_set, V, starts)
        assert self.together(poly, simple_set, V, starts) == want
        # a row's result does not depend on the other rows of its call
        rng = np.random.default_rng(seed)
        for rows in (rng.permutation(len(V)), rng.choice(len(V), 5, replace=False)):
            assert self.together(poly, simple_set, V[rows],
                                 [starts[i] for i in rows]) == [want[i] for i in rows]

    @pytest.mark.parametrize("start", ["empty", "stale", "own"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_have_their_one_row_bits(self, seed, start):
        poly, ball, V, stale = self.case(seed)
        if start == "stale":
            starts = stale
            # some stale rows' multipliers are negative at their points
            assert any(np.linalg.solve(poly.A[s] @ poly.A[s].T,
                                       poly.A[s] @ v + poly.b[s]).min() < 0.0
                       for s, v in zip(stale, V))
        elif start == "own":
            starts = [rows for _, _, rows in self.alone(poly, ball, V, [()] * len(V))]
        else:
            starts = [[] for _ in V]
        self.assert_rows_alone(poly, ball, V, starts, seed)

    @pytest.mark.parametrize("builtin", ["orthant2", "benchmark"])
    def test_full_active_sets(self, builtin):
        # vertices of the plane: n rows active, so the search pads to n
        # slots at most, also at a step from a full set
        inst = make_orthant2() if builtin == "orthant2" else \
            make_polyhedral_benchmark(2, 8, seed=0)
        plane = SimpleSet.whole_space(2)
        V = 4.0 * np.random.default_rng(2).standard_normal((16, 2))
        final = [[] for _ in V]
        project_intersection(inst.poly, plane, V, final)
        assert any(len(rows) == 2 for rows in final)
        for starts in ([[] for _ in V], final[::-1]):
            self.assert_rows_alone(inst.poly, plane, V, starts, seed=3)

    def test_errors_raise_from_a_stacked_call(self, monkeypatch):
        poly, ball, V, stale = self.case(0)
        # row 0 reversed and pushed past it: the polyhedron is empty
        empty = PolyhedronSpec(A=np.vstack([poly.A, -poly.A[:1]]),
                               b=np.append(poly.b, 1.0 + poly.b[0]))
        for simple_set in (ball, SimpleSet.whole_space(10)):
            with pytest.raises(EmptyFeasibleSetError, match="feasible set is empty"):
                project_intersection(empty, simple_set, V, [list(s) for s in stale])
        # at TOL_METRIC 0 a strictly feasible point, its own projection, is
        # still certified, and the first point that moves is named
        monkeypatch.setattr(geometry, "TOL_METRIC", 0.0)
        block = V[[0, 0, 5, 0, 7]]
        with pytest.raises(DistanceOracleError, match="for point 2 ") as err:
            distance_oracle(poly, ball, block)
        assert max(err.value.residuals.values()) > 0.0


class TestStackedSolves:
    """The exact solves of the starts and of the final sets, stacked by set
    size, have the bits of the one-row solve x = w - N^T mu, N N^T mu =
    N w + b_S, kept here as the reference."""

    @staticmethod
    def one_row(A, b, w, rows):
        N = A[rows]
        mu = np.linalg.solve(N @ N.T, N @ w + b[rows])
        return w - mu @ N, mu

    @staticmethod
    def system(n, seed):
        # 2n unit rows in general position: any n of them are independent
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((2 * n, n))
        A /= np.linalg.norm(A, axis=1)[:, None]
        return A, -rng.uniform(0.1, 1.0, 2 * n), rng

    def assert_one_row_bits(self, A, b, W, sets):
        for idx, S in geometry._by_size(sets, range(len(sets))):
            X, mu = geometry._solve_active(A, b, W[idx], S)
            for i, x, lam in zip(idx, X, mu):
                want_x, want_mu = self.one_row(A, b, W[i], sets[i])
                assert x.tobytes() == want_x.tobytes()
                assert lam.tobytes() == want_mu.tobytes()

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_every_set_size(self, n):
        A, b, rng = self.system(n, seed=n)
        for k in range(n + 1):
            for count in (1, 2, 18):
                W = 3.0 * rng.standard_normal((count, n))
                sets = [sorted(rng.choice(2 * n, k, replace=False).tolist())
                        for _ in range(count)]
                self.assert_one_row_bits(A, b, W, sets)

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_mixed_sizes_in_one_call(self, n):
        A, b, rng = self.system(n, seed=n + 1)
        for count in range(1, 19):
            W = 3.0 * rng.standard_normal((count, n))
            sets = [sorted(rng.choice(2 * n, rng.integers(0, n + 1), replace=False).tolist())
                    for _ in range(count)]
            self.assert_one_row_bits(A, b, W, sets)

    def test_one_stacked_solve_per_set_size(self, monkeypatch):
        # an 18-row call, warm-started from the final sets of other points:
        # the exact solves are one per set size, of the starts, of each
        # round that drops negative multipliers, and of the final sets;
        # every other solve is a step of the search, all rows at once
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        poly, x_star = inst.poly, inst.spec.known_optimum.x_star
        rng = np.random.default_rng(5)
        V = x_star + rng.standard_normal((18, 10)) * rng.uniform(0.1, 2.0, (18, 1))
        plane = SimpleSet.whole_space(10)
        starts = [[] for _ in V]
        project_intersection(poly, plane, x_star + 1.5 * (V[::-1] - x_star), starts)
        # the rounds of the warm start, each a set of sizes, by the drop rule
        rounds, sets = [], [list(rows) for rows in starts]
        while sets:
            rounds.append({len(rows) for rows in sets})
            again = []
            for rows, v in zip(sets, V):
                _, mu = self.one_row(poly.A, poly.b, v, rows)
                if (mu < 0.0).any():
                    again.append([row for row, m in zip(rows, mu) if m >= 0.0])
            sets = again
        assert len(rounds) > 1             # some start drops a row
        solves, exact = [0], []
        solve, solve_active = np.linalg.solve, geometry._solve_active

        def counted(*args, **kwargs):
            solves[0] += 1
            return solve(*args, **kwargs)

        def recorded(A, b, W, S):
            exact.append(S.shape)
            return solve_active(A, b, W, S)

        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(geometry, "_solve_active", recorded)
        final = [list(rows) for rows in starts]
        project_intersection(poly, plane, V, final)
        steps = solves[0] - len(exact)
        sizes = {len(rows) for rows in starts} | {len(rows) for rows in final}
        drops = sum(len(sizes_) for sizes_ in rounds[1:])
        assert len(exact) <= 2 * len(sizes) + drops < 2 * len(V)
        assert solves[0] <= 2 * len(sizes) + steps + drops
        assert steps > 0


class TestDegenerateTies:
    """A corner of the cube where seven rows are tight in three dimensions:
    each of the cube's six rows is given twice, and the row (1,1,1)/sqrt(3)
    is tight at the corner (1,1,1).  The projection is unique but its
    active set is not, so only a cold start is bound to the one-row bits;
    a warm start may end on another set, a few ulps away."""

    @staticmethod
    def corner(seed):
        eye = np.eye(3)
        poly = PolyhedronSpec(A=np.vstack([eye, eye, -eye, -eye, np.full((1, 3), 3 ** -0.5)]),
                              b=np.append(-np.ones(12), -np.sqrt(3.0)))
        beyond = 1.0 + np.random.default_rng(seed).uniform(0.05, 2.0, (30, 3))
        return poly, SimpleSet.whole_space(3), beyond

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cold_stacked_call_has_the_one_row_bits(self, seed):
        poly, plane, V = self.corner(seed)
        final = [[] for _ in V]
        X = project_intersection(poly, plane, V, final)
        for v, x, rows in zip(V, X, final):
            alone = []
            assert project_intersection(poly, plane, v, alone).tobytes() == x.tobytes()
            assert alone == rows
        assert np.abs(X - 1.0).max() <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_starts_stay_within_ulps(self, seed):
        poly, plane, V = self.corner(seed)
        cold, active, moved = project_intersection(poly, plane, V), [], 0
        for v, x in zip(V, cold):
            warm = project_intersection(poly, plane, v, active)
            moved += warm.tobytes() != x.tobytes()
            assert np.abs(warm - x).max() <= 16 * np.finfo(float).eps * (1.0 + np.abs(x).max())
        assert moved < len(V)
