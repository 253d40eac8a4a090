import math

import numpy as np
import pytest

from mbproj import geometry
from mbproj.geometry import (DistanceOracleError, EmptyFeasibleSetError,
                             PolyhedronSpec, distance_oracle, max_violation,
                             project_intersection)
from mbproj.oracle import OracleError, SimpleSet
from mbproj.problems import make_polyhedral_benchmark

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
            assert certified[-2] is x
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
