import itertools

import numpy as np
import pytest

from mbproj.geometry import (DistanceOracleError, PolyhedronSpec,
                             RegularityEstimationError, distance_oracle,
                             estimate_regularity_c, max_violation,
                             project_intersection)
from mbproj.oracle import OracleError, SimpleSet
from mbproj.sampling import Sampler

QUADRANT = PolyhedronSpec(A=np.eye(2), b=np.zeros(2))  # x1 <= 0, x2 <= 0
PLANE = SimpleSet.whole_space(2)


def brute_force_distance(poly, v, half_width=6.0):
    """Independent 2-D oracle: exhaustive grid search with zoom-in levels.

    Each level lays a full 81 x 81 grid over a square around the current best
    feasible point and keeps the feasible grid point closest to v.  The grid
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
        if np.any(feasible):
            pts_ok = cloud[feasible]
            dists = np.linalg.norm(pts_ok - v, axis=1)
            i = int(np.argmin(dists))
            if best_d is None or dists[i] < best_d:
                best_d, best_p = float(dists[i]), pts_ok[i]
        center = best_p
        half_width *= 0.35
    return best_d


class TestMaxViolation:
    def test_componentwise(self):
        assert max_violation(QUADRANT, np.array([3.0, 4.0])) == 4.0

    def test_strictly_feasible(self):
        assert max_violation(QUADRANT, np.array([-1.0, -1.0])) == 0.0

    def test_boundary_point(self):
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0]]), b=np.array([-1.0]))
        assert max_violation(poly, np.array([1.0, 0.0])) == 0.0

    def test_empty_polyhedron(self):
        poly = PolyhedronSpec(A=np.zeros((0, 2)), b=np.zeros(0))
        assert max_violation(poly, np.array([9.0, 9.0])) == 0.0


class TestPolyhedronSpec:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(OracleError, match="unit"):
            PolyhedronSpec(A=np.array([[2.0, 0.0]]), b=np.array([0.0]))


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

    def test_sweep_cap_raises_with_estimate(self):
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                              b=np.array([0.0, 0.0]))  # the line x1 = 0
        with pytest.raises(DistanceOracleError) as err:
            project_intersection(poly, PLANE, np.array([5.0, 1.0]), max_sweeps=1)
        assert np.isfinite(err.value.best_estimate)

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


class TestRegularityEstimate:
    def test_single_halfspace_ratio_is_one(self):
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0]]), b=np.array([0.0]))
        sampler = Sampler.iid_uniform(1, seed=0)
        c_hat = estimate_regularity_c(poly, PLANE, sampler, n_probe=30, seed=4)
        assert c_hat == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_halfspaces_diagonal_probes(self):
        # dist((t,t), quadrant)^2 = 2 t^2 while the uniform expectation of the
        # squared violation is t^2, so every diagonal probe gives ratio 2
        # (frozen from the brute-force evaluation below).
        sampler = Sampler.iid_uniform(2, seed=0)
        probes = [np.array([t, t]) for t in (0.5, 1.0, 2.0)]
        for y in probes:
            d_sq = brute_force_distance(QUADRANT, y) ** 2
            exp_sq = np.mean(np.maximum(QUADRANT.A @ y + QUADRANT.b, 0.0) ** 2)
            assert d_sq / exp_sq == pytest.approx(2.0, abs=1e-6)
        c_hat = estimate_regularity_c(QUADRANT, PLANE, sampler, n_probe=0,
                                      seed=0, probes=probes)
        assert c_hat == pytest.approx(2.0, abs=1e-6)

    def test_lower_bound_against_subgradient_norm(self):
        # c_hat * M_g^2 >= 1 with M_g = 1 for unit rows
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 3))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=-rng.uniform(0.2, 0.6, size=6))
        ball = SimpleSet.ball(np.zeros(3), 6.0)
        sampler = Sampler.without_replacement(6, seed=1)
        c_hat = estimate_regularity_c(poly, ball, sampler, n_probe=30, seed=2)
        assert c_hat >= 1.0 - 1e-9

    def test_blind_sampler_raises(self):
        # partition marginal sees only block 0 = constraint {x1 <= 0} while the
        # probe violates only the other constraint
        sampler = Sampler.partition([[0], [1]], seed=0)
        probes = [np.array([-1.0, 3.0])]
        with pytest.raises(RegularityEstimationError):
            estimate_regularity_c(QUADRANT, PLANE, sampler, n_probe=0, seed=0,
                                  probes=probes)

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
