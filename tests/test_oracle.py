import dataclasses
import math
import warnings

import numpy as np
import pytest

from mbproj.geometry import PolyhedronSpec, linear_family
from mbproj.harness import RunConfig
from mbproj.oracle import (ConstraintFamily, KnownOptimum, ObjectiveOracle,
                           OracleError, ProblemSpec, SimpleSet)
from mbproj.solver import (_Rows, parallel_feasibility_update,
                           sequential_feasibility_update)


class TestSimpleSet:
    def test_ball_projection(self):
        ball = SimpleSet.ball(np.zeros(2), 1.0)
        np.testing.assert_allclose(ball.project(np.array([3.0, 4.0])),
                                   [0.6, 0.8], rtol=0, atol=1e-15)

    def test_a_simple_set_is_a_center_and_a_radius(self):
        assert tuple(f.name for f in dataclasses.fields(SimpleSet)) == \
            ("center", "radius")
        ws = SimpleSet.whole_space(3)
        assert ws.center.tobytes() == np.zeros(3).tobytes()
        assert ws.radius == math.inf and ws.dimension == 3

    @pytest.mark.parametrize("v", [
        np.array([7.0, -3.0]),
        np.array([np.inf, 0.0]),
        np.array([[7.0, -3.0], [0.0, -np.inf], [1e150, -2.5]]),
    ], ids=["finite", "infinite-entry", "block"])
    def test_whole_space_identity(self, v):
        assert SimpleSet.whole_space(2).project(v) is v

    def test_whole_space_nan_row_beside_a_zero_entry(self):
        # the inside row's scale stays finite, so its zero entry makes no
        # 0 * inf; the NaN row comes back non-finite, with no warning
        v = np.array([[np.nan, 1.0], [0.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = SimpleSet.whole_space(2).project(v)
        assert np.isnan(out[0]).all()
        assert out[1].tobytes() == v[1].tobytes()

    @pytest.mark.parametrize("v, expected", [
        ([1e200, 1e200], [math.sqrt(0.5)] * 2),
        ([1e300, 0.0], [1.0, 0.0]),
        ([[1e200, 1e200], [0.3, -0.4], [-3e250, 4e250]],
         [[math.sqrt(0.5)] * 2, [0.3, -0.4], [-0.6, 0.8]]),
        ([1.7e308, 1.7e308], [math.sqrt(0.5)] * 2),
        ([-1.7e308, 1.7e308], [-math.sqrt(0.5), math.sqrt(0.5)]),
    ], ids=["diagonal", "axis", "block", "near-max", "near-max-mixed"])
    def test_overflowing_length_projects_onto_the_sphere(self, v, expected):
        # a finite row whose squared length overflows still projects by its
        # length, not to the center, also where top * |d / top| overflows
        # again; numpy warns of the first overflow
        with np.errstate(over="ignore"):
            out = SimpleSet.ball(np.zeros(2), 1.0).project(np.array(v))
        assert np.allclose(out, expected, rtol=1e-15, atol=0.0)

    def test_infinite_entry_stays_non_finite(self):
        # such a row comes back as it is, at scale 1, not at its finite
        # limit, and with no warning; the other rows project as ever
        v = np.array([[np.inf, 1.0], [3.0, 4.0], [0.0, -np.inf], [0.3, 0.4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = SimpleSet.ball(np.zeros(2), 1.0).project(v)
            lone = SimpleSet.ball(np.zeros(2), 1.0).project(v[0])
        assert out[[0, 2]].tobytes() == v[[0, 2]].tobytes()
        assert lone.tobytes() == v[0].tobytes()
        np.testing.assert_allclose(out[[1, 3]], [[0.6, 0.8], [0.3, 0.4]], atol=1e-15)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_ball_radius_must_be_positive(self, radius):
        with pytest.raises(OracleError, match="radius must be positive"):
            SimpleSet.ball(np.zeros(2), radius)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_ball_center_must_be_finite(self, entry):
        with pytest.raises(OracleError, match="ball center must be finite"):
            SimpleSet.ball(np.array([entry, 0.0]), 1.0)

    def test_inside_point_unchanged(self):
        ball = SimpleSet.ball(np.ones(3), 2.0)
        v = np.array([1.5, 1.0, 0.5])
        np.testing.assert_array_equal(ball.project(v), v)

    def test_rows_project_as_lone_points(self):
        # each row of a block is projected exactly as the 1-D point alone;
        # rows inside stay as they are, and an all-inside block is returned
        ball = SimpleSet.ball(np.array([0.3, -0.2, 0.1]), 1.5)
        block = np.random.default_rng(4).standard_normal((12, 3))
        out = ball.project(block)
        assert out.shape == block.shape
        for row, v in zip(out, block):
            np.testing.assert_array_equal(row, ball.project(v))
        inside = block[np.linalg.norm(block - ball.center, axis=1) <= 1.5]
        assert 0 < len(inside) < len(block)
        assert ball.project(inside) is inside

    @pytest.mark.parametrize("seeds", [1, 3])
    def test_block_rows_equal_lone_points_bit_for_bit(self, seeds):
        # rows inside and outside balls of many sizes: each row of the
        # (S, n) block is its 1-D projection, and an outside row is the
        # center plus d scaled by radius / np.linalg.norm(d)
        rng = np.random.default_rng(11)
        for n in list(range(1, 12)) + [17, 33, 64, 99, 100]:
            for _ in range(20):
                ball = SimpleSet.ball(rng.standard_normal(n), rng.uniform(0.1, 5.0))
                u = rng.standard_normal((seeds, n))
                scale = ball.radius * rng.uniform(0.2, 2.0, size=(seeds, 1))
                block = ball.center + scale * u / np.linalg.norm(u, axis=1, keepdims=True)
                out = ball.project(block)
                for row, v in zip(out, block):
                    lone = ball.project(v)
                    assert row.tobytes() == lone.tobytes()
                    d = v - ball.center
                    norm = np.linalg.norm(d)
                    want = v if norm <= ball.radius else \
                        ball.center + d * (ball.radius / norm)
                    assert lone.tobytes() == want.tobytes()

    @pytest.mark.parametrize("make_set", [
        lambda: SimpleSet.ball(np.array([0.3, -0.2, 0.1]), 1.5),
        lambda: SimpleSet.whole_space(3),
        # every sample lies outside this ball
        lambda: SimpleSet.ball(np.array([20.0, 0.0, 0.0]), 0.1),
    ])
    def test_projection_properties(self, make_set):
        ss = make_set()
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = 3.0 * rng.standard_normal(3)
            v = 3.0 * rng.standard_normal(3)
            pu, pv = ss.project(u), ss.project(v)
            # idempotence
            np.testing.assert_allclose(ss.project(pu), pu, atol=1e-12)
            # non-expansiveness
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12
            # decrease inequality against a member point
            y = ss.project(rng.standard_normal(3))
            slack = (np.linalg.norm(u - y) ** 2 - np.linalg.norm(pu - u) ** 2
                     - np.linalg.norm(pu - y) ** 2)
            assert slack >= -1e-9


def single_index_steps(family, dimension=2):
    """Constraint 0's feasibility step through each pass, as callables
    ``(v, beta) -> (next point, positive parts seen)``."""
    spec = ProblemSpec(objective=ObjectiveOracle(evaluate=lambda x: np.zeros(len(x)),
                                                 subgradient=lambda x: 0.0 * x),
                       constraints=family,
                       simple_set=SimpleSet.whole_space(dimension),
                       mu=1.0, M_g=1.0)
    index, rows = np.array([[0]]), _Rows((0,), (1,))

    # both passes take a block of seeds; v runs as a one-seed block, and a
    # pass that hands the block back unchanged hands back v itself; the one
    # step of either pass sees the positive part at v
    def parallel(v, beta=1.0):
        block = v[None]
        x, _, _ = parallel_feasibility_update(spec, index, block, np.full(1, beta),
                                              RunConfig(beta=beta), rows)
        gplus = np.maximum(family.batch(index, block)[0], 0.0)
        return (v if x is block else x[0]), gplus[0]

    def sequential(v, beta=1.0):
        block = v[None]
        x = sequential_feasibility_update(spec, index, block, np.full(1, beta), rows)
        gplus = np.maximum(family.batch(index, block)[0], 0.0)
        return (v if x is block else x[0]), gplus[0]

    return parallel, sequential


class TestPositivePart:
    """max(g_w, 0) and its direction as the feasibility passes see them."""

    def affine(self):
        # g(x) = x1 - 1
        return linear_family(PolyhedronSpec(np.array([[1.0, 0.0]]), np.array([-1.0])))

    def test_violated_affine(self):
        for step in single_index_steps(self.affine()):
            x, gplus = step(np.array([3.0, 0.0]))
            np.testing.assert_array_equal(gplus, [2.0])
            np.testing.assert_array_equal(x, [1.0, 0.0])  # moved along (1, 0)

    def test_interior_zero_row_is_noop(self):
        # a distance-to-set constraint inside its set: value 0 and the zero
        # residual as its row; both passes ignore the rows of satisfied
        # constraints and return v itself
        fam = ConstraintFamily(
            size=1,
            batch=lambda idx, v: (np.zeros(idx.shape), np.zeros(idx.shape + (2,))))
        v = np.array([0.2, 0.1])
        gvals, dirs = fam.batch(np.array([[0]]), v[None])
        np.testing.assert_array_equal(gvals, [[0.0]])
        np.testing.assert_array_equal(dirs, [[[0.0, 0.0]]])
        for step in single_index_steps(fam):
            x, gplus = step(v)
            np.testing.assert_array_equal(gplus, [0.0])
            assert x is v

    def test_norm_constraint(self):
        # g(x) = |x| - 1, one value and one row per seed
        def batch(idx, v):
            norm = np.linalg.norm(v, axis=1, keepdims=True)
            return norm - 1.0, (v / norm)[:, None, :]

        fam = ConstraintFamily(size=1, batch=batch)
        for step in single_index_steps(fam):
            x, gplus = step(np.array([0.0, 2.0]))
            np.testing.assert_allclose(gplus, [1.0])
            np.testing.assert_allclose(x, [0.0, 1.0])

    def test_zero_direction_is_hard_error(self):
        fam = ConstraintFamily(
            size=1,
            batch=lambda idx, v: (np.ones(idx.shape), np.zeros(idx.shape + (2,))))
        for step in single_index_steps(fam):
            with pytest.raises(OracleError, match="zero direction"):
                step(np.zeros(2))

    def test_nonfinite_value_is_error(self):
        fam = ConstraintFamily(
            size=1, batch=lambda idx, v: (np.full(idx.shape, np.nan),
                                          np.ones(idx.shape + (2,))))
        for step in single_index_steps(fam):
            with pytest.raises(OracleError, match="non-finite"):
                step(np.zeros(2))

    def test_feasible_step_is_noop_for_any_direction(self):
        # whenever the positive part is zero the step must return v exactly
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rng.standard_normal(4)
            beta = rng.uniform(0.1, 1.9)
            d = rng.standard_normal(4)
            g = -rng.uniform(0.0, 2.0)
            fam = ConstraintFamily(
                size=1, batch=lambda idx, x: (np.full(idx.shape, g),
                                              np.broadcast_to(d, idx.shape + d.shape)))
            for step in single_index_steps(fam, dimension=4):
                out, _ = step(v, beta)
                assert out is v


class TestFamilyBatch:
    """``batch`` against values and rows computed directly from the data."""

    @pytest.mark.parametrize("size", [0, -1])
    def test_family_without_constraints_is_rejected(self, size):
        # the paper's problem always has functional constraints: a family
        # of none is refused when it is made, so no run or sampler sees it
        asked = []
        with pytest.raises(OracleError, match="at least one constraint"):
            ConstraintFamily(size=size, batch=lambda idx, v: asked.append(idx))
        assert asked == []

    # linear_family is the library's only family; the id names it
    @pytest.mark.parametrize("kind", ["linear"])
    def test_values_and_rows_in_index_order(self, kind):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 2))
        A /= np.linalg.norm(A, axis=1)[:, None]
        b = rng.standard_normal(6)
        fam = linear_family(PolyhedronSpec(A, b))

        def expected(w, v):
            return A[w] @ v + b[w], A[w]

        # a block of two seeds, each with its own batch and point
        idx = np.array([[2, 0, 1, 0], [1, 1, 2, 0]])
        points = np.array([[3.0, 2.5], [2.2, 4.0]])
        gvals, rows = fam.batch(idx, points)
        assert gvals.dtype == rows.dtype == np.float64
        assert gvals.shape == (2, 4) and rows.shape == (2, 4, 2)
        for s, v in enumerate(points):
            for pos, w in enumerate(idx[s].tolist()):
                g, d = expected(w, v)
                assert gvals[s, pos] == pytest.approx(g, rel=1e-15, abs=1e-15)
                np.testing.assert_array_equal(rows[s, pos], d)
            # a seed's answer does not depend on the other seeds of the block
            alone = fam.batch(idx[s:s + 1], points[s:s + 1])
            np.testing.assert_array_equal(alone[0][0], gvals[s])
            np.testing.assert_array_equal(alone[1][0], rows[s])


    @pytest.mark.parametrize("seeds", [1, 3])
    def test_suffix_columns_equal_the_full_batch(self, seeds):
        # a value depends only on its index and point, not on the width of
        # the batch: the columns from j on, asked alone, are the full
        # batch's columns from j on, bit for bit
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 101))
            A = rng.standard_normal((20, n))
            A /= np.linalg.norm(A, axis=1)[:, None]
            fam = linear_family(PolyhedronSpec(A, rng.standard_normal(20)))
            idx = rng.integers(0, 20, size=(seeds, 8))
            points = rng.standard_normal((seeds, n))
            gvals, rows = fam.batch(idx, points)
            for j in range(8):
                part_vals, part_rows = fam.batch(idx[:, j:], points)
                assert np.array_equal(part_vals, gvals[:, j:])
                assert np.array_equal(part_rows, rows[:, j:])


class TestProblemSpec:
    @pytest.mark.parametrize("change,match", [
        ({"mu": float("nan")}, "mu"),
        ({"M_g": float("nan")}, "M_g"),
        ({"M_g": 0.0}, "M_g"),
        ({"known_optimum": KnownOptimum(f_star=0.0, x_star=np.zeros(3))}, "x_star"),
    ], ids=["mu-nan", "Mg-nan", "Mg-zero", "xstar-length"])
    def test_rejects_bad_constants_and_optimum(self, change, match):
        objective = ObjectiveOracle(evaluate=lambda x: 0.5 * np.vecdot(x, x),
                                    subgradient=lambda x: x)
        fields = dict(objective=objective,
                      constraints=linear_family(PolyhedronSpec(np.array([[1.0, 0.0]]),
                                                               np.array([-1.0]))),
                      simple_set=SimpleSet.ball(np.zeros(2), 2.0),
                      mu=1.0, M_g=1.0)
        ProblemSpec(**fields)
        with pytest.raises(OracleError, match=match):
            ProblemSpec(**{**fields, **change})
