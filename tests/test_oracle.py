import numpy as np
import pytest

from mbproj.oracle import (ConstraintFamily, KnownOptimum, ObjectiveOracle,
                           OracleError, ProblemSpec, SimpleSet, distance_family,
                           empty_family, fallback_direction, linear_family,
                           validate_assumptions)
from mbproj.solver import (BetaPolicy, parallel_feasibility_update,
                           sequential_feasibility_update)


def quadratic_spec(m_f=2.0, with_optimum=True):
    """f(x) = 0.5 |x|^2 over the radius-2 ball, no functional constraints."""
    objective = ObjectiveOracle(evaluate=lambda x: 0.5 * float(x @ x),
                                subgradient=lambda x: x)
    known = KnownOptimum(f_star=0.0, x_star=np.zeros(2)) if with_optimum else None
    return ProblemSpec(dimension=2, objective=objective, constraints=empty_family(),
                       simple_set=SimpleSet.ball(np.zeros(2), 2.0), mu=1.0,
                       M_f=m_f, M_g=1.0, known_optimum=known)


class TestSimpleSet:
    def test_ball_projection(self):
        ball = SimpleSet.ball(np.zeros(2), 1.0)
        np.testing.assert_allclose(ball.project(np.array([3.0, 4.0])),
                                   [0.6, 0.8], rtol=0, atol=1e-15)

    def test_box_projection(self):
        box = SimpleSet.box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(box.project(np.array([2.0, -0.5])),
                                      [1.0, -0.5])

    def test_whole_space_identity(self):
        ws = SimpleSet.whole_space(2)
        v = np.array([7.0, -3.0])
        assert ws.project(v) is v

    def test_halfspace_projection(self):
        hs = SimpleSet.halfspace(np.array([1.0, 0.0]), -1.0)  # x1 <= 1
        np.testing.assert_allclose(hs.project(np.array([3.0, 2.0])), [1.0, 2.0])
        inside = np.array([0.5, 9.0])
        assert hs.project(inside) is inside

    def test_inside_point_unchanged(self):
        ball = SimpleSet.ball(np.ones(3), 2.0)
        v = np.array([1.5, 1.0, 0.5])
        np.testing.assert_array_equal(ball.project(v), v)

    @pytest.mark.parametrize("make_set", [
        lambda: SimpleSet.ball(np.array([0.3, -0.2, 0.1]), 1.5),
        lambda: SimpleSet.box([-1.0, -2.0, 0.0], [1.0, 0.5, 3.0]),
        lambda: SimpleSet.halfspace(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), -0.5),
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
    spec = ProblemSpec(dimension=dimension,
                       objective=ObjectiveOracle(evaluate=lambda x: 0.0,
                                                 subgradient=lambda x: 0.0 * x),
                       constraints=family,
                       simple_set=SimpleSet.whole_space(dimension),
                       mu=1.0, M_f=1.0, M_g=1.0)
    index = np.array([0])

    def parallel(v, beta=1.0):
        x, diag = parallel_feasibility_update(spec, index, v, BetaPolicy.fixed(beta))
        return x, diag.per_index_gplus

    def sequential(v, beta=1.0):
        return sequential_feasibility_update(spec, index, v, beta)

    return parallel, sequential


class TestPositivePart:
    """max(g_w, 0) and its direction as the feasibility passes see them."""

    def affine(self):
        # g(x) = x1 - 1
        return linear_family(np.array([[1.0, 0.0]]), np.array([-1.0]))

    def test_violated_affine(self):
        for step in single_index_steps(self.affine()):
            x, gplus = step(np.array([3.0, 0.0]))
            np.testing.assert_array_equal(gplus, [2.0])
            np.testing.assert_array_equal(x, [1.0, 0.0])  # moved along (1, 0)

    def test_interior_returns_fallback(self):
        fam = distance_family([SimpleSet.ball(np.zeros(2), 1.0).project], 2)
        v = np.array([0.2, 0.1])
        gvals, dirs = fam.batch(np.array([0]), v)
        np.testing.assert_array_equal(gvals, [0.0])
        np.testing.assert_array_equal(dirs, [fallback_direction(2)])
        for step in single_index_steps(fam):
            x, gplus = step(v)
            np.testing.assert_array_equal(gplus, [0.0])
            assert x is v

    def test_norm_constraint(self):
        # g(x) = |x| - 1
        fam = ConstraintFamily(
            size=1,
            evaluate=lambda w, v: float(np.linalg.norm(v)) - 1.0,
            subgradient_plus=lambda w, v: v / np.linalg.norm(v))
        for step in single_index_steps(fam):
            x, gplus = step(np.array([0.0, 2.0]))
            np.testing.assert_allclose(gplus, [1.0])
            np.testing.assert_allclose(x, [0.0, 1.0])

    def test_zero_direction_is_hard_error(self):
        fam = ConstraintFamily(size=1,
                               evaluate=lambda w, v: 1.0,
                               subgradient_plus=lambda w, v: np.zeros(2))
        for step in single_index_steps(fam):
            with pytest.raises(OracleError, match="zero direction"):
                step(np.zeros(2))

    def test_nonfinite_value_is_error(self):
        fam = ConstraintFamily(size=1,
                               evaluate=lambda w, v: float("nan"),
                               subgradient_plus=lambda w, v: np.ones(2))
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
            fam = ConstraintFamily(size=1, evaluate=lambda w, x: g,
                                   subgradient_plus=lambda w, x: d)
            for step in single_index_steps(fam, dimension=4):
                out, _ = step(v, beta)
                assert out is v


class TestLinearFamilyBatch:
    def test_batch_matches_scalar_oracles(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 3))
        A /= np.linalg.norm(A, axis=1)[:, None]
        b = rng.standard_normal(6)
        fam = linear_family(A, b)
        v = rng.standard_normal(3)
        idx = np.array([4, 0, 2])
        gvals, dirs = fam.batch(idx, v)
        for pos, w in enumerate(idx):
            assert gvals[pos] == pytest.approx(fam.evaluate(int(w), v), abs=0)
            np.testing.assert_array_equal(dirs[pos], fam.subgradient_plus(int(w), v))

    def test_derived_batch_calls_scalar_oracles_in_index_order(self):
        calls = []

        def evaluate(w, v):
            calls.append(("g", w))
            return float(w) - v[0]

        def subgradient_plus(w, v):
            calls.append(("d", w))
            return np.array([1.0, float(w)])

        fam = ConstraintFamily(size=5, evaluate=evaluate,
                               subgradient_plus=subgradient_plus)
        gvals, dirs = fam.batch(np.array([3, 0, 4]), np.array([0.5, 0.0]))
        np.testing.assert_array_equal(gvals, [2.5, -0.5, 3.5])
        np.testing.assert_array_equal(dirs, [[1.0, 3.0], [1.0, 0.0], [1.0, 4.0]])
        assert calls == [("g", 3), ("g", 0), ("g", 4), ("d", 3), ("d", 0), ("d", 4)]


class TestDistanceFamilyBatch:
    def counting_family(self):
        sets = [SimpleSet.ball(np.zeros(2), 1.0),
                SimpleSet.halfspace(np.array([0.6, 0.8]), 0.5),
                SimpleSet.box([-1.0, -1.0], [2.0, 2.0])]
        calls = []

        def counted(w, project):
            def proj(v):
                calls.append(w)
                return project(v)
            return proj

        fam = distance_family([counted(w, s.project) for w, s in enumerate(sets)], 2)
        return fam, calls

    def test_one_projection_per_index(self):
        fam, calls = self.counting_family()
        fam.batch(np.array([2, 0, 1]), np.array([1.5, 1.0]))
        assert calls == [2, 0, 1]

    def test_batch_equals_scalar_oracles(self):
        fam, _ = self.counting_family()
        rng = np.random.default_rng(5)
        # the box contains every point below, so index 2 takes the fallback
        for v in rng.uniform(-0.9, 1.9, size=(20, 2)):
            idx = np.array([2, 0, 1, 0])
            gvals, dirs = fam.batch(idx, v)
            assert gvals.dtype == np.float64 and dirs.shape == (4, 2)
            for pos, w in enumerate(idx.tolist()):
                assert gvals[pos] == fam.evaluate(w, v)
                np.testing.assert_array_equal(dirs[pos], fam.subgradient_plus(w, v))
            np.testing.assert_array_equal(dirs[0], fallback_direction(2))


class TestValidateAssumptions:
    def test_well_posed_problem_passes(self):
        report = validate_assumptions(quadratic_spec(), n_samples=1000, seed=0)
        assert report.passed, report.summary()

    def test_understated_subgradient_bound_fails_with_witness(self):
        report = validate_assumptions(quadratic_spec(m_f=0.5), n_samples=1000, seed=0)
        check = report.check("objective_subgradient_bound")
        assert not check.passed
        assert check.margin < -0.25  # some sampled point has |x| well above 0.5
        assert "witness" in check.detail

    def test_distance_family_has_unit_subgradient_bound(self):
        # projectable sets wrapped as distance constraints: directions are unit
        sets = [SimpleSet.halfspace(np.array([1.0, 0.0]), 0.0),
                SimpleSet.ball(np.array([2.0, 2.0]), 0.5)]
        fam = distance_family([s.project for s in sets], dimension=2)
        spec = ProblemSpec(
            dimension=2,
            objective=ObjectiveOracle(evaluate=lambda x: 0.5 * float(x @ x),
                                      subgradient=lambda x: x),
            constraints=fam,
            simple_set=SimpleSet.ball(np.zeros(2), 4.0),
            mu=1.0, M_f=4.0, M_g=1.0)
        report = validate_assumptions(spec, n_samples=500, seed=1)
        assert report.check("constraint_subgradient_bound").passed
        assert report.check("constraint_convexity").passed

    def test_nonfinite_oracle_fails_validation(self):
        objective = ObjectiveOracle(evaluate=lambda x: float("inf"),
                                    subgradient=lambda x: x)
        spec = ProblemSpec(dimension=2, objective=objective,
                           constraints=empty_family(),
                           simple_set=SimpleSet.ball(np.zeros(2), 2.0),
                           mu=1.0, M_f=2.0, M_g=1.0)
        report = validate_assumptions(spec, n_samples=50, seed=0)
        assert not report.check("objective_convexity").passed

    def test_n_samples_must_be_positive(self):
        with pytest.raises(OracleError):
            validate_assumptions(quadratic_spec(), n_samples=0, seed=0)
