import dataclasses
import itertools
import math

import numpy as np
import pytest

from mbproj.geometry import PolyhedronSpec, distance_oracle, max_violation
from mbproj.oracle import ObjectiveOracle, OracleError
from mbproj.problems import (BenchmarkInstance, exact_ln_linear,
                             lambda_max_power, load_instance, make_builtin,
                             make_duplicated_benchmark, make_orthant2,
                             make_orthonormal_benchmark, make_polyhedral_benchmark,
                             make_unconstrained, predicted_gains,
                             save_instance)
from mbproj.solver import BetaPolicy, ConfigError, SolverConfig, run


def recording(spec):
    """``spec`` with an objective that records, as 1-D copies, the points
    its subgradient is asked about: x_0, ..., x_{K-1} of a one-seed run of K
    iterations, whose x_K is the result's ``final_x``."""
    seen = []

    def subgradient(x):
        seen.append(x[0].copy())
        return spec.objective.subgradient(x)

    objective = ObjectiveOracle(evaluate=spec.objective.evaluate,
                                subgradient=subgradient)
    return dataclasses.replace(spec, objective=objective), seen


class TestOrthant2:
    def test_known_optimum(self):
        inst = make_orthant2()
        np.testing.assert_allclose(inst.spec.known_optimum.x_star, [0.0, 0.0],
                                   atol=1e-8)
        assert inst.spec.known_optimum.f_star == pytest.approx(1.0, abs=1e-8)


class TestGeneratedBenchmark:
    @pytest.fixture(scope="class")
    def instance(self):
        return make_polyhedral_benchmark(6, 10, seed=4)

    def test_determinism(self, instance):
        other = make_polyhedral_benchmark(6, 10, seed=4)
        np.testing.assert_array_equal(instance.poly.A, other.poly.A)
        np.testing.assert_array_equal(instance.spec.known_optimum.x_star,
                                      other.spec.known_optimum.x_star)

    def test_anchor_strictly_feasible(self, instance):
        assert max_violation(instance.poly, instance.anchor) == 0.0
        assert np.max(instance.poly.A @ instance.anchor + instance.poly.b) < -0.05

    def test_optimum_feasible_by_independent_oracle(self, instance):
        d = distance_oracle(instance.poly, instance.spec.simple_set,
                            instance.spec.known_optimum.x_star)
        assert d <= 1e-7

    def test_optimum_boundary_active(self, instance):
        active = np.max(instance.poly.A @ instance.spec.known_optimum.x_star
                        + instance.poly.b)
        assert abs(active) <= 1e-6

    def test_pull_center_infeasible(self, instance):
        assert max_violation(instance.poly, instance.pull_center) > 0.1

    def test_strong_convexity_on_feasible_side(self, instance):
        # project samples into the feasible set and verify the declared
        # inequality there, where the analysis actually applies it; on the
        # pull side of a boundary optimum, where the gradient is nonzero, it
        # fails near x*
        from mbproj.geometry import project_intersection
        spec = instance.spec
        opt = spec.known_optimum
        rng = np.random.default_rng(1)
        for _ in range(100):
            y = spec.simple_set.project(3.0 * rng.standard_normal(spec.dimension))
            x = project_intersection(instance.poly, spec.simple_set, y)
            slack = (spec.objective.evaluate(x) - opt.f_star
                     - 0.5 * spec.mu * float(np.linalg.norm(x - opt.x_star)) ** 2)
            assert slack >= -1e-7


class TestLambdaMax:
    def test_two_by_two_against_quadratic_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            rho = rng.uniform(-0.99, 0.99)
            gram = np.array([[1.0, rho], [rho, 1.0]])
            # eigenvalues of [[1, r], [r, 1]] are 1 +/- r
            assert lambda_max_power(gram) == pytest.approx(1.0 + abs(rho), abs=1e-9)

    def test_three_by_three_against_characteristic_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            rows = rng.standard_normal((3, 5))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            gram = rows @ rows.T
            # characteristic polynomial det(G - t I) expanded symbolically:
            # -t^3 + tr t^2 - c1 t + det, solved by the cubic companion roots
            tr = np.trace(gram)
            c1 = (tr ** 2 - np.trace(gram @ gram)) / 2.0
            det = np.linalg.det(gram)
            roots = np.roots([-1.0, tr, -c1, det])
            target = float(np.max(roots.real))
            assert lambda_max_power(gram) == pytest.approx(target, abs=1e-9)

    def test_symmetric_start_does_not_trap(self):
        # the top eigenvalue of this symmetric matrix is 1.5, with eigenvector
        # (1, -1); the other eigenvalue is 0.5
        gram = np.array([[1.0, -0.5], [-0.5, 1.0]])
        assert lambda_max_power(gram) == pytest.approx(1.5, abs=1e-9)

    def test_every_4_subset_matches_squared_spectral_norm(self):
        # independent route: the largest singular value of the rows (SVD)
        A = make_builtin("benchmark", n=10, m=20, seed=0).poly.A
        subsets = list(itertools.combinations(range(A.shape[0]), 4))
        assert len(subsets) == 4845
        for subset in subsets:
            rows = A[list(subset)]
            expected = np.linalg.norm(rows, 2) ** 2
            assert lambda_max_power(rows @ rows.T) == \
                pytest.approx(expected, rel=1e-12, abs=0)

    def test_empty_matrix_is_zero(self):
        assert lambda_max_power(np.zeros((0, 0))) == 0.0


class TestExactLN:
    def test_orthonormal_pair(self):
        poly = PolyhedronSpec(A=np.eye(2), b=np.zeros(2))
        assert exact_ln_linear(poly, 2) == pytest.approx(0.5, abs=1e-10)

    def test_duplicated_rows_reach_one(self):
        poly = PolyhedronSpec(A=np.array([[1.0, 0.0], [1.0, 0.0]]),
                              b=np.zeros(2))
        with pytest.warns(UserWarning, match="rank"):
            value = exact_ln_linear(poly, 2)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_random_full_rank_strictly_below_one(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((8, 5))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=np.zeros(8))
        for size in (2, 3, 4):
            value = exact_ln_linear(poly, size)
            assert 0.0 < value < 1.0

    def test_single_index_always_one(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 3))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=np.zeros(4))
        assert exact_ln_linear(poly, 1) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_cap(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((60, 4))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=np.zeros(60))
        assert math.comb(60, 20) > 10 ** 6
        with pytest.raises(OracleError, match="cap"):
            exact_ln_linear(poly, 20)

    def test_online_ratio_never_exceeds_exact_bound(self):
        inst = make_orthonormal_benchmark(6, seed=2)
        exact = exact_ln_linear(inst.poly, 2)
        cfg = SolverConfig(variant="parallel", batch_size=2,
                           beta_policy=BetaPolicy("fixed", beta=1.0), iterations=500,
                           seeds=(3,), init="gaussian",
                           sampler_variant="without-replacement")
        (result,) = run(inst.spec, cfg)
        assert result.max_ln_k is not None
        assert result.max_ln_k <= exact + 1e-8


class TestQBCurves:
    """b(N) across batch sizes, from ``predicted_gains``."""

    def test_flat_gain_when_alignment_bound_is_one(self):
        inst = make_duplicated_benchmark(4, 8, seed=1)
        with pytest.warns(UserWarning, match="rank"):
            gains = predicted_gains(inst.poly, "parallel", 1.0, 2.0, 1.0,
                                    (1, 2, 4))
        # L_N = 1 for every N: q = 1 * (2 - 1) / 2 = 0.5 and b = 1
        assert gains == pytest.approx([1.0, 1.0, 1.0])

    def test_sequential_doubling_pattern(self):
        # q = 1 * (2 - 1) / 2 = 0.5 for every N, so gains run 1, 3, 7, 15; the
        # rows' L_N, which would warn that it reaches 1, is never computed
        inst = make_duplicated_benchmark(4, 8, seed=1)
        gains = predicted_gains(inst.poly, "sequential", 1.0, 2.0, 1.0,
                                (1, 2, 3, 4))
        assert gains == pytest.approx([1.0, 3.0, 7.0, 15.0])

    def test_orthonormal_gain_grows_with_batch(self):
        # L_N = 1 / N, so at beta = 1 the contraction q_N = (2 - 1 / N) /
        # (c M_g^2) grows with N; c_hat = 6 keeps c M_g^2 L_N > 1 up to N = 4
        inst = make_orthonormal_benchmark(6, seed=2)
        gains = predicted_gains(inst.poly, "parallel", 1.0, 6.0, 1.0, (1, 2, 4))
        for b, size in zip(gains, (1, 2, 4)):
            q = (2.0 - 1.0 / size) / 6.0
            assert b == pytest.approx(q / (1.0 - q), rel=1e-6)
        assert gains[0] < gains[1] < gains[2]

    def test_outside_theory_flagged_not_raised(self):
        inst = make_orthonormal_benchmark(6, seed=2)
        # c_hat M_g^2 L_N = 1.05 / 4 < 1 at N = 4: flagged by None for the
        # parallel variant; the sequential one needs only c_hat M_g^2 > 1
        parallel = predicted_gains(inst.poly, "parallel", 1.0, 1.05, 1.0, (1, 4))
        sequential = predicted_gains(inst.poly, "sequential", 1.0, 1.05, 1.0,
                                     (1, 4))
        assert parallel[0] is not None
        assert parallel[1] is None
        assert sequential[1] is not None


class TestInstanceFile:
    def test_round_trip_preserves_problem(self, tmp_path):
        inst = make_polyhedral_benchmark(5, 8, seed=9)
        path = tmp_path / "instance.txt"
        save_instance(inst, path)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.poly.A, inst.poly.A)
        np.testing.assert_array_equal(loaded.poly.b, inst.poly.b)
        np.testing.assert_array_equal(loaded.pull_center, inst.pull_center)
        assert loaded.spec.M_f == inst.spec.M_f
        assert loaded.spec.known_optimum.f_star == inst.spec.known_optimum.f_star
        # identical solver trajectories from the reloaded instance, read
        # off the points each objective's subgradient is asked about
        cfg = SolverConfig(variant="parallel", batch_size=2,
                           beta_policy=BetaPolicy("fixed", beta=1.0), iterations=100,
                           seeds=(1,), init="gaussian")
        trajectories = []
        for spec in (inst.spec, loaded.spec):
            spec, seen = recording(spec)
            (result,) = run(spec, cfg)
            trajectories.append(seen[1:] + [result.final_x])
        assert len(trajectories[0]) == 100
        for a, b in zip(*trajectories):
            np.testing.assert_array_equal(a, b)

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 0 0\nobjective cubic\n")
        with pytest.raises(OracleError, match="malformed"):
            load_instance(path)


class TestBuiltins:
    def test_registry(self):
        for name in ("orthant2", "benchmark", "orthonormal", "duplicated",
                     "unconstrained"):
            inst = make_builtin(name, n=4, m=6, seed=1)
            assert isinstance(inst, BenchmarkInstance)

    def test_unknown_name(self):
        with pytest.raises(OracleError, match="unknown builtin"):
            make_builtin("nope")

    def test_unconstrained_has_no_rows(self):
        inst = make_unconstrained(n=3, seed=1)
        assert inst.poly.m == 0
        assert inst.spec.constraints.size == 0
