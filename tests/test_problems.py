import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mbproj.geometry import PolyhedronSpec, distance_oracle, max_violation
from mbproj.oracle import ObjectiveOracle, OracleError
from mbproj import problems, solver
from mbproj.problems import (LN_CHUNK, BenchmarkInstance, exact_ln_linear,
                             lambda_max_power, load_instance, make_builtin,
                             make_duplicated_benchmark, make_orthant2,
                             make_orthonormal_benchmark, make_polyhedral_benchmark,
                             predicted_gain, save_instance)
from mbproj.harness import RunConfig
from mbproj.solver import ConfigError, run


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
        opt, ball = spec.known_optimum, spec.simple_set
        rng = np.random.default_rng(1)
        for _ in range(100):
            y = ball.project(3.0 * rng.standard_normal(ball.dimension))
            x = project_intersection(instance.poly, spec.simple_set, y)
            slack = (spec.objective.evaluate(x) - opt.f_star
                     - 0.5 * spec.mu * float(np.linalg.norm(x - opt.x_star)) ** 2)
            assert slack >= -1e-7


def squared_spectral_norms_of_4_subsets():
    """(rows, squared spectral norm) of every 4-subset of the rows of
    ``benchmark`` 10x20, the norm by an independent route: the largest
    singular value of the rows (SVD)."""
    A = make_builtin("benchmark", n=10, m=20, seed=0).poly.A
    subsets = list(itertools.combinations(range(A.shape[0]), 4))
    assert len(subsets) == 4845
    for subset in subsets:
        rows = A[list(subset)]
        yield rows, np.linalg.norm(rows, 2) ** 2


def unpruned_ln(poly, size):
    """L_N by the full enumeration: every subset's Gram matrix through
    ``lambda_max_power``, chunk by chunk, as ``exact_ln_linear`` did before
    it bounded any subset."""
    best = 0.0
    subsets = itertools.combinations(range(poly.m), size)
    while chunk := list(itertools.islice(subsets, LN_CHUNK)):
        rows = poly.A[np.array(chunk)]
        best = max(best, lambda_max_power(rows @ rows.transpose(0, 2, 1)) / size)
    return min(best, 1.0)


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
        for rows, expected in squared_spectral_norms_of_4_subsets():
            assert lambda_max_power(rows @ rows.T) == \
                pytest.approx(expected, rel=1e-12, abs=0)

    def test_stack_gives_the_largest_of_its_matrices(self):
        rng = np.random.default_rng(8)
        for k in (1, 2, 4):
            rows = rng.standard_normal((50, k, 6))
            grams = rows @ rows.transpose(0, 2, 1)
            assert lambda_max_power(grams) == \
                max(lambda_max_power(gram) for gram in grams)


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

    def test_single_index_needs_no_m_by_m_matrix(self):
        # the cap admits N = 1 up to a million rows, so L_1 is priced in
        # memory linear in m; duplicated rows still warn of nothing, since
        # every one-row subset has rank 1
        rng = np.random.default_rng(12)
        A = rng.standard_normal((1000, 2))
        A = np.repeat(A / np.linalg.norm(A, axis=1)[:, None], 2, axis=0)
        poly = PolyhedronSpec(A=A, b=np.zeros(2000))
        tracemalloc.start()
        try:
            value = exact_ln_linear(poly, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(1.0, abs=1e-12)
        assert peak < 16 * A.nbytes < poly.m ** 2 * A.itemsize

    def test_chunked_enumeration_matches_squared_spectral_norm(self, monkeypatch):
        stacks = []

        def counted(grams):
            stacks.append(grams.shape)
            return lambda_max_power(grams)

        poly = make_builtin("benchmark", n=10, m=20, seed=0).poly
        full = unpruned_ln(poly, 4)
        monkeypatch.setattr(problems, "lambda_max_power", counted)
        value = exact_ln_linear(poly, 4)
        assert value == full
        # the Gershgorin bound keeps most subsets from lambda_max_power
        assert sum(shape[0] for shape in stacks) < 4845
        assert all(shape[0] <= LN_CHUNK for shape in stacks)
        expected = max(norm for _, norm in squared_spectral_norms_of_4_subsets()) / 4
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n,m", [(10, 20), (8, 12)])
    @pytest.mark.parametrize("seed", range(5))
    def test_pruned_equals_full_enumeration(self, n, m, seed):
        poly = make_builtin("benchmark", n=n, m=m, seed=seed).poly
        for size in (1, 2, 3, 4, 5, m):
            assert exact_ln_linear(poly, size) == unpruned_ln(poly, size), size

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_ties_prune_nothing(self, size, monkeypatch):
        # orthonormal rows: every subset's Gram matrix is about the identity,
        # so every bound ties the running max and every subset is evaluated
        # after the seeds' stack
        evaluated = []

        def counted(grams):
            evaluated.append(grams.shape[0])
            return lambda_max_power(grams)

        poly = make_orthonormal_benchmark(12, seed=0).poly
        full = unpruned_ln(poly, size)
        monkeypatch.setattr(problems, "lambda_max_power", counted)
        assert exact_ln_linear(poly, size) == full
        assert sum(evaluated[1:]) == math.comb(12, size)

    def test_pruned_rank_warning_still_fires(self):
        poly = make_duplicated_benchmark(5, 8, seed=0).poly
        with pytest.warns(UserWarning, match="rank"):
            value = exact_ln_linear(poly, 3)
        assert value == unpruned_ln(poly, 3)

    def test_enumeration_cap(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((60, 4))
        A /= np.linalg.norm(A, axis=1)[:, None]
        poly = PolyhedronSpec(A=A, b=np.zeros(60))
        assert math.comb(60, 20) > 10 ** 6
        with pytest.raises(OracleError, match="cap"):
            exact_ln_linear(poly, 20)

    def test_online_ratio_never_exceeds_exact_bound(self, monkeypatch):
        # declared, the exact L_N is checked against every violated batch's
        # L_N,k, which aborts the run past a relative solver.LN_RTOL
        inst = make_orthonormal_benchmark(6, seed=2)
        exact = exact_ln_linear(inst.poly, 2)
        calls, diagnostics = [], solver.batch_diagnostics

        def counted(*args):
            calls.append(args)
            return diagnostics(*args)

        monkeypatch.setattr(solver, "batch_diagnostics", counted)
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, ln_hint=exact,
                        iterations=500, seeds=(3,),
                        sampler="without-replacement")
        run(inst.spec, cfg)  # must not abort
        assert calls  # the check saw violated batches


class TestQBCurves:
    """b(N) across batch sizes, from ``predicted_gain``."""

    def test_flat_gain_when_alignment_bound_is_one(self):
        inst = make_duplicated_benchmark(4, 8, seed=1)
        with pytest.warns(UserWarning, match="rank"):
            gains = [predicted_gain(inst.poly, "parallel", 1.0, 2.0, 1.0, size)
                     for size in (1, 2, 4)]
        # L_N = 1 for every N: q = 1 * (2 - 1) / 2 = 0.5 and b = 1
        assert gains == pytest.approx([1.0, 1.0, 1.0])

    def test_sequential_doubling_pattern(self):
        # q = 1 * (2 - 1) / 2 = 0.5 for every N, so gains run 1, 3, 7, 15; the
        # rows' L_N, which would warn that it reaches 1, is never computed
        inst = make_duplicated_benchmark(4, 8, seed=1)
        gains = [predicted_gain(inst.poly, "sequential", 1.0, 2.0, 1.0, size)
                 for size in (1, 2, 3, 4)]
        assert gains == pytest.approx([1.0, 3.0, 7.0, 15.0])

    def test_orthonormal_gain_grows_with_batch(self):
        # L_N = 1 / N, so at beta = 1 the contraction q_N = (2 - 1 / N) /
        # (c M_g^2) grows with N; c_hat = 6 keeps c M_g^2 L_N > 1 up to N = 4
        inst = make_orthonormal_benchmark(6, seed=2)
        gains = [predicted_gain(inst.poly, "parallel", 1.0, 6.0, 1.0, size)
                 for size in (1, 2, 4)]
        for b, size in zip(gains, (1, 2, 4)):
            q = (2.0 - 1.0 / size) / 6.0
            assert b == pytest.approx(q / (1.0 - q), rel=1e-6)
        assert gains[0] < gains[1] < gains[2]

    def test_outside_theory_flagged_not_raised(self):
        inst = make_orthonormal_benchmark(6, seed=2)
        # c_hat M_g^2 L_N = 1.05 / 4 < 1 at N = 4: flagged by None for the
        # parallel variant; the sequential one needs only c_hat M_g^2 > 1
        assert predicted_gain(inst.poly, "parallel", 1.0, 1.05, 1.0, 1) is not None
        assert predicted_gain(inst.poly, "parallel", 1.0, 1.05, 1.0, 4) is None
        assert predicted_gain(inst.poly, "sequential", 1.0, 1.05, 1.0,
                              4) is not None


class TestInstanceFile:
    @pytest.mark.parametrize("name", sorted(problems.BUILTINS))
    def test_round_trip_preserves_problem(self, tmp_path, name):
        # the reloaded file is rebuilt by ``_build_instance``, which derives
        # x* and f* again from the same bits, so they match to the bit
        inst = make_builtin(name, n=5, m=8, seed=9)
        path = tmp_path / "instance.txt"
        save_instance(inst, path)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.poly.A, inst.poly.A)
        np.testing.assert_array_equal(loaded.poly.b, inst.poly.b)
        np.testing.assert_array_equal(loaded.pull_center, inst.pull_center)
        np.testing.assert_array_equal(loaded.anchor, inst.anchor)
        ball, loaded_ball = inst.spec.simple_set, loaded.spec.simple_set
        np.testing.assert_array_equal(loaded_ball.center, ball.center)
        assert loaded_ball.radius == ball.radius
        assert (loaded.spec.mu, loaded.spec.M_g) == (inst.spec.mu, inst.spec.M_g)
        opt, loaded_opt = inst.spec.known_optimum, loaded.spec.known_optimum
        assert loaded_opt.x_star.tobytes() == opt.x_star.tobytes()
        assert loaded_opt.f_star == opt.f_star
        # identical solver trajectories from the reloaded instance, read
        # off the points each objective's subgradient is asked about
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=100,
                        seeds=(1,))
        trajectories = []
        for spec in (inst.spec, loaded.spec):
            spec, seen = recording(spec)
            (result,) = run(spec, cfg)
            trajectories.append(seen[1:] + [result.final_x])
        assert len(trajectories[0]) == 100
        for a, b in zip(*trajectories):
            np.testing.assert_array_equal(a, b)

    def test_whole_space_has_no_objective_bound(self, tmp_path):
        # f's subgradients are unbounded on the whole space: the file has
        # no Mf line, and any Mf claimed there is false
        path = tmp_path / "whole.txt"
        path.write_text("2 1\n1 0 0\nobjective quadratic\ncenter 1 1\n"
                        "set whole\nmu 1\nMg 1\n")
        inst = load_instance(path)
        assert inst.spec.simple_set.radius == math.inf
        np.testing.assert_array_equal(inst.spec.known_optimum.x_star, [0.0, 1.0])
        save_instance(inst, path)
        text = path.read_text()
        assert "set whole\n" in text and "Mf" not in text
        assert load_instance(path).spec.known_optimum.f_star == 0.5
        path.write_text(text + "Mf 1e300\n")
        with pytest.raises(OracleError, match="false claim .*Mf 1e300"):
            load_instance(path)

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 0 0\nobjective cubic\n")
        with pytest.raises(OracleError, match="malformed"):
            load_instance(path)


class TestBuiltins:
    def test_registry(self):
        for name in ("orthant2", "benchmark", "orthonormal", "duplicated"):
            inst = make_builtin(name, n=4, m=6, seed=1)
            assert isinstance(inst, BenchmarkInstance)

    def test_unknown_name(self):
        with pytest.raises(OracleError, match="unknown builtin"):
            make_builtin("nope", n=4, m=6, seed=1)
