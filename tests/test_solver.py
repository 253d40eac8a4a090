import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from mbproj.geometry import PolyhedronSpec, distance_oracle, linear_family
from mbproj.oracle import (ConstraintFamily, KnownOptimum, ObjectiveOracle,
                           OracleError, ProblemSpec, SimpleSet)
from mbproj.problems import (exact_ln_linear, make_duplicated_benchmark,
                             make_polyhedral_benchmark, predicted_gains)
from mbproj import solver
from mbproj.sampling import Sampler
from mbproj.harness import RunConfig
from mbproj.solver import (INDEX_BLOCK, ConfigError, OracleFault,
                           PolyhedralContext, SolverAbort, alpha_schedule, batch_diagnostics, objective_step,
                           parallel_feasibility_update, run,
                           sequential_feasibility_update)


def corner_spec(simple_set=None, constraints=None):
    """Constraints x1 <= 0, x2 <= 0 with a quadratic objective pulling to (1, 1)."""
    A = np.eye(2)
    b = np.zeros(2)
    center = np.array([1.0, 1.0])
    objective = ObjectiveOracle(evaluate=lambda x: 0.5 * float((x - center) @ (x - center)),
                                subgradient=lambda x: x - center)
    return ProblemSpec(dimension=2, objective=objective,
                       constraints=constraints or linear_family(PolyhedronSpec(A, b)),
                       simple_set=simple_set or SimpleSet.whole_space(2),
                       mu=1.0, M_f=10.0, M_g=1.0,
                       known_optimum=KnownOptimum(f_star=1.0, x_star=np.zeros(2)))


def no_constraints(dimension):
    """The family of no rows in ``dimension``, of size 0."""
    return linear_family(PolyhedronSpec(np.zeros((0, dimension)), np.zeros(0)))


def relaxed_step_both_passes(spec, index, v, beta):
    """The relaxed projection step of one constraint, through both passes,
    with v as a one-seed block; a pass that hands the block back unchanged
    hands back v itself."""
    block = v[None]
    xp, _, _ = parallel_feasibility_update(spec, np.array([[index]]), block,
                                           RunConfig(beta=beta))
    xs = sequential_feasibility_update(spec, np.array([[index]]), block, beta)
    return [v if x is block else x[0] for x in (xp, xs)]


def batch_spec(batch, size=1):
    """Corner problem data around a family given by a one-point ``batch``
    (indices (N,) at a point (n,)), asked seed by seed of a block."""
    def seed_batch(indices, points):
        values, rows = zip(*(batch(idx, v) for idx, v in zip(indices, points)))
        return np.array(values), np.array(rows)

    return corner_spec(constraints=ConstraintFamily(size=size, batch=seed_batch))


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


def recording_family(spec):
    """``spec`` with a constraint family that records, as copies, the (S, N)
    index blocks its ``batch`` is asked about and the values it returns."""
    asked, values = [], []

    def batch(indices, v):
        asked.append(indices.copy())
        gvals, rows = spec.constraints.batch(indices, v)
        values.append(np.array(gvals))
        return gvals, rows

    family = dataclasses.replace(spec.constraints, batch=batch)
    return dataclasses.replace(spec, constraints=family), asked, values


def column_chain(spec, indices, v, beta, checker=None, k=0):
    """The sequential pass one column at a time: the i-th step asks the
    oracle for every seed's i-th index at its current inner point.  Returns
    the final points and the columns where some seed stepped."""
    z, inner, gplus_seq, stepped = v, [v], np.zeros(indices.shape), []
    for i in range(indices.shape[1]):
        gvals, dirs = solver._checked_batch(spec, indices[:, i:i + 1], z)
        active = gvals > 0.0
        if active.any():
            stepped.append(i)
            gplus = np.maximum(gvals, 0.0)
            nsq = solver._squared_norms(dirs, active)
            gplus_seq[:, i] = gplus[:, 0]
            if checker is not None:
                checker.single_steps(k, z, gplus, dirs, nsq, beta)
            z_next = spec.simple_set.project(z - (beta * gplus / nsq) * dirs[:, 0])
            z = z_next if active.all() else np.where(active, z_next, z)
        inner.append(z)
    if checker is not None:
        checker.sequential_chain(k, inner, gplus_seq, beta)
    return z, stepped


class RecordingChecker(solver._LemmaChecker):
    """A lemma checker that also keeps copies of what each check is given."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []

    def single_steps(self, k, v, gplus, dirs, nsq, beta):
        self.seen.append([np.array(a) for a in (v, gplus, dirs, nsq)])
        super().single_steps(k, v, gplus, dirs, nsq, beta)

    def sequential_chain(self, k, inner_points, gplus_seq, beta):
        self.seen.append([np.array(inner_points), np.array(gplus_seq)])
        super().sequential_chain(k, inner_points, gplus_seq, beta)


class TestPolyakStep:
    """The relaxed projection (Polyak) step v - beta * g+ / |d|^2 * d."""

    def test_exact_projection_at_beta_one(self):
        v = np.array([2.0, 0.0])
        for x in relaxed_step_both_passes(corner_spec(), 0, v, 1.0):
            np.testing.assert_array_equal(x, [0.0, 0.0])

    def test_zero_positive_part_is_identity(self):
        v = np.array([-5.0, -5.0])
        for x in relaxed_step_both_passes(corner_spec(), 1, v, 1.7):
            assert x is v

    def test_half_step(self):
        v = np.array([2.0, 0.0])
        for x in relaxed_step_both_passes(corner_spec(), 0, v, 0.5):
            np.testing.assert_array_equal(x, [1.0, 0.0])

    def test_zero_direction_error(self):
        spec = batch_spec(lambda idx, v: (np.ones(len(idx)), np.zeros((len(idx), 2))))
        with pytest.raises(OracleError, match="zero direction"):
            parallel_feasibility_update(spec, np.array([[0]]), np.ones((1, 2)),
                                        RunConfig(beta=1.0))
        with pytest.raises(OracleError, match="zero direction"):
            sequential_feasibility_update(spec, np.array([[0]]), np.ones((1, 2)), 1.0)


class TestParallelUpdate:
    def test_two_orthogonal_constraints(self):
        spec = corner_spec()
        indices, v = np.array([[0, 1]]), np.array([[2.0, 2.0]])
        x, _, _ = parallel_feasibility_update(spec, indices, v,
                                              RunConfig(beta=1.0))
        np.testing.assert_allclose(x, [[1.0, 1.0]])
        gvals, _ = spec.constraints.batch(indices, v)
        np.testing.assert_allclose(np.maximum(gvals, 0.0), [[2.0, 2.0]])

    def test_alignment_ratio_value(self):
        # frozen from the definition: |0.5*(2*(1,0) + 2*(0,1))|^2 / (0.5*(4+4))
        mean_dir = 0.5 * (2 * np.array([1.0, 0]) + 2 * np.array([0, 1.0]))
        num = float(mean_dir @ mean_dir)
        den = 0.5 * (4.0 + 4.0)
        assert num / den == 0.5
        spec = corner_spec()
        _, ln_k, _ = parallel_feasibility_update(spec, np.array([[0, 1]]),
                                                 np.array([[2.0, 2.0]]),
                                                 RunConfig(beta=1.0))
        assert ln_k[0] == pytest.approx(0.5, abs=1e-15)

    def test_single_index_reduces_to_projected_step(self):
        ball = SimpleSet.ball(np.zeros(2), 1.5)
        spec = corner_spec(simple_set=ball)
        v = np.array([1.2, 0.9])
        x, _, _ = parallel_feasibility_update(spec, np.array([[0]]), v[None],
                                              RunConfig(beta=1.0))
        # g+ = 1.2 along d = (1, 0), |d| = 1
        expected = ball.project(v - 1.2 * np.array([1.0, 0.0]))
        np.testing.assert_array_equal(x[0], expected)

    def test_feasible_batch_returns_v_exactly(self):
        spec = corner_spec()
        indices, v = np.array([[0, 1, 0]]), np.array([[-1.0, -2.0]])
        x, ln_k, beta = parallel_feasibility_update(spec, indices, v,
                                                    RunConfig(beta=1.3))
        assert x is v
        assert np.isnan(ln_k[0])          # no ratio: the batch is feasible
        assert np.isnan(beta[0])          # no step taken

    @pytest.mark.parametrize("policy, step", [
        (RunConfig(beta=1.0), 1.0),
        (RunConfig(beta=0.7), 0.7),
        (RunConfig(beta_policy="extrapolated", delta=0.1, ln_hint=0.5), 3.8),
        (RunConfig(beta_policy="adaptive", delta=0.1), 3.8),
    ], ids=["fixed1.0", "fixed0.7", "extrapolated", "adaptive"])
    def test_adaptive_ratio_survives_underflow(self, policy, step):
        # at x1 = 1e-170 the squared violation underflows, so L_N,k would be
        # 0/0 under every rule; it is scale-invariant, hence the value at
        # x1 = 1e-3, and the step moves x1 to (1 - beta / 2) * x1.  Warnings
        # are errors under pytest, so no RuntimeWarning is raised either
        indices, v = np.array([[0, 1]]), np.array([[1e-170, -1.0], [1e-3, -1.0]])
        x, ln_k, beta = parallel_feasibility_update(corner_spec(), indices[[0, 0]],
                                                    v, policy)
        np.testing.assert_array_equal(ln_k, [0.5, 0.5])
        np.testing.assert_array_equal(beta, [step, step])
        np.testing.assert_allclose(x, [[(1 - step / 2) * 1e-170, -1.0],
                                       [(1 - step / 2) * 1e-3, -1.0]], rtol=1e-12)
        alone, _, _ = parallel_feasibility_update(corner_spec(), indices,
                                                  v[1:], policy)
        np.testing.assert_array_equal(alone, x[1:])


class TestSequentialUpdate:
    def test_orthogonal_chain_projects_both(self):
        spec, asked, values = recording_family(corner_spec())
        x = sequential_feasibility_update(spec, np.array([[0, 1]]),
                                          np.array([[2.0, 2.0]]), beta=1.0)
        np.testing.assert_allclose(x, [[0.0, 0.0]])
        # the whole minibatch, then the column after the step at column 0;
        # the step at the last column asks nothing more
        assert [a.tolist() for a in asked] == [[[0, 1]], [[1]]]
        # each step sees its constraint at the current inner point: x2's
        # violation is 2 at (2, 2) and still 2 at (0, 2)
        assert [np.maximum(g, 0.0).tolist() for g in values] == [[[2.0, 2.0]], [[2.0]]]

    def test_repeated_constraint_second_step_noop(self):
        spec, asked, values = recording_family(corner_spec())
        x = sequential_feasibility_update(spec, np.array([[0, 0]]),
                                          np.array([[2.0, 0.0]]), beta=1.0)
        np.testing.assert_allclose(x, [[0.0, 0.0]])
        # after the step at column 0 the second copy is asked at (0, 0),
        # where it holds, so the pass stops
        assert [a.tolist() for a in asked] == [[[0, 0]], [[0]]]
        assert [np.maximum(g, 0.0).tolist() for g in values] == [[[2.0, 2.0]], [[0.0]]]

    def test_single_index_matches_parallel(self):
        ball = SimpleSet.ball(np.zeros(2), 2.0)
        spec = corner_spec(simple_set=ball)
        v = np.array([[1.5, 1.2]])
        xp, _, _ = parallel_feasibility_update(spec, np.array([[1]]), v,
                                               RunConfig(beta=0.8))
        xs = sequential_feasibility_update(spec, np.array([[1]]), v, beta=0.8)
        np.testing.assert_array_equal(xp, xs)

    def test_beta_range_enforced(self):
        # the pass relies on run's validation for beta in (0, 2)
        cfg = RunConfig(variant="sequential", batch_size=1,
                        beta_policy="fixed", beta=2.0, iterations=10)
        with pytest.raises(ConfigError, match="admissible interval"):
            solver.validate(cfg, corner_spec())


class TestObjectiveStep:
    def test_gradient_step_to_minimizer(self):
        objective = ObjectiveOracle(evaluate=lambda x: 0.5 * float(x @ x),
                                    subgradient=lambda x: x)
        spec = ProblemSpec(dimension=2, objective=objective,
                           constraints=no_constraints(2),
                           simple_set=SimpleSet.whole_space(2),
                           mu=1.0, M_f=10.0, M_g=1.0)
        np.testing.assert_array_equal(objective_step(spec, np.array([1.0, 1.0]), 1.0),
                                      [0.0, 0.0])

    def test_zero_step(self):
        spec = corner_spec()
        x = np.array([0.7, -0.3])
        np.testing.assert_array_equal(objective_step(spec, x, 0.0), x)

    def test_projection_applies(self):
        objective = ObjectiveOracle(evaluate=lambda x: 0.5 * float(x @ x),
                                    subgradient=lambda x: x)
        spec = ProblemSpec(dimension=2, objective=objective,
                           constraints=no_constraints(2),
                           simple_set=SimpleSet.ball(np.zeros(2), 1.0),
                           mu=1.0, M_f=10.0, M_g=1.0)
        out = objective_step(spec, np.array([1.0, 0.0]), 0.5)
        np.testing.assert_array_equal(out, [0.5, 0.0])


def one_seed_ratio(gplus, dirs, nsq):
    """L_N,k of one seed's violated batch through ``batch_diagnostics``."""
    (ln_k,), _ = batch_diagnostics(gplus[None], dirs[None], nsq[None], None, 1)
    return ln_k


class TestBatchQuantities:
    def rand_batch(self, rng, n=4, size=5, force_positive=True):
        gplus = rng.uniform(0.0 if not force_positive else 0.1, 2.0, size=size)
        dirs = rng.standard_normal((size, n))
        nsq = np.einsum("ij,ij->i", dirs, dirs)
        return gplus, dirs, nsq

    def test_alignment_ratio_in_unit_interval(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            gplus, dirs, nsq = self.rand_batch(rng)
            ln_k = one_seed_ratio(gplus, dirs, nsq)
            assert 0.0 < ln_k <= 1.0 + 1e-12

    def test_ratio_one_when_directions_coincide(self):
        rng = np.random.default_rng(22)
        d = rng.standard_normal(4)
        dirs = np.tile(d, (5, 1))
        gplus = np.full(5, 1.3)
        nsq = np.einsum("ij,ij->i", dirs, dirs)
        ln_k = one_seed_ratio(gplus, dirs, nsq)
        assert ln_k == pytest.approx(1.0, abs=1e-12)

    def test_mean_square_identity(self):
        # |mean - w|^2 = avg |u_i - w|^2 - avg |u_j - mean|^2 for a point cloud
        rng = np.random.default_rng(23)
        for _ in range(200):
            pts = rng.standard_normal((rng.integers(2, 8), 6))
            w = rng.standard_normal(6)
            mean = pts.mean(axis=0)
            lhs = float(np.linalg.norm(mean - w)) ** 2
            rhs = float(np.mean(np.sum((pts - w) ** 2, axis=1))
                        - np.mean(np.sum((pts - mean) ** 2, axis=1)))
            assert abs(lhs - rhs) <= 1e-12


class TestSchedules:
    def test_gamma_and_alpha_identities(self):
        # alpha = (2 / mu) * gamma with the normalized stepsize gamma = 2 / (k + 1)
        for mu in (0.5, 1.0, 3.0):
            for k in range(0, 50):
                assert alpha_schedule(mu, k) == pytest.approx((2.0 / mu) * 2.0 / (k + 1))
            # from the second step on the normalized stepsize stays below 2/3
            # (at index 1 it is exactly 1, so the bound starts at 2)
            assert all(1.0 - mu * alpha_schedule(mu, k) / 2.0 >= 1.0 / 3.0 - 1e-15
                       for k in range(2, 1000))


class TestAnalysisConstants:
    """The rate constants q and b that ``predicted_gains`` prices."""

    # rows e_1, ..., e_4: every N-subset has L_N = 1 / N
    ORTHONORMAL = PolyhedronSpec(A=np.eye(4), b=np.zeros(4))

    def test_parallel_optimal_beta(self):
        # beta = 1 / L_N gives q = 1 / (c M_g^2 L_N), so b = 1 / (c M_g^2 L_N - 1)
        c, mg, ln = 3.0, 1.0, 0.5
        (b,) = predicted_gains(self.ORTHONORMAL, "parallel", 1.0 / ln, c, mg, [2])
        assert b == pytest.approx(1.0 / (c * mg ** 2 * ln - 1.0))

    def test_sequential_doubling(self):
        # q = beta (2 - beta) / (c M_g^2) = 0.5 gives gains 1, 3, 7, 15, ...
        gains = predicted_gains(self.ORTHONORMAL, "sequential", 1.0, 2.0, 1.0,
                                (1, 2, 3, 4))
        for size, b, expected in zip((1, 2, 3, 4), gains, (1.0, 3.0, 7.0, 15.0)):
            assert 1.0 - (1.0 + b) ** (-1.0 / size) == pytest.approx(0.5)  # q
            assert b == pytest.approx(expected)

    def test_sequential_gain_increases_with_batch(self):
        # N = 9 exceeds the 4 rows: the sequential gain needs no L_N
        gains = predicted_gains(self.ORTHONORMAL, "sequential", 1.0, 4.0, 1.0,
                                range(1, 10))
        prev = 0.0
        for b in gains:
            assert b > prev
            prev = b

    def test_parallel_regime_precondition(self):
        # c = 3: at N = 1 beta = 2.5 is not below 2 / L_N = 2, and at N = 4
        # c M_g^2 L_N = 0.75 <= 1; both are flagged by None, not raised
        gains = predicted_gains(self.ORTHONORMAL, "parallel", 2.5, 3.0, 1.0,
                                [1, 2, 4])
        assert gains[0] is None and gains[2] is None
        assert gains[1] > 0.0

    def test_sequential_regime_precondition(self):
        with pytest.raises(ConfigError, match="c_hat"):
            predicted_gains(self.ORTHONORMAL, "sequential", 1.0, 0.9, 1.0, [2])

    def test_q_below_one_in_admissible_range(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            rows = rng.standard_normal((6, 4))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            poly = PolyhedronSpec(A=rows, b=np.zeros(6))
            size = int(rng.integers(1, 5))
            ln = exact_ln_linear(poly, size)
            c = rng.uniform(1.0, 5.0) / ln  # ensures c*ln > 1 with mg = 1
            beta = rng.uniform(0.01, 2.0 / ln - 1e-6)
            if c * ln <= 1.0:
                continue
            (b,) = predicted_gains(poly, "parallel", beta, c, 1.0, [size])
            q = b / (1.0 + b)               # b = 1 / (1 - q) - 1
            assert 0.0 < q < 1.0
            assert q == pytest.approx(beta * (2.0 - beta * ln) / c, rel=1e-9)

    def test_optimal_beta_maximizes_decrease(self):
        # the parallel gain grows with beta * (2 - beta * L_N), which peaks
        # at beta = 1 / L_N = N
        for size in (1, 2, 4):
            (best,) = predicted_gains(self.ORTHONORMAL, "parallel", float(size),
                                      5.0, 1.0, [size])
            for beta in np.linspace(0.01, 2.0 * size - 0.01, 97):
                (b,) = predicted_gains(self.ORTHONORMAL, "parallel", beta, 5.0,
                                       1.0, [size])
                assert b <= best * (1.0 + 1e-12)


class TestRunLoop:
    def small_benchmark(self):
        return make_polyhedral_benchmark(4, 6, seed=12)

    def test_deterministic_given_seed(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=300,
                        seeds=(9,))
        (r1,) = run(inst.spec, cfg, context=inst.context())
        (r2,) = run(inst.spec, cfg, context=inst.context())
        assert len(r1.records) == len(r2.records)
        for a, b in zip(r1.records, r2.records):
            # everything except wall time must match exactly
            assert (a.seed, a.k, a.f_gap, a.max_violation, a.dist_x, a.ln_k,
                    a.beta_k) == (b.seed, b.k, b.f_gap, b.max_violation,
                                  b.dist_x, b.ln_k, b.beta_k)
        np.testing.assert_array_equal(r1.final_x_hat, r2.final_x_hat)

    def test_single_batch_variants_bit_identical(self):
        inst = self.small_benchmark()
        trajectories = []
        for variant in ("parallel", "sequential"):
            cfg = RunConfig(variant=variant, batch_size=1,
                            beta_policy="fixed", beta=1.0, iterations=200,
                            seeds=(3,))
            spec, seen = recording(inst.spec)
            (result,) = run(spec, cfg)
            trajectories.append(seen[1:] + [result.final_x])
        for xa, xb in zip(*trajectories):
            np.testing.assert_array_equal(xa, xb)

    @pytest.mark.parametrize("sampler", Sampler.VARIANTS)
    def test_index_stream_across_a_block_boundary(self, sampler):
        # one full index block and a partial one, checked against per-draw
        # numpy calls on each seed's own sampler generator
        inst = self.small_benchmark()
        iterations, size, seeds = INDEX_BLOCK + 76, 3, (5, 8)
        cfg = RunConfig(variant="parallel", batch_size=size,
                        beta_policy="fixed", beta=1.0,
                        iterations=iterations, seeds=seeds, sampler=sampler)
        spec, asked, _ = recording_family(inst.spec)
        run(spec, cfg)
        asked = np.array(asked)
        assert asked.shape == (iterations, len(seeds), size)
        m = spec.constraints.size
        for row, seed in enumerate(seeds):
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
            if sampler == "iid-uniform":
                expected = [rng.integers(0, m, size=size) for _ in range(iterations)]
            else:
                expected = [rng.choice(m, size=size, replace=False)
                            for _ in range(iterations)]
            np.testing.assert_array_equal(asked[:, row], expected)

    def test_one_oracle_call_per_step(self, monkeypatch):
        # the constraints are reached only through ``batch``: once per
        # iteration with every seed's minibatch in the parallel variant; in
        # the sequential one, once for the whole minibatch and then once
        # for the columns after each column where some seed stepped, never
        # after the last column; the objective step runs once per
        # iteration, through the module global
        inst = self.small_benchmark()
        iterations, size, seeds = 40, 3, (2, 5, 11)
        steps, asked_by, values_by = [], {}, {}

        def counted_objective_step(*args):
            steps.append(args[1].shape)
            return objective_step(*args)

        monkeypatch.setattr(solver, "objective_step", counted_objective_step)
        for variant in ("parallel", "sequential"):
            cfg = RunConfig(variant=variant, batch_size=size,
                            beta_policy="fixed", beta=1.0,
                            iterations=iterations, seeds=seeds)
            spec, asked_by[variant], values_by[variant] = recording_family(inst.spec)
            steps.clear()
            run(spec, cfg)
            assert steps == [(len(seeds), spec.dimension)] * iterations
        parallel, sequential = asked_by["parallel"], asked_by["sequential"]
        assert [a.shape for a in parallel] == [(len(seeds), size)] * iterations
        calls = iter(zip(sequential, values_by["sequential"]))
        for minibatch in parallel:
            start = 0
            while start < size:
                asked, values = next(calls)
                # each seed's columns from ``start`` on, at its current point
                np.testing.assert_array_equal(asked, minibatch[:, start:])
                stepped = np.flatnonzero(np.logical_or.reduce(values > 0.0, 0))
                if not stepped.size:
                    break
                start += int(stepped[0]) + 1
        assert next(calls, None) is None
        assert iterations <= len(sequential) < iterations * size

    def test_empty_family_matches_plain_projected_gradient(self):
        center = np.array([0.7, -0.4, 1.1])
        objective = ObjectiveOracle(
            evaluate=lambda x: 0.5 * float((x - center) @ (x - center)),
            subgradient=lambda x: x - center)
        ball = SimpleSet.ball(np.zeros(3), 5.0)
        spec = ProblemSpec(dimension=3, objective=objective,
                           constraints=no_constraints(3), simple_set=ball,
                           mu=1.0, M_f=10.0, M_g=1.0)
        cfg = RunConfig(variant="parallel", batch_size=1,
                        beta_policy="fixed", beta=1.0, iterations=150,
                        seeds=(5,), init="zero")
        spec, seen = recording(spec)
        (result,) = run(spec, cfg)
        iterates = seen[1:] + [result.final_x]
        # independently coded projected gradient recursion
        x = ball.project(np.zeros(3))
        for k in range(1, 151):
            alpha = 4.0 / k
            x = ball.project(x - alpha * (x - center))
            assert np.linalg.norm(x - iterates[k - 1]) <= 1e-10

    def test_iterates_stay_in_simple_set(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="sequential", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=300,
                        seeds=(2,))
        spec, seen = recording(inst.spec)
        (result,) = run(spec, cfg)
        ss = inst.spec.simple_set
        for x in (seen[1:] + [result.final_x])[::10]:
            assert np.linalg.norm(ss.project(x) - x) <= 1e-9

    def test_streaming_average_matches_recomputation(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=400,
                        seeds=(8,))
        spec, seen = recording(inst.spec)
        (result,) = run(spec, cfg)
        weights = np.array([(k + 1) ** 2 for k in range(1, 401)], dtype=np.float64)
        stacked = np.array(seen[1:] + [result.final_x])
        x_hat = (weights[:, None] * stacked).sum(axis=0) / weights.sum()
        assert np.linalg.norm(x_hat - result.final_x_hat) <= 1e-10

    def test_warm_started_dist_x_equals_a_cold_oracle(self):
        # each seed's log points start the oracle from that seed's previous
        # active set; the last one still equals a cold call bit for bit
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        cfg = RunConfig(variant="sequential", batch_size=4,
                        beta_policy="fixed", beta=1.0, iterations=300,
                        seeds=(1, 2, 3), cadence=10)
        for result in run(inst.spec, cfg, context=inst.context()):
            cold = distance_oracle(inst.poly, inst.spec.simple_set,
                                   result.final_x_hat)
            assert result.records[-1].dist_x == cold > 0.0

    def test_lemma_chain_asks_only_for_moved_points(self, monkeypatch):
        # the chain checks ask the distance oracle for a seed's first inner
        # point and for each point bit-unequal to the one before it; the
        # others reuse that distance, and the records are those of a run
        # without checks
        inst = make_polyhedral_benchmark(50, 200, seed=0)
        cfg = RunConfig(variant="sequential", batch_size=8,
                        beta_policy="fixed", beta=1.0, iterations=200,
                        seeds=(1, 2, 3), cadence=50, assertions="lemma-checks")
        calls, asked = [0], [0]
        oracle, chain = solver.distance_oracle, solver._LemmaChecker.sequential_chain

        def counting(*args):
            calls[0] += 1
            return oracle(*args)

        def moved_points(self, k, inner_points, gplus_seq, beta):
            bits = np.array(inner_points).view(np.int64)    # (N + 1, S, n)
            asked[0] += bits.shape[1] + int(np.count_nonzero(
                (bits[1:] != bits[:-1]).any(axis=2)))
            chain(self, k, inner_points, gplus_seq, beta)

        monkeypatch.setattr(solver, "distance_oracle", counting)
        monkeypatch.setattr(solver._LemmaChecker, "sequential_chain", moved_points)
        checked = run(inst.spec, cfg, context=inst.context())
        monkeypatch.undo()
        log_calls = len(cfg.seeds) * 4                      # k = 50, ..., 200
        assert calls[0] == log_calls + asked[0] == 1462
        assert asked[0] < len(cfg.seeds) * cfg.iterations * (cfg.batch_size + 1)
        plain = run(inst.spec, dataclasses.replace(cfg, assertions="off"),
                    context=inst.context())
        for a, b in zip(checked, plain):
            assert [dataclasses.replace(r, elapsed_ns=0) for r in a.records] == \
                [dataclasses.replace(r, elapsed_ns=0) for r in b.records]
            np.testing.assert_array_equal(a.final_x_hat, b.final_x_hat)

    def test_adaptive_beta_follows_batch_ratio(self):
        inst = self.small_benchmark()
        delta = 0.1
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="adaptive", delta=delta,
                        iterations=50, seeds=(6,))
        (result,) = run(inst.spec, cfg, context=inst.context())
        for record in result.records:
            if record.ln_k is not None:
                assert record.beta_k == pytest.approx((2.0 - delta) / record.ln_k)

    def test_adaptive_rejected_for_sequential(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="sequential", batch_size=2,
                        beta_policy="adaptive", delta=0.1, iterations=10)
        with pytest.raises(ConfigError, match="fixed beta"):
            run(inst.spec, cfg)

    def test_fixed_beta_upper_bound_uses_ln_hint(self):
        spec = corner_spec()
        solver.validate(RunConfig(batch_size=2, beta=4.0, ln_hint=0.25),
                        spec)  # beta < 2 / 0.25
        with pytest.raises(ConfigError):
            solver.validate(RunConfig(batch_size=2, beta=4.0), spec)
        with pytest.raises(ConfigError):
            solver.validate(RunConfig(variant="sequential", batch_size=2,
                                      beta=4.0, ln_hint=0.25), spec)

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered in multiply:RuntimeWarning")
    def test_nonfinite_oracle_aborts_with_diagnostic(self):
        objective = ObjectiveOracle(evaluate=lambda x: 0.5 * float(x @ x),
                                    subgradient=lambda x: x * np.inf)
        spec = ProblemSpec(dimension=2, objective=objective,
                           constraints=no_constraints(2),
                           simple_set=SimpleSet.whole_space(2),
                           mu=1.0, M_f=1.0, M_g=1.0)
        cfg = RunConfig(variant="parallel", batch_size=1,
                        beta_policy="fixed", beta=1.0,
                        iterations=5, seeds=(0,), init="zero")
        with pytest.raises(SolverAbort, match="objective step"):
            run(spec, cfg)

    def test_iterations_must_be_positive(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=1,
                        beta_policy="fixed", beta=1.0, iterations=0)
        with pytest.raises(ConfigError, match="iterations"):
            run(inst.spec, cfg)

    def test_lemma_checks_require_context(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=10,
                        assertions="lemma-checks")
        with pytest.raises(ConfigError, match="context"):
            run(inst.spec, cfg)

    def test_lemma_checks_clean_on_benchmark(self):
        inst = self.small_benchmark()
        for variant in ("parallel", "sequential"):
            cfg = RunConfig(variant=variant, batch_size=2,
                            beta_policy="fixed", beta=1.0, iterations=300,
                            seeds=(1,), assertions="lemma-checks")
            run(inst.spec, cfg, context=inst.context())  # must not abort

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_lemma_checks_clean_over_a_block_of_seeds(self, variant):
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        for seed in range(1, 6):
            cfg = RunConfig(variant=variant, batch_size=4,
                            beta_policy="fixed", beta=1.0, iterations=200,
                            seeds=(seed,), assertions="lemma-checks")
            run(inst.spec, cfg, context=inst.context())  # must not abort

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_lemma_checks_catch_a_wrong_direction(self, variant):
        # the family reports the true values of x1 <= 0, x2 <= 0 but points
        # every step away from the quadrant, so the first step breaks the
        # single-step decrease toward the feasible origin
        spec = batch_spec(lambda idx, v: (v[idx], -np.eye(2)[idx]), size=2)
        context = PolyhedralContext(poly=PolyhedronSpec(A=np.eye(2), b=np.zeros(2)),
                                    feasible_point=np.zeros(2))
        cfg = RunConfig(variant=variant, batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=20,
                        seeds=(1,), init="zero", assertions="lemma-checks")
        with pytest.raises(SolverAbort, match="single-step-decrease") as info:
            run(spec, cfg, context=context)
        assert info.value.snapshot["k"] == 1

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_lemma_check_abort_names_the_seed(self, variant):
        # the wrong-direction family of the test above, in a block of seeds
        # 7 and 3 that start alike at x0 = 0: the first row, seed 7, fails
        spec = batch_spec(lambda idx, v: (v[idx], -np.eye(2)[idx]), size=2)
        context = PolyhedralContext(poly=PolyhedronSpec(A=np.eye(2), b=np.zeros(2)),
                                    feasible_point=np.zeros(2))
        cfg = RunConfig(variant=variant, batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=20,
                        seeds=(7, 3), init="zero", assertions="lemma-checks")
        with pytest.raises(SolverAbort, match="k=1, seed 7") as info:
            run(spec, cfg, context=context)
        assert info.value.snapshot["seed"] == 7

    def test_single_constraint_exact_projection_slack_zero(self):
        # with beta = 1 on an affine constraint the step lands on the boundary,
        # so the decrease inequality toward the landing point holds with
        # equality
        v = np.array([2.0, 0.0])
        d = np.array([1.0, 0.0])
        g = 2.0  # constraint x1 <= 0 of the corner problem at v
        (z_bar,) = sequential_feasibility_update(corner_spec(), np.array([[0]]),
                                                 v[None], 1.0)
        assert z_bar[0] == 0.0
        lhs = np.linalg.norm(z_bar - z_bar) ** 2
        rhs = np.linalg.norm(v - z_bar) ** 2 - 1.0 * (2.0 - 1.0) * g ** 2 / (d @ d)
        assert abs(lhs - rhs) <= 1e-12

    def test_cadence_geometric_and_linear(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=20,
                        seeds=(0,), init="zero", cadence="geometric")
        ks = [r.k for r in run(inst.spec, cfg, context=inst.context())[0].records]
        assert ks == [1, 2, 4, 8, 16, 20]
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=20,
                        seeds=(0,), init="zero", cadence=7)
        ks = [r.k for r in run(inst.spec, cfg, context=inst.context())[0].records]
        assert ks == [7, 14, 20]


class TestOracleFaults:
    """A constraint oracle fault inside a run aborts either variant with the
    iteration and the batch it happened in."""

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    @pytest.mark.parametrize("fault", ["zero-direction", "nan-value"])
    def test_fault_is_solver_abort_with_k_and_indices(self, variant, fault):
        # from x0 = 0 the first objective step lands at (4, 4), where both
        # constraints x1 <= 0, x2 <= 0 are violated
        if fault == "zero-direction":
            spec = batch_spec(lambda idx, v: (v[idx], np.zeros((len(idx), 2))),
                              size=2)
        else:
            spec = batch_spec(
                lambda idx, v: (np.where(v[idx] > 0, np.nan, v[idx]), np.eye(2)[idx]),
                size=2)
        cfg = RunConfig(variant=variant, batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=50,
                        seeds=(1,), init="zero")
        with pytest.raises(SolverAbort, match="constraint oracle fault at k=1"
                           ) as info:
            run(spec, cfg)
        snap = info.value.snapshot
        assert set(snap) == {"seed", "k", "indices"}
        assert snap["seed"] == 1
        assert snap["k"] == 1
        assert sorted(snap["indices"].tolist()) == [0, 1]


    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    @pytest.mark.parametrize("fault", ["zero-direction", "nan-value"])
    def test_fault_names_its_row_in_a_block(self, variant, fault):
        # of three seeds only the second sits where x1 <= 0, x2 <= 0 fail
        if fault == "zero-direction":
            spec = batch_spec(lambda idx, v: (v[idx], np.zeros((len(idx), 2))),
                              size=2)
        else:
            spec = batch_spec(
                lambda idx, v: (np.where(v[idx] > 0, np.nan, v[idx]), np.eye(2)[idx]),
                size=2)
        block = np.array([[-1.0, -2.0], [4.0, 4.0], [-3.0, -1.0]])
        indices = np.array([[0, 1]] * 3)
        with pytest.raises(OracleFault) as info:
            if variant == "parallel":
                parallel_feasibility_update(spec, indices, block,
                                            RunConfig(beta=1.0))
            else:
                sequential_feasibility_update(spec, indices, block, 1.0)
        assert info.value.row == 1

    # constraints 0 and 1 are x1 <= 0 and x2 <= 0, and 2 and 3 the same pair
    # with the fault; the middle seed asks [2, 3] at (4, -4), where 2 is
    # violated and 3 satisfied, the others ask [0, 1] where both hold
    BLOCK = np.array([[-1.0, -2.0], [4.0, -4.0], [-3.0, -1.0]])
    INDICES = np.array([[0, 1], [2, 3], [0, 1]])

    @classmethod
    def faulty_pass(cls, variant, fault):
        def batch(idx, v):
            values, rows = v[idx % 2], np.eye(2)[idx % 2]
            if fault == "inf-row-violated":
                rows[idx == 2] = [np.inf, 0.0]
            elif fault == "nan-row-satisfied":
                rows[idx == 3] = np.nan
            elif fault == "neg-inf-value":
                values[idx == 3] = -np.inf
            else:  # finite, but the sums of their squares overflow
                values[idx == 3] = -1e308
                rows[idx == 3] = [1e308, -1e308]
            return values, rows

        spec = batch_spec(batch, size=4)
        if variant == "parallel":
            x, _, _ = parallel_feasibility_update(spec, cls.INDICES, cls.BLOCK,
                                                  RunConfig(beta=1.0))
            return x
        return sequential_feasibility_update(spec, cls.INDICES, cls.BLOCK, 1.0)

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    @pytest.mark.parametrize("fault", ["inf-row-violated", "nan-row-satisfied",
                                       "neg-inf-value"])
    def test_nonfinite_entry_names_its_row(self, variant, fault):
        # a -inf value has positive part 0, so no product of the step sees
        # it: only the finiteness test can report it
        with pytest.raises(OracleFault, match="non-finite") as info:
            self.faulty_pass(variant, fault)
        assert info.value.row == 1

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_overflowing_finite_batch_steps(self, variant):
        # the huge satisfied constraint 3 takes no part in the step: the
        # middle seed moves along x1 only, by half (parallel) or all
        # (sequential) of its violation 4
        x = self.faulty_pass(variant, "huge-finite")
        middle = [2.0, -4.0] if variant == "parallel" else [0.0, -4.0]
        np.testing.assert_array_equal(x, [self.BLOCK[0], middle, self.BLOCK[2]])

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_violated_row_whose_squared_norm_overflows(self, variant):
        # |(1e200, 0)|^2 overflows: a violated row would step by beta * gplus
        # / inf * row = 0 and stay put; the first seed satisfies that row
        A, b = np.array([[1e200, 0.0], [0.0, 1.0]]), np.zeros(2)
        spec = corner_spec(constraints=ConstraintFamily(
            size=2, batch=lambda idx, v: (
                np.matmul(A[idx], v[:, :, None])[:, :, 0] + b[idx], A[idx])))
        block = np.array([[-1.0, -1.0], [1.0, -1.0]])
        indices = np.array([[0, 1], [0, 1]])
        with pytest.raises(OracleFault, match="overflows") as info:
            if variant == "parallel":
                parallel_feasibility_update(spec, indices, block,
                                            RunConfig(beta=1.0))
            else:
                sequential_feasibility_update(spec, indices, block, 1.0)
        assert info.value.row == 1


class TestDeclaredLN:
    """A declared L_N is a run-time claim: a batch ratio above it aborts, the
    exact bound never does."""

    INSTANCES = {"benchmark": lambda: make_polyhedral_benchmark(4, 6, seed=12),
                 "duplicated": lambda: make_duplicated_benchmark(4, 6, seed=0)}

    @pytest.mark.parametrize("policy", [{"beta_policy": "extrapolated", "delta": 0.1},
                                        {"beta_policy": "fixed", "beta": 1.0}],
                             ids=["extrapolated", "fixed"])
    def test_understated_ln_aborts_with_snapshot(self, policy):
        # every row of the duplicated instance is the same direction, so each
        # violated batch has L_N,k = 1, far above the declared 0.001
        inst = make_duplicated_benchmark(4, 6, seed=0)
        cfg = RunConfig(variant="parallel", batch_size=2, ln_hint=0.001,
                        iterations=200, seeds=(1,), **policy)
        with pytest.raises(SolverAbort, match="exceeds the declared L_N") as info:
            run(inst.spec, cfg, context=inst.context())
        snap = info.value.snapshot
        assert set(snap) == {"seed", "k", "ln_k", "ln", "beta"}
        assert snap["seed"] == 1
        assert 1 <= snap["k"] <= 200
        assert snap["ln"] == 0.001
        assert snap["ln_k"] == pytest.approx(1.0, abs=1e-12)
        assert snap["beta"] == solver.initial_beta(cfg)

    def test_unchecked_ln_rejected(self):
        # only the parallel variant under a fixed or extrapolated beta checks it
        spec = corner_spec()
        solver.validate(RunConfig(batch_size=2, beta=1.0, ln_hint=0.5), spec)
        with pytest.raises(ConfigError, match="declared L_N"):
            solver.validate(RunConfig(variant="sequential", batch_size=2,
                                      beta=1.0, ln_hint=0.5), spec)
        with pytest.raises(ConfigError, match="declared L_N"):
            solver.validate(RunConfig(batch_size=2, beta_policy="adaptive",
                                      delta=0.1, ln_hint=0.5), spec)

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    @pytest.mark.parametrize("name", ["benchmark", "duplicated"])
    def test_exact_ln_never_aborts(self, name, batch_size):
        inst = self.INSTANCES[name]()
        with warnings.catch_warnings():
            # the duplicated rows reach the bound 1, which is warned about
            warnings.simplefilter("ignore")
            ln = exact_ln_linear(inst.poly, batch_size)
        for seed in (1, 2, 3):
            cfg = RunConfig(variant="parallel", batch_size=batch_size,
                            beta_policy="extrapolated", delta=0.1, ln_hint=ln,
                            iterations=300, seeds=(seed,),
                            sampler="without-replacement")
            (result,) = run(inst.spec, cfg, context=inst.context())  # must not abort
            assert result.max_ln_k is not None  # the check saw violated batches


class TestBlockEqualsSeeds:
    """A pass over a block of seeds gives each seed exactly what the pass
    gives it alone: the merges it skips when every seed is violated, and
    the ones it makes when some seed is feasible, change no bit.  The
    sequential pass, which asks for all the columns ahead and skips to the
    next violated one, gives the bits of the column-by-column chain."""

    SIZE = 3
    PASSES = {
        "parallel-fixed0.7": RunConfig(beta=0.7),
        "parallel-fixed1.0": RunConfig(beta=1.0),
        "parallel-fixed1.9": RunConfig(beta=1.9),
        "parallel-adaptive": RunConfig(beta_policy="adaptive", delta=0.1),
        "parallel-extrapolated": "exact",
        "sequential-fixed0.7": 0.7,
        "sequential-fixed1.0": 1.0,
        "sequential-fixed1.9": 1.9,
    }

    def seeds_by_kind(self, inst):
        """Minibatches and points, drawn from a fixed stream, sorted by how
        many of the batch's constraints each point violates and by whether
        it lies outside the simple set Y, where only the merge keeps a
        point that takes no step."""
        rng = np.random.default_rng(4)
        spec, kinds = inst.spec, {}
        for _ in range(300):
            idx = rng.choice(spec.constraints.size, self.SIZE, replace=False)
            u = rng.standard_normal(spec.dimension)
            v = inst.anchor + rng.uniform(0.05, 1.5) * spec.simple_set.radius \
                * u / np.linalg.norm(u)
            gvals, _ = spec.constraints.batch(idx[None], v[None])
            hit = int(np.count_nonzero(gvals > 0.0))
            kind = "feasible" if hit == 0 else "fully" if hit == self.SIZE else "partly"
            outside = not spec.simple_set.contains(v)
            kinds.setdefault((kind, outside), []).append((idx, v))
        return kinds

    def feasibility_pass(self, name, inst):
        policy = self.PASSES[name]
        if policy == "exact":
            with warnings.catch_warnings():
                # the duplicated rows reach the bound 1, which is warned about
                warnings.simplefilter("ignore")
                ln = exact_ln_linear(inst.poly, self.SIZE)
            policy = RunConfig(beta_policy="extrapolated", delta=0.1, ln_hint=ln)
        if name.startswith("parallel"):
            return lambda idx, v: parallel_feasibility_update(inst.spec, idx, v, policy)
        return lambda idx, v: (sequential_feasibility_update(inst.spec, idx, v, policy),)

    def drawn_block(self, instance, block):
        """The instance and a block of two seeds of each kind, inside and
        outside Y, leaving out the feasible ones when ``block`` is
        all-violated and the partly violated ones when it is extremes."""
        inst = TestDeclaredLN.INSTANCES[instance]()
        kinds = self.seeds_by_kind(inst)
        # each kind occurs inside and outside Y, but the duplicated rows are
        # one constraint, so none of their batches is partly violated
        present = ("feasible", "fully") if instance == "duplicated" else \
            ("feasible", "partly", "fully")
        assert set(kinds) == set(itertools.product(present, (False, True)))
        order = {"all-violated": present[1:], "extremes": ("feasible", "fully"),
                 "mixed": present}[block]
        chosen = [seed for kind in order for outside in (False, True)
                  for seed in kinds[kind, outside][:2]]
        indices = np.array([idx for idx, _ in chosen])
        v = np.array([point for _, point in chosen])
        return inst, indices, v

    @pytest.mark.parametrize("block", ["mixed", "all-violated"])
    @pytest.mark.parametrize("name", list(PASSES))
    @pytest.mark.parametrize("instance", ["benchmark", "duplicated"])
    def test_block_matches_each_seed_alone(self, instance, name, block):
        inst, indices, v = self.drawn_block(instance, block)
        self.assert_block_matches_alone(self.feasibility_pass(name, inst), indices, v)

    @pytest.mark.parametrize("name", list(PASSES))
    def test_all_or_none_seeds_in_a_mixed_block(self, name):
        # alone, each seed violates all or none of its batch, the parallel
        # pass's shortcuts; their block is mixed and reduces over the seeds
        inst, indices, v = self.drawn_block("benchmark", "extremes")
        gvals, _ = inst.spec.constraints.batch(indices, v)
        hits = np.count_nonzero(gvals > 0.0, axis=1)
        assert set(hits.tolist()) == {0, self.SIZE}
        self.assert_block_matches_alone(self.feasibility_pass(name, inst), indices, v)

    @staticmethod
    def assert_block_matches_alone(step, indices, v):
        together = step(indices, v)
        alone = [step(indices[row:row + 1], v[row:row + 1]) for row in range(len(v))]
        for out, outs in zip(together, zip(*alone)):
            assert np.array_equal(out, np.concatenate(outs), equal_nan=True)

    @pytest.mark.parametrize("checks", ["off", "lemma-checks"])
    @pytest.mark.parametrize("block", ["mixed", "all-violated"])
    @pytest.mark.parametrize("beta", [0.7, 1.0, 1.9])
    @pytest.mark.parametrize("instance", ["benchmark", "duplicated"])
    def test_sequential_pass_is_the_column_chain(self, instance, beta, block,
                                                 checks):
        # the block and each of its seeds alone: the pass asks for the
        # whole minibatch, then for the columns after each column where
        # some seed stepped, and returns the chain's points and checks
        inst, indices, v = self.drawn_block(instance, block)
        size = indices.shape[1]

        def checker(count):
            return None if checks == "off" else RecordingChecker(
                inst.context(), inst.spec, tuple(range(count)))

        for rows in [slice(None)] + [slice(r, r + 1) for r in range(len(v))]:
            idx, points = indices[rows], v[rows]
            chain_checker, pass_checker = checker(len(points)), checker(len(points))
            z_chain, stepped = column_chain(inst.spec, idx, points, beta,
                                            chain_checker, k=7)
            spec, asked, _ = recording_family(inst.spec)
            z_pass = sequential_feasibility_update(spec, idx, points, beta,
                                                   pass_checker, k=7)
            assert np.array_equal(z_pass, z_chain)
            starts = [0] + [i + 1 for i in stepped if i + 1 < size]
            assert [a.tolist() for a in asked] == [idx[:, i:].tolist() for i in starts]
            if checks == "off":
                continue
            assert len(pass_checker.seen) == len(chain_checker.seen) == len(stepped) + 1
            for got, want in zip(pass_checker.seen, chain_checker.seen):
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
