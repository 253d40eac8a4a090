import dataclasses
import itertools
import re
import time
import warnings

import numpy as np
import pytest

from mbproj.geometry import (DistanceOracleError, PolyhedronSpec, distance_oracle,
                             linear_family)
from mbproj.oracle import (ConstraintFamily, KnownOptimum, ObjectiveOracle,
                           OracleError, ProblemSpec, SimpleSet)
from mbproj.problems import (exact_ln_linear, make_duplicated_benchmark,
                             make_orthant2, make_polyhedral_benchmark,
                             predicted_gain)
from mbproj import solver
from mbproj.sampling import Sampler
from mbproj.harness import RunConfig
from mbproj.solver import (INDEX_BLOCK, ConfigError, OracleFault, SolverAbort,
                           alpha_schedule, batch_diagnostics, objective_step,
                           parallel_feasibility_update, run,
                           sequential_feasibility_update)


def corner_spec(simple_set=None, constraints=None):
    """Constraints x1 <= 0, x2 <= 0 with a quadratic objective pulling to (1, 1)."""
    A = np.eye(2)
    b = np.zeros(2)
    center = np.array([1.0, 1.0])
    objective = ObjectiveOracle(evaluate=lambda x: 0.5 * np.vecdot(x - center, x - center),
                                subgradient=lambda x: x - center)
    return ProblemSpec(objective=objective,
                       constraints=constraints or linear_family(PolyhedronSpec(A, b)),
                       simple_set=simple_set or SimpleSet.whole_space(2),
                       mu=1.0, M_g=1.0,
                       known_optimum=KnownOptimum(f_star=1.0, x_star=np.zeros(2)))


def never_violated():
    """A family of one constraint, -1 <= 0, that holds at every point: a
    run on it takes no feasibility step."""
    return ConstraintFamily(size=1, batch=lambda idx, v: (
        np.full(idx.shape, -1.0), np.zeros(idx.shape + v.shape[1:])))


def plain_rows(indices):
    """The rows of a one-size block of the (S, N) ``indices``, labelled as
    ``run`` labels them, with row numbers for seeds."""
    return solver._Rows(tuple(range(len(indices))), (indices.shape[1],) * len(indices))


def start_beta(cfg, count):
    """The (count,) stepsizes of a block's rows before any batch, as ``run``
    spreads ``initial_beta`` over them."""
    return np.full(count, solver.initial_beta(cfg))


def relaxed_step_both_passes(spec, index, v, beta):
    """The relaxed projection step of one constraint, through both passes,
    with v as a one-seed block; a pass that hands the block back unchanged
    hands back v itself."""
    block = v[None]
    xp, _, _ = parallel_feasibility_update(spec, np.array([[index]]), block,
                                           np.full(1, beta), RunConfig(beta=beta),
                                           plain_rows(np.array([[index]])))
    xs = sequential_feasibility_update(spec, np.array([[index]]), block,
                                       np.full(1, beta),
                                       plain_rows(np.array([[index]])))
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


def counted_diagnostics(monkeypatch, label=lambda: None):
    """Patch the module global ``solver.batch_diagnostics``, which the
    parallel pass calls by name, to append ``label()`` to the returned list
    at each call."""
    calls, diagnostics = [], solver.batch_diagnostics

    def counted(*args):
        calls.append(label())
        return diagnostics(*args)

    monkeypatch.setattr(solver, "batch_diagnostics", counted)
    return calls


def column_chain(spec, indices, v, beta, checker=None, k=0):
    """The sequential pass one column at a time, each seed at its own
    stepsize of the (S,) ``beta``: the i-th step asks the oracle for every
    seed's i-th index at its current inner point, and the checker checks
    each step at column i and then each seed's chain.  Returns the final
    points and the columns where some seed stepped."""
    z, stepped = v, []
    for i in range(indices.shape[1]):
        gvals, dirs = solver._checked_batch(spec, indices[:, i:i + 1], z)
        active = gvals > 0.0
        if active.any():
            stepped.append(i)
            gplus = np.maximum(gvals, 0.0)
            nsq = solver._squared_norms(dirs, active)
            z_next = spec.simple_set.project(
                z - (beta[:, None] * gplus / nsq) * dirs[:, 0])
            if checker is not None:
                checker.chain_step(k, indices, np.full(len(z), i), z, z_next,
                                   gplus, nsq, beta)
            z = z_next if active.all() else np.where(active, z_next, z)
    if checker is not None:
        checker.chain_end(k, z)
    return z, stepped


def round_starts(steps, size):
    """The column each round of the sequential pass asks from, given the
    columns where each row steps in its own column chain: a round asks the
    ``solver.WINDOW`` columns from the least advanced live row's next
    column, where each live row steps at its next stepped column, or else
    moves on to the window's end; a row is done once its next column
    reaches ``size``, and the pass ends when no row steps in a window that
    reaches ``size``.  Its length is the number of rounds."""
    ahead = [list(stepped) for stepped in steps]
    at, starts = [0] * len(steps), []
    while min(at) < size:
        first = min(at)
        end = first + solver.WINDOW
        starts.append(first)
        live = [row for row, column in enumerate(at) if column < size]
        stepping = [row for row in live if ahead[row] and ahead[row][0] < end]
        for row in live:
            at[row] = ahead[row].pop(0) + 1 if row in stepping else end
        if not stepping and end >= size:
            break
    return starts


class RecordingChecker(solver._LemmaChecker):
    """A lemma checker that also keeps copies of the (S, ...) arrays that
    each sequential check is given, and counts the rows it projects."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen, self.projections = [], 0

    def _nearest(self, rows, v):
        self.projections += len(rows)
        return super()._nearest(rows, v)

    def chain_step(self, k, indices, column, *arrays):
        self.seen.append([np.array(a) for a in (indices, column, *arrays)])
        super().chain_step(k, indices, column, *arrays)

    def chain_end(self, k, z):
        self.seen.append([np.array(z)])
        super().chain_end(k, z)


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
                                        np.ones(1), RunConfig(beta=1.0),
                                        plain_rows(np.array([[0]])))
        with pytest.raises(OracleError, match="zero direction"):
            sequential_feasibility_update(spec, np.array([[0]]), np.ones((1, 2)),
                                          np.ones(1), plain_rows(np.array([[0]])))

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_zero_direction_names_its_row(self, variant):
        # every constraint is violated, and only beyond x1 = 5, in the
        # third row, is its row zero: a pass's (S, N) mask and a round's
        # (S,) pick both name that row
        spec = batch_spec(lambda idx, v: (np.ones(len(idx)), np.tile(
            [0.0, 0.0] if v[0] > 5.0 else [1.0, 0.0], (len(idx), 1))))
        indices = np.zeros((3, 2), dtype=np.int64)
        v, rows = np.array([[1.0, 1.0], [2.0, 2.0], [6.0, 6.0]]), plain_rows(indices)
        with pytest.raises(OracleFault, match="zero direction") as info:
            if variant == "parallel":
                parallel_feasibility_update(spec, indices, v, np.ones(3),
                                            RunConfig(beta=1.0), rows)
            else:
                sequential_feasibility_update(spec, indices, v, np.ones(3), rows)
        assert info.value.row == 2


class TestParallelUpdate:
    def test_two_orthogonal_constraints(self):
        spec = corner_spec()
        indices, v = np.array([[0, 1]]), np.array([[2.0, 2.0]])
        x, _, _ = parallel_feasibility_update(spec, indices, v, np.ones(1),
                                              RunConfig(beta=1.0), plain_rows(indices))
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
                                                 np.array([[2.0, 2.0]]), np.ones(1),
                                                 RunConfig(beta=1.0),
                                                 plain_rows(np.array([[0, 1]])))
        assert ln_k[0] == pytest.approx(0.5, abs=1e-15)

    def test_single_index_reduces_to_projected_step(self):
        ball = SimpleSet.ball(np.zeros(2), 1.5)
        spec = corner_spec(simple_set=ball)
        v = np.array([1.2, 0.9])
        x, _, _ = parallel_feasibility_update(spec, np.array([[0]]), v[None],
                                              np.ones(1), RunConfig(beta=1.0),
                                              plain_rows(np.array([[0]])))
        # g+ = 1.2 along d = (1, 0), |d| = 1
        expected = ball.project(v - 1.2 * np.array([1.0, 0.0]))
        np.testing.assert_array_equal(x[0], expected)

    def test_feasible_batch_returns_v_exactly(self):
        spec = corner_spec()
        indices, v = np.array([[0, 1, 0]]), np.array([[-1.0, -2.0]])
        adaptive = RunConfig(beta_policy="adaptive", delta=0.1)
        for cfg in (RunConfig(beta=1.3), adaptive):
            beta = start_beta(cfg, 1)
            x, ln_k, beta_k = parallel_feasibility_update(spec, indices, v, beta,
                                                          cfg, plain_rows(indices))
            assert x is v
            assert np.isnan(ln_k[0])      # no ratio: the batch is feasible
            # no step taken: the stepsize, which run reads for beta_k, is
            # the one passed in
            assert beta_k is beta

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
                                                    v, start_beta(policy, 2), policy,
                                                    plain_rows(indices[[0, 0]]))
        np.testing.assert_array_equal(ln_k, [0.5, 0.5])
        np.testing.assert_array_equal(beta, [step, step])
        np.testing.assert_allclose(x, [[(1 - step / 2) * 1e-170, -1.0],
                                       [(1 - step / 2) * 1e-3, -1.0]], rtol=1e-12)
        alone, _, _ = parallel_feasibility_update(corner_spec(), indices, v[1:],
                                                  start_beta(policy, 1), policy,
                                                  plain_rows(indices))
        np.testing.assert_array_equal(alone, x[1:])


class TestSequentialUpdate:
    def test_orthogonal_chain_projects_both(self):
        spec, asked, values = recording_family(corner_spec())
        x = sequential_feasibility_update(spec, np.array([[0, 1]]),
                                          np.array([[2.0, 2.0]]), beta=np.ones(1),
                                          rows=plain_rows(np.array([[0, 1]])))
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
                                          np.array([[2.0, 0.0]]), beta=np.ones(1),
                                          rows=plain_rows(np.array([[0, 0]])))
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
                                               np.full(1, 0.8), RunConfig(beta=0.8),
                                               plain_rows(np.array([[1]])))
        xs = sequential_feasibility_update(spec, np.array([[1]]), v,
                                           beta=np.full(1, 0.8),
                                           rows=plain_rows(np.array([[1]])))
        np.testing.assert_array_equal(xp, xs)

    @pytest.mark.parametrize("policy", [
        RunConfig(beta=0.7), RunConfig(beta=1.0), RunConfig(beta=1.9),
        RunConfig(beta_policy="extrapolated", delta=0.3, ln_hint=1.0),
        RunConfig(beta_policy="adaptive", delta=0.1),
    ], ids=["fixed0.7", "fixed1.0", "fixed1.9", "extrapolated", "adaptive"])
    def test_single_index_step_rounds_as_the_chain(self, policy):
        # rows that are not unit rows, one violated index per seed: the
        # parallel step is beta * gplus / nsq times the row, rounded as the
        # chain's step, at each seed's stepsize for its returned L_1,k
        rng = np.random.default_rng(5)
        A = rng.uniform(0.3, 3.0, (40, 2)) * rng.choice([-1.0, 1.0], (40, 2))
        v = rng.standard_normal((40, 2))
        b = rng.uniform(0.1, 2.0, 40) - np.einsum("ij,ij->i", A, v)
        spec = corner_spec(constraints=ConstraintFamily(
            size=40, batch=lambda idx, x: (
                np.matmul(A[idx], x[:, :, None])[:, :, 0] + b[idx], A[idx])))
        indices = np.arange(40)[:, None]
        xp, ln_k, beta = parallel_feasibility_update(spec, indices, v,
                                                     start_beta(policy, 40), policy,
                                                     plain_rows(indices))
        xs = [sequential_feasibility_update(spec, indices[r:r + 1], v[r:r + 1],
                                            beta[r:r + 1],
                                            plain_rows(indices[r:r + 1]))[0]
              for r in range(40)]
        assert not np.isnan(ln_k).any()       # every seed steps
        assert xp.tobytes() == np.array(xs).tobytes()

    def test_beta_range_enforced(self):
        # the pass relies on run's validation for beta in (0, 2)
        cfg = RunConfig(variant="sequential", batch_size=1,
                        beta_policy="fixed", beta=2.0, iterations=10)
        with pytest.raises(ConfigError, match="admissible interval"):
            solver.validate(cfg, corner_spec())


class TestObjectiveStep:
    def test_gradient_step_to_minimizer(self):
        objective = ObjectiveOracle(evaluate=lambda x: 0.5 * np.vecdot(x, x),
                                    subgradient=lambda x: x)
        spec = ProblemSpec(objective=objective,
                           constraints=never_violated(),
                           simple_set=SimpleSet.whole_space(2),
                           mu=1.0, M_g=1.0)
        np.testing.assert_array_equal(objective_step(spec, np.array([1.0, 1.0]), 1.0),
                                      [0.0, 0.0])

    def test_zero_step(self):
        spec = corner_spec()
        x = np.array([0.7, -0.3])
        np.testing.assert_array_equal(objective_step(spec, x, 0.0), x)

    def test_projection_applies(self):
        objective = ObjectiveOracle(evaluate=lambda x: 0.5 * np.vecdot(x, x),
                                    subgradient=lambda x: x)
        spec = ProblemSpec(objective=objective,
                           constraints=never_violated(),
                           simple_set=SimpleSet.ball(np.zeros(2), 1.0),
                           mu=1.0, M_g=1.0)
        out = objective_step(spec, np.array([1.0, 0.0]), 0.5)
        np.testing.assert_array_equal(out, [0.5, 0.0])

    @pytest.mark.parametrize("shape", [(3,), (2, 1)], ids=["one-point", "column"])
    def test_subgradient_of_another_shape_raises(self, shape):
        # such a subgradient would broadcast over the (2, 3) block and run
        # on silently; the error names both shapes
        objective = ObjectiveOracle(evaluate=lambda x: np.zeros(len(x)),
                                    subgradient=lambda x: np.ones(shape))
        spec = ProblemSpec(objective=objective, constraints=never_violated(),
                           simple_set=SimpleSet.whole_space(3), mu=1.0, M_g=1.0)
        with pytest.raises(OracleError, match=rf"shape {re.escape(str(shape))} "
                           r"for points \(2, 3\)"):
            objective_step(spec, np.zeros((2, 3)), 0.5)


def one_seed_ratio(gplus, dirs, nsq):
    """L_N,k of one seed's violated batch through ``batch_diagnostics``."""
    (ln_k,) = batch_diagnostics(gplus[None], dirs[None], nsq[None])
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

    def test_feasible_rows_read_from_real_columns(self):
        # a block of sizes 4, 2 and 1, three rows each: every real column
        # positive, a mix of zero and positive (at N = 1 a zero real column
        # with positive pads) and every real column zero; a pad's value is
        # junk, so only the real columns can decide which rows are NaN
        rng = np.random.default_rng(24)
        sizes, width = (4, 2, 1), 4
        gplus = rng.uniform(0.1, 2.0, size=(9, width))
        for g, size in enumerate(sizes):
            gplus[3 * g + 1, :size] *= np.arange(size) % 2  # 0 at column 0
            gplus[3 * g + 2, :size] = 0.0
        dirs = rng.standard_normal((9, width, 3))
        nsq = np.einsum("...j,...j->...", dirs, dirs)
        groups = tuple((slice(3 * g, 3 * g + 3), size)
                       for g, size in enumerate(sizes))
        ln_k = batch_diagnostics(gplus, dirs, nsq, groups)
        feasible = [not (gplus[row, :size] > 0.0).any()
                    for part, size in groups for row in range(9)[part]]
        assert feasible == [False, False, True, False, False, True,
                            False, True, True]
        np.testing.assert_array_equal(np.isnan(ln_k), feasible)
        for part, size in groups:
            alone = batch_diagnostics(gplus[part, :size], dirs[part, :size],
                                      nsq[part, :size])
            assert ln_k[part].tobytes() == alone.tobytes()

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
    """The rate constants q and b that ``predicted_gain`` prices."""

    # rows e_1, ..., e_4: every N-subset has L_N = 1 / N
    ORTHONORMAL = PolyhedronSpec(A=np.eye(4), b=np.zeros(4))

    def test_parallel_optimal_beta(self):
        # beta = 1 / L_N gives q = 1 / (c M_g^2 L_N), so b = 1 / (c M_g^2 L_N - 1)
        c, mg, ln = 3.0, 1.0, 0.5
        b = predicted_gain(self.ORTHONORMAL, "parallel", 1.0 / ln, c, mg, 2)
        assert b == pytest.approx(1.0 / (c * mg ** 2 * ln - 1.0))

    def test_sequential_doubling(self):
        # q = beta (2 - beta) / (c M_g^2) = 0.5 gives gains 1, 3, 7, 15, ...
        for size, expected in zip((1, 2, 3, 4), (1.0, 3.0, 7.0, 15.0)):
            b = predicted_gain(self.ORTHONORMAL, "sequential", 1.0, 2.0, 1.0,
                               size)
            assert 1.0 - (1.0 + b) ** (-1.0 / size) == pytest.approx(0.5)  # q
            assert b == pytest.approx(expected)

    def test_sequential_gain_increases_with_batch(self):
        # N = 9 exceeds the 4 rows: the sequential gain needs no L_N
        prev = 0.0
        for size in range(1, 10):
            b = predicted_gain(self.ORTHONORMAL, "sequential", 1.0, 4.0, 1.0,
                               size)
            assert b > prev
            prev = b

    def test_parallel_regime_precondition(self):
        # c = 3: at N = 1 beta = 2.5 is not below 2 / L_N = 2, and at N = 4
        # c M_g^2 L_N = 0.75 <= 1; both are flagged by None, not raised
        gains = [predicted_gain(self.ORTHONORMAL, "parallel", 2.5, 3.0, 1.0, size)
                 for size in (1, 2, 4)]
        assert gains[0] is None and gains[2] is None
        assert gains[1] > 0.0

    def test_sequential_regime_precondition(self):
        with pytest.raises(ConfigError, match="c_hat"):
            predicted_gain(self.ORTHONORMAL, "sequential", 1.0, 0.9, 1.0, 2)

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
            b = predicted_gain(poly, "parallel", beta, c, 1.0, size)
            q = b / (1.0 + b)               # b = 1 / (1 - q) - 1
            assert 0.0 < q < 1.0
            assert q == pytest.approx(beta * (2.0 - beta * ln) / c, rel=1e-9)

    def test_optimal_beta_maximizes_decrease(self):
        # the parallel gain grows with beta * (2 - beta * L_N), which peaks
        # at beta = 1 / L_N = N
        for size in (1, 2, 4):
            best = predicted_gain(self.ORTHONORMAL, "parallel", float(size),
                                  5.0, 1.0, size)
            for beta in np.linspace(0.01, 2.0 * size - 0.01, 97):
                b = predicted_gain(self.ORTHONORMAL, "parallel", beta, 5.0,
                                   1.0, size)
                assert b <= best * (1.0 + 1e-12)


class TestRunLoop:
    def small_benchmark(self):
        return make_polyhedral_benchmark(4, 6, seed=12)

    def test_deterministic_given_seed(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=300,
                        seeds=(9,))
        (r1,) = run(inst.spec, cfg, poly=inst.poly)
        (r2,) = run(inst.spec, cfg, poly=inst.poly)
        assert r1.records == r2.records
        np.testing.assert_array_equal(r1.final_x_hat, r2.final_x_hat)

    @pytest.mark.parametrize("block", ["solve", "sweep"])
    def test_run_reads_no_clock(self, block, monkeypatch):
        # a record holds results only: neither a solve block nor a block of
        # mixed sizes reads a clock
        reads = []
        for name in ("perf_counter_ns", "perf_counter"):
            monkeypatch.setattr(time, name, lambda name=name, clock=getattr(time, name):
                                reads.append(name) or clock())
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=2, beta=1.0,
                        iterations=200, cadence=20, seeds=(1, 2))
        if block == "solve":
            results = run(inst.spec, cfg, poly=inst.poly)
        else:
            results = solver._run_block(inst.spec, dataclasses.replace(
                cfg, variant="sequential"), inst.poly, (4, 1, 2))
        monkeypatch.undo()
        assert reads == []
        assert [len(r.records) for r in results] == \
            [10] * (2 if block == "solve" else 6)

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
        # the sequential one, once per round, for every seed's minibatch
        # from the least advanced live seed's next column.  A seed's next
        # column follows the first column it violates ahead of its own; one
        # that violates none is done.  The asks of an iteration end after
        # the first round where no seed violates a column ahead, or when
        # every seed has passed its last column.  The family reads a
        # violated value, with a valid row, at each column a seed has
        # passed, which the pass must check but never step on, so the run
        # equals an unpoisoned one; the objective step runs once per
        # iteration, through the module global
        inst = self.small_benchmark()
        iterations, size, seeds = 40, 3, (2, 5, 11)
        steps = []

        def counted_objective_step(*args):
            steps.append(args[1].shape)
            return objective_step(*args)

        monkeypatch.setattr(solver, "objective_step", counted_objective_step)
        cfg = RunConfig(variant="parallel", batch_size=size, beta_policy="fixed",
                        beta=1.0, iterations=iterations, seeds=seeds)
        spec, parallel, _ = recording_family(inst.spec)
        run(spec, cfg)
        assert steps == [(len(seeds), spec.simple_set.dimension)] * iterations
        assert [a.shape for a in parallel] == [(len(seeds), size)] * iterations

        family, minibatches, sequential = inst.spec.constraints, iter(parallel), []
        state = {"start": None, "poisoned": 0}

        def poisoned(indices, v):
            start = state["start"]
            if start is None:                      # a new iteration's pass
                start, minibatch = np.zeros(len(seeds), dtype=int), next(minibatches)
                state["minibatch"] = minibatch
            first = start[start < size].min()
            np.testing.assert_array_equal(indices, state["minibatch"][:, first:])
            sequential.append(indices.copy())
            gvals, rows = family.batch(indices, v)
            passed = np.arange(first, size) < start[:, None]
            state["poisoned"] += np.count_nonzero(passed)
            hit = (gvals > 0.0) & ~passed
            start = np.where(hit.any(axis=1), first + np.argmax(hit, axis=1) + 1, size)
            state["start"] = None if (start == size).all() else start
            return np.where(passed, 1e3, gvals), rows

        spec = dataclasses.replace(
            inst.spec, constraints=dataclasses.replace(family, batch=poisoned))
        steps.clear()
        cfg = dataclasses.replace(cfg, variant="sequential")
        results = run(spec, cfg)
        assert steps == [(len(seeds), spec.simple_set.dimension)] * iterations
        assert next(minibatches, None) is None and state["start"] is None
        assert iterations <= len(sequential) < iterations * size
        assert state["poisoned"] > 0
        for poisoned_run, plain in zip(results, run(inst.spec, cfg)):
            assert poisoned_run.records == plain.records
            assert poisoned_run.final_x.tobytes() == plain.final_x.tobytes()

    def test_never_violated_family_matches_plain_projected_gradient(self):
        center = np.array([0.7, -0.4, 1.1])
        objective = ObjectiveOracle(
            evaluate=lambda x: 0.5 * np.vecdot(x - center, x - center),
            subgradient=lambda x: x - center)
        ball = SimpleSet.ball(np.zeros(3), 5.0)
        spec = ProblemSpec(objective=objective,
                           constraints=never_violated(), simple_set=ball,
                           mu=1.0, M_g=1.0)
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
        # each stacked row starts the oracle from its seed's active set at
        # the previous flush's last point; the last one still equals a cold
        # call bit for bit
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        cfg = RunConfig(variant="sequential", batch_size=4,
                        beta_policy="fixed", beta=1.0, iterations=300,
                        seeds=(1, 2, 3), cadence=10)
        for result in run(inst.spec, cfg, poly=inst.poly):
            cold = distance_oracle(inst.poly, inst.spec.simple_set,
                                   result.final_x_hat)
            assert result.records[-1].dist_X == cold > 0.0

    # sweep-ln's shape: 1000 iterations log 11 points of 6 seeds per size,
    # and a point of 18 rows of n = 10 is 1980 floats, so LOG_FLOATS = 8192
    # flushes four points at a time
    SWEEP_LN = dict(variant="parallel", beta_policy="fixed", beta=1.0,
                    iterations=1000, seeds=tuple(range(1, 7)))

    def sweep_ln_ks(self):
        ks = sorted(solver._log_points(1000, "geometric"))
        assert len(ks) == 11
        return ks

    @pytest.mark.parametrize("sizes, calls", [
        ((1, 2, 4), [72, 72, 54]),        # sweep-ln's shape: one block
        ((1, 8), [66, 66]),               # two blocks, one after the other
    ])
    def test_one_distance_oracle_call_per_flush(self, sizes, calls, monkeypatch):
        # a flush projects all of its pending log points' rows in one call,
        # and each row gets its records in k order
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        cfg = RunConfig(**self.SWEEP_LN)
        asked, oracle = [], solver.distance_oracle

        def counted(poly, simple_set, v, active):
            asked.append(len(v))
            return oracle(poly, simple_set, v, active)

        monkeypatch.setattr(solver, "distance_oracle", counted)
        results = run(inst.spec, cfg, poly=inst.poly, sizes=sizes)
        assert asked == calls
        for result in results:
            assert [record.k for record in result.records] == self.sweep_ln_ks()

    def test_one_objective_call_per_flush(self):
        # a flush evaluates the objective once for all of its points' rows,
        # and each row's f_gap has the bits of the one-point value 0.5 |d|^2
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        cfg = RunConfig(**self.SWEEP_LN)
        asked, evaluate = [], inst.spec.objective.evaluate

        def counted(x):
            asked.append(x.shape)
            return evaluate(x)

        spec = dataclasses.replace(inst.spec, objective=dataclasses.replace(
            inst.spec.objective, evaluate=counted))
        results = run(spec, cfg, poly=inst.poly, sizes=(1, 2, 4))
        assert asked == [(72, 10), (72, 10), (54, 10)]
        opt = inst.spec.known_optimum
        for result in results:
            assert [record.k for record in result.records] == self.sweep_ln_ks()
            d = result.final_x_hat - inst.pull_center
            assert result.records[-1].f_gap == 0.5 * float(d @ d) - opt.f_star

    def test_one_max_violation_call_per_flush(self, monkeypatch):
        # a flush's max_violation is one call for all of its points' rows,
        # and each row's value has the bits of a call of its point alone
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        cfg = RunConfig(**self.SWEEP_LN)
        asked, violation = [], solver.max_violation

        def counted(poly, v):
            asked.append(v.shape)
            return violation(poly, v)

        monkeypatch.setattr(solver, "max_violation", counted)
        results = run(inst.spec, cfg, poly=inst.poly, sizes=(1, 2, 4))
        assert asked == [(72, 10), (72, 10), (54, 10)]
        for result in results:
            assert [record.k for record in result.records] == self.sweep_ln_ks()
        final = [result.records[-1].max_violation for result in results]
        assert final == [violation(inst.poly, result.final_x_hat) for result in results]

    def test_a_flush_holds_the_points_that_fit_the_budget(self, monkeypatch):
        # P pending points flush exactly when P + 1 would take their rows
        # past LOG_FLOATS, and a point past it alone flushes alone; the
        # records do not depend on where the flushes fall
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        cfg = RunConfig(**self.SWEEP_LN)
        point = 18 * 10 * 11
        asked, oracle = [], solver.distance_oracle

        def counted(poly, simple_set, v, active):
            asked.append(len(v))
            return oracle(poly, simple_set, v, active)

        monkeypatch.setattr(solver, "distance_oracle", counted)
        expected = None
        for budget, calls in [(1, [18] * 11), (point, [18] * 11),
                              (2 * point - 1, [18] * 11),
                              (2 * point, [36] * 5 + [18]),
                              (3 * point - 1, [36] * 5 + [18]),
                              (3 * point, [54] * 3 + [36]),
                              (11 * point, [198])]:
            monkeypatch.setattr(solver, "LOG_FLOATS", budget)
            asked.clear()
            records = [result.records
                       for result in run(inst.spec, cfg, poly=inst.poly, sizes=(1, 2, 4))]
            assert asked == calls, budget
            expected = expected or records
            assert records == expected, budget

    def test_metric_dense_calls_hold_one_point(self, monkeypatch):
        # the memory guard: at 50x200 a point of 3 rows is 7650 floats, so
        # every metric call of metric-dense's shape holds one point's rows
        inst = make_polyhedral_benchmark(50, 200, seed=0)
        cfg = RunConfig(variant="sequential", batch_size=8, beta_policy="fixed",
                        beta=1.0, iterations=300, seeds=(1, 2, 3), cadence=50)
        asked = {"evaluate": [], "distance_oracle": [], "max_violation": []}
        oracle, violation = solver.distance_oracle, solver.max_violation
        evaluate = inst.spec.objective.evaluate

        def counted_evaluate(x):
            asked["evaluate"].append(len(x))
            return evaluate(x)

        def counted_oracle(poly, simple_set, v, active):
            asked["distance_oracle"].append(len(v))
            return oracle(poly, simple_set, v, active)

        def counted_violation(poly, v):
            asked["max_violation"].append(len(v))
            return violation(poly, v)

        monkeypatch.setattr(solver, "distance_oracle", counted_oracle)
        monkeypatch.setattr(solver, "max_violation", counted_violation)
        spec = dataclasses.replace(inst.spec, objective=dataclasses.replace(
            inst.spec.objective, evaluate=counted_evaluate))
        results = run(spec, cfg, poly=inst.poly)
        assert asked == {name: [3] * 6 for name in asked}
        for result in results:
            assert [record.k for record in result.records] == [50, 100, 150, 200, 250, 300]

    def test_a_metric_error_surfaces_at_its_flush(self, monkeypatch):
        # a distance oracle error propagates from run at the flush that
        # meets it: here the one flush, at k = iterations, of all 8 points
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        cfg = RunConfig(variant="parallel", batch_size=2, beta_policy="fixed",
                        beta=1.0, iterations=100, seeds=(1, 2))
        asked = []

        def failing(poly, simple_set, v, active):
            asked.append(len(v))
            raise DistanceOracleError("certificate failed", residuals={})

        monkeypatch.setattr(solver, "distance_oracle", failing)
        with pytest.raises(DistanceOracleError, match="certificate failed"):
            run(inst.spec, cfg, poly=inst.poly)
        assert asked == [2 * 8]

    def test_an_abort_before_a_flush_is_reported(self, monkeypatch):
        # log points 1 and 2 are pending when the objective step fails at
        # k = 3: the abort is reported, and the failing oracle never runs
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        cfg = RunConfig(variant="parallel", batch_size=2, beta_policy="fixed",
                        beta=1.0, iterations=100, seeds=(1, 2))
        asked, steps, subgradient = [], [], inst.spec.objective.subgradient

        def failing(poly, simple_set, v, active):
            asked.append(len(v))
            raise DistanceOracleError("certificate failed", residuals={})

        def poisoned(x):
            steps.append(len(steps) + 1)
            return np.full_like(x, np.nan) if len(steps) == 3 else subgradient(x)

        monkeypatch.setattr(solver, "distance_oracle", failing)
        spec = dataclasses.replace(inst.spec, objective=dataclasses.replace(
            inst.spec.objective, subgradient=poisoned))
        with pytest.raises(SolverAbort, match=r"objective step .* at k=3, seed 1"):
            run(spec, cfg, poly=inst.poly)
        assert asked == []

    @pytest.mark.parametrize("variant, pinned", [("parallel", 535), ("sequential", 850)])
    def test_lemma_checks_project_once_per_step(self, variant, pinned, monkeypatch):
        # the checker projects one row per violated row of a parallel pass
        # and per step of a sequential one, all of a pass's or a round's
        # rows in one call, and the records are those of a run without checks
        inst = make_polyhedral_benchmark(50, 200, seed=0)
        cfg = RunConfig(variant=variant, batch_size=8,
                        beta_policy="fixed", beta=1.0, iterations=200,
                        seeds=(1, 2, 3), cadence=50, assertions="lemma-checks")
        projections, calls, steps, passes = [0], [0], [0], [0]
        project, norms = solver.project_intersection, solver._squared_norms

        def counted_projections(poly, simple_set, v, active):
            projections[0] += len(v)
            calls[0] += 1
            return project(poly, simple_set, v, active)

        def counted_steps(dirs, active):
            # a pass's (S, N) mask of violated columns or a round's (S,)
            # mask of stepping rows
            steps[0] += int(np.count_nonzero(active if active.ndim == 1
                                             else active.any(axis=1)))
            passes[0] += 1
            return norms(dirs, active)

        monkeypatch.setattr(solver, "project_intersection", counted_projections)
        monkeypatch.setattr(solver, "_squared_norms", counted_steps)
        checked = run(inst.spec, cfg, poly=inst.poly)
        monkeypatch.undo()
        assert projections[0] == steps[0] == pinned
        assert calls[0] == passes[0] < pinned
        plain = run(inst.spec, dataclasses.replace(cfg, assertions="off"),
                    poly=inst.poly)
        for a, b in zip(checked, plain):
            assert a.records == b.records
            np.testing.assert_array_equal(a.final_x_hat, b.final_x_hat)

    def test_adaptive_beta_follows_batch_ratio(self):
        inst = self.small_benchmark()
        delta = 0.1
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="adaptive", delta=delta,
                        iterations=50, seeds=(6,))
        (result,) = run(inst.spec, cfg, poly=inst.poly)
        for record in result.records:
            if record.LN_k is not None:
                assert record.beta_k == pytest.approx((2.0 - delta) / record.LN_k)

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

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_infinite_subgradient_aborts_without_warning(self, variant):
        # the objective step's point (-inf, -4) is outside the unit ball,
        # which hands it back non-finite, with no warning, so the run
        # aborts at k = 1
        objective = ObjectiveOracle(evaluate=lambda x: np.zeros(len(x)),
                                    subgradient=lambda x: x + [np.inf, 1.0])
        spec = ProblemSpec(objective=objective, constraints=never_violated(),
                           simple_set=SimpleSet.ball(np.zeros(2), 1.0),
                           mu=1.0, M_g=1.0)
        cfg = RunConfig(variant=variant, batch_size=1, iterations=5, seeds=(0,),
                        init="zero")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverAbort, match="objective step produced a "
                               "non-finite iterate at k=1") as info:
                run(spec, cfg)
        assert info.value.snapshot["k"] == 1

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered in multiply:RuntimeWarning")
    def test_nonfinite_oracle_aborts_with_diagnostic(self):
        objective = ObjectiveOracle(evaluate=lambda x: 0.5 * np.vecdot(x, x),
                                    subgradient=lambda x: x * np.inf)
        spec = ProblemSpec(objective=objective,
                           constraints=never_violated(),
                           simple_set=SimpleSet.whole_space(2),
                           mu=1.0, M_g=1.0)
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

    def test_lemma_checks_require_the_polyhedron(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=10,
                        assertions="lemma-checks")
        with pytest.raises(ConfigError, match="polyhedron"):
            run(inst.spec, cfg)

    def test_lemma_checks_clean_on_benchmark(self):
        inst = self.small_benchmark()
        for variant in ("parallel", "sequential"):
            cfg = RunConfig(variant=variant, batch_size=2,
                            beta_policy="fixed", beta=1.0, iterations=300,
                            seeds=(1,), assertions="lemma-checks")
            run(inst.spec, cfg, poly=inst.poly)  # must not abort

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_lemma_checks_clean_over_a_block_of_seeds(self, variant):
        inst = make_polyhedral_benchmark(10, 20, seed=0)
        for seed in range(1, 6):
            cfg = RunConfig(variant=variant, batch_size=4,
                            beta_policy="fixed", beta=1.0, iterations=200,
                            seeds=(seed,), assertions="lemma-checks")
            run(inst.spec, cfg, poly=inst.poly)  # must not abort

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_lemma_checks_catch_a_wrong_direction(self, variant):
        # the family reports the true values of x1 <= 0, x2 <= 0 but points
        # every step away from the quadrant, so the first step breaks the
        # single-step decrease toward P_X(v), the origin
        spec = batch_spec(lambda idx, v: (v[idx], -np.eye(2)[idx]), size=2)
        poly = PolyhedronSpec(A=np.eye(2), b=np.zeros(2))
        cfg = RunConfig(variant=variant, batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=20,
                        seeds=(1,), init="zero", assertions="lemma-checks")
        with pytest.raises(SolverAbort, match="single-step-decrease") as info:
            run(spec, cfg, poly=poly)
        assert info.value.snapshot["k"] == 1

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_lemma_check_abort_names_the_seed(self, variant):
        # the wrong-direction family of the test above, in a block of seeds
        # 7 and 3 that start alike at x0 = 0: the first row, seed 7, fails
        spec = batch_spec(lambda idx, v: (v[idx], -np.eye(2)[idx]), size=2)
        poly = PolyhedronSpec(A=np.eye(2), b=np.zeros(2))
        cfg = RunConfig(variant=variant, batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=20,
                        seeds=(7, 3), init="zero", assertions="lemma-checks")
        with pytest.raises(SolverAbort, match="k=1, seed 7") as info:
            run(spec, cfg, poly=poly)
        assert info.value.snapshot["seed"] == 7

    def test_lemma_checks_catch_a_batch_decrease_alone(self):
        # both steps of the pass from v = (3, 2) are exact projections, so
        # (1) holds; an averaged point moved off the pass's (1.5, 1) breaks
        # (2) alone
        spec, poly = corner_spec(), PolyhedronSpec(A=np.eye(2), b=np.zeros(2))
        indices, v, beta = np.array([[0, 1]]), np.array([[3.0, 2.0]]), np.ones(1)
        rows = plain_rows(indices)
        checker = solver._LemmaChecker(poly, spec, rows)
        x, ln_k, _ = parallel_feasibility_update(spec, indices, v, beta,
                                                 RunConfig(beta=1.0), rows, checker)
        np.testing.assert_array_equal(x, [[1.5, 1.0]])
        gplus, dirs = solver._checked_batch(spec, indices, v)
        with pytest.raises(SolverAbort, match="'batch-decrease'") as info:
            checker.parallel(1, indices, v, x + 5.0, gplus, dirs, np.ones((1, 2)),
                             beta, ln_k)
        assert info.value.snapshot["check"] == "batch-decrease"

    def test_lemma_checks_catch_a_chain_decrease_alone(self):
        # every step of the pass from (4, -1) is an exact projection, so (1)
        # holds; a chain end moved off the pass's points breaks (3) in both
        # rows, and the report names row 1, whose first step, at column 0,
        # comes a round before row 0's, past the first window
        width = 2 * solver.WINDOW + 5
        indices = np.ones((2, width), dtype=np.int64)
        indices[0, solver.WINDOW + 8] = indices[1, 0] = 0
        v = np.array([[4.0, -1.0], [4.0, -1.0]])
        spec, poly = corner_spec(), PolyhedronSpec(A=np.eye(2), b=np.zeros(2))

        class MovedEnd(solver._LemmaChecker):
            def chain_end(self, k, z):
                super().chain_end(k, z + 5.0)

        checker = MovedEnd(poly, spec, plain_rows(indices))
        with pytest.raises(SolverAbort, match="'chain-decrease'") as info:
            sequential_feasibility_update(spec, indices, v, np.ones(2),
                                          plain_rows(indices), checker, k=1)
        assert info.value.snapshot["seed"] == 1

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_overflowing_step_aborts_naming_its_row(self, variant):
        # the objective step takes seeds 1, 2 and 3 to x1 = 5.9, 7.2 and
        # 2.4; the one constraint is violated by the largest float beyond
        # x1 = 7 only, and beta = 1.5 times it overflows, so seed 2's step
        # leaves no finite point
        big = np.finfo(float).max
        spec = batch_spec(lambda idx, v: (np.full(len(idx), big if v[0] > 7.0 else -1.0),
                                          np.tile([0.6, 0.8], (len(idx), 1))))
        cfg = RunConfig(variant=variant, batch_size=1, beta=1.5, iterations=5,
                        cadence=5, seeds=(1, 2, 3))
        with pytest.raises(SolverAbort, match="feasibility update produced a "
                           "non-finite iterate at k=1, seed 2, N=1") as info:
            run(spec, cfg)
        assert info.value.snapshot["seed"] == 2
        assert np.isfinite(info.value.snapshot["v"]).all()

    def test_single_constraint_exact_projection_slack_zero(self):
        # with beta = 1 on an affine constraint the step lands on the boundary,
        # so the decrease inequality toward the landing point holds with
        # equality
        v = np.array([2.0, 0.0])
        d = np.array([1.0, 0.0])
        g = 2.0  # constraint x1 <= 0 of the corner problem at v
        (z_bar,) = sequential_feasibility_update(corner_spec(), np.array([[0]]),
                                                 v[None], np.ones(1),
                                                 plain_rows(np.array([[0]])))
        assert z_bar[0] == 0.0
        lhs = np.linalg.norm(z_bar - z_bar) ** 2
        rhs = np.linalg.norm(v - z_bar) ** 2 - 1.0 * (2.0 - 1.0) * g ** 2 / (d @ d)
        assert abs(lhs - rhs) <= 1e-12

    def test_cadence_geometric_and_linear(self):
        inst = self.small_benchmark()
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=20,
                        seeds=(0,), init="zero", cadence="geometric")
        ks = [r.k for r in run(inst.spec, cfg, poly=inst.poly)[0].records]
        assert ks == [1, 2, 4, 8, 16, 20]
        cfg = RunConfig(variant="parallel", batch_size=2,
                        beta_policy="fixed", beta=1.0, iterations=20,
                        seeds=(0,), init="zero", cadence=7)
        ks = [r.k for r in run(inst.spec, cfg, poly=inst.poly)[0].records]
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
        assert set(snap) == {"seed", "batch_size", "k", "indices"}
        assert snap["seed"] == 1
        assert snap["batch_size"] == 2
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
                parallel_feasibility_update(spec, indices, block, np.ones(len(block)),
                                            RunConfig(beta=1.0), plain_rows(indices))
            else:
                sequential_feasibility_update(spec, indices, block,
                                              np.ones(len(block)),
                                              plain_rows(indices))
        assert info.value.row == 1

    # constraints 0 and 1 are x1 <= 0 and x2 <= 0, and 2 and 3 the same pair
    # with the fault; the middle seed asks [2, 3] at (4, -4), where 2 is
    # violated and 3 satisfied, the others ask [0, 1] where both hold
    BLOCK = np.array([[-1.0, -2.0], [4.0, -4.0], [-3.0, -1.0]])
    INDICES = np.array([[0, 1], [2, 3], [0, 1]])

    @classmethod
    def faulty_pass(cls, variant, fault, ratio=True):
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
                                                  np.ones(len(cls.BLOCK)),
                                                  RunConfig(beta=1.0),
                                                  plain_rows(cls.INDICES),
                                                  ratio=ratio)
            return x
        return sequential_feasibility_update(spec, cls.INDICES, cls.BLOCK,
                                             np.ones(len(cls.BLOCK)),
                                             plain_rows(cls.INDICES))

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    @pytest.mark.parametrize("fault", ["inf-row-violated", "nan-row-satisfied",
                                       "neg-inf-value"])
    def test_nonfinite_entry_names_its_row(self, variant, fault):
        # a -inf value has positive part 0, so no product of the step sees
        # it: only the finiteness test can report it
        with pytest.raises(OracleFault, match="non-finite") as info:
            self.faulty_pass(variant, fault)
        assert info.value.row == 1

    @pytest.mark.parametrize("fault", ["inf-row-violated", "nan-row-satisfied",
                                       "neg-inf-value"])
    def test_bare_parallel_step_raises_every_fault(self, fault):
        # without L_N,k the pass still checks every value and row it is given
        with pytest.raises(OracleFault, match="non-finite") as info:
            self.faulty_pass("parallel", fault, ratio=False)
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
    def test_zero_row_on_a_satisfied_constraint_reads_as_one(self, variant):
        # x1 <= 0 and x2 <= 0 with the row ``fill`` at each satisfied one:
        # a zero row there gets the bits of any other row; the second seed
        # violates neither constraint
        def moved(fill):
            spec = batch_spec(lambda idx, v: (
                v[idx], np.where((v[idx] > 0.0)[:, None], np.eye(2)[idx], fill)),
                size=2)
            block = np.array([[3.0, -1.0], [-2.0, -1.5], [-0.5, 2.0], [1.5, 2.5]])
            indices = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
            if variant == "parallel":
                return parallel_feasibility_update(spec, indices, block, np.ones(4),
                                                   RunConfig(beta=1.0),
                                                   plain_rows(indices))[0]
            return sequential_feasibility_update(spec, indices, block, np.ones(4),
                                                 plain_rows(indices))

        zero = moved([0.0, 0.0])
        assert zero.tobytes() == moved([0.6, 0.8]).tobytes()
        assert zero[1].tolist() == [-2.0, -1.5]

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    @pytest.mark.parametrize("wrong", ["values", "rows"])
    def test_batch_of_the_wrong_shapes_raises(self, variant, wrong):
        # a batch answers (S, k) values and (S, k, n) rows, or neither pass
        # reads it
        family = corner_spec().constraints

        def batch(idx, v):
            values, rows = family.batch(idx, v)
            return (values[:, 0], rows) if wrong == "values" else (values, rows[..., :1])

        spec = corner_spec(constraints=ConstraintFamily(size=2, batch=batch))
        block, indices = np.ones((3, 2)), np.array([[0, 1]] * 3)
        shapes = "(3,) and (3, 2, 2)" if wrong == "values" else "(3, 2) and (3, 2, 1)"
        with pytest.raises(OracleError, match=re.escape(
                f"constraint batch returned shapes {shapes} for indices (3, 2) "
                f"at points (3, 2)")):
            if variant == "parallel":
                parallel_feasibility_update(spec, indices, block, np.ones(3),
                                            RunConfig(beta=1.0), plain_rows(indices))
            else:
                sequential_feasibility_update(spec, indices, block, np.ones(3),
                                              plain_rows(indices))

    def test_the_scan_leaves_a_zero_row_to_the_step(self):
        # the huge satisfied value sends the batch through the fault scan,
        # which passes the violated zero row: only the step's squared
        # norms, which divide by it, raise
        spec = corner_spec(constraints=ConstraintFamily(size=2, batch=lambda idx, v: (
            np.array([[1.0, -1e200]]), np.array([[[0.0, 0.0], [1.0, 0.0]]]))))
        gvals, dirs = solver._checked_batch(spec, np.array([[0, 1]]), np.zeros((1, 2)))
        with pytest.raises(OracleFault, match="zero direction") as info:
            solver._squared_norms(dirs, gvals > 0.0)
        assert info.value.row == 0

    def test_unpicked_violated_zero_row_is_not_a_fault(self):
        # constraint 1 reads x1 <= 0 with a zero row, and 2 is satisfied by
        # a value whose square overflows; from (4, -1) the row steps at
        # constraint 0, x1 <= 0, to (0, -1), where 1 holds: no step divides
        # by the zero row, so nothing raises
        def batch(idx, v):
            values = np.where(idx == 2, -1e200, v[:, :1])
            return values, np.where((idx == 0)[..., None], [1.0, 0.0], 0.0)

        spec = corner_spec(constraints=ConstraintFamily(size=3, batch=batch))
        indices = np.array([[0, 1, 2]])
        z = sequential_feasibility_update(spec, indices, np.array([[4.0, -1.0]]),
                                          np.ones(1), plain_rows(indices))
        np.testing.assert_array_equal(z, [[0.0, -1.0]])

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
                parallel_feasibility_update(spec, indices, block, np.ones(len(block)),
                                            RunConfig(beta=1.0), plain_rows(indices))
            else:
                sequential_feasibility_update(spec, indices, block,
                                              np.ones(len(block)),
                                              plain_rows(indices))
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
            run(inst.spec, cfg, poly=inst.poly)
        snap = info.value.snapshot
        assert set(snap) == {"seed", "batch_size", "k", "ln_k", "ln", "beta"}
        assert snap["seed"] == 1
        assert snap["batch_size"] == 2
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
    def test_exact_ln_never_aborts(self, name, batch_size, monkeypatch):
        calls = counted_diagnostics(monkeypatch)
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
            calls.clear()
            run(inst.spec, cfg, poly=inst.poly)  # must not abort
            assert calls  # the check saw violated batches


def seeds_by_kind(inst, size):
    """Minibatches of ``size`` distinct indices and points, drawn from a
    fixed stream, sorted by how many of the batch's constraints each point
    violates and by whether it lies outside the simple set Y, where only
    the merge keeps a point that takes no step."""
    rng = np.random.default_rng(4)
    spec, kinds, ball = inst.spec, {}, inst.spec.simple_set
    for _ in range(300):
        idx = rng.choice(spec.constraints.size, size, replace=False)
        u = rng.standard_normal(ball.dimension)
        v = ball.center + rng.uniform(0.05, 1.5) * ball.radius * u / np.linalg.norm(u)
        gvals, _ = spec.constraints.batch(idx[None], v[None])
        hit = int(np.count_nonzero(gvals > 0.0))
        kind = "feasible" if hit == 0 else "fully" if hit == size else "partly"
        outside = bool((ball.project(v) != v).any())
        kinds.setdefault((kind, outside), []).append((idx, v))
    return kinds


class TestBlockEqualsSeeds:
    """A pass over a block of seeds gives each seed exactly what the pass
    gives it alone: the merge it skips when every seed violates its whole
    batch, and the one it makes otherwise, change no bit.  The
    sequential pass, whose rounds step each seed at its own next violated
    column, gives each seed the bits of its column-by-column chain."""

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

    def feasibility_pass(self, name, inst):
        policy = self.PASSES[name]
        if policy == "exact":
            with warnings.catch_warnings():
                # the duplicated rows reach the bound 1, which is warned about
                warnings.simplefilter("ignore")
                ln = exact_ln_linear(inst.poly, self.SIZE)
            policy = RunConfig(beta_policy="extrapolated", delta=0.1, ln_hint=ln)
        if name.startswith("parallel"):
            return lambda idx, v: parallel_feasibility_update(
                inst.spec, idx, v, start_beta(policy, len(v)), policy, plain_rows(idx))
        return lambda idx, v: (sequential_feasibility_update(
            inst.spec, idx, v, np.full(len(v), policy), plain_rows(idx)),)

    def drawn_block(self, instance, block):
        """The instance and a block of two seeds of each kind, inside and
        outside Y, leaving out the feasible ones when ``block`` is
        all-violated, the partly violated ones when it is extremes, and
        all but those when it is partly."""
        inst = TestDeclaredLN.INSTANCES[instance]()
        kinds = seeds_by_kind(inst, self.SIZE)
        # each kind occurs inside and outside Y, but the duplicated rows are
        # one constraint, so none of their batches is partly violated
        present = ("feasible", "fully") if instance == "duplicated" else \
            ("feasible", "partly", "fully")
        assert set(kinds) == set(itertools.product(present, (False, True)))
        order = {"all-violated": present[1:], "extremes": ("feasible", "fully"),
                 "partly": ("partly",), "mixed": present}[block]
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

    @pytest.mark.parametrize("block", ["extremes", "partly"])
    @pytest.mark.parametrize("name", list(PASSES))
    def test_seeds_of_one_shape_in_a_block(self, name, block):
        # extremes: alone, each seed violates all or none of its batch, the
        # parallel pass's shortcuts; their block is mixed and reduces over
        # the seeds.  partly: every seed has a satisfied and a violated
        # column, so every row of the block is violated, but not every
        # column, and the pass merges through its mask of violated rows
        inst, indices, v = self.drawn_block("benchmark", block)
        gvals, _ = inst.spec.constraints.batch(indices, v)
        hits = set(np.count_nonzero(gvals > 0.0, axis=1).tolist())
        assert hits == {0, self.SIZE} if block == "extremes" else \
            0 < min(hits) and max(hits) < self.SIZE
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
        # the block and each of its seeds alone, against each seed's own
        # column chain: the pass returns the chains' points, asks as
        # ``round_starts`` says of their stepped columns, and its checker
        # sees, row by row, the checks of the row's chain
        inst, indices, v = self.drawn_block(instance, block)
        size = indices.shape[1]

        def checker(count):
            return None if checks == "off" else RecordingChecker(
                inst.poly, inst.spec,
                solver._Rows(tuple(range(count)), (size,) * count))

        chains = []
        for row in range(len(v)):
            chain_checker = checker(1)
            z, stepped = column_chain(inst.spec, indices[row:row + 1],
                                      v[row:row + 1], np.full(1, beta),
                                      chain_checker, k=7)
            chains.append((z, stepped, chain_checker))
        for rows in [slice(None)] + [slice(r, r + 1) for r in range(len(v))]:
            idx, points, own = indices[rows], v[rows], chains[rows]
            pass_checker = checker(len(points))
            spec, asked, _ = recording_family(inst.spec)
            z_pass = sequential_feasibility_update(spec, idx, points,
                                                   np.full(len(points), beta),
                                                   plain_rows(idx),
                                                   pass_checker, k=7)
            assert np.array_equal(z_pass, np.concatenate([z for z, _, _ in own]))
            starts = round_starts([stepped for _, stepped, _ in own], size)
            assert [a.tolist() for a in asked] == \
                [idx[:, i:i + solver.WINDOW].tolist() for i in starts]
            if checks == "off":
                continue
            # one step check per round where some row steps, then one chain
            # check; one projection per step
            *rounds, chain = pass_checker.seen
            assert len(rounds) == max(len(stepped) for _, stepped, _ in own)
            assert pass_checker.projections == sum(len(s) for _, s, _ in own)
            for row, (_, stepped, chain_checker) in enumerate(own):
                took = [[a[row:row + 1] for a in seen] for seen in rounds
                        if seen[4][row, 0] > 0.0]
                assert len(took) == len(stepped) == len(chain_checker.seen) - 1
                assert chain_checker.projections == len(stepped)
                took.append([a[row:row + 1] for a in chain])
                for got, want in zip(took, chain_checker.seen):
                    assert len(got) == len(want)
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)


class TestSequentialRounds:
    """The sequential pass moves each row along its own chain: a round
    asks the ``solver.WINDOW`` columns from the least advanced live row's
    next column and steps every live row at its own next violated column
    there, so with N <= ``WINDOW`` the oracle calls are the busiest row's
    steps plus one, not one per column that some row violates."""

    # x1 <= 0 is constraint 0 and x2 <= 0 constraint 1; from (4, -1) a row
    # violates only its index-0 columns, and from (4, 4) its first index-0
    # column and then its first index-1 column
    BLOCKS = {
        # row r violates only column r: two rounds, four lockstep steps
        "diagonal": ([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
                     [[4.0, -1.0]] * 4, 2),
        # every row violates only the last column: one round
        "last-column": ([[1, 1, 1, 0]] * 3, [[4.0, -1.0]] * 3, 1),
        # the busiest row steps at columns 0 and 3, the last, and the other
        # at column 1: two rounds, three lockstep steps
        "ends-at-last": ([[0, 0, 0, 1], [1, 0, 1, 1]], [[4.0, 4.0], [4.0, -1.0]], 2),
    }

    @pytest.mark.parametrize("name", list(BLOCKS))
    def test_calls_are_the_busiest_rows_steps(self, name):
        idx, points, calls = self.BLOCKS[name]
        indices, v = np.array(idx), np.array(points)
        chains = [column_chain(corner_spec(), indices[row:row + 1], v[row:row + 1],
                               np.ones(1)) for row in range(len(v))]
        steps = [stepped for _, stepped in chains]
        busiest = max(map(len, steps))
        last = all(stepped[-1] == indices.shape[1] - 1
                   for stepped in steps if len(stepped) == busiest)
        assert calls == busiest + (not last) == len(round_starts(steps, 4))
        spec, asked, _ = recording_family(corner_spec())
        z = sequential_feasibility_update(spec, indices, v, np.ones(len(v)),
                                          plain_rows(indices))
        assert len(asked) == calls
        assert [a.tolist() for a in asked] == [indices[:, i:i + solver.WINDOW].tolist()
                                               for i in round_starts(steps, 4)]
        np.testing.assert_array_equal(z, np.concatenate([point for point, _ in chains]))

    # the first row steps at column 0 and then at column 1 of [0, 1, 1];
    # the second, from (4, -1), steps at its one index-0 column, 2 in
    # [1, 1, 0] and 0 in [0, 1, 1], and lands at (0, -1)
    FIRST = ([0, 1, 1], [4.0, 4.0])

    @staticmethod
    def at_landing(value):
        """The family x1 <= 0 and x2 <= 0, but with ``value``, and the
        constraint's own row, at every index asked at (0, -1)."""
        def batch(indices, points):
            landed = (points == [0.0, -1.0]).all(axis=1)
            values = np.take_along_axis(points, indices % 2, axis=1)
            return np.where(landed[:, None], value, values), np.eye(2)[indices % 2]

        return ConstraintFamily(size=2, batch=batch)

    # the second row's chain ends at its last column in the first round,
    # while the first row still asks columns 1 and 2 in the next two, where
    # the second row has landed at (0, -1)
    PASSED = np.array([FIRST[0], [1, 1, 0]]), np.array([FIRST[1], [4.0, -1.0]])

    def test_passed_column_is_not_read(self):
        # violated there, at the second row's later point, the passed
        # columns are checked but never stepped on
        indices, v = self.PASSED
        spec = corner_spec(constraints=self.at_landing(1.0))
        z = sequential_feasibility_update(spec, indices, v, np.ones(len(v)),
                                          plain_rows(indices))
        np.testing.assert_array_equal(z, [[0.0, 0.0], [0.0, -1.0]])

    def test_a_passed_columns_fault_names_its_row(self):
        # a NaN there is checked as returned, as any value asked is
        indices, v = self.PASSED
        spec = corner_spec(constraints=self.at_landing(np.nan))
        with pytest.raises(OracleFault, match="non-finite") as info:
            sequential_feasibility_update(spec, indices, v, np.ones(len(v)),
                                          plain_rows(indices))
        assert info.value.row == 1

    def test_column_ahead_is_read(self):
        # the second row steps at column 0 and lands at (0, -1) with its
        # columns 1 and 2 still ahead: their NaN names that row
        indices = np.array([self.FIRST[0], [0, 1, 1]])
        v = np.array([self.FIRST[1], [4.0, -1.0]])
        spec = corner_spec(constraints=self.at_landing(np.nan))
        with pytest.raises(OracleFault, match="non-finite") as info:
            sequential_feasibility_update(spec, indices, v, np.ones(len(v)),
                                          plain_rows(indices))
        assert info.value.row == 1

    # seven rows of five columns whose next columns spread over the first
    # round: rows 2, 3 and 5 land at (0, -1) at their columns 1, 2 and 3
    # and step off it at their next column in the second round, row 1 ends
    # at its last column there, and rows 0, 4 and 6 step at column 0
    WIDE = (np.array([[0, 1, 1, 1, 1], [1, 1, 1, 1, 0], [1, 0, 1, 1, 1], [1, 1, 0, 1, 1],
                      [1, 1, 1, 1, 1], [1, 1, 1, 0, 1], [0, 0, 1, 0, 1]]),
            np.array([[4.0, 4.0], [4.0, -1.0], [4.0, -1.0], [4.0, -1.0],
                      [-1.0, 4.0], [4.0, -1.0], [4.0, 4.0]]))

    def test_passed_columns_of_a_wide_block_are_not_read(self):
        # the second round asks from column 1 while the landed rows are
        # past it, and every column they have passed reads violated there:
        # none is stepped on, and each row is its own chain alone
        indices, v = self.WIDE
        spec = corner_spec(constraints=self.at_landing(1.0))
        recorded, asked, values = recording_family(spec)
        z = sequential_feasibility_update(recorded, indices, v, np.ones(len(v)),
                                          plain_rows(indices))
        assert [a.shape[1] for a in asked] == [5, 4, 3]
        assert (values[1][1] > 0.0).all()
        assert values[1][2, 0] > 0.0 and (values[1][3, :2] > 0.0).all() \
            and (values[1][5, :3] > 0.0).all()
        np.testing.assert_array_equal(z, [[0.0, 0.0], [0.0, -1.0], [0.0, -2.0], [0.0, -2.0],
                                          [-1.0, 0.0], [0.0, -2.0], [0.0, 0.0]])
        for row in range(len(v)):
            alone = sequential_feasibility_update(spec, indices[row:row + 1],
                                                  v[row:row + 1], np.ones(1),
                                                  plain_rows(indices[row:row + 1]))
            chain, _ = column_chain(spec, indices[row:row + 1], v[row:row + 1],
                                    np.ones(1))
            assert np.array_equal(z[row:row + 1], alone)
            assert np.array_equal(alone, chain)

    def test_a_wide_blocks_passed_columns_fault_names_its_row(self):
        # only row 3 lands at (0, -1), at its last column in the first
        # round; the second round asks its passed columns there
        indices = np.array([[0, 1, 1, 1, 1], [1, 1, 1, 1, 1], [0, 0, 1, 0, 1],
                            [1, 1, 1, 1, 0], [1, 0, 1, 1, 1], [0, 0, 0, 0, 1]])
        v = np.array([[4.0, 4.0], [-1.0, 4.0], [4.0, 4.0], [4.0, -1.0],
                      [4.0, 4.0], [-1.0, 4.0]])
        spec = corner_spec(constraints=self.at_landing(np.nan))
        with pytest.raises(OracleFault, match="non-finite") as info:
            sequential_feasibility_update(spec, indices, v, np.ones(len(v)),
                                          plain_rows(indices))
        assert info.value.row == 3

    def test_a_window_without_steps_moves_on(self):
        # from (4, -1) the one violated column, at WINDOW + 8, lies past the
        # first window: no row steps there, and the next round asks from
        # the window's end
        width = 2 * solver.WINDOW + 5
        indices = np.ones((2, width), dtype=np.int64)
        indices[0, solver.WINDOW + 8] = 0
        v = np.array([[4.0, -1.0], [-1.0, -1.0]])
        spec, asked, _ = recording_family(corner_spec())
        z = sequential_feasibility_update(spec, indices, v, np.ones(2),
                                          plain_rows(indices))
        assert [a.tolist() for a in asked] == [
            indices[:, i:i + solver.WINDOW].tolist()
            for i in (0, solver.WINDOW, solver.WINDOW + 9)]
        assert round_starts([[solver.WINDOW + 8], []], width) == \
            [0, solver.WINDOW, solver.WINDOW + 9]
        np.testing.assert_array_equal(z, [[0.0, -1.0], [-1.0, -1.0]])

    @pytest.mark.parametrize("checks", ["off", "lemma-checks"])
    @pytest.mark.parametrize("size", [1, solver.WINDOW - 1, solver.WINDOW + 3,
                                      2 * solver.WINDOW + 5])
    def test_chains_past_the_window_are_the_column_chains(self, size, checks):
        # rows at x* moved by 0.05, 0.3 and 1: the block and each row
        # alone return the rows' column chains and ask at most WINDOW
        # columns a call, from where ``round_starts`` says, and the
        # checker sees, row by row, the checks of the row's chain
        inst = make_polyhedral_benchmark(20, 60, seed=0)
        rng = np.random.default_rng(size)
        v = inst.spec.simple_set.project(inst.spec.known_optimum.x_star + np.array(
            [0.05, 0.3, 1.0])[:, None] * rng.standard_normal((3, 20)))
        indices = rng.integers(0, 60, (3, size))

        def checker(count):
            return None if checks == "off" else RecordingChecker(
                inst.poly, inst.spec, solver._Rows(tuple(range(count)), (size,) * count))

        chains = []
        for row in range(len(v)):
            chain_checker = checker(1)
            z, stepped = column_chain(inst.spec, indices[row:row + 1], v[row:row + 1],
                                      np.ones(1), chain_checker, k=3)
            chains.append((z, stepped, chain_checker))
        for rows in [slice(None)] + [slice(r, r + 1) for r in range(len(v))]:
            idx, own, pass_checker = indices[rows], chains[rows], checker(len(v[rows]))
            spec, asked, _ = recording_family(inst.spec)
            z = sequential_feasibility_update(spec, idx, v[rows], np.ones(len(idx)),
                                              plain_rows(idx), pass_checker, k=3)
            assert np.array_equal(z, np.concatenate([z for z, _, _ in own]))
            assert max(a.shape[1] for a in asked) <= solver.WINDOW
            starts = round_starts([stepped for _, stepped, _ in own], size)
            assert [a.tolist() for a in asked] == \
                [idx[:, i:i + solver.WINDOW].tolist() for i in starts]
            if checks == "off":
                continue
            *rounds, chain = pass_checker.seen
            for row, (_, stepped, chain_checker) in enumerate(own):
                took = [[a[row:row + 1] for a in seen] for seen in rounds
                        if seen[4][row, 0] > 0.0]
                assert len(took) == len(stepped) == len(chain_checker.seen) - 1
                took.append([a[row:row + 1] for a in chain])
                for got, want in zip(took, chain_checker.seen):
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestPerRowStepsize:
    """The stepsize has one shape, an (S,) array with one beta per row: a
    block whose rows carry different betas gives each row the bits of its
    own one-row pass, and the lemma checks read each row's own beta.  It
    is priced once per block, and again only by the adaptive rule, for
    the violated rows of a parallel pass."""

    SIZE = 3

    def violated_block(self):
        """A block of partly and fully violated batches, inside and outside
        Y, so every row steps."""
        inst = make_polyhedral_benchmark(4, 6, seed=12)
        kinds = seeds_by_kind(inst, self.SIZE)
        chosen = [seed for kind in ("partly", "fully") for outside in (False, True)
                  for seed in kinds[kind, outside][:2]]
        return (inst, np.array([idx for idx, _ in chosen]),
                np.array([point for _, point in chosen]))

    def checker(self, inst, count, checks):
        return None if checks == "off" else solver._LemmaChecker(
            inst.poly, inst.spec,
            solver._Rows(tuple(range(count)), (self.SIZE,) * count))

    @pytest.mark.parametrize("checks", ["off", "lemma-checks"])
    def test_sequential_rows_at_their_own_beta(self, checks):
        inst, indices, v = self.violated_block()
        beta = np.linspace(0.3, 1.9, len(v))
        together = sequential_feasibility_update(
            inst.spec, indices, v, beta, plain_rows(indices),
            self.checker(inst, len(v), checks))
        assert (together != v).any(axis=1).all()
        for row in range(len(v)):
            one = slice(row, row + 1)
            (alone,) = sequential_feasibility_update(
                inst.spec, indices[one], v[one], beta[one], plain_rows(indices[one]),
                self.checker(inst, 1, checks))
            assert together[row].tobytes() == alone.tobytes()
            # the row of a block at its beta alone has the same bits
            same = sequential_feasibility_update(
                inst.spec, indices, v, np.full(len(v), beta[row]), plain_rows(indices))
            assert same[row].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("checks", ["off", "lemma-checks"])
    def test_parallel_rows_at_their_own_adaptive_beta(self, checks):
        # the adaptive rule gives each row (2 - delta) / its own L_N,k
        inst, indices, v = self.violated_block()
        cfg = RunConfig(beta_policy="adaptive", delta=0.1)
        together, ln_k, beta = parallel_feasibility_update(
            inst.spec, indices, v, start_beta(cfg, len(v)), cfg, plain_rows(indices),
            self.checker(inst, len(v), checks))
        assert beta.shape == (len(v),) and len(set(beta.tolist())) > 2
        for row in range(len(v)):
            one = slice(row, row + 1)
            alone, ln_alone, _ = parallel_feasibility_update(
                inst.spec, indices[one], v[one], start_beta(cfg, 1), cfg,
                plain_rows(indices[one]), self.checker(inst, 1, checks))
            assert together[row].tobytes() == alone[0].tobytes()
            assert ln_k[row] == ln_alone[0]

    @pytest.mark.parametrize("cfg", [
        RunConfig(beta=0.7),
        RunConfig(beta_policy="extrapolated", delta=0.1, ln_hint=0.5),
        RunConfig(beta_policy="adaptive", delta=0.1),
    ], ids=["fixed", "extrapolated", "adaptive"])
    def test_initial_beta_is_one_float_under_every_rule(self, cfg):
        # the fixed beta, (2 - delta) / ln_hint, and 2 - delta before any
        # violated batch
        beta = solver.initial_beta(cfg)
        assert type(beta) is float
        assert beta == {"fixed": 0.7, "extrapolated": (2.0 - 0.1) / 0.5,
                        "adaptive": 2.0 - 0.1}[cfg.beta_policy]

    def test_adaptive_pass_reprices_violated_rows_only(self):
        # a feasible row keeps its entry, bit for bit, and a violated one
        # steps at (2 - delta) / its L_N,k; a fixed beta comes back as is
        inst = make_polyhedral_benchmark(4, 6, seed=12)
        kinds = seeds_by_kind(inst, self.SIZE)
        chosen = [kinds["feasible", False][0], kinds["fully", False][0]]
        indices = np.array([idx for idx, _ in chosen])
        v = np.array([point for _, point in chosen])
        beta = np.array([0.37, 0.53])
        cfg = RunConfig(beta_policy="adaptive", delta=0.1)
        x, ln_k, stepped = parallel_feasibility_update(
            inst.spec, indices, v, beta, cfg, plain_rows(indices))
        assert np.isnan(ln_k[0]) and not np.isnan(ln_k[1])
        assert stepped[0].tobytes() == beta[0].tobytes()
        assert stepped[1] == solver.initial_beta(cfg) / ln_k[1]
        assert (x[0] == v[0]).all() and (x[1] != v[1]).any()
        fixed = RunConfig(beta=0.7)
        beta = start_beta(fixed, 2)
        assert parallel_feasibility_update(inst.spec, indices, v, beta, fixed,
                                           plain_rows(indices))[2] is beta

    @pytest.mark.parametrize("policy", [
        dict(beta=0.7),
        dict(beta_policy="extrapolated", delta=0.1, ln_hint=1.0),
        dict(variant="sequential", beta=1.3),
        dict(beta_policy="adaptive", delta=0.1),
    ], ids=["fixed", "extrapolated", "sequential", "adaptive"])
    def test_stepsize_is_priced_once_per_block(self, policy, monkeypatch):
        # the adaptive rule alone prices again, once per violated parallel
        # iteration, which is also one batch_diagnostics call
        priced, price = [], solver.initial_beta

        def counted(*args):
            priced.append(None)
            return price(*args)

        monkeypatch.setattr(solver, "initial_beta", counted)
        diagnosed = counted_diagnostics(monkeypatch)
        inst = make_polyhedral_benchmark(4, 8, seed=12)
        cfg = RunConfig(iterations=300, seeds=(1, 2), **policy)
        sizes = (8, 1)
        blocks = len(solver._size_blocks(sizes))
        assert blocks == 2
        run(inst.spec, cfg, poly=inst.poly, sizes=sizes)
        if cfg.beta_policy == "adaptive":
            assert 0 < len(diagnosed) <= 2 * cfg.iterations
            assert len(priced) == blocks + len(diagnosed)
        else:
            assert len(priced) == blocks


class TestBlockEqualsSizes:
    """A block of mixed batch sizes gives each (N, seed) row what a run of
    its N alone gives it, bit for bit: the records and the final points.
    Its pads repeat a row's last index, so any pad that stepped, marked its
    row violated or entered a reduction would show here."""

    RUNS = {
        "parallel-fixed0.7": dict(variant="parallel", beta=0.7),
        "parallel-fixed1.0": dict(variant="parallel", beta=1.0),
        "parallel-fixed1.9": dict(variant="parallel", beta=1.9),
        "parallel-adaptive": dict(variant="parallel", beta_policy="adaptive",
                                  delta=0.1),
        # L_1 = 1, so 1.0 is the exact hint at N = 1 and a true one above it
        "parallel-extrapolated": dict(variant="parallel",
                                      beta_policy="extrapolated", delta=0.1,
                                      ln_hint=1.0),
        "sequential-fixed0.7": dict(variant="sequential", beta=0.7),
        "sequential-fixed1.0": dict(variant="sequential", beta=1.0),
        "sequential-fixed1.9": dict(variant="sequential", beta=1.9),
    }
    # m = 6: unsorted lists, with N = 1 and with N = m; run cuts the last
    # into two blocks under either variant
    N_LISTS = [(4, 1, 2), (6, 3), (1, 6), (2, 6, 1)]

    @staticmethod
    def instance():
        return make_polyhedral_benchmark(4, 6, seed=12)

    @staticmethod
    def assert_rows_match_sizes_alone(inst, cfg, sizes):
        # through run, which may cut the sizes into blocks, and through one
        # block of them all, however wide its pads
        alone = [r for size in sizes for r in run(
            inst.spec, dataclasses.replace(cfg, batch_size=size),
            poly=inst.poly)]
        for block in (run(inst.spec, cfg, poly=inst.poly, sizes=sizes),
                      solver._run_block(inst.spec, cfg, inst.poly, sizes)):
            assert [(r.batch_size, r.seed) for r in block] == \
                [(size, seed) for size in sizes for seed in cfg.seeds]
            for a, b in zip(block, alone):
                assert a.records == b.records
                assert a.final_x.tobytes() == b.final_x.tobytes()
                assert a.final_x_hat.tobytes() == b.final_x_hat.tobytes()

    @pytest.mark.parametrize("variant, sizes, blocks", [
        ("parallel", (1, 2, 4), [[4, 2, 1]]),
        ("parallel", (2, 6, 1), [[6, 2], [1]]),
        ("parallel", (1, 8, 64, 200), [[200, 64], [8], [1]]),
        ("parallel", (1, 2, 4, 8, 16, 32, 64, 128),
         [[128, 64, 32], [16, 8, 4], [2, 1]]),
        ("sequential", (1, 2, 4), [[4, 2, 1]]),
        ("sequential", (2, 6, 1), [[6, 2], [1]]),
        ("sequential", (1, 8, 64, 200), [[200, 64], [8], [1]]),
        ("sequential", (1, 2, 4, 8, 16, 32, 64, 128),
         [[128, 64, 32], [16, 8, 4], [2, 1]]),
    ])
    def test_blocks_bound_their_padding(self, variant, sizes, blocks, monkeypatch):
        # each block asks at most PAD_FACTOR times the columns of its sizes
        # alone, N per row, and the next narrower size would pass that
        # bound; run cuts the sizes of either variant into these blocks
        assert solver._size_blocks(sizes) == blocks
        for block, after in zip(blocks, blocks[1:] + [None]):
            padded, real = len(block) * block[0], sum(block)
            assert padded <= solver.PAD_FACTOR * real
            if after:
                assert padded + block[0] > solver.PAD_FACTOR * (real + after[0])
        handed = []

        def spy(spec, config, poly, block):
            handed.append(list(block))
            return [solver.RunResult(seed, size, [], None, None)
                    for size in block for seed in config.seeds]

        monkeypatch.setattr(solver, "_run_block", spy)
        inst = make_polyhedral_benchmark(2, 200, seed=12)
        run(inst.spec, RunConfig(variant=variant), sizes=sizes)
        assert handed == blocks

    @pytest.mark.parametrize("sizes", N_LISTS, ids=str)
    @pytest.mark.parametrize("sampler", Sampler.VARIANTS)
    @pytest.mark.parametrize("name", list(RUNS))
    def test_block_matches_each_size_alone(self, name, sampler, sizes):
        cfg = RunConfig(iterations=100, seeds=(1, 2, 3), sampler=sampler,
                        **self.RUNS[name])
        self.assert_rows_match_sizes_alone(self.instance(), cfg, sizes)

    @pytest.mark.parametrize("sampler", Sampler.VARIANTS)
    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_rows_padded_at_every_draw(self, variant, sampler):
        # past one INDEX_BLOCK, so each row draws and is padded twice
        cfg = RunConfig(variant=variant, iterations=INDEX_BLOCK + 76,
                        seeds=(1, 2), sampler=sampler)
        self.assert_rows_match_sizes_alone(self.instance(), cfg, (4, 1, 2))

    @pytest.mark.parametrize("name", list(RUNS))
    def test_lemma_checks_in_a_mixed_block(self, name):
        cfg = RunConfig(iterations=60, seeds=(1, 2), assertions="lemma-checks",
                        **self.RUNS[name])
        self.assert_rows_match_sizes_alone(self.instance(), cfg, (6, 1, 3))

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_lemma_check_abort_names_its_size(self, variant):
        # the wrong-direction family of TestRunLoop: the first row, N = 2
        # and seed 7, fails at k = 1
        spec = batch_spec(lambda idx, v: (v[idx], -np.eye(2)[idx]), size=2)
        poly = PolyhedronSpec(A=np.eye(2), b=np.zeros(2))
        cfg = RunConfig(variant=variant, beta=1.0, iterations=20, seeds=(7, 3),
                        init="zero", assertions="lemma-checks")
        with pytest.raises(SolverAbort, match="at k=1, seed 7, N=2 ") as info:
            run(spec, cfg, poly=poly, sizes=(2, 1))
        assert info.value.snapshot["batch_size"] == 2

    def test_declared_ln_abort_names_its_size(self):
        # every violated single-index batch has L_1,k = 1 > 0.8, while the
        # N = 4 rows stay below it at k = 1; the first N = 1 row aborts
        inst = make_polyhedral_benchmark(6, 10, seed=0)
        cfg = RunConfig(variant="parallel", beta=1.0, ln_hint=0.8,
                        iterations=100, seeds=(1, 2, 3))
        with pytest.raises(SolverAbort, match=r"at k=1, seed \d+, N=1 ") as info:
            run(inst.spec, cfg, poly=inst.poly, sizes=(4, 1))
        assert info.value.snapshot["batch_size"] == 1

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_oracle_fault_names_its_size_and_real_indices(self, variant):
        # the family reports NaN for constraint 8; the snapshot holds the
        # failing row's real indices, without its pads
        inst = make_polyhedral_benchmark(6, 10, seed=0)
        fam = inst.spec.constraints

        def batch(indices, v):
            values, dirs = fam.batch(indices, v)
            return np.where(indices == 8, np.nan, values), dirs

        spec = dataclasses.replace(
            inst.spec, constraints=dataclasses.replace(fam, batch=batch))
        cfg = RunConfig(variant=variant, beta=1.0, iterations=50, seeds=(1, 2, 3))
        with pytest.raises(SolverAbort,
                           match=r"oracle fault at k=\d+, seed \d+, N=\d:") as info:
            run(spec, cfg, poly=inst.poly, sizes=(1, 3))
        snap = info.value.snapshot
        assert len(snap["indices"]) == snap["batch_size"]
        assert 8 in snap["indices"].tolist()

    def test_rows_hold_no_pad_mask(self):
        assert solver._Rows._fields == ("seeds", "sizes", "groups")

    def test_a_pads_fault_is_its_rows(self):
        # a family that breaks its contract with a NaN in the pad column of
        # the N = 1 row alone: the pad is asked and checked as drawn, so the
        # parallel pass names that row
        inst = make_polyhedral_benchmark(4, 6, seed=12)
        fam = inst.spec.constraints

        def batch(indices, v):
            values, dirs = fam.batch(indices, v)
            if indices.shape == (2, 2):
                values[1, 1] = np.nan
            return values, dirs

        spec = dataclasses.replace(
            inst.spec, constraints=dataclasses.replace(fam, batch=batch))
        cfg = RunConfig(variant="parallel", iterations=5, seeds=(7,))
        with pytest.raises(SolverAbort,
                           match="oracle fault at k=1, seed 7, N=1:") as info:
            run(spec, cfg, poly=inst.poly, sizes=(2, 1))
        assert isinstance(info.value.__cause__, OracleFault)
        assert info.value.__cause__.row == 1

    def test_a_columns_fault_is_its_rows(self):
        # a non-finite value or row in any column names its row
        indices = np.array([[0, 1], [1, 1]])
        v = np.array([[-1.0, -1.0], [-1.0, -1.0]])

        def batch(idx, points):
            values = np.where(idx == 1, -1.0, 0.5)
            dirs = np.ones(idx.shape + (2,))
            values[1, 1], dirs[1, 1] = np.nan, np.inf
            return values, dirs

        spec = corner_spec(constraints=ConstraintFamily(size=2, batch=batch))
        with pytest.raises(OracleFault) as info:
            solver._checked_batch(spec, indices, v)
        assert info.value.row == 1


class TestBareStep:
    """The parallel pass with ``ratio`` False, as ``run`` calls it off its
    log points: where nothing reads L_N,k, the pass does not compute it and
    returns None for it, and its next points are those of the pass that
    computes it, bit for bit."""

    # the instance and its batch size: orthant2 has only two rows
    INSTANCES = {"benchmark": (TestDeclaredLN.INSTANCES["benchmark"], 3),
                 "duplicated": (TestDeclaredLN.INSTANCES["duplicated"], 3),
                 "orthant2": (make_orthant2, 2)}
    # the kinds of a block's seeds, taken in turn; one seed is a mixed block
    # only through a partly violated batch, which the duplicated rows never
    # have, so that case is left out
    BLOCKS = {"all-violated": ("fully", "partly"),
              "mixed": ("partly", "feasible", "fully"),
              "all-feasible": ("feasible",)}
    CASES = [case for case in itertools.product(INSTANCES, BLOCKS, (1, 3))
             if case != ("duplicated", "mixed", 1)]

    def drawn_block(self, instance, block, count):
        make, size = self.INSTANCES[instance]
        inst = make()
        kinds = seeds_by_kind(inst, size)
        order = [kind for kind in self.BLOCKS[block] if (kind, False) in kinds]
        chosen = [kinds[order[row % len(order)], bool(row % 2)][row]
                  for row in range(count)]
        indices = np.array([idx for idx, _ in chosen])
        v = np.array([point for _, point in chosen])
        active = inst.spec.constraints.batch(indices, v)[0] > 0.0
        assert {"all-violated": active.any(axis=1).all(),
                "mixed": active.any() and not active.all(),
                "all-feasible": not active.any()}[block]
        return inst, indices, v

    @pytest.mark.parametrize("beta", [0.7, 1.0, 1.9])
    @pytest.mark.parametrize("instance, block, count", CASES)
    def test_bare_step_is_the_full_pass(self, instance, block, count, beta):
        inst, indices, v = self.drawn_block(instance, block, count)
        cfg = RunConfig(beta=beta)
        beta = start_beta(cfg, count)
        full, asked, _ = parallel_feasibility_update(inst.spec, indices, v, beta,
                                                     cfg, plain_rows(indices))
        bare, ln_k, _ = parallel_feasibility_update(inst.spec, indices, v, beta,
                                                    cfg, plain_rows(indices),
                                                    ratio=False)
        assert ln_k is None and asked.shape == (count,)
        assert bare.tobytes() == full.tobytes()
        if block == "all-feasible":
            assert bare is v and full is v

    @pytest.mark.parametrize("beta", [0.7, 1.0])
    def test_bare_step_under_underflow(self, beta):
        # asked, L_N,k rescales the underflowing first seed, for itself only
        indices = np.array([[0, 1], [0, 1]])
        v = np.array([[1e-170, -1.0], [1e-3, -1.0]])
        cfg = RunConfig(beta=beta)
        full, asked, _ = parallel_feasibility_update(
            corner_spec(), indices, v, np.full(2, beta), cfg, plain_rows(indices))
        bare, ln_k, _ = parallel_feasibility_update(
            corner_spec(), indices, v, np.full(2, beta), cfg, plain_rows(indices),
            ratio=False)
        np.testing.assert_array_equal(asked, [0.5, 0.5])
        assert ln_k is None
        assert bare.tobytes() == full.tobytes()


class TestRatioReaders:
    """The parallel pass computes L_N,k on every iteration only when
    something reads it there: the adaptive rule, a declared L_N or the
    lemma checks.  Elsewhere ``run`` asks for it at its log points only,
    which changes no record."""

    # orthant2 violates every row of nearly every block, where the pass
    # skips the positive part; on benchmark 10x20 at N = 4 most blocks have
    # a feasible seed
    INSTANCES = {"orthant2": (make_orthant2, 2),
                 "benchmark": (lambda: make_polyhedral_benchmark(10, 20, seed=0), 4)}

    @pytest.mark.parametrize("beta", [0.7, 1.0])
    @pytest.mark.parametrize("instance", list(INSTANCES))
    def test_declared_exact_ln_changes_no_record(self, instance, beta):
        make, size = self.INSTANCES[instance]
        inst = make()
        bare = RunConfig(variant="parallel", batch_size=size, beta=beta,
                         iterations=2000, seeds=(1, 2, 3))
        # each reader alone: a declared L_N, then the lemma checks
        readers = [dataclasses.replace(bare, ln_hint=exact_ln_linear(inst.poly, size)),
                   dataclasses.replace(bare, assertions="lemma-checks")]
        plain = run(inst.spec, bare, poly=inst.poly)
        for full in readers:
            for a, b in zip(plain, run(inst.spec, full, poly=inst.poly),
                            strict=True):
                assert a.records == b.records
                assert a.final_x.tobytes() == b.final_x.tobytes()
                assert a.final_x_hat.tobytes() == b.final_x_hat.tobytes()

    READERS = {"none": {}, "adaptive": {"beta_policy": "adaptive", "delta": 0.1},
               "declared": {"ln_hint": "exact"},
               "lemma-checks": {"assertions": "lemma-checks"}}

    @pytest.mark.parametrize("reader", list(READERS))
    def test_batch_diagnostics_runs_where_read(self, reader, monkeypatch):
        inst = self.INSTANCES["benchmark"][0]()
        spec, asked, values = recording_family(inst.spec)
        # the pass asks the family once per iteration, before any ratio
        calls = counted_diagnostics(monkeypatch, label=lambda: len(asked))
        settings = dict(self.READERS[reader])
        if "ln_hint" in settings:
            settings["ln_hint"] = exact_ln_linear(inst.poly, 4)
        cfg = RunConfig(variant="parallel", batch_size=4, beta=1.0,
                        iterations=300, seeds=(1, 2), **settings)
        results = run(spec, cfg, poly=inst.poly)
        violated = {k for k, g in enumerate(values, 1) if (g > 0.0).any()}
        logged = {r.k for r in results[0].records}
        assert violated & logged and violated - logged
        assert calls == sorted(violated if settings else violated & logged)
