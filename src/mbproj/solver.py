"""Minibatch projection subgradient solvers.

Two variants share one outer loop: a subgradient step on the objective
followed by a feasibility pass over a random minibatch of constraints.  The
parallel variant applies one relaxed projection (Polyak) step per sampled
constraint independently at the common point, averages the results and
projects onto the simple set; the sequential variant chains the steps,
re-evaluating each constraint at the current inner point and projecting after
every step.  Both track the quadratically weighted running average of the
iterates, on which all reported metrics are computed.

One kernel, ``run``, advances a block of S independent seeds at once: the
iterates are an (S, n) array with one row per seed, and every step below
works on that seed axis.  The parallel pass is one vectorized step; the
sequential pass is N chained steps, each vectorized over the seeds, and it
calls the constraint oracle once per step taken, for all the columns still
ahead, rather than once per column.  A seed's arithmetic does not depend on
the other seeds of its block, nor a constraint value on the width of the
batch that asks it, so S = 1 and any larger block give the same numbers for
it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (PolyhedronSpec, TOL_ASSERT, TOL_METRIC, distance_oracle,
                       max_violation)
from .oracle import OracleError, ProblemSpec
from .sampling import Sampler

# relative slack on a declared L_N: with the exact bound, the realized ratio of
# a single-index batch still rounds to 1 + 4.4e-16
LN_RTOL = 1e-9

# minibatches are drawn ahead for at most this many iterations per seed
INDEX_BLOCK = 1024


class ConfigError(ValueError):
    """Invalid solver configuration."""


class SolverAbort(RuntimeError):
    """Run aborted: a non-finite iterate, a constraint oracle fault, a failed
    per-iteration check, or a realized batch ratio L_N,k above the declared
    L_N.  The snapshot names the failing ``seed``."""

    def __init__(self, message: str, snapshot: Optional[dict] = None):
        super().__init__(message)
        self.snapshot = snapshot or {}


class OracleFault(OracleError):
    """A feasibility pass met a non-finite value or direction, or a zero
    direction on a violated constraint; ``row`` is the seed's row."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def alpha_schedule(mu: float, index: int) -> float:
    """Diminishing objective stepsize 4 / (mu * (index + 1)) for index >= 0."""
    return 4.0 / (mu * (index + 1))


# ---------------------------------------------------------------------------
# configuration


VARIANTS = ("parallel", "sequential")
BETA_POLICIES = ("fixed", "extrapolated", "adaptive")
INITS = ("zero", "gaussian")
ASSERTIONS = ("off", "lemma-checks")


def validate(config, spec: ProblemSpec) -> None:
    """The one check of the run settings ``config``, a ``RunConfig`` of the
    harness: ``run`` calls it before any work, and the sampler, both
    feasibility passes and the objective step rely on it without checking
    again.

    The feasibility stepsize rule is ``config.beta_policy``: a fixed
    ``beta``, extrapolated as (2 - ``delta``) / L_N against a declared
    ``ln_hint``, or adapted online from each batch's ratio.  A declared L_N
    is a claim that every realized batch ratio L_N,k is at most L_N; the
    parallel variant checks it at every violated batch.  Nothing checks it
    under the adaptive rule or in the sequential variant, so there it is
    rejected."""
    if config.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {config.variant!r}")
    if not config.seeds:
        raise ConfigError("seed list must be nonempty")
    if min(config.seeds) < 0 or len(set(config.seeds)) < len(config.seeds):
        raise ConfigError(f"seeds must be distinct and >= 0: {list(config.seeds)}")
    if config.iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if config.batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    if config.init not in INITS:
        raise ConfigError(f"unknown init rule {config.init!r}")
    if config.assertions not in ASSERTIONS:
        raise ConfigError(f"unknown assertions mode {config.assertions!r}")
    if not math.isfinite(config.init_scale):
        raise ConfigError(f"init_scale must be finite, got {config.init_scale!r}")
    if isinstance(config.cadence, int) and config.cadence < 1:
        raise ConfigError("log cadence step must be >= 1")
    if config.sampler not in Sampler.VARIANTS:
        raise ConfigError(f"unknown sampler variant {config.sampler!r}")
    rule, beta, delta, ln = (config.beta_policy, config.beta, config.delta,
                             config.ln_hint)
    if rule not in BETA_POLICIES:
        raise ConfigError(f"unknown beta policy {rule!r}")
    if ln is not None and (config.variant == "sequential" or rule == "adaptive"):
        raise ConfigError(
            "a declared L_N is checked only by the parallel variant under "
            "the fixed or extrapolated beta policy; drop it here")
    if config.variant == "sequential" and rule != "fixed":
        raise ConfigError(
            "the sequential variant supports only a fixed beta; the "
            "extrapolated and adaptive rules are defined through the "
            "common-point batch ratio of the parallel variant")
    if ln is not None and not (math.isfinite(ln) and ln > 0):
        raise ConfigError(f"a declared L_N must be finite and positive, "
                          f"got {ln!r}")
    if rule == "fixed":
        if beta is None or not (math.isfinite(beta) and beta > 0):
            raise ConfigError(f"fixed beta must be finite and positive, "
                              f"got {beta!r}")
        upper = 2.0 / ln if (config.variant == "parallel" and ln) else 2.0
        if beta >= upper:
            raise ConfigError(
                f"fixed beta {beta} outside the admissible interval "
                f"(0, {upper:g})")
    else:
        if delta is None or not 0.0 < delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if rule == "extrapolated" and ln is None:
            raise ConfigError("extrapolated beta requires a known positive L_N")
    m = spec.constraints.size
    if m and config.sampler == "without-replacement" and config.batch_size > m:
        raise ConfigError(
            f"cannot draw {config.batch_size} distinct indices from {m}")


def initial_beta(config) -> float:
    """The feasibility stepsize of the run settings ``config`` before any
    violated batch: the fixed ``beta``, the extrapolated (2 - ``delta``) /
    ``ln_hint``, or 2 - ``delta``, the adaptive rule's fallback.  Every
    stepsize of a fixed or extrapolated run is this one."""
    if config.beta_policy == "fixed":
        return config.beta
    if config.beta_policy == "extrapolated":
        return (2.0 - config.delta) / config.ln_hint
    return 2.0 - config.delta


@dataclass
class PolyhedralContext:
    """The linear constraints {Ax + b <= 0} of a run, known explicitly; the
    feasible set is their intersection with the spec's simple set Y.

    With it a run logs max_violation and the certified distance dist_X of
    the weighted average (``distance_oracle``), and the lemma checks measure
    distances to the whole feasible set and steps toward ``feasible_point``.
    """

    poly: PolyhedronSpec
    feasible_point: np.ndarray         # known point of the full intersection


# ---------------------------------------------------------------------------
# records


@dataclass
class RunRecord:
    seed: int
    k: int
    f_gap: Optional[float]
    max_violation: Optional[float]
    dist_x: Optional[float]
    ln_k: Optional[float]
    beta_k: float
    elapsed_ns: int


@dataclass
class RunResult:
    seed: int
    iterations: int
    records: list
    final_x: np.ndarray
    final_x_hat: np.ndarray
    max_ln_k: Optional[float]


# ---------------------------------------------------------------------------
# elementary steps, each on the seed axis


def _weighted_mean(weights: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Mean of each seed's rows ``dirs`` (S, N, n) under ``weights`` (S, N)."""
    return np.matmul(weights[:, None, :], dirs)[:, 0] / weights.shape[1]


def _ratio_terms(gplus: np.ndarray, dirs: np.ndarray, nsq: np.ndarray):
    """The mean rows weighted by gplus / nsq, and L_N,k's two terms."""
    mean_dir = _weighted_mean(gplus / nsq, dirs)
    num = np.vecdot(mean_dir, mean_dir)
    den = np.add.reduce(gplus * gplus / nsq, 1) / gplus.shape[1]
    return mean_dir, num, den


def batch_diagnostics(gplus: np.ndarray, dirs: np.ndarray, nsq: np.ndarray,
                      violated: Optional[np.ndarray], count: int):
    """Alignment ratio L_N,k of each seed's minibatch, shape (S,), and the
    mean of its rows weighted by gplus / nsq, shape (S, n).  L_N,k =
    |avg of gplus / nsq * rows|^2 / avg of gplus^2 / nsq is at most 1
    (mean-square inequality); it is NaN in the rows that ``violated``
    leaves unmarked, whose batch is feasible (none when it is None), and
    ``count`` rows are violated.  L_N,k is scale-invariant, so a violated
    row whose gplus^2 / nsq all underflow, giving 0/0, takes its terms from
    gplus divided by the row's largest entry; its mean row keeps gplus."""
    mean_dir, num, den = _ratio_terms(gplus, dirs, nsq)
    if np.count_nonzero(den) < count:
        lost = den == 0.0 if violated is None else violated & (den == 0.0)
        scaled = gplus[lost] / gplus[lost].max(axis=1, keepdims=True)
        _, num[lost], den[lost] = _ratio_terms(scaled, dirs[lost], nsq[lost])
    if violated is None:
        return num / den, mean_dir
    return np.where(violated, num / np.where(violated, den, 1.0), np.nan), mean_dir


@functools.lru_cache(maxsize=16)
def _constant_steps(beta: float, count: int) -> np.ndarray:
    """Read-only (count,) stepsizes ``beta``, allocated once per (beta, count)."""
    steps = np.full(count, beta)
    steps.flags.writeable = False
    return steps


def _checked_batch(spec: ProblemSpec, indices: np.ndarray, v: np.ndarray):
    """The family's values and rows at the points v.  An ``OracleFault``
    names the first seed with a non-finite value or row entry, or with a
    violated constraint whose row's squared norm overflows, which would make
    its step beta * gplus / inf * row zero."""
    gvals, dirs = spec.constraints.batch(indices, v)
    gvals = np.asarray(gvals, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if gvals.shape != indices.shape or dirs.shape != indices.shape + v.shape[1:]:
        raise OracleError(
            f"constraint batch returned shapes {gvals.shape} and {dirs.shape} "
            f"for indices {indices.shape} at points {v.shape}")
    # a sum of squares is finite only if every term is, so two finite sums
    # clear the batch; the sum over dirs is also the rows' squared norms
    if not (math.isfinite(np.vdot(gvals, gvals)) and math.isfinite(np.vdot(dirs, dirs))):
        finite = np.isfinite(gvals).all(axis=1) & np.isfinite(dirs).all(axis=(1, 2))
        if not finite.all():
            raise OracleFault("constraint oracle returned a non-finite value",
                              int(np.argmin(finite)))
        violated = gvals > 0.0
        lost = np.isinf(_squared_norms(dirs, violated)) & violated
        if lost.any():
            raise OracleFault("the squared norm of a violated constraint's row "
                              "overflows: step undefined",
                              int(np.argmax(lost.any(axis=1))))
    return gvals, dirs


def _squared_norms(dirs: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Squared norms of the rows, shaped as the mask ``active`` of violated
    constraints.  Only a zero row builds masks: on a violated constraint it
    is an ``OracleFault``, elsewhere it reads as 1."""
    # each (seed, index) row reduced as a lone row would be; np.vecdot
    # rounds differently
    nsq = np.einsum("...j,...j->...", dirs, dirs)
    if np.count_nonzero(nsq) < nsq.size:
        zero = (nsq == 0.0) & active
        if zero.any():
            raise OracleFault("zero direction with positive violation: step undefined",
                              int(np.argmax(zero.any(axis=1))))
        nsq = np.where(nsq > 0.0, nsq, 1.0)
    return nsq


def parallel_feasibility_update(spec: ProblemSpec, indices: np.ndarray,
                                v: np.ndarray, config,
                                checker: Optional["_LemmaChecker"] = None,
                                k: int = 0, seeds=None):
    """One parallel minibatch feasibility pass, seed by seed at its point.

    ``indices`` (S, N) holds one minibatch per seed row of ``v`` (S, n).
    Each sampled constraint gets an independent relaxed projection step from
    its seed's point; the results are averaged (fixed index order) and
    projected onto the simple set.  The stepsize rule is that of the run
    settings ``config``, read by the names ``beta_policy``, ``delta`` and
    ``ln_hint``: a seed's stepsize is (2 - delta) / L_N,k of its batch's
    realized ratio under the adaptive rule, and ``initial_beta(config)``
    under the others; an L_N,k above a declared ``ln_hint`` by more than a
    relative ``LN_RTOL`` raises ``SolverAbort`` before the step.  A seed
    whose batch is feasible keeps its point, and ``v`` itself is returned
    when every seed's is.  ``checker`` (None when checks are off) verifies
    the decrease inequalities; ``k`` and ``seeds`` (by default the row
    numbers) label its reports.  Returns the next points, each seed's L_N,k
    and stepsize (both NaN where the batch is feasible); an oracle fault
    raises ``OracleFault``.  Preconditions are ``validate``'s.
    """
    gvals, dirs = _checked_batch(spec, indices, v)
    active = gvals > 0.0
    hits = np.count_nonzero(active)
    if not hits:
        no_step = np.full(len(v), np.nan)
        return v, no_step, no_step
    violated, count = None, len(v)    # every seed when every entry is active
    if hits < active.size:
        violated = np.logical_or.reduce(active, 1)
        count = np.count_nonzero(violated)
    every = count == len(v)
    gplus = np.maximum(gvals, 0.0)
    nsq = _squared_norms(dirs, active)
    fixed = None if config.beta_policy == "adaptive" else initial_beta(config)
    ln_k, step = batch_diagnostics(gplus, dirs, nsq, None if every else violated,
                                   count)
    if fixed is None:
        beta = (2.0 - config.delta) / ln_k
    else:
        beta = _constant_steps(fixed, len(v)) if every else \
            np.where(violated, fixed, np.nan)
    ln = config.ln_hint
    if ln is not None:
        over = ln_k > ln * (1.0 + LN_RTOL)
        if over.any():
            row = int(np.argmax(over))
            seed = row if seeds is None else seeds[row]
            raise SolverAbort(
                f"realized L_N,k {ln_k[row]:g} exceeds the declared L_N "
                f"{ln:g} at k={k}, seed {seed} (beta {beta[row]:g})",
                snapshot={"seed": seed, "k": k, "ln_k": float(ln_k[row]),
                          "ln": ln, "beta": float(beta[row])})
    # at beta = 1 the coefficients beta * gplus / nsq are the ratios, whose
    # mean row is the step; a feasible seed's NaN row is merged away below
    if fixed != 1.0:
        step = _weighted_mean(beta[:, None] * gplus / nsq, dirs)
    x_next = spec.simple_set.project(v - step)
    if not every:
        x_next = np.where(violated[:, None], x_next, v)
    if checker is not None:
        checker.single_steps(k, v, gplus, dirs, nsq, beta)
        checker.parallel_batch(k, v, x_next, gplus, beta, ln_k)
    return x_next, ln_k, beta


def sequential_feasibility_update(spec: ProblemSpec, indices: np.ndarray,
                                  v: np.ndarray, beta: float,
                                  checker: Optional["_LemmaChecker"] = None,
                                  k: int = 0) -> np.ndarray:
    """Chained relaxed projection steps, one per sampled constraint.

    ``indices`` (S, N) holds one minibatch per seed row of ``v`` (S, n).  The
    i-th step evaluates every seed's i-th constraint at that seed's current
    inner point; each seed that violates it steps and is projected onto the
    simple set, the others keep their point.  The inner points move only
    where some seed steps, so one oracle call asks for every column still
    ahead at the current points; the pass takes the first column that some
    seed violates and asks again only for the columns after it, and it
    stops when none is violated.  The family's values depend only on index
    and point (``ConstraintFamily``), so each step sees the values of the
    column-by-column chain.  Every value and row returned is checked, so a
    column the chain would reach at a later point can raise its fault here.
    ``checker`` (None when checks are off) verifies every inner step and each
    seed's chain of distance decreases over all N + 1 inner points; ``k``
    labels its reports.  Returns the final inner points; an oracle fault
    raises ``OracleFault``.  Preconditions are ``validate``'s.
    """
    z = v
    inner = [v] if checker is not None else None
    gplus_seq = np.zeros(indices.shape) if checker is not None else None
    size, i = indices.shape[1], 0
    while i < size:
        gvals, dirs = _checked_batch(spec, indices[:, i:], z)
        hit = np.logical_or.reduce(gvals > 0.0, 0)
        j = int(np.argmax(hit))
        if not hit[j]:
            break
        gplus = np.maximum(gvals[:, j:j + 1], 0.0)
        active = gplus > 0.0
        dirs = dirs[:, j:j + 1]
        nsq = _squared_norms(dirs, active)
        if checker is not None:
            gplus_seq[:, i + j] = gplus[:, 0]
            checker.single_steps(k, z, gplus, dirs, nsq, beta)
            inner.extend([z] * j)
        coef = gplus / nsq if beta == 1.0 else beta * gplus / nsq
        z_next = spec.simple_set.project(z - coef * dirs[:, 0])
        z = z_next if np.count_nonzero(active) == len(z) else np.where(active, z_next, z)
        if inner is not None:
            inner.append(z)
        i += j + 1
    if checker is not None:
        inner.extend([z] * (size + 1 - len(inner)))
        checker.sequential_chain(k, inner, gplus_seq, beta)
    return z


def objective_step(spec: ProblemSpec, x_prev: np.ndarray, alpha: float) -> np.ndarray:
    """Projected subgradient step on the objective, row by row of the
    (S, n) points ``x_prev``.

    Precondition, not checked here: alpha >= 0.  ``run`` passes
    ``alpha_schedule(mu, k - 1)`` = 4 / (mu * k), positive because
    ``ProblemSpec`` requires mu > 0."""
    s = np.asarray(spec.objective.subgradient(x_prev), dtype=np.float64)
    return spec.simple_set.project(x_prev - alpha * s)


# ---------------------------------------------------------------------------
# per-iteration inequality checks


class _LemmaChecker:
    """Verifies the per-iteration decrease inequalities on a polyhedral
    benchmark, seed by seed, aborting with a snapshot on the first
    violation."""

    def __init__(self, context: PolyhedralContext, spec: ProblemSpec, seeds):
        self.ctx = context
        self.simple_set = spec.simple_set
        self.mg = spec.M_g
        self.seeds = seeds
        self.ln_running_max = np.zeros(len(seeds))
        # each seed's last active set: its next distance starts from it
        self.active_sets = [[] for _ in seeds]
        p = context.feasible_point
        if max_violation(context.poly, p) > TOL_METRIC or \
                not self.simple_set.contains(p, tol=TOL_METRIC):
            raise ConfigError("lemma-checks requires a feasible reference point")

    def _dist(self, row, v):
        """Distance of seed ``row``'s point v to the feasible set."""
        return distance_oracle(self.ctx.poly, self.simple_set, v,
                               self.active_sets[row])

    def _fail(self, name, k, row, slack, extra=None):
        seed = self.seeds[row]
        snap = {"check": name, "seed": seed, "k": k, "slack": slack}
        snap.update(extra or {})
        raise SolverAbort(
            f"iteration inequality '{name}' violated at k={k}, seed {seed} "
            f"(slack {slack:.3e})", snapshot=snap)

    def single_steps(self, k, v, gplus, dirs, nsq, beta):
        """Per-constraint decrease toward the feasible reference point."""
        p = self.ctx.feasible_point
        beta = np.broadcast_to(beta, gplus.shape[:1])
        for row in range(gplus.shape[0]):
            vp = float(np.linalg.norm(v[row] - p)) ** 2
            for i in range(gplus.shape[1]):
                g = gplus[row, i]
                if g == 0.0:
                    continue
                z_i = v[row] - (beta[row] * g / nsq[row, i]) * dirs[row, i]
                lhs = float(np.linalg.norm(z_i - p)) ** 2
                rhs = vp - beta[row] * (2.0 - beta[row]) * g ** 2 / nsq[row, i]
                if lhs - rhs > TOL_ASSERT:
                    self._fail("single-step-decrease", k, row, rhs - lhs,
                               {"index": i})

    def parallel_batch(self, k, v, x, gplus, beta, ln_k):
        for row in np.flatnonzero(~np.isnan(ln_k)):
            self.ln_running_max[row] = max(self.ln_running_max[row], ln_k[row])
            ln = self.ln_running_max[row]
            if ln == 0.0:
                continue
            dv = self._dist(row, v[row]) ** 2
            dx = self._dist(row, x[row]) ** 2
            decrease = beta[row] * (2.0 - beta[row] * ln) \
                / (gplus.shape[1] * self.mg ** 2) * float(np.sum(gplus[row] ** 2))
            if dx - (dv - decrease) > TOL_ASSERT:
                self._fail("batch-distance-decrease", k, row, (dv - decrease) - dx,
                           {"dist_v": dv, "dist_x": dx})

    def sequential_chain(self, k, inner_points, gplus_seq, beta):
        """Inner-step and summed distance decreases for the chained variant;
        a point bit-equal to the seed's one before reuses its distance."""
        factor = beta * (2.0 - beta) / self.mg ** 2
        for row in range(gplus_seq.shape[0]):
            dists = []
            for i, z in enumerate(inner_points):
                same = i and z[row].tobytes() == inner_points[i - 1][row].tobytes()
                dists.append(dists[-1] if same else self._dist(row, z[row]))
            for i in range(1, len(inner_points)):
                bound = dists[i - 1] ** 2 - factor * gplus_seq[row, i - 1] ** 2
                if dists[i] ** 2 - bound > TOL_ASSERT:
                    self._fail("chain-step-distance-decrease", k, row,
                               bound - dists[i] ** 2, {"inner_step": i})
                if dists[i] - dists[i - 1] > TOL_ASSERT:
                    self._fail("chain-monotone-distance", k, row,
                               dists[i - 1] - dists[i], {"inner_step": i})
            total = dists[0] ** 2 - factor * float(np.sum(gplus_seq[row] ** 2))
            if dists[-1] ** 2 - total > TOL_ASSERT:
                self._fail("chain-summed-distance-decrease", k, row,
                           total - dists[-1] ** 2)


# ---------------------------------------------------------------------------
# main loop


def _log_points(iterations: int, cadence) -> set:
    if cadence == "geometric":
        ks = {2 ** j for j in range(iterations.bit_length())}
    else:
        ks = set(range(int(cadence), iterations + 1, int(cadence)))
    return ks | {iterations}


def _initial_point(spec: ProblemSpec, init: str, scale: float,
                   rng: np.random.Generator) -> np.ndarray:
    if init == "zero":
        raw = np.zeros(spec.dimension)
    else:
        raw = scale * rng.standard_normal(spec.dimension)
    return np.asarray(spec.simple_set.project(raw), dtype=np.float64)


def _abort_if_nonfinite(points: np.ndarray, what: str, k: int, seeds,
                        name: str, before: np.ndarray) -> None:
    """Abort on the first seed row of the (S, n) ``points`` with a non-finite
    entry; ``run`` asks only when their sum of squares is not finite."""
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise SolverAbort(f"{what} produced a non-finite iterate at k={k}, "
                          f"seed {seeds[row]}",
                          snapshot={"seed": seeds[row], "k": k, name: before[row]})


def run(spec: ProblemSpec, config,
        context: Optional[PolyhedralContext] = None) -> list:
    """Execute the configured variant for the full iteration budget, for
    every seed of ``config.seeds`` at once; returns one ``RunResult`` per
    seed, in that order.  ``config``, the harness's ``RunConfig``, is read
    by name, once, after ``validate``.

    Each iteration takes one objective step and one feasibility pass for the
    (S, n) block, checked by the lemma checker under ``lemma-checks``; only
    an adaptive beta changes ``beta_k``.  Each seed keeps its own
    ``SeedSequence``, hence its own initial point and ``Sampler`` (one
    ``draw`` per ``INDEX_BLOCK`` iterations), so its numbers do not depend
    on the other seeds.  Records are computed seed by seed on the weighted
    running average: f_gap when the spec knows its optimum, max_violation
    and dist_X only through ``context``; ``elapsed_ns`` counts from the
    start of the block.  Each seed keeps the active set of its last dist_X
    projection, and its next log point's ``distance_oracle`` call starts
    from it and leaves its own there; the lemma checker keeps one per seed
    the same way.  A warm start gives the bits of a cold one (see
    ``geometry``), and a seed reads only its own sets.  The first
    non-finite iterate, constraint oracle fault (reported with ``k``, the
    seed and its batch indices) or realized L_N,k above a declared L_N
    aborts the whole block with ``SolverAbort``.
    """
    validate(config, spec)
    if config.assertions == "lemma-checks" and context is None:
        raise ConfigError("lemma-checks mode requires a polyhedral context")
    seeds = tuple(config.seeds)
    checker = _LemmaChecker(context, spec, seeds) \
        if config.assertions == "lemma-checks" else None
    variant, size, iterations = config.variant, config.batch_size, config.iterations

    m = spec.constraints.size
    x = np.empty((len(seeds), spec.dimension))
    samplers = []
    for row, seed in enumerate(seeds):
        ss_init, ss_sampler = np.random.SeedSequence(seed).spawn(2)
        x[row] = _initial_point(spec, config.init, config.init_scale,
                                np.random.default_rng(ss_init))
        if m:
            samplers.append(Sampler(config.sampler, m,
                                    np.random.default_rng(ss_sampler)))

    beta0 = initial_beta(config)
    beta_k = np.full(len(seeds), beta0)
    ln_k = max_ln = np.full(len(seeds), np.nan)

    weighted_sum = np.zeros_like(x)
    active_sets = [[] for _ in seeds]
    weight_total = 0                   # exact integer sum of (j+1)^2, j=1..k
    records = [[] for _ in seeds]
    log_ks = _log_points(iterations, config.cadence)
    opt = spec.known_optimum
    t0 = time.perf_counter_ns()

    for k in range(1, iterations + 1):
        v = objective_step(spec, x, alpha_schedule(spec.mu, k - 1))
        if not math.isfinite(np.vdot(v, v)):
            _abort_if_nonfinite(v, "objective step", k, seeds, "x", x)

        x = v
        if samplers:
            ahead = (k - 1) % INDEX_BLOCK
            if ahead == 0:
                count = min(INDEX_BLOCK, iterations - k + 1)
                drawn = np.stack([sampler.draw(size, count).reshape(count, size)
                                  for sampler in samplers])
            indices = drawn[:, ahead]
            try:
                if variant == "parallel":
                    x, ln_k, beta = parallel_feasibility_update(
                        spec, indices, v, config, checker, k, seeds)
                    max_ln = np.fmax(max_ln, ln_k)
                    if config.beta_policy == "adaptive":   # else beta_k never changes
                        beta_k = np.where(np.isnan(beta), beta_k, beta)
                else:
                    x = sequential_feasibility_update(
                        spec, indices, v, beta0, checker, k)
            except OracleFault as exc:
                seed = seeds[exc.row]
                raise SolverAbort(
                    f"constraint oracle fault at k={k}, seed {seed}: {exc}",
                    snapshot={"seed": seed, "k": k,
                              "indices": indices[exc.row]}) from exc

        if not math.isfinite(np.vdot(x, x)):
            _abort_if_nonfinite(x, "feasibility update", k, seeds, "v", v)

        weight = (k + 1) * (k + 1)
        weight_total += weight
        weighted_sum += weight * x

        if k in log_ks:
            x_hat = weighted_sum / weight_total
            for row, seed in enumerate(seeds):
                f_gap = None
                if opt is not None:
                    f_gap = float(spec.objective.evaluate(x_hat[row])) - opt.f_star
                viol = dist = None
                if context is not None:
                    viol = max_violation(context.poly, x_hat[row])
                    dist = distance_oracle(context.poly, spec.simple_set,
                                           x_hat[row], active_sets[row])
                records[row].append(RunRecord(
                    seed=seed, k=k, f_gap=f_gap, max_violation=viol, dist_x=dist,
                    ln_k=None if np.isnan(ln_k[row]) else float(ln_k[row]),
                    beta_k=float(beta_k[row]),
                    elapsed_ns=time.perf_counter_ns() - t0))

    x_hat = weighted_sum / weight_total
    return [RunResult(seed=seed, iterations=iterations, records=records[row],
                      final_x=x[row], final_x_hat=x_hat[row],
                      max_ln_k=None if np.isnan(max_ln[row]) else float(max_ln[row]))
            for row, seed in enumerate(seeds)]
