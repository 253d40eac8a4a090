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
sequential pass is N chained steps, each vectorized over the seeds.  A seed's
arithmetic does not depend on the other seeds of its block, so S = 1 and any
larger block give the same numbers for it.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class BetaPolicy:
    """Feasibility stepsize rule: fixed value, extrapolated against a known
    batch alignment bound, or adapted online from the per-batch value.

    A declared ``ln`` is a claim that every realized batch ratio L_N,k is at
    most L_N; the parallel variant checks it at every violated batch.  Nothing
    checks it under the adaptive rule or in the sequential variant, so there
    it is rejected.
    """

    kind: str                      # "fixed" | "extrapolated" | "adaptive"
    beta: Optional[float] = None   # fixed value
    delta: Optional[float] = None  # safety gap for extrapolated / adaptive
    ln: Optional[float] = None     # declared L_N; run() aborts if a batch exceeds it

    def validate(self, variant: str) -> None:
        if self.kind not in ("fixed", "extrapolated", "adaptive"):
            raise ConfigError(f"unknown beta policy {self.kind!r}")
        if self.ln is not None and (variant == "sequential" or self.kind == "adaptive"):
            raise ConfigError(
                "a declared L_N is checked only by the parallel variant under "
                "the fixed or extrapolated beta policy; drop it here")
        if variant == "sequential" and self.kind != "fixed":
            raise ConfigError(
                "the sequential variant supports only a fixed beta; the "
                "extrapolated and adaptive rules are defined through the "
                "common-point batch ratio of the parallel variant")
        if self.ln is not None and not (math.isfinite(self.ln) and self.ln > 0):
            raise ConfigError(f"a declared L_N must be finite and positive, "
                              f"got {self.ln!r}")
        if self.kind == "fixed":
            if self.beta is None or not (math.isfinite(self.beta) and self.beta > 0):
                raise ConfigError(f"fixed beta must be finite and positive, "
                                  f"got {self.beta!r}")
            upper = 2.0 / self.ln if (variant == "parallel" and self.ln) else 2.0
            if self.beta >= upper:
                raise ConfigError(
                    f"fixed beta {self.beta} outside the admissible interval "
                    f"(0, {upper:g})")
        else:
            if self.delta is None or not 0.0 < self.delta < 1.0:
                raise ConfigError("delta must lie in (0, 1)")
            if self.kind == "extrapolated" and self.ln is None:
                raise ConfigError("extrapolated beta requires a known positive L_N")

    def initial_beta(self) -> float:
        if self.kind == "fixed":
            return self.beta
        if self.kind == "extrapolated":
            return (2.0 - self.delta) / self.ln
        return 2.0 - self.delta  # adaptive fallback before any violated batch

    def step_beta(self, ln_k):
        """Stepsize for a violated batch whose realized ratio is ``ln_k``
        (a number, or an array of them, one per seed)."""
        if self.kind == "adaptive":
            return (2.0 - self.delta) / ln_k
        return self.initial_beta()


@dataclass
class SolverConfig:
    variant: str                      # "parallel" | "sequential"
    batch_size: int
    beta_policy: BetaPolicy
    iterations: int
    sampler_variant: str = "without-replacement"
    seeds: tuple = (0,)               # the block of seeds ``run`` advances
    init: str = "zero"                # "zero" | "gaussian"
    init_scale: float = 1.0
    log_cadence: object = "geometric"  # "geometric" or positive int step
    assertions: str = "off"           # "off" | "lemma-checks"

    def validate(self, spec: ProblemSpec) -> None:
        """The one check of a run's settings: ``run`` calls it before any
        work, and the sampler, both feasibility passes and the objective step
        rely on it without checking again."""
        if self.variant not in ("parallel", "sequential"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not self.seeds:
            raise ConfigError("seed list must be nonempty")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct and >= 0: {list(self.seeds)}")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.init not in ("zero", "gaussian"):
            raise ConfigError(f"unknown init rule {self.init!r}")
        if self.assertions not in ("off", "lemma-checks"):
            raise ConfigError(f"unknown assertions mode {self.assertions!r}")
        if not math.isfinite(self.init_scale):
            raise ConfigError(f"init_scale must be finite, got {self.init_scale!r}")
        if isinstance(self.log_cadence, int) and self.log_cadence < 1:
            raise ConfigError("log cadence step must be >= 1")
        if self.sampler_variant not in Sampler.VARIANTS:
            raise ConfigError(f"unknown sampler variant {self.sampler_variant!r}")
        self.beta_policy.validate(self.variant)
        m = spec.constraints.size
        if m and self.sampler_variant == "without-replacement" and self.batch_size > m:
            raise ConfigError(
                f"cannot draw {self.batch_size} distinct indices from {m}")


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


def batch_diagnostics(gplus: np.ndarray, dirs: np.ndarray,
                      nsq: np.ndarray) -> np.ndarray:
    """Alignment ratio L_N,k of each seed's minibatch.

    ``gplus`` and ``nsq`` have shape (S, N), ``dirs`` (S, N, n); the result
    has shape (S,).  The ratio |avg of weighted directions|^2 / avg of
    squared weighted violations is at most 1 (mean-square inequality) and
    is undefined, NaN, where the whole batch is feasible.
    """
    size = gplus.shape[1]
    active = gplus > 0.0
    weights = np.where(active, gplus / nsq, 0.0)
    mean_dir = np.matmul(weights[:, None, :], dirs)[:, 0] / size
    num = np.matmul(mean_dir[:, None, :], mean_dir[:, :, None])[:, 0, 0]
    den = (gplus * gplus / nsq).sum(axis=1) / size
    violated = active.any(axis=1)
    return np.where(violated, num / np.where(violated, den, 1.0), np.nan)


def _checked_batch(spec: ProblemSpec, indices: np.ndarray, v: np.ndarray):
    """The family's values and rows at the points v, checked finite; an
    ``OracleFault`` names the first faulty seed."""
    gvals, dirs = spec.constraints.batch(indices, v)
    gvals = np.asarray(gvals, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if gvals.shape != indices.shape or dirs.shape != indices.shape + v.shape[1:]:
        raise OracleError(
            f"constraint batch returned shapes {gvals.shape} and {dirs.shape} "
            f"for indices {indices.shape} at points {v.shape}")
    if not (np.isfinite(gvals).all() and np.isfinite(dirs).all()):
        finite = np.isfinite(gvals).all(axis=1) & np.isfinite(dirs).all(axis=(1, 2))
        raise OracleFault("constraint oracle returned a non-finite value",
                          int(np.argmin(finite)))
    return gvals, dirs


def _squared_norms(gplus: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Squared norms of the rows, zeros read as 1; a zero row of a violated
    constraint is an ``OracleFault``."""
    # one row per (seed, index), each reduced as a lone row would be
    flat = dirs.reshape(-1, dirs.shape[-1])
    nsq = np.einsum("ij,ij->i", flat, flat).reshape(gplus.shape)
    zero = (nsq == 0.0) & (gplus > 0.0)
    if zero.any():
        raise OracleFault("zero direction with positive violation: step undefined",
                          int(np.argmax(zero.any(axis=1))))
    return np.where(nsq > 0.0, nsq, 1.0)


def parallel_feasibility_update(spec: ProblemSpec, indices: np.ndarray,
                                v: np.ndarray, policy: BetaPolicy,
                                checker: Optional["_LemmaChecker"] = None,
                                k: int = 0, seeds=None):
    """One parallel minibatch feasibility pass, seed by seed at its point.

    ``indices`` (S, N) holds one minibatch per seed row of ``v`` (S, n).
    Each sampled constraint gets an independent relaxed projection step from
    its seed's point; the results are averaged (fixed index order) and
    projected onto the simple set.  A seed's stepsize is ``policy.step_beta``
    of its batch's realized ratio L_N,k.  A declared ``policy.ln`` that some
    seed's L_N,k exceeds by more than a relative ``LN_RTOL`` raises
    ``SolverAbort`` before the step, since beta < 2 / L_N no longer
    certifies it.  A seed whose whole batch is feasible keeps its point, and
    when no seed has a violated batch ``v`` itself is returned.  ``checker``
    (None when checks are off) verifies each seed's decrease inequalities;
    ``k`` and ``seeds`` (the seed of each row, by default the row number)
    label the reports.  Returns the next points, each seed's L_N,k and the
    stepsize it took (both NaN where the batch is feasible); an oracle fault
    raises ``OracleFault``.

    Preconditions, which ``run`` guarantees through ``SolverConfig.validate``
    and which the pass does not check again: N >= 1 indices per row, distinct
    under sampling without replacement, and a ``policy`` that passed
    ``BetaPolicy.validate("parallel")``, so a fixed beta lies in
    (0, 2 / L_N) for a declared L_N and in (0, 2) otherwise.
    """
    gvals, dirs = _checked_batch(spec, indices, v)
    gplus = np.maximum(gvals, 0.0)
    nsq = _squared_norms(gplus, dirs)
    ln_k = batch_diagnostics(gplus, dirs, nsq)
    violated = ~np.isnan(ln_k)
    beta = np.where(violated, policy.step_beta(ln_k), np.nan)
    if not violated.any():
        return v, ln_k, beta
    if policy.ln is not None:
        over = ln_k > policy.ln * (1.0 + LN_RTOL)
        if over.any():
            row = int(np.argmax(over))
            seed = row if seeds is None else seeds[row]
            raise SolverAbort(
                f"realized L_N,k {ln_k[row]:g} exceeds the declared L_N "
                f"{policy.ln:g} at k={k}, seed {seed} (beta {beta[row]:g})",
                snapshot={"seed": seed, "k": k, "ln_k": float(ln_k[row]),
                          "ln": policy.ln, "beta": float(beta[row])})
    coeff = np.where(gplus > 0.0, beta[:, None] * gplus / nsq, 0.0)
    step = np.matmul(coeff[:, None, :], dirs)[:, 0] / indices.shape[1]
    x_next = np.where(violated[:, None], spec.simple_set.project(v - step), v)
    if checker is not None:
        checker.single_steps(k, v, gplus, dirs, nsq, beta)
        checker.parallel_batch(k, v, x_next, gplus, beta, ln_k)
    return x_next, ln_k, beta


def sequential_feasibility_update(spec: ProblemSpec, indices: np.ndarray,
                                  v: np.ndarray, beta: float,
                                  checker: Optional["_LemmaChecker"] = None,
                                  k: int = 0):
    """Chained relaxed projection steps, one per sampled constraint.

    ``indices`` (S, N) holds one minibatch per seed row of ``v`` (S, n).  The
    i-th step evaluates every seed's i-th constraint at that seed's current
    inner point; each seed that violates it steps and is projected onto the
    simple set, the others keep their point.  ``checker`` (None when checks
    are off) verifies every inner step and each seed's chain of distance
    decreases; ``k`` labels its reports.  Returns the final inner points and
    the positive parts seen by the steps, shape (S, N); an oracle fault
    raises ``OracleFault``.

    Preconditions, which ``run`` guarantees through ``SolverConfig.validate``
    and which the pass does not check again: N >= 1 indices per row, distinct
    under sampling without replacement, and beta in (0, 2), the only
    stepsizes ``BetaPolicy.validate("sequential")`` admits.
    """
    project = spec.simple_set.project
    z = v
    inner = [v] if checker is not None else None
    gplus_seq = np.zeros(indices.shape)
    for i in range(indices.shape[1]):
        gvals, dirs = _checked_batch(spec, indices[:, i:i + 1], z)
        active = gvals[:, 0] > 0.0
        if active.any():
            gplus = np.maximum(gvals, 0.0)
            nsq = _squared_norms(gplus, dirs)
            gplus_seq[:, i] = gplus[:, 0]
            if checker is not None:
                checker.single_steps(k, z, gplus, dirs, nsq, beta)
            step = (beta * gplus[:, 0] / nsq[:, 0])[:, None] * dirs[:, 0]
            z = np.where(active[:, None], project(z - step), z)
        if inner is not None:
            inner.append(z)
    if checker is not None:
        checker.sequential_chain(k, inner, gplus_seq, beta)
    return z, gplus_seq


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
        p = context.feasible_point
        if max_violation(context.poly, p) > TOL_METRIC or \
                not self.simple_set.contains(p, tol=TOL_METRIC):
            raise ConfigError("lemma-checks requires a feasible reference point")

    def _dist(self, v):
        return distance_oracle(self.ctx.poly, self.simple_set, v)

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
            dv = self._dist(v[row]) ** 2
            dx = self._dist(x[row]) ** 2
            decrease = beta[row] * (2.0 - beta[row] * ln) \
                / (gplus.shape[1] * self.mg ** 2) * float(np.sum(gplus[row] ** 2))
            if dx - (dv - decrease) > TOL_ASSERT:
                self._fail("batch-distance-decrease", k, row, (dv - decrease) - dx,
                           {"dist_v": dv, "dist_x": dx})

    def sequential_chain(self, k, inner_points, gplus_seq, beta):
        """Inner-step and summed distance decreases for the chained variant."""
        factor = beta * (2.0 - beta) / self.mg ** 2
        for row in range(gplus_seq.shape[0]):
            dists = [self._dist(z[row]) for z in inner_points]
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
        ks = set()
        k = 1
        while k <= iterations:
            ks.add(k)
            k *= 2
        ks.add(iterations)
        return ks
    step = int(cadence)
    ks = set(range(step, iterations + 1, step))
    ks.add(iterations)
    return ks


def _initial_point(spec: ProblemSpec, config: SolverConfig,
                   rng: np.random.Generator) -> np.ndarray:
    if config.init == "zero":
        raw = np.zeros(spec.dimension)
    else:
        raw = config.init_scale * rng.standard_normal(spec.dimension)
    return np.asarray(spec.simple_set.project(raw), dtype=np.float64)


def _abort_if_nonfinite(points: np.ndarray, what: str, k: int, seeds,
                        name: str, before: np.ndarray) -> None:
    if not np.isfinite(points).all():
        row = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise SolverAbort(f"{what} produced a non-finite iterate at k={k}, "
                          f"seed {seeds[row]}",
                          snapshot={"seed": seeds[row], "k": k, name: before[row]})


def run(spec: ProblemSpec, config: SolverConfig,
        context: Optional[PolyhedralContext] = None) -> list:
    """Execute the configured variant for the full iteration budget, for
    every seed of ``config.seeds`` at once; returns one ``RunResult`` per
    seed, in that order.

    The S seeds advance as the rows of one (S, n) array: each iteration
    takes one objective step and one call of ``parallel_feasibility_update``
    or ``sequential_feasibility_update`` for the whole block, with the lemma
    checker when ``assertions`` is ``lemma-checks``.  Each seed keeps its own
    ``SeedSequence``, hence its own initial point and ``Sampler``, whose
    minibatches are drawn ahead ``INDEX_BLOCK`` iterations at a time.  So a
    seed's index stream, initial point and arithmetic are reproducible and do
    not depend on the other seeds of the block.  Metrics in the emitted
    records are computed seed by seed on the weighted running average of the
    iterates: f_gap when the spec knows its optimum, and max_violation and
    dist_X through ``context`` alone, so a run without a context logs both
    empty.  ``elapsed_ns`` counts from the start of the block.  The first
    iteration at which any seed meets a non-finite iterate, a constraint
    oracle fault (reported with ``k``, the seed and its batch indices) or,
    in the parallel variant, a realized L_N,k above the declared L_N aborts
    the whole block with ``SolverAbort``.
    """
    config.validate(spec)
    if config.assertions == "lemma-checks" and context is None:
        raise ConfigError("lemma-checks mode requires a polyhedral context")
    seeds = tuple(config.seeds)
    checker = _LemmaChecker(context, spec, seeds) \
        if config.assertions == "lemma-checks" else None

    m = spec.constraints.size
    x = np.empty((len(seeds), spec.dimension))
    samplers = []
    for row, seed in enumerate(seeds):
        ss_init, ss_sampler = np.random.SeedSequence(seed).spawn(2)
        x[row] = _initial_point(spec, config, np.random.default_rng(ss_init))
        if m:
            samplers.append(Sampler(config.sampler_variant, m,
                                    seed=np.random.default_rng(ss_sampler)))

    policy = config.beta_policy
    beta_k = np.full(len(seeds), policy.initial_beta())
    no_ratio = np.full(len(seeds), np.nan)
    max_ln = no_ratio

    weighted_sum = np.zeros_like(x)
    weight_total = 0                   # exact integer sum of (j+1)^2, j=1..k
    records = [[] for _ in seeds]
    log_ks = _log_points(config.iterations, config.log_cadence)
    opt = spec.known_optimum
    t0 = time.perf_counter_ns()

    for k in range(1, config.iterations + 1):
        alpha = alpha_schedule(spec.mu, k - 1)
        v = objective_step(spec, x, alpha)
        _abort_if_nonfinite(v, "objective step", k, seeds, "x", x)

        ln_k = no_ratio
        if not samplers:
            x_next = v
        else:
            ahead = (k - 1) % INDEX_BLOCK
            if ahead == 0:
                count = min(INDEX_BLOCK, config.iterations - k + 1)
                drawn = np.empty((len(seeds), count, config.batch_size), dtype=np.int64)
                for row, sampler in enumerate(samplers):
                    for j in range(count):
                        drawn[row, j] = sampler.draw(config.batch_size)
            indices = drawn[:, ahead]
            try:
                if config.variant == "parallel":
                    x_next, ln_k, beta = parallel_feasibility_update(
                        spec, indices, v, policy, checker, k, seeds)
                    beta_k = np.where(np.isnan(beta), beta_k, beta)
                else:
                    x_next, _ = sequential_feasibility_update(
                        spec, indices, v, policy.initial_beta(), checker, k)
            except OracleFault as exc:
                seed = seeds[exc.row]
                raise SolverAbort(
                    f"constraint oracle fault at k={k}, seed {seed}: {exc}",
                    snapshot={"seed": seed, "k": k,
                              "indices": indices[exc.row]}) from exc

        _abort_if_nonfinite(x_next, "feasibility update", k, seeds, "v", v)

        x = x_next
        weight = (k + 1) * (k + 1)
        weight_total += weight
        weighted_sum += weight * x
        max_ln = np.fmax(max_ln, ln_k)

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
                                           x_hat[row])
                records[row].append(RunRecord(
                    seed=seed, k=k, f_gap=f_gap, max_violation=viol, dist_x=dist,
                    ln_k=None if np.isnan(ln_k[row]) else float(ln_k[row]),
                    beta_k=float(beta_k[row]),
                    elapsed_ns=time.perf_counter_ns() - t0))

    x_hat = weighted_sum / weight_total
    return [RunResult(seed=seed, iterations=config.iterations, records=records[row],
                      final_x=x[row], final_x_hat=x_hat[row],
                      max_ln_k=None if np.isnan(max_ln[row]) else float(max_ln[row]))
            for row, seed in enumerate(seeds)]
