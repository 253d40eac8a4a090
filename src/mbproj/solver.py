"""Minibatch projection subgradient solvers.

Two variants share one outer loop: a subgradient step on the objective
followed by a feasibility pass over a random minibatch of constraints.  The
parallel variant applies one relaxed projection (Polyak) step per sampled
constraint independently at the common point, averages the results and
projects onto the simple set; the sequential variant chains the steps,
re-evaluating each constraint at the current inner point and projecting after
every step.  Both track the quadratically weighted running average of the
iterates, on which all reported metrics are computed.
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


class ConfigError(ValueError):
    """Invalid solver configuration."""


class SolverAbort(RuntimeError):
    """Run aborted: a non-finite iterate, a constraint oracle fault, a failed
    per-iteration check, or a realized batch ratio L_N,k above the declared
    L_N."""

    def __init__(self, message: str, snapshot: Optional[dict] = None):
        super().__init__(message)
        self.snapshot = snapshot or {}


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

    @staticmethod
    def fixed(beta: float, ln: Optional[float] = None) -> "BetaPolicy":
        return BetaPolicy("fixed", beta=float(beta), ln=ln)

    @staticmethod
    def extrapolated(delta: float, ln: float) -> "BetaPolicy":
        return BetaPolicy("extrapolated", delta=float(delta), ln=float(ln))

    @staticmethod
    def adaptive(delta: float = 0.1) -> "BetaPolicy":
        return BetaPolicy("adaptive", delta=float(delta))

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

    def step_beta(self, ln_k: float) -> float:
        """Stepsize for a violated batch whose realized ratio is ``ln_k``."""
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
    seed: int = 0
    init: str = "zero"                # "zero" | "gaussian"
    init_scale: float = 1.0
    log_cadence: object = "geometric"  # "geometric" or positive int step
    assertions: str = "off"           # "off" | "lemma-checks"
    capture_iterates: bool = False

    def validate(self, spec: ProblemSpec) -> None:
        if self.variant not in ("parallel", "sequential"):
            raise ConfigError(f"unknown variant {self.variant!r}")
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
    """Benchmark-side data enabling distance metrics and inequality checks."""

    poly: PolyhedronSpec
    simple_set: object                 # the run's simple set Y
    feasible_point: np.ndarray         # known point of the full intersection
    dist_tol: float = TOL_METRIC


# ---------------------------------------------------------------------------
# state and records


@dataclass
class IterateState:
    """Mutable per-run state: current iterates plus streaming weighted sums."""

    k: int
    x: np.ndarray
    weighted_sum_x: np.ndarray
    S: int                              # exact integer sum of (j+1)^2, j=1..k

    def x_hat(self) -> np.ndarray:
        if self.S == 0:
            return self.x
        return self.weighted_sum_x / self.S


@dataclass
class BatchStepDiagnostics:
    ln_k: Optional[float]              # in (0, 1] when some constraint is violated
    v_n: float                         # spread of the weighted step directions, >= 0
    per_index_gplus: np.ndarray
    beta: Optional[float]              # stepsize taken; None when the batch is feasible


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
    iterates: Optional[list] = None
    state: Optional[IterateState] = None


# ---------------------------------------------------------------------------
# elementary steps


def batch_diagnostics(gplus: np.ndarray, dirs: np.ndarray, nsq: np.ndarray):
    """Alignment ratio and direction spread of one minibatch.

    The ratio |avg of weighted directions|^2 / avg of squared weighted
    violations is at most 1 (mean-square inequality) and is undefined when the
    whole batch is feasible.  The spread v_n equals the average squared
    deviation of the weighted directions from their mean.
    """
    n = gplus.size
    active = gplus > 0.0
    if not np.any(active):
        return None, 0.0
    weights = np.where(active, gplus / nsq, 0.0)
    mean_dir = (weights @ dirs) / n
    num = float(mean_dir @ mean_dir)
    den = float(np.sum(gplus * gplus / nsq)) / n
    ln_k = num / den
    v_n = den - num
    return ln_k, max(v_n, 0.0)


def parallel_feasibility_update(spec: ProblemSpec, indices: np.ndarray,
                                v: np.ndarray, policy: BetaPolicy,
                                checker: Optional["_LemmaChecker"] = None,
                                k: int = 0):
    """One parallel minibatch feasibility pass at the common point v.

    Each sampled constraint gets an independent relaxed projection step; the
    results are averaged (fixed index order) and projected onto the simple
    set.  The stepsize is ``policy.step_beta`` of the batch's realized ratio
    L_N,k.  A declared ``policy.ln`` that L_N,k exceeds by more than a
    relative ``LN_RTOL`` raises ``SolverAbort`` before the step, since
    beta < 2 / L_N no longer certifies it.  When the whole batch is feasible
    the iterate is returned unchanged.  ``checker`` (None when checks are off)
    verifies the step's decrease inequalities; ``k`` labels its reports.
    Returns the next iterate and the batch diagnostics; an oracle fault raises
    ``OracleError``.
    """
    indices = np.asarray(indices)
    if indices.size < 1:
        raise ConfigError("minibatch must contain at least one index")
    gvals, dirs = spec.constraints.batch(indices, v)
    gvals = np.asarray(gvals, dtype=np.float64)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    if not (np.all(np.isfinite(gvals)) and np.all(np.isfinite(dirs))):
        raise OracleError("constraint oracle returned a non-finite value")
    gplus = np.maximum(gvals, 0.0)
    nsq = np.einsum("ij,ij->i", dirs, dirs)
    if np.any((nsq == 0.0) & (gplus > 0.0)):
        raise OracleError("zero direction with positive violation: step undefined")
    nsq = np.where(nsq > 0, nsq, 1.0)
    ln_k, v_n = batch_diagnostics(gplus, dirs, nsq)
    if ln_k is None:
        return v, BatchStepDiagnostics(None, v_n, gplus, None)
    beta = policy.step_beta(ln_k)
    if policy.ln is not None and ln_k > policy.ln * (1.0 + LN_RTOL):
        raise SolverAbort(
            f"realized L_N,k {ln_k:g} exceeds the declared L_N {policy.ln:g} "
            f"at k={k} (beta {beta:g})",
            snapshot={"k": k, "ln_k": ln_k, "ln": policy.ln, "beta": beta})
    coeff = np.where(gplus > 0.0, beta * gplus / nsq, 0.0)
    x_next = spec.simple_set.project(v - (coeff @ dirs) / indices.size)
    if checker is not None:
        checker.single_steps(k, v, gplus, dirs, nsq, beta)
        checker.parallel_batch(k, v, x_next, gplus, beta, ln_k)
    return x_next, BatchStepDiagnostics(ln_k, v_n, gplus, beta)


def sequential_feasibility_update(spec: ProblemSpec, indices: np.ndarray,
                                  v: np.ndarray, beta: float,
                                  checker: Optional["_LemmaChecker"] = None,
                                  k: int = 0):
    """Chained relaxed projection steps, one per sampled constraint.

    Each constraint is evaluated at the current inner point; every step is
    followed by projection onto the simple set.  ``checker`` (None when checks
    are off) verifies every inner step and the chain's distance decreases;
    ``k`` labels its reports.  Returns the final inner point and the sequence
    of positive parts seen by the steps; an oracle fault raises
    ``OracleError``.
    """
    indices = np.asarray(indices)
    if indices.size < 1:
        raise ConfigError("minibatch must contain at least one index")
    if not 0.0 < beta < 2.0:
        raise ConfigError("sequential feasibility steps require beta in (0, 2)")
    batch, project = spec.constraints.batch, spec.simple_set.project
    z = v
    inner = [v] if checker is not None else None
    gplus_seq = np.zeros(indices.size)
    for i in range(indices.size):
        gvals, dirs = batch(indices[i:i + 1], z)
        g = float(gvals[0])
        dirs = np.asarray(dirs, dtype=np.float64)
        if not (math.isfinite(g) and np.all(np.isfinite(dirs))):
            raise OracleError("constraint oracle returned a non-finite value")
        if g > 0.0:
            # row-shaped norm so the arithmetic rounds exactly as in the
            # parallel pass (bit-identical variants at batch size 1)
            nsq = np.einsum("ij,ij->i", dirs, dirs)
            if nsq[0] == 0.0:
                raise OracleError(
                    "zero direction with positive violation: step undefined")
            gplus_seq[i] = g
            if checker is not None:
                checker.single_steps(k, z, gplus_seq[i:i + 1], dirs, nsq, beta)
            z = project(z - (beta * g / float(nsq[0])) * dirs[0])
        if inner is not None:
            inner.append(z)
    if checker is not None:
        checker.sequential_chain(k, inner, gplus_seq, beta)
    return z, gplus_seq


def objective_step(spec: ProblemSpec, x_prev: np.ndarray, alpha: float) -> np.ndarray:
    """Projected subgradient step on the objective."""
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    s = np.asarray(spec.objective.subgradient(x_prev), dtype=np.float64)
    return spec.simple_set.project(x_prev - alpha * s)


# ---------------------------------------------------------------------------
# per-iteration inequality checks


class _LemmaChecker:
    """Verifies the per-iteration decrease inequalities on a polyhedral
    benchmark, aborting with a snapshot on the first violation."""

    def __init__(self, context: PolyhedralContext, mg: float):
        self.ctx = context
        self.mg = mg
        self.ln_running_max = 0.0
        p = context.feasible_point
        if max_violation(context.poly, p) > TOL_METRIC or \
                not context.simple_set.contains(p, tol=TOL_METRIC):
            raise ConfigError("lemma-checks requires a feasible reference point")

    def _dist(self, v):
        return distance_oracle(self.ctx.poly, self.ctx.simple_set, v, self.ctx.dist_tol)

    def _fail(self, name, k, slack, extra=None):
        snap = {"check": name, "k": k, "slack": slack}
        snap.update(extra or {})
        raise SolverAbort(
            f"iteration inequality '{name}' violated at k={k} (slack {slack:.3e})",
            snapshot=snap)

    def single_steps(self, k, v, gplus, dirs, nsq, beta):
        """Per-constraint decrease toward the feasible reference point."""
        p = self.ctx.feasible_point
        vp = float(np.linalg.norm(v - p)) ** 2
        for i in range(gplus.size):
            if gplus[i] == 0.0:
                continue
            z_i = v - (beta * gplus[i] / nsq[i]) * dirs[i]
            lhs = float(np.linalg.norm(z_i - p)) ** 2
            rhs = vp - beta * (2.0 - beta) * gplus[i] ** 2 / nsq[i]
            if lhs - rhs > TOL_ASSERT:
                self._fail("single-step-decrease", k, rhs - lhs, {"index": i})

    def parallel_batch(self, k, v, x, gplus, beta, ln_k):
        if ln_k is not None:
            self.ln_running_max = max(self.ln_running_max, ln_k)
        ln = self.ln_running_max
        if ln == 0.0:
            return
        dv = self._dist(v) ** 2
        dx = self._dist(x) ** 2
        decrease = beta * (2.0 - beta * ln) / (gplus.size * self.mg ** 2) \
            * float(np.sum(gplus ** 2))
        if dx - (dv - decrease) > TOL_ASSERT:
            self._fail("batch-distance-decrease", k, (dv - decrease) - dx,
                       {"dist_v": dv, "dist_x": dx})

    def sequential_chain(self, k, inner_points, gplus_seq, beta):
        """Inner-step and summed distance decreases for the chained variant."""
        dists = [self._dist(z) for z in inner_points]
        factor = beta * (2.0 - beta) / self.mg ** 2
        for i in range(1, len(inner_points)):
            bound = dists[i - 1] ** 2 - factor * gplus_seq[i - 1] ** 2
            if dists[i] ** 2 - bound > TOL_ASSERT:
                self._fail("chain-step-distance-decrease", k,
                           bound - dists[i] ** 2, {"inner_step": i})
            if dists[i] - dists[i - 1] > TOL_ASSERT:
                self._fail("chain-monotone-distance", k,
                           dists[i - 1] - dists[i], {"inner_step": i})
        total = dists[0] ** 2 - factor * float(np.sum(gplus_seq ** 2))
        if dists[-1] ** 2 - total > TOL_ASSERT:
            self._fail("chain-summed-distance-decrease", k, total - dists[-1] ** 2)


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


def run(spec: ProblemSpec, config: SolverConfig,
        context: Optional[PolyhedralContext] = None) -> RunResult:
    """Execute the configured variant for the full iteration budget.

    Deterministic given the seed: the index stream, the initial point and all
    arithmetic are reproducible.  Each iteration takes an objective step and
    then one call of ``parallel_feasibility_update`` or
    ``sequential_feasibility_update``, with the lemma checker when
    ``assertions`` is ``lemma-checks``.  Metrics in the emitted records are
    computed on the weighted running average of the iterates.  A non-finite
    iterate, a constraint oracle fault (reported with ``k`` and the batch
    indices) and, in the parallel variant, a realized L_N,k above the declared
    L_N abort the run with ``SolverAbort``.
    """
    config.validate(spec)
    if config.assertions == "lemma-checks" and context is None:
        raise ConfigError("lemma-checks mode requires a polyhedral context")
    checker = _LemmaChecker(context, spec.M_g) \
        if config.assertions == "lemma-checks" else None

    root = np.random.SeedSequence(config.seed)
    ss_init, ss_sampler = root.spawn(2)
    x = _initial_point(spec, config, np.random.default_rng(ss_init))
    m = spec.constraints.size
    sampler = Sampler(config.sampler_variant, m,
                      seed=np.random.default_rng(ss_sampler)) if m else None

    fam = spec.constraints
    policy = config.beta_policy
    beta_k = policy.initial_beta()

    state = IterateState(k=0, x=x, weighted_sum_x=np.zeros(spec.dimension), S=0)
    records = []
    iterates = [] if config.capture_iterates else None
    log_ks = _log_points(config.iterations, config.log_cadence)
    opt = spec.known_optimum
    t0 = time.perf_counter_ns()
    max_ln = None

    for k in range(1, config.iterations + 1):
        alpha = alpha_schedule(spec.mu, k - 1)
        v = objective_step(spec, state.x, alpha)
        if not np.all(np.isfinite(v)):
            raise SolverAbort(f"objective step produced a non-finite iterate at k={k}",
                              snapshot={"k": k, "x": state.x})

        ln_k = None
        if sampler is None:
            x_next = v
        else:
            indices = sampler.draw(config.batch_size)
            try:
                if config.variant == "parallel":
                    x_next, diag = parallel_feasibility_update(
                        spec, indices, v, policy, checker, k)
                    ln_k = diag.ln_k
                    if diag.beta is not None:
                        beta_k = diag.beta
                else:
                    x_next, _ = sequential_feasibility_update(
                        spec, indices, v, beta_k, checker, k)
            except OracleError as exc:
                raise SolverAbort(f"constraint oracle fault at k={k}: {exc}",
                                  snapshot={"k": k, "indices": indices}) from exc

        if not np.all(np.isfinite(x_next)):
            raise SolverAbort(
                f"feasibility update produced a non-finite iterate at k={k}",
                snapshot={"k": k, "v": v})

        state.k, state.x = k, x_next
        weight = (k + 1) * (k + 1)
        state.S += weight
        state.weighted_sum_x += weight * x_next
        if ln_k is not None:
            max_ln = ln_k if max_ln is None else max(max_ln, ln_k)
        if iterates is not None:
            iterates.append(x_next.copy())

        if k in log_ks:
            x_hat = state.x_hat()
            f_gap = None
            if opt is not None:
                f_gap = float(spec.objective.evaluate(x_hat)) - opt.f_star
            viol = dist = None
            if context is not None:
                viol = max_violation(context.poly, x_hat)
                dist = distance_oracle(context.poly, context.simple_set,
                                       x_hat, context.dist_tol)
            elif fam.size:
                gvals, _ = fam.batch(np.arange(fam.size), x_hat)
                viol = max(float(np.max(gvals)), 0.0)
            records.append(RunRecord(seed=config.seed, k=k, f_gap=f_gap,
                                     max_violation=viol, dist_x=dist, ln_k=ln_k,
                                     beta_k=beta_k,
                                     elapsed_ns=time.perf_counter_ns() - t0))

    return RunResult(seed=config.seed, iterations=config.iterations,
                     records=records, final_x=state.x, final_x_hat=state.x_hat(),
                     max_ln_k=max_ln, iterates=iterates, state=state)


# ---------------------------------------------------------------------------
# rate constants


def analysis_constants(ln: float, c: float, mg: float, beta: float,
                       batch_size: int, variant: str):
    """Per-iteration contraction factor q and complexity gain factor b.

    Parallel: q = beta * (2 - beta * L_N) / (c * M_g^2) with gain
    (1 - q)^{-1} - 1; requires c * M_g^2 * L_N > 1.  Sequential:
    q = beta * (2 - beta) / (c * M_g^2) with gain (1 - q)^{-N} - 1; requires
    c * M_g^2 > 1.  Outside these regimes the rate theory gives no guarantee
    and a configuration error is raised instead of a silent adjustment.
    """
    if c <= 0 or mg <= 0:
        raise ConfigError("c and M_g must be positive")
    if variant == "parallel":
        if not 0 < ln <= 1:
            raise ConfigError("L_N must lie in (0, 1]")
        if c * mg ** 2 * ln <= 1.0:
            raise ConfigError(
                f"c * M_g^2 * L_N = {c * mg ** 2 * ln:.6g} <= 1: the rate theory "
                "does not cover this regime (increase the constants)")
        if not 0.0 < beta < 2.0 / ln:
            raise ConfigError(f"parallel beta must lie in (0, {2.0 / ln:g})")
        q = beta * (2.0 - beta * ln) / (c * mg ** 2)
        return q, 1.0 / (1.0 - q) - 1.0
    if variant == "sequential":
        if c * mg ** 2 <= 1.0:
            raise ConfigError(
                f"c * M_g^2 = {c * mg ** 2:.6g} <= 1: the rate theory does not "
                "cover this regime")
        if not 0.0 < beta < 2.0:
            raise ConfigError("sequential beta must lie in (0, 2)")
        if batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        q = beta * (2.0 - beta) / (c * mg ** 2)
        return q, (1.0 - q) ** (-batch_size) - 1.0
    raise ConfigError(f"unknown variant {variant!r}")
