"""Minibatch projection subgradient solvers.

Two variants share one outer loop: a subgradient step on the objective
followed by a feasibility pass over a random minibatch of constraints.  The
parallel variant applies one relaxed projection (Polyak) step per sampled
constraint independently at the common point, averages the results and
projects onto the simple set; the sequential variant chains the steps,
re-evaluating each constraint at the current inner point and projecting after
every step.  Both track the quadratically weighted running average of the
iterates, on which all reported metrics are computed, a flush of log points
at a time (see ``run``).

One kernel, ``run``, advances a block of S independent rows at once: the
iterates are an (S, n) array with one row per (batch size N, seed) pair,
and every step below works on that row axis.  The parallel pass is one
vectorized step; the sequential pass is N chained steps per row, advanced
in rounds vectorized over the rows: a round calls the constraint oracle
once, on the ``WINDOW`` columns from the least advanced live row's next
column on, and steps each row at its own next violated column there.  A row's
arithmetic does not depend on the other rows of its block, nor a
constraint value on the width of the batch that asks it, so S = 1 and any
larger block give the same numbers for it.

A block may mix batch sizes, as a minibatch sweep does.  Its index array is
then (S, N_max): a row with a smaller N repeats its own last index.  A value
depends only on its index and point (``ConstraintFamily``), so a pad reads
as the column it repeats and cannot change whether its row is violated.
Work row by row or entry by entry runs once on the whole block; work that
reduces over a row's columns (the averaged step, the batch ratio, the lemma
checks) runs per group of rows of equal N on their real columns only, and a
sequential chain ends at its row's own N.  So each row gets the bits of a
block of its own N.  Pads cost oracle work in proportion to the block's
widest N, so ``run`` cuts the sizes into blocks whose padded columns stay
within ``PAD_FACTOR`` of their real ones, and runs them one after another.

The stepsize is priced once per block: ``initial_beta`` is the rule's one
float, ``run`` spreads it over the block's rows as an (S,) array, and both
passes scale a violated constraint's step by its row's entry in one
expression, beta * gplus / nsq.  Only the adaptive rule prices it again,
in the parallel pass, at each violated row's batch ratio L_N,k.  The
parallel pass is one averaged step under every rule.  L_N,k only prices
that step's stepsize, so the pass computes it beside the step, and only
where something reads it: the adaptive stepsize, the check of a declared
L_N and the lemma checks on every iteration, the ``LN_k`` column at log
points.  Whether it is computed changes no bit of the next points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (PolyhedronSpec, TOL_ASSERT, distance_oracle, max_violation,
                       project_intersection)
from .oracle import OracleError, ProblemSpec
from .sampling import Sampler

# relative slack on a declared L_N: with the exact bound, the realized ratio of
# a single-index batch still rounds to 1 + 4.4e-16
LN_RTOL = 1e-9

# each seed's minibatches are drawn for at most this many iterations at once
INDEX_BLOCK = 1024

# a block of mixed batch sizes asks at most this many oracle columns per
# column its sizes ask alone (see ``_size_blocks``)
PAD_FACTOR = 1.75

# a sequential round asks the oracle for at most this many columns per row
# (see ``sequential_feasibility_update``)
WINDOW = 32

# a flush of log points stacks R rows while R n (n + 1) floats, the size of
# the distance oracle's search gathers, stay within this budget (see ``run``):
# at 50x200, 12 rows of n = 50, a call's traced peak is about 0.29 MB
LOG_FLOATS = 32768


class ConfigError(ValueError):
    """Invalid solver configuration."""


class SolverAbort(RuntimeError):
    """Run aborted at a ``_RowFault``: a non-finite iterate, a constraint
    oracle fault, a failed per-iteration check, or a realized batch ratio
    L_N,k above the declared L_N.  Its one site names the row's ``k``,
    ``seed`` and ``batch_size``, in the message and then the snapshot."""

    def __init__(self, message: str, snapshot: Optional[dict] = None):
        super().__init__(message)
        self.snapshot = snapshot or {}


class _RowFault(Exception):
    """A failed step or check of the block's ``row``, reported by ``run``:
    ``head`` and ``tail`` are the text before and after the row's label,
    ``keys`` the snapshot's keys after the label's."""

    def __init__(self, row: int, head: str, tail: str, keys: dict):
        super().__init__(head + tail)
        self.row, self.head, self.tail, self.keys = row, head, tail, keys


class OracleFault(OracleError, _RowFault):
    """A feasibility pass or a lemma check met a non-finite value or
    direction, or a zero direction on a violated constraint, at the block's
    ``row``; its snapshot's keys are the row's batch ``indices``."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row, self.head, self.tail = row, "constraint oracle fault", f": {message}"


def alpha_schedule(mu: float, index: int) -> float:
    """Diminishing objective stepsize 4 / (mu * (index + 1)) for index >= 0."""
    return 4.0 / (mu * (index + 1))


# ---------------------------------------------------------------------------
# configuration


VARIANTS = ("parallel", "sequential")
BETA_POLICIES = ("fixed", "extrapolated", "adaptive")
INITS = ("zero", "gaussian")
ASSERTIONS = ("off", "lemma-checks")


def validate(config, spec: ProblemSpec, sizes=None) -> None:
    """The one check of the run settings ``config``, a ``RunConfig`` of the
    harness, at each batch size of ``sizes`` (by default
    ``config.batch_size``): ``run`` calls it before any work, and the
    sampler, both feasibility passes and the objective step rely on it
    without checking again.

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
    sizes = (config.batch_size,) if sizes is None else sizes
    if min(sizes) < 1:
        raise ConfigError("batch size must be >= 1")
    if config.init not in INITS:
        raise ConfigError(f"unknown init rule {config.init!r}")
    if config.assertions not in ASSERTIONS:
        raise ConfigError(f"unknown assertions mode {config.assertions!r}")
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
        upper = 2.0 / ln if ln is not None else 2.0
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
    for size in sizes:
        if config.sampler == "without-replacement" and size > m:
            raise ConfigError(f"cannot draw {size} distinct indices from {m}")


def initial_beta(config) -> float:
    """The feasibility stepsize of the run settings ``config`` before any
    batch, by its rule's one formula: the fixed ``beta``, the extrapolated
    (2 - ``delta``) / ``ln_hint``, or the adaptive 2 - ``delta``, which the
    parallel pass divides by each violated row's realized L_N,k.  It is
    every stepsize of a fixed or extrapolated run."""
    if config.beta_policy == "fixed":
        return config.beta
    if config.beta_policy == "extrapolated":
        return (2.0 - config.delta) / config.ln_hint
    return 2.0 - config.delta


# ---------------------------------------------------------------------------
# records


class RunRecord(NamedTuple):
    """One seed's metrics at one logged k: its fields, in order, are the
    columns of a run's CSV row, an unavailable metric None."""

    seed: int
    k: int
    f_gap: Optional[float]
    max_violation: Optional[float]
    dist_X: Optional[float]
    LN_k: Optional[float]
    beta_k: float


@dataclass
class RunResult:
    seed: int
    batch_size: int
    records: list
    final_x: np.ndarray
    final_x_hat: np.ndarray


# ---------------------------------------------------------------------------
# elementary steps, each on the row axis


class _Rows(NamedTuple):
    """The rows of a block: each row's seed and batch size N.  When the
    sizes differ, ``groups`` holds the (row slice, N) of each run of rows of
    equal N, over whose real columns ``_weighted_mean`` and
    ``batch_diagnostics`` reduce; with one size it is empty."""

    seeds: tuple
    sizes: tuple
    groups: tuple = ()


def _weighted_mean(weights: np.ndarray, dirs: np.ndarray, groups=()) -> np.ndarray:
    """Mean of each row's rows ``dirs`` (S, N, n) under ``weights`` (S, N),
    per group of ``_Rows.groups`` on its real columns when there are any."""
    if not groups:
        return np.matmul(weights[:, None, :], dirs)[:, 0] / weights.shape[1]
    mean = np.empty((len(dirs), 1, dirs.shape[2]))
    for rows, size in groups:
        part = np.matmul(weights[rows, None, :size], dirs[rows, :size], out=mean[rows])
        part /= size
    return mean[:, 0]


def batch_diagnostics(gplus: np.ndarray, dirs: np.ndarray, nsq: np.ndarray,
                      groups=()) -> np.ndarray:
    """Alignment ratio L_N,k of each row's minibatch, shape (S,), per group
    of ``_Rows.groups`` on its real columns when there are any.  L_N,k =
    |avg of gplus / nsq * rows|^2 / avg of gplus^2 / nsq is at most 1
    (mean-square inequality); it is NaN in a row whose real columns have
    no positive gplus, whose batch is feasible.  L_N,k is scale-invariant,
    so a violated row whose gplus^2 / nsq all underflow, giving 0/0, takes
    both terms from gplus divided by the row's largest entry; the other
    rows are divided by 1, which keeps their bits."""
    ln_k = np.empty(len(gplus))
    for part, size in groups or ((slice(None), gplus.shape[1]),):
        g, q = gplus[part, :size], nsq[part, :size]
        live = np.logical_or.reduce(g > 0.0, 1)
        den = np.add.reduce(g * g / q, 1) / size
        lost = live & (den == 0.0)
        if np.count_nonzero(lost):
            g = g / np.where(lost, g.max(axis=1), 1.0)[:, None]
            den = np.add.reduce(g * g / q, 1) / size
        mean_dir = _weighted_mean(g / q, dirs[part, :size])
        num = np.vecdot(mean_dir, mean_dir)
        ln_k[part] = np.where(live, num / np.where(live, den, 1.0), np.nan)
    return ln_k


def _checked_batch(spec: ProblemSpec, indices: np.ndarray, v: np.ndarray):
    """The family's values and rows at the points v, checked as returned,
    every one by one rule.  An ``OracleFault`` names the first row with a
    non-finite value or row entry, or with a violated constraint whose
    row's squared norm overflows, which would make its step
    beta * gplus / inf * row zero."""
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
        lost = np.isinf(np.einsum("...j,...j->...", dirs, dirs)) & (gvals > 0.0)
        if lost.any():
            raise OracleFault("the squared norm of a violated constraint's row "
                              "overflows: step undefined",
                              int(np.argmax(lost.any(axis=1))))
    return gvals, dirs


def _squared_norms(dirs: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Squared norms of the rows, shaped as the mask ``active`` of violated
    constraints: a parallel pass's (S, N) or a sequential round's (S,) pick.
    Only a zero row builds masks: on a violated constraint it is an
    ``OracleFault`` naming the first such row of the block, elsewhere it
    reads as 1."""
    # each (row, index) row reduced as a lone row would be; np.vecdot
    # rounds differently
    nsq = np.einsum("...j,...j->...", dirs, dirs)
    if np.count_nonzero(nsq) < nsq.size:
        zero = (nsq == 0.0) & active
        if zero.any():
            raise OracleFault("zero direction with positive violation: step undefined",
                              int(np.nonzero(zero)[0][0]))
        nsq = np.where(nsq > 0.0, nsq, 1.0)
    return nsq


def parallel_feasibility_update(spec: ProblemSpec, indices: np.ndarray,
                                v: np.ndarray, beta: np.ndarray, config, rows: _Rows,
                                checker: Optional["_LemmaChecker"] = None,
                                ratio: bool = True):
    """One parallel minibatch feasibility pass, row by row at its point.

    ``indices`` (S, N) holds one minibatch per row of ``v`` (S, n).  Each
    sampled constraint gets an independent relaxed projection step from
    its row's point; the results are averaged (fixed index order) and
    projected onto the simple set, in one step expression for every rule,
    each row's step scaled by its own entry of the (S,) stepsizes
    ``beta``.  A row whose batch is feasible keeps its point, and ``v``
    itself is returned when every row's is; where only some rows are
    feasible, their points are copied into the array that ``project``
    returned, in place, which is never ``v``.  The run settings ``config``
    are read by the names ``beta_policy``, ``delta`` and ``ln_hint``.
    Under the adaptive rule only, each violated row's stepsize is priced
    again, as ``initial_beta`` over its realized L_N,k, before its step; a
    feasible row keeps its entry.  An L_N,k above a declared ``ln_hint`` by
    more than a relative ``LN_RTOL`` raises a ``_RowFault`` before the
    step.  ``checker`` (None when checks are off) verifies the decrease
    inequalities; the groups of ``rows`` give a block of mixed batch sizes,
    whose pads are asked and checked as the columns they repeat (see the
    module docstring).

    L_N,k is computed, by one ``batch_diagnostics`` call, where ``ratio``
    asks for it and wherever the adaptive rule, a declared ``ln_hint`` or
    ``checker`` reads it; it changes no bit of the next points.  That call
    finds the feasible rows from ``gplus`` itself; the pass masks them only
    to keep their points, and only when some value is not positive.  Returns
    the next points, each row's L_N,k (NaN where the batch is feasible),
    or None for L_N,k where it was not computed, and the rows' stepsizes,
    ``beta`` itself unless the adaptive rule priced a row again.  An
    oracle fault raises ``OracleFault``.  Preconditions are ``validate``'s.
    """
    gvals, dirs = _checked_batch(spec, indices, v)
    active = gvals > 0.0
    hits = np.count_nonzero(active)
    ln, adaptive = config.ln_hint, config.beta_policy == "adaptive"
    ratio = ratio or adaptive or ln is not None or checker is not None
    if not hits:
        return v, np.full(len(v), np.nan) if ratio else None, beta
    partial = hits < active.size      # else every value is positive
    gplus = np.maximum(gvals, 0.0) if partial else gvals
    nsq = _squared_norms(dirs, active)
    ln_k = batch_diagnostics(gplus, dirs, nsq, rows.groups) if ratio else None
    if adaptive:
        beta = np.where(np.isnan(ln_k), beta, initial_beta(config) / ln_k)
    if ln is not None:
        over = ln_k > ln * (1.0 + LN_RTOL)
        if over.any():
            row = int(np.argmax(over))
            raise _RowFault(
                row, f"realized L_N,k {ln_k[row]:g} exceeds the declared L_N {ln:g}",
                f" (beta {beta[row]:g})",
                {"ln_k": float(ln_k[row]), "ln": ln, "beta": float(beta[row])})
    # a feasible row's step, zero, is merged away below
    coef = beta[:, None] * gplus / nsq
    x_next = spec.simple_set.project(v - _weighted_mean(coef, dirs, rows.groups))
    if partial:                       # project's array is fresh, never v
        np.copyto(x_next, v, where=~np.logical_or.reduce(active, 1)[:, None])
    if checker is not None:
        checker.parallel(indices, v, x_next, gplus, dirs, nsq, beta, ln_k)
    return x_next, ln_k, beta


def _columns_after(size: int) -> np.ndarray:
    """The (size + 1, size) table whose row s marks the columns at or after
    s; row ``size`` marks none.  ``run`` builds it once per block: (N + 1) N
    booleans, against the block's S * min(iterations, ``INDEX_BLOCK``) * N
    drawn int64 indices."""
    return np.arange(size) >= np.arange(size + 1)[:, None]


def sequential_feasibility_update(spec: ProblemSpec, indices: np.ndarray,
                                  v: np.ndarray, beta: np.ndarray, rows: _Rows,
                                  checker: Optional["_LemmaChecker"] = None,
                                  after: Optional[np.ndarray] = None) -> np.ndarray:
    """Chained relaxed projection steps, one per sampled constraint.

    ``indices`` (S, N) holds one minibatch per row of ``v`` (S, n).  Each
    row walks its own chain: its i-th step evaluates its i-th constraint at
    its current inner point and, if violated, steps by the parallel pass's
    expression at the row's own entry of the (S,) stepsizes ``beta`` and
    is projected onto the simple set.  A row's point moves only where it
    steps, so one oracle call asks for the columns ahead of it, and it
    steps at the first one it violates.  A round makes that call for all
    rows at once, on the ``WINDOW`` columns from the least advanced live
    row's next column on, and a row picks only among its columns there
    that are ahead of it, by one lookup in ``after``, the block's
    ``_columns_after`` table (built here when not given).  A live row that
    violates none of them moves on to the window's end; a row whose next
    column reaches its own N is done, so a pad never steps.  The pass ends
    when every row is done, or when no row steps in a window that reaches
    the block's width.  With N <= ``WINDOW`` a round asks every column
    ahead, and a pass takes at most one round more than its busiest row
    takes steps.  The family's values depend only on index and point
    (``ConstraintFamily``), so each row gets the bits of its
    column-by-column chain.  A row that does not step in a round keeps its
    point: where some other row steps, it is copied, in place, into the
    array that ``project`` returned for the round, which is never ``v``.
    Every value and row asked is checked as returned, so a column the row
    has passed, or would reach at a later point, can raise its fault here.
    ``checker`` (None when checks are off) checks each step and each row's
    whole chain.  Returns the final inner points; an oracle fault raises
    ``OracleFault``.  Preconditions are ``validate``'s.
    """
    count, size = indices.shape
    every, project = np.arange(count), spec.simple_set.project
    after = _columns_after(size) if after is None else after
    # each row's next column, and size once it is done; a few Python ints
    # cost less to advance than numpy calls on (S,) arrays
    start = [0] * count
    # skip the mask and the merge where they change nothing: ~3% per pass
    z, first, passed = v, 0, False
    while first < size:
        end = first + WINDOW
        gvals, dirs = _checked_batch(spec, indices[:, first:end], z)
        hit = gvals > 0.0
        if passed:                            # some row is past column ``first``
            hit &= after.take(start, axis=0)[:, first:end]
        j = hit.argmax(axis=1)                # 0 where a row violates none
        active = hit[every, j]
        stepped = np.count_nonzero(active)
        if stepped:
            d = dirs[every, j]
            nsq = _squared_norms(d, active)
            # 0 in a row that does not step, whose column j may be passed
            gplus = gvals[every, j] * active
            coef = beta * gplus / nsq
            z_next = project(z - coef[:, None] * d)
            if checker is not None:
                checker.chain_step(indices, first + j, z, z_next,
                                   gplus[:, None], nsq[:, None], beta)
            if stepped < count:               # project's array is fresh
                np.copyto(z_next, z, where=~active[:, None])
            z = z_next
        elif end >= size:
            break
        # a row goes on after its step, or else after the window, and is
        # done at its own N
        start = [column if (column := first + c + 1 if stepping else end) < own
                 else size
                 for c, stepping, own in zip(j.tolist(), active.tolist(), rows.sizes)]
        first = min(start)
        passed = max(start) > first
    if checker is not None:
        checker.chain_end(z)
    return z


def objective_step(spec: ProblemSpec, x_prev: np.ndarray, alpha: float) -> np.ndarray:
    """Projected subgradient step on the objective, row by row of the
    (S, n) points ``x_prev``.  A subgradient of any other shape than
    ``x_prev``'s raises ``OracleError``, naming both shapes, instead of
    broadcasting.

    Precondition, not checked here: alpha >= 0.  ``run`` passes
    ``alpha_schedule(mu, k - 1)`` = 4 / (mu * k), positive because
    ``ProblemSpec`` requires mu > 0."""
    s = np.asarray(spec.objective.subgradient(x_prev), dtype=np.float64)
    if s.shape != x_prev.shape:
        raise OracleError(f"objective subgradient returned shape {s.shape} "
                          f"for points {x_prev.shape}")
    return spec.simple_set.project(x_prev - alpha * s)


# ---------------------------------------------------------------------------
# per-iteration inequality checks


def _sq(d: np.ndarray) -> float:
    return float(d @ d)


def _check(name, row, slack, **extra):
    """A ``_RowFault`` of the block's ``row`` unless the ``slack`` rhs - lhs
    of inequality ``name`` is at least -TOL_ASSERT."""
    if slack < -TOL_ASSERT:
        raise _RowFault(row, f"iteration inequality '{name}' violated",
                        f" (slack {slack:.3e})", {"check": name, "slack": slack, **extra})


class _LemmaChecker:
    """Checks the decrease inequalities of both feasibility passes on a
    polyhedral problem, row by row of the block ``rows`` on each row's own
    N columns, and raises a ``_RowFault`` at the first that fails.

    A step on a violated constraint g, of value g+ and subgradient row d at
    v, goes to z = v - t d, t = beta g+ / |d|^2.  For any y, convexity gives
    d^T (v - y) >= g+ - g(y), so with e = max(0, g(y)):
      (1) |z - y|^2 <= |v - y|^2 - beta (2 - beta) g+^2 / |d|^2 + 2 t e.
    The parallel pass moves v by the mean u of its N steps (0 where g is
    satisfied), and |u|^2 = beta^2 L_N,k mean(g+^2 / |d|^2) by the
    definition of L_N,k (``batch_diagnostics``), so likewise
      (2) |v - u - y|^2 <= |v - y|^2 + 2 mean(t e)
                           - beta (2 - beta L_N,k) mean(g+^2 / |d|^2).
    P_Y is nonexpansive and fixes y in Y, so both hold after the projection
    onto Y, and (1) summed over a sequential pass's steps at one y gives
      (3) |z_N - y|^2 <= |v - y|^2 + sum of (2 t e - beta (2 - beta) g+^2 / |d|^2).
    At y in X each e is 0: these are the paper's single-step, minibatch and
    chain decreases at the step's own beta, |d|^2 and L_N,k, which it
    weakens to M_g^2 >= |d|^2 and L_N >= L_N,k.

    The parallel pass checks (1) at each violated column and (2) at y =
    P_X(v) of each violated row; the sequential pass checks (1) for each
    step from z at y = P_X(z), and (3) at its first step's y.  One
    ``project_intersection`` call projects all of a parallel pass's
    violated rows, or all of a sequential round's stepping rows, each
    warm-started from the row's last active set; a row that takes no step
    is not projected.  Only these projections read ``poly``: their
    certificate makes y feasible only to TOL_METRIC times its scale, so e
    is asked of the family at y (``_checked_batch``), not taken as 0, and
    y is then projected onto Y, which it leaves by rounding only.
    TOL_ASSERT covers the rounding of the squares.
    """

    def __init__(self, poly: PolyhedronSpec, spec: ProblemSpec, rows: _Rows):
        self.poly, self.spec, self.rows = poly, spec, rows
        # each row's last active set: its next projection starts from it
        self.active_sets = [[] for _ in rows.seeds]
        # each sequential row's (y, |v - y|^2, decrease of (3) so far)
        self.chains = {}

    def _nearest(self, rows, v):
        """y for the block's rows ``rows`` at their points v, one row each:
        P_Y of their certified P_X(v), from one ``project_intersection``."""
        return self.spec.simple_set.project(project_intersection(
            self.poly, self.spec.simple_set, v, [self.active_sets[row] for row in rows]))

    def _excess(self, rows, index, y):
        """e = max(0, g(y)) of the constraints ``index`` (R, N) at the points
        y (R, n) of the block's ``rows``; a fault names the block's row."""
        try:
            gvals, _ = _checked_batch(self.spec, index, y)
        except OracleFault as fault:
            fault.row = int(rows[fault.row])
            raise
        return np.maximum(gvals, 0.0)

    def parallel(self, indices, v, x, gplus, dirs, nsq, beta, ln_k):
        """(1) and (2) for each violated row of a parallel pass from v to x,
        computed for all of a group's violated rows at once, on their own
        N columns, and reported at the first row that fails, (1) first."""
        violated = np.flatnonzero(~np.isnan(ln_k))
        nearest = self._nearest(violated, v[violated])
        for part, size in self.rows.groups or ((slice(None), indices.shape[1]),):
            # the group's violated rows are a run of the sorted ``violated``
            lo, hi = np.searchsorted(violated, part.indices(len(ln_k))[:2])
            if lo == hi:
                continue
            rows, y = violated[lo:hi], nearest[lo:hi]
            b, g, q = beta[rows, None], gplus[rows, :size], nsq[rows, :size]
            t, start, gq = b * g / q, np.vecdot(v[rows] - y, v[rows] - y), g * g / q
            te2 = 2.0 * t * self._excess(rows, indices[rows, :size], y)
            z = v[rows, None] - t[:, :, None] * dirs[rows, :size] - y[:, None]
            slack = start[:, None] - b * (2.0 - b) * gq + te2 - np.vecdot(z, z)
            worst = np.argmin(np.where(g > 0.0, slack, np.inf), axis=1)
            single = slack[np.arange(len(rows)), worst]
            batch = start + (te2.sum(axis=1) - b[:, 0] * (2.0 - b[:, 0] * ln_k[rows])
                             * gq.sum(axis=1)) / size - np.vecdot(x[rows] - y, x[rows] - y)
            failed = (single < -TOL_ASSERT) | (batch < -TOL_ASSERT)
            if np.count_nonzero(failed):
                j = int(np.argmax(failed))
                _check("single-step-decrease", rows[j], single[j], index=int(worst[j]))
                _check("batch-decrease", rows[j], batch[j])

    def chain_step(self, indices, column, z, z_next, gplus, nsq, beta):
        """(1) for each row of a sequential round that steps from z to
        z_next at its ``column`` of ``indices``, and its term of (3)."""
        stepping = np.flatnonzero(gplus[:, 0])
        nearest = self._nearest(stepping, z[stepping])
        index = indices[stepping, column[stepping], None]
        firsts = np.array([self.chains[row][0] if row in self.chains else y
                           for row, y in zip(stepping, nearest)])
        excess = [self._excess(stepping, index, at)[:, 0] for at in (nearest, firsts)]
        for row, y, e, e_first in zip(stepping, nearest, *excess):
            b, g, q = beta[row], gplus[row, 0], nsq[row, 0]
            t, decrease = b * g / q, b * (2.0 - b) * g * g / q
            start = _sq(z[row] - y)
            _check("single-step-decrease", row, start - decrease + 2.0 * t * e
                   - _sq(z_next[row] - y), index=int(column[row]))
            first, start, total = self.chains.get(row, (y, start, 0.0))
            self.chains[row] = (first, start, total + decrease - 2.0 * t * e_first)

    def chain_end(self, z):
        """(3) for each row of the sequential pass that stepped, ending at z."""
        for row, (y, start, total) in self.chains.items():
            _check("chain-decrease", row, start - total - _sq(z[row] - y))
        self.chains = {}


# ---------------------------------------------------------------------------
# main loop


def _log_points(iterations: int, cadence) -> set:
    if cadence == "geometric":
        ks = {2 ** j for j in range(iterations.bit_length())}
    else:
        ks = set(range(int(cadence), iterations + 1, int(cadence)))
    return ks | {iterations}


def _abort_if_nonfinite(points: np.ndarray, what: str, name: str, before: np.ndarray):
    """A ``_RowFault`` of the first row of the (S, n) ``points`` with a
    non-finite entry; ``run`` asks only when their sum of squares is not."""
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise _RowFault(row, f"{what} produced a non-finite iterate", "",
                        {name: before[row]})


def run(spec: ProblemSpec, config,
        poly: Optional[PolyhedronSpec] = None, sizes=None) -> list:
    """Execute the configured variant for the full iteration budget, for
    every seed of ``config.seeds`` at every batch size of ``sizes`` (by
    default ``config.batch_size`` alone); returns one ``RunResult`` per
    (size, seed) row, size-major: each size in ``sizes`` order with its
    seeds in ``config.seeds`` order.  ``config``, the harness's
    ``RunConfig``, is read by name, once, after ``validate`` has checked it
    at every size.  The rows advance in the blocks of ``_size_blocks``, one
    block after another: one block for a single size, and for several only
    while padding every row to the block's widest N keeps its oracle work
    within ``PAD_FACTOR`` of the sizes' own.

    Each iteration takes one objective step and one feasibility pass for the
    (S, n) block, checked by the lemma checker under ``lemma-checks``.  Each
    row's ``beta_k`` starts at ``initial_beta``, priced once per block, and
    is then the stepsize the parallel pass returns, which only the adaptive
    rule changes, to ``initial_beta`` over the row's last violated batch's
    L_N,k.  ``run`` asks the parallel pass for L_N,k at log points only, for
    ``LN_k``; the pass computes it on every iteration where the stepsize
    rule, a declared ``ln_hint`` or the checker reads it, with the same next
    points.  Each row keeps its seed's own ``SeedSequence``, hence its own
    initial point and ``Sampler``, which draws the row's own N once per
    ``INDEX_BLOCK`` iterations, so its numbers depend neither on the other
    seeds nor on the other sizes: with several sizes, each row gets the bits
    of a run of its size alone (see the module docstring).  Records are
    computed row by row on the weighted running average: f_gap when the spec
    knows its optimum, max_violation and dist_X only when ``poly``, the rows
    of the spec's linear constraints, is given (X is their intersection
    with Y, which the lemma checks also project onto).  ``run`` reads no
    clock: a record holds results only.  A log point keeps x_hat, ``LN_k``
    and ``beta_k`` pending; a flush, at k = iterations or where one more
    point would take R n (n + 1), for the R stacked rows, past
    ``LOG_FLOATS``, evaluates them in k order by one call each of the
    objective's ``evaluate``, ``max_violation`` and ``distance_oracle``, and
    a row of a call gets the bits of a call of its point alone.  A stacked
    row's distance starts from its seed row's active set at the previous
    flush's last point, whose rows leave their new ones there, and the
    lemma checker keeps one set per row.  Away from degenerate ties a warm
    start gets the bits of a cold one; where the final active set is not
    unique, dist_X can differ in the last places from a cold recomputation
    (see ``geometry``).  The first non-finite iterate, constraint oracle
    fault (reported with its batch indices), failed check or realized
    L_N,k above a declared L_N is a ``_RowFault``, which aborts the whole
    call as the one ``SolverAbort``, naming k, the seed and N; a metric
    oracle's error surfaces at its flush, so such an abort before that
    flush is raised instead.
    """
    sizes = (config.batch_size,) if sizes is None else tuple(sizes)
    validate(config, spec, sizes)
    if config.assertions == "lemma-checks" and poly is None:
        raise ConfigError("lemma-checks mode requires the constraints' polyhedron")
    by_size = {}
    for block in _size_blocks(sizes):
        for result in _run_block(spec, config, poly, block):
            by_size.setdefault(result.batch_size, []).append(result)
    return [result for size in sizes for result in by_size[size]]


def _size_blocks(sizes) -> list:
    """The sizes, widest first, cut into the blocks that ``run`` advances
    one after another.  A block pads every row to its widest N, so a
    narrower size joins the block before it only while the block's padded
    columns stay within ``PAD_FACTOR`` times those of its sizes alone, at N
    per row under either variant.  Each seed adds one row at every size, so
    the seeds cancel."""
    blocks = []
    for size in sorted(sizes, reverse=True):
        block = blocks[-1] if blocks else None
        if block and (len(block) + 1) * block[0] <= PAD_FACTOR * (sum(block) + size):
            block.append(size)
        else:
            blocks.append([size])
    return blocks


def _run_block(spec: ProblemSpec, config, poly: Optional[PolyhedronSpec],
               sizes) -> list:
    """``run``'s loop for one block of sizes: every seed of ``config`` at
    every size of ``sizes``, size-major, as one (S, n) block."""
    seeds, width = tuple(config.seeds), max(sizes)
    rows = _Rows(seeds * len(sizes), tuple(size for size in sizes for _ in seeds))
    if min(sizes) < width:
        rows = rows._replace(
            groups=tuple((slice(g * len(seeds), (g + 1) * len(seeds)), size)
                         for g, size in enumerate(sizes)))
    checker = _LemmaChecker(poly, spec, rows) \
        if config.assertions == "lemma-checks" else None
    variant, iterations = config.variant, config.iterations
    after = _columns_after(width) if variant == "sequential" else None

    m, n = spec.constraints.size, spec.simple_set.dimension
    x = np.empty((len(rows.seeds), n))
    samplers = []
    for row, seed in enumerate(rows.seeds):
        ss_init, ss_sampler = np.random.SeedSequence(seed).spawn(2)
        raw = np.zeros(n) if config.init == "zero" else \
            np.random.default_rng(ss_init).standard_normal(n)
        x[row] = spec.simple_set.project(raw)
        samplers.append(Sampler(config.sampler, m, np.random.default_rng(ss_sampler)))
    # each row's minibatches of the next INDEX_BLOCK iterations, padded
    drawn = np.empty((len(x), min(INDEX_BLOCK, iterations), width), dtype=np.int64)

    beta_k = np.full(len(x), initial_beta(config))
    ln_k = np.full(len(x), np.nan)

    weighted_sum = np.zeros_like(x)
    active_sets = [[] for _ in x]
    weight_total = 0                   # exact integer sum of (j+1)^2, j=1..k
    records = [[] for _ in x]
    pending = []                       # log points not yet evaluated
    log_ks = _log_points(iterations, config.cadence)
    opt = spec.known_optimum

    for k in range(1, iterations + 1):
        slot = (k - 1) % INDEX_BLOCK
        if slot == 0:
            count = min(INDEX_BLOCK, iterations - k + 1)
            for row, (sampler, size) in enumerate(zip(samplers, rows.sizes)):
                drawn[row, :count, :size] = \
                    sampler.draw(size, count).reshape(count, size)
                # a row of a smaller N repeats its own last index as pads
                drawn[row, :count, size:] = drawn[row, :count, size - 1:size]
        indices = drawn[:, slot]
        try:
            v = objective_step(spec, x, alpha_schedule(spec.mu, k - 1))
            if not math.isfinite(np.vdot(v, v)):
                _abort_if_nonfinite(v, "objective step", "x", x)
            if variant == "parallel":
                x, ln_k, beta_k = parallel_feasibility_update(
                    spec, indices, v, beta_k, config, rows, checker, k in log_ks)
            else:
                x = sequential_feasibility_update(spec, indices, v, beta_k, rows,
                                                  checker, after)
            if not math.isfinite(np.vdot(x, x)):
                _abort_if_nonfinite(x, "feasibility update", "v", v)
        except _RowFault as fault:
            seed, size = rows.seeds[fault.row], rows.sizes[fault.row]
            keys = {"indices": indices[fault.row, :size]} \
                if isinstance(fault, OracleFault) else fault.keys
            raise SolverAbort(f"{fault.head} at k={k}, seed {seed}, N={size}{fault.tail}",
                              {"seed": seed, "batch_size": size, "k": k, **keys}) from fault

        weight = (k + 1) * (k + 1)
        weight_total += weight
        weighted_sum += weight * x

        if k in log_ks:
            x_hat = weighted_sum / weight_total
            pending.append((k, x_hat, ln_k.tolist(), beta_k.tolist()))
            if k == iterations or (len(pending) + 1) * len(x) * n * (n + 1) > LOG_FLOATS:
                stacked = np.concatenate([point[1] for point in pending])
                f_gaps = viols = dists = [None] * len(stacked)
                if opt is not None:
                    f_gaps = (spec.objective.evaluate(stacked) - opt.f_star).tolist()
                if poly is not None:
                    # each stacked row starts from its seed row's set at the
                    # previous flush's last point, whose rows leave theirs
                    starts = [list(start) for start in active_sets * len(pending)]
                    dists = distance_oracle(poly, spec.simple_set, stacked, starts).tolist()
                    active_sets = starts[-len(x):]
                    viols = max_violation(poly, stacked).tolist()
                # each zip stops at the end of ``records`` before it reads
                # ``metrics`` again, so it takes one point's rows
                metrics = zip(f_gaps, viols, dists)
                for k_at, _, lns, betas in pending:
                    for kept, seed, ln, beta, (f_gap, viol, dist) in zip(
                            records, rows.seeds, lns, betas, metrics):
                        kept.append(RunRecord(seed, k_at, f_gap, viol, dist,
                                              None if math.isnan(ln) else ln, beta))
                pending = []

    # x_hat is the last log point's, k = iterations
    return [RunResult(seed=seed, batch_size=size, records=records[row],
                      final_x=x[row], final_x_hat=x_hat[row])
            for row, (seed, size) in enumerate(zip(rows.seeds, rows.sizes))]
