"""Benchmark workloads: the configuration the CLI would pass, one closed-loop
operation per workload, and the checks that its outputs are correct.

The ``--seed`` of a run selects the block of solver seeds an operation runs;
the problem instance of each workload is fixed (``problem_seed`` 0) so that
every operation of every run does the same amount of work.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

SLOPE_BAND = (-1.5, -0.5)      # accepted log-log slope of a rate-check fit
LN_REL_TOL = 1e-8              # predicted_b against the eigvalsh enumeration


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                      # RunConfig fields other than seeds/out_dir
    seeds_per_op: int
    f_gap_tol: float                  # per-seed |f_gap| at the last k; about
    dist_tol: float                   # 3x the largest seen over seeds 0..10
    rate_window: Optional[tuple] = None   # rate-check after the solve
    n_list: tuple = ()                # non-empty: a minibatch sweep
    c_hat: Optional[float] = None
    required_spans: tuple = ()        # boundaries the traced run must hit

    @property
    def is_sweep(self) -> bool:
        return bool(self.n_list)

    def seeds(self, seed: int) -> tuple:
        first = 1 + seed * self.seeds_per_op
        return tuple(range(first, first + self.seeds_per_op))

    def run_config(self, harness, seed: int, out_dir: str):
        return harness.RunConfig(seeds=self.seeds(seed), out_dir=out_dir,
                                 **self.config)

    def operations(self) -> int:
        """Seed runs plus the rate-check or sweep command of one operation."""
        seed_runs = self.seeds_per_op * max(len(self.n_list), 1)
        return seed_runs + int(self.rate_window is not None or self.is_sweep)


COMMON_SPANS = ("solver.run", "solver.objective_step", "sampling.draw",
                "oracle.batch", "oracle.project", "geometry.distance_oracle",
                "geometry.max_violation", "harness.write_csv")
PARALLEL_SPANS = COMMON_SPANS + ("solver.batch_diagnostics",)

SMOKE = dict(builtin="orthant2", variant="parallel", batch_size=2,
             beta_policy="fixed", beta=1.0, iterations=10 ** 4,
             init="gaussian", cadence="geometric")
DENSE = dict(builtin="benchmark", n=50, m=200, problem_seed=0,
             variant="sequential", batch_size=8, beta_policy="fixed", beta=1.0,
             iterations=4000, cadence=50)
SWEEP = dict(builtin="benchmark", n=10, m=20, problem_seed=0,
             variant="parallel", beta_policy="fixed", beta=1.0, iterations=1000)

WORKLOADS = {w.name: w for w in (
    Workload("smoke-orthant", SMOKE, seeds_per_op=2, f_gap_tol=5e-3,
             dist_tol=5e-3, rate_window=(100, 10 ** 4),
             required_spans=PARALLEL_SPANS + ("harness.rate_check",)),
    Workload("metric-dense", DENSE, seeds_per_op=3, f_gap_tol=0.2,
             dist_tol=0.2, required_spans=COMMON_SPANS
             + ("solver.sequential_feasibility_update",)),
    Workload("sweep-ln", SWEEP, seeds_per_op=6, f_gap_tol=0.6, dist_tol=0.6,
             n_list=(1, 2, 4), c_hat=5.0, required_spans=PARALLEL_SPANS
             + ("problems.exact_ln_linear", "problems.lambda_max_power")),
)}

# The same pipelines at sizes that run in about a second (self-check mode).
TINY = {
    "smoke-orthant": replace(
        WORKLOADS["smoke-orthant"], seeds_per_op=2, rate_window=(10, 1000),
        config=dict(SMOKE, iterations=1000), f_gap_tol=0.1, dist_tol=0.1),
    "metric-dense": replace(
        WORKLOADS["metric-dense"], seeds_per_op=2,
        config=dict(DENSE, n=10, m=30, batch_size=4, iterations=300),
        f_gap_tol=5.0, dist_tol=5.0),
    "sweep-ln": replace(
        WORKLOADS["sweep-ln"], seeds_per_op=3, n_list=(1, 2),
        config=dict(SWEEP, n=6, m=8, iterations=200), f_gap_tol=5.0,
        dist_tol=5.0),
}


# ---------------------------------------------------------------------------
# independent reference values


def exact_ln_eigvalsh(A: np.ndarray, size: int) -> float:
    """max over all size-subsets J of lambda_max(A_J A_J^T) / |J|, computed by
    batched ``np.linalg.eigvalsh`` over the stacked Gram matrices."""
    subsets = np.array(list(itertools.combinations(range(A.shape[0]), size)))
    rows = A[subsets]                                # (C, size, n)
    grams = rows @ rows.transpose(0, 2, 1)
    return min(float(np.linalg.eigvalsh(grams)[:, -1].max()) / size, 1.0)


def expected_sweep(wl: Workload, instance) -> list:
    """(batch size, predicted_b, outside_theory) per N, from the instance's
    rows only, by the parallel-variant formulas of the paper."""
    beta = wl.config["beta"]
    mg = instance.spec.M_g
    out = []
    for size in wl.n_list:
        ln = exact_ln_eigvalsh(instance.poly.A, size)
        if wl.c_hat * mg ** 2 * ln > 1.0 and 0.0 < beta < 2.0 / ln:
            q = beta * (2.0 - beta * ln) / (wl.c_hat * mg ** 2)
            out.append((size, 1.0 / (1.0 - q) - 1.0, False))
        else:
            out.append((size, None, True))
    return out


# ---------------------------------------------------------------------------
# one operation


@dataclass
class OpResult:
    start: float                      # perf_counter around the timed calls
    end: float
    attempted: int
    failed: int = 0
    digest: Optional[str] = None
    final_f_gap: Optional[float] = None
    final_dist_X: Optional[float] = None
    problems: list = field(default_factory=list)


def run_op(wl: Workload, harness, cfg, instance, expected=None,
           around=nullcontext) -> OpResult:
    """Run the workload's commands once, timed, then check their outputs.

    ``around()`` is entered around the timed commands only.  Any exception
    counts every operation of the call as failed.
    """
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        with around():
            rows = fits = None
            if wl.is_sweep:
                _, rows = harness.minibatch_sweep(
                    cfg, list(wl.n_list), c_hat=wl.c_hat, instance=instance)
            else:
                harness.solve_experiment(cfg, instance=instance)
                if wl.rate_window:
                    fits = harness.rate_check(cfg.out_dir, *wl.rate_window)
    except Exception:  # one failed operation must not end the run
        return OpResult(start, time.perf_counter(), wl.operations(),
                        failed=wl.operations(),
                        problems=[traceback.format_exc()])
    result = OpResult(start, time.perf_counter(), wl.operations())
    _check_seed_csvs(wl, cfg, result)
    if fits is not None:
        _check_fits(fits, result)
    if rows is not None:
        _check_sweep(rows, expected, result)
    return result


def _run_dirs(wl: Workload, cfg) -> list:
    if wl.is_sweep:
        return [os.path.join(cfg.out_dir, f"N{size}") for size in wl.n_list]
    return [cfg.out_dir]


def _data_lines(path: str) -> list:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[1:]                                   # drop the column header


def _check_seed_csvs(wl: Workload, cfg, result: OpResult) -> None:
    """Every per-seed CSV exists, is finite, ends at the last iteration and
    is within tolerance of the known optimum; digest all data rows."""
    digest = hashlib.sha256()
    f_gaps, dists = [], []
    for run_dir in _run_dirs(wl, cfg):
        for name in sorted(os.listdir(run_dir)) if os.path.isdir(run_dir) else []:
            digest.update(f"{os.path.basename(run_dir)}/{name}\n".encode())
            digest.update("\n".join(_data_lines(
                os.path.join(run_dir, name))).encode())
        for seed in cfg.seeds:
            path = os.path.join(run_dir, f"run_seed{seed}.csv")
            problem = _check_one_csv(path, cfg.iterations, wl, f_gaps, dists)
            if problem:
                result.failed += 1
                result.problems.append(f"{path}: {problem}")
    result.digest = digest.hexdigest()
    if f_gaps:
        result.final_f_gap = float(np.mean(f_gaps))
        result.final_dist_X = float(np.mean(dists))


def _check_one_csv(path, iterations, wl, f_gaps, dists) -> Optional[str]:
    if not os.path.isfile(path):
        return "missing"
    rows = [line.split(",") for line in _data_lines(path)]
    if not rows:
        return "no data rows"
    try:
        # seed,k,f_gap,max_violation,dist_X,LN_k,beta_k,elapsed_ns
        table = np.array([[float(c) if c else math.nan for c in r[1:7]]
                          for r in rows])
    except ValueError as exc:
        return f"unparsable cell ({exc})"
    if table.shape[1] != 6:
        return "wrong column count"
    required = table[:, [0, 1, 2, 3, 5]]               # LN_k may be empty
    if not np.all(np.isfinite(required)):
        return "non-finite or missing value"
    if not np.all(np.isfinite(table[:, 4]) | np.isnan(table[:, 4])):
        return "non-finite LN_k"
    k_last, f_gap, dist = table[-1, 0], abs(table[-1, 1]), table[-1, 3]
    if k_last != iterations:
        return f"last k is {k_last:g}, expected {iterations}"
    if f_gap > wl.f_gap_tol or dist > wl.dist_tol:
        return (f"final |f_gap| {f_gap:.3e} / dist_X {dist:.3e} outside "
                f"tolerance {wl.f_gap_tol:g} / {wl.dist_tol:g}")
    f_gaps.append(f_gap)
    dists.append(dist)
    return None


def _check_fits(fits, result: OpResult) -> None:
    by_metric = {f.metric: f for f in fits}
    lo, hi = SLOPE_BAND
    for metric in ("abs_f_gap", "dist_X"):
        fit = by_metric.get(metric)
        if fit is None:
            problem = "missing"
        elif not (np.isfinite(fit.slope) and np.isfinite(fit.ci_half_width)):
            problem = "non-finite slope"
        elif not lo <= fit.slope <= hi:
            problem = f"slope {fit.slope:.3f} outside [{lo}, {hi}]"
        else:
            continue
        result.failed += 1
        result.problems.append(f"rate-check {metric}: {problem}")
        return


def _check_sweep(rows, expected, result: OpResult) -> None:
    """Rows match the batch sizes; predicted_b agrees with the eigvalsh L_N."""
    problems = []
    if [r.batch_size for r in rows] != [e[0] for e in expected]:
        problems.append("batch sizes differ from the request")
    base = None
    for row, (size, b, outside) in zip(rows, expected):
        if not (np.isfinite(row.final_dist_mean)
                and row.ci_lo <= row.final_dist_mean <= row.ci_hi):
            problems.append(f"N={size}: mean outside its CI or non-finite")
        if row.outside_theory != outside:
            problems.append(f"N={size}: outside_theory={row.outside_theory}")
        if b is None:
            if row.predicted_b is not None:
                problems.append(f"N={size}: unexpected prediction")
            continue
        if row.predicted_b is None or \
                abs(row.predicted_b - b) > LN_REL_TOL * max(1.0, abs(b)):
            problems.append(f"N={size}: predicted_b {row.predicted_b} != {b}")
            continue
        base = base or 1.0 / math.sqrt(b)
        if abs(row.predicted_ratio - 1.0 / math.sqrt(b) / base) > LN_REL_TOL:
            problems.append(f"N={size}: predicted_ratio {row.predicted_ratio}")
    if problems:
        result.failed += 1
        result.problems.extend(f"sweep {p}" for p in problems)
