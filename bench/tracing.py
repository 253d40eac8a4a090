"""Outside-in tracing of mbproj's layers for the benchmark's traced run.

The program is not instrumented.  For the duration of a traced run each
layer's public entry point (a module attribute, a class method or the
constraint family's ``batch`` field) is swapped for a wrapper that records a
span -- name, start, end, parent -- in memory; the originals are restored on
exit.  Inside the metric scopes (the distance oracle and the instance build)
simple-set projections are Dykstra sweeps: they are counted, not spanned.
"""

from __future__ import annotations

import dataclasses
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

DISTANCE = "geometry.distance_oracle"
BUILD = "problems.build"
OP = "op"


class TraceError(RuntimeError):
    """A boundary the workload must hit recorded no calls."""


class Tracer:
    """In-memory span store: parallel int64 columns, one row per span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self.scope = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.ends)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, scope: bool = False, count=None):
        """Traced stand-in for ``fn``; ``count(counts, args, result)`` records
        counters after the span closes."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            outer = self.scope
            if scope:
                self.scope = name
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self.scope = outer
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def wrap_project(self, fn):
        traced = self.wrap("oracle.project", fn)

        def project(simple_set, v):
            if self.scope is not None:
                self.counts[self.scope + ".sweeps"] += 1
                return fn(simple_set, v)
            return traced(simple_set, v)

        return project

    def columns(self) -> dict:
        return {key: np.frombuffer(col, dtype=np.int64).copy() for key, col in
                (("name", self.name_ids), ("parent", self.parents),
                 ("start", self.starts), ("end", self.ends))}


def _csv_bytes(counts, args, result):
    counts["harness.write_csv.bytes"] += os.path.getsize(args[0])


def _indices(counts, args, result):
    counts["sampling.indices"] += len(result)


def _evaluations(counts, args, result):
    gvals = np.asarray(result[0])
    counts["oracle.constraint_evals"] += gvals.size
    counts["oracle.active"] += int(np.count_nonzero(gvals > 0.0))


@contextmanager
def installed(tracer: Tracer, mods, instance):
    """Swap the layers' entry points for traced wrappers; restore on exit."""
    patches = (
        (mods.harness, "run", "solver.run", {}),
        (mods.harness, "build_problem", BUILD, {"scope": True}),
        (mods.harness, "write_csv", "harness.write_csv", {"count": _csv_bytes}),
        (mods.harness, "rate_check", "harness.rate_check", {}),
        (mods.solver, "objective_step", "solver.objective_step", {}),
        (mods.solver, "batch_diagnostics", "solver.batch_diagnostics", {}),
        (mods.solver, "sequential_feasibility_update",
         "solver.sequential_feasibility_update", {}),
        (mods.solver, "distance_oracle", DISTANCE, {"scope": True}),
        (mods.solver, "max_violation", "geometry.max_violation", {}),
        (mods.problems, "exact_ln_linear", "problems.exact_ln_linear", {}),
        (mods.problems, "lambda_max_power", "problems.lambda_max_power", {}),
        (mods.sampling.Sampler, "draw", "sampling.draw", {"count": _indices}),
    )
    spec = instance.spec
    simple_set_cls = mods.oracle.SimpleSet
    saved = [(simple_set_cls, "project", simple_set_cls.project)]
    try:
        simple_set_cls.project = tracer.wrap_project(simple_set_cls.project)
        for owner, attr, name, options in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, **options))
        family = spec.constraints
        traced_batch = tracer.wrap("oracle.batch", family.batch,
                                   count=_evaluations)
        instance.spec = dataclasses.replace(
            spec, constraints=dataclasses.replace(family, batch=traced_batch))
        yield
    finally:
        instance.spec = spec
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_table(tracer: Tracer) -> dict:
    """Per span name: (calls, inclusive ns, self ns).  Self time is a span's
    duration minus the durations of its child spans."""
    cols = tracer.columns()
    dur = (cols["end"] - cols["start"]).astype(np.float64)
    child = np.zeros_like(dur)
    nested = cols["parent"] >= 0
    np.add.at(child, cols["parent"][nested], dur[nested])
    k = len(tracer.names)
    calls = np.bincount(cols["name"], minlength=k)
    incl = np.bincount(cols["name"], weights=dur, minlength=k)
    own = np.bincount(cols["name"], weights=dur - child, minlength=k)
    return {name: (int(calls[i]), float(incl[i]), float(own[i]))
            for i, name in enumerate(tracer.names)}


UNITS = {
    "solver.run.self_s": "s",
    "solver.us_per_seed_iter": "us",
    "solver.objective_step.s": "s",
    "solver.objective_step.calls": "count",
    "solver.batch_diagnostics.share": "frac",
    "solver.sequential_feasibility_update.share": "frac",
    "solver.sequential_feasibility_update.calls": "count",
    "sampling.draw.s": "s",
    "sampling.draw.calls": "count",
    "sampling.indices": "count",
    "oracle.batch.s": "s",
    "oracle.constraint_evals": "count",
    "oracle.active_frac": "frac",
    "oracle.project.s": "s",
    "oracle.project.calls": "count",
    "geometry.distance_oracle.s": "s",
    "geometry.distance_oracle.calls": "count",
    "geometry.dykstra_sweeps": "count",
    "geometry.sweeps_per_call": "sweeps/call",
    "geometry.max_violation.s": "s",
    "problems.exact_ln_linear.share": "frac",
    "problems.lambda_max_power.share": "frac",
    "problems.lambda_max_power.calls": "count",
    "problems.build.s": "s",
    "harness.write_csv.s": "s",
    "harness.write_csv.bytes": "bytes",
    "harness.rate_check.share": "frac",
    "trace_overhead_frac": "frac",
}


def layer_metrics(table: dict, counts: Counter, iterations: int,
                  scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced operation (see bench/README.md);
    times are multiplied by ``scale``.

    Layers that only some workloads reach report a share of the operation's
    wall time instead of seconds, so that no time metric is identically 0.
    """
    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return table.get(name, (0, 0.0, 0.0))[1] / 1e9 * scale

    def share(name):
        return secs(name) / secs(OP)

    distance_calls = calls(DISTANCE)
    sweeps = counts[DISTANCE + ".sweeps"]
    evals = counts["oracle.constraint_evals"]
    return {
        "solver.run.self_s": table["solver.run"][2] / 1e9 * scale,
        "solver.us_per_seed_iter":
            secs("solver.run") * 1e6 / (calls("solver.run") * iterations),
        "solver.objective_step.s": secs("solver.objective_step"),
        "solver.objective_step.calls": calls("solver.objective_step"),
        "solver.batch_diagnostics.share": share("solver.batch_diagnostics"),
        "solver.sequential_feasibility_update.share":
            share("solver.sequential_feasibility_update"),
        "solver.sequential_feasibility_update.calls":
            calls("solver.sequential_feasibility_update"),
        "sampling.draw.s": secs("sampling.draw"),
        "sampling.draw.calls": calls("sampling.draw"),
        "sampling.indices": counts["sampling.indices"],
        "oracle.batch.s": secs("oracle.batch"),
        "oracle.constraint_evals": evals,
        "oracle.active_frac": counts["oracle.active"] / evals if evals else 0.0,
        "oracle.project.s": secs("oracle.project"),
        "oracle.project.calls": calls("oracle.project"),
        "geometry.distance_oracle.s": secs(DISTANCE),
        "geometry.distance_oracle.calls": distance_calls,
        "geometry.dykstra_sweeps": sweeps,
        "geometry.sweeps_per_call":
            sweeps / distance_calls if distance_calls else 0.0,
        "geometry.max_violation.s": secs("geometry.max_violation"),
        "problems.exact_ln_linear.share": share("problems.exact_ln_linear"),
        "problems.lambda_max_power.share": share("problems.lambda_max_power"),
        "problems.lambda_max_power.calls": calls("problems.lambda_max_power"),
        "harness.write_csv.s": secs("harness.write_csv"),
        "harness.write_csv.bytes": counts["harness.write_csv.bytes"],
        "harness.rate_check.share": share("harness.rate_check"),
    }


def check_required(table: dict, counts: Counter, required, workload: str) -> None:
    """Fail loudly when a boundary the workload must hit recorded no calls:
    a renamed or inlined function shows up here, not as a 0 s layer."""
    missing = [name for name in required if table.get(name, (0,))[0] == 0]
    if counts[DISTANCE + ".sweeps"] == 0:
        missing.append("geometry.dykstra_sweeps (SimpleSet.project in "
                       "the distance oracle)")
    if missing:
        raise TraceError(f"workload {workload}: no calls recorded at "
                         + ", ".join(missing))
