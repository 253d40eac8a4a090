#!/usr/bin/env python3
"""Benchmark of the mbproj experiment harness, end to end and layer by layer.

    python3 bench/run_bench.py --workload smoke-orthant --seed 0 --seconds 35 --trace 0
    python3 bench/run_bench.py --self-check

Run from the repository root; mbproj is imported from ``src/``.  A closed
loop with one client in one process and one thread (BLAS pinned to one
thread) repeats the workload's operation until ``--seconds`` have passed.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced half of the
run.  Results, machine info and the traced spans go to ``bench/out/``.
See bench/README.md.
"""

import os

# BLAS reads these when numpy loads, so they are set before any import of it.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracing import (OP, TraceError, Tracer, UNITS as LAYER_UNITS,  # noqa: E402
                     check_required, installed, layer_metrics, span_table)
from workloads import TINY, WORKLOADS, expected_sweep, run_op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "final_f_gap": "1", "final_dist_X": "1"}
SETUP_REPS = 7
BUILD_REPS = 3
MODULES = ("harness", "solver", "problems", "sampling", "oracle", "geometry")
# Times are reported in reference seconds (see SpeedProbe and README.md).
SLICE_STEPS = 100              # one probe slice, about 1 ms
SLICE_REF_S = 0.001            # a slice's time on the reference machine
SLICE_EVERY_S = 0.05


class SourceMissing(RuntimeError):
    """The checkout has no mbproj sources to benchmark."""


def load_mbproj() -> SimpleNamespace:
    """Import mbproj afresh from src/, so each set-up pays the import."""
    if not (SRC / "mbproj" / "__init__.py").is_file():
        raise SourceMissing(f"no mbproj package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "mbproj"]:
        del sys.modules[name]
    package = importlib.import_module("mbproj")
    if Path(package.__file__).resolve().parent != SRC / "mbproj":
        raise SourceMissing(f"mbproj imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("mbproj." + m)
                              for m in MODULES})


def probe_slice() -> float:
    """Time a fixed loop of small numpy calls that does not touch mbproj."""
    t0 = time.perf_counter()
    a = np.linspace(-1.0, 1.0, 40).reshape(4, 10)
    x = np.zeros(10)
    acc = 0.0
    for _ in range(SLICE_STEPS):
        y = a @ x + 1.0
        x = np.clip(x - 0.001 * y[0] * a[1], -1.0, 1.0)
        acc += float(np.linalg.norm(x))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while the benchmark runs.

    The cores are shared, and the speed of identical work drifts by tens of
    percent within seconds.  While active, a SIGALRM timer runs a probe slice
    every SLICE_EVERY_S, in the middle of the timed calls.
    ``measure(start, end)`` returns the time of that interval net of the
    slices run inside it, and the scale SLICE_REF_S over the mean time of
    those slices and of one more run at once; measured time times scale is
    reference seconds.
    """

    def __enter__(self):
        probe_slice()                               # the first call runs slow
        self.slices = []
        self.scales = []
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)

    def _tick(self, signum, frame):
        self.slices.append((time.perf_counter(), probe_slice()))

    def measure(self, start: float, end: float):
        inside = [d for t, d in self.slices if start <= t < end]
        self.slices.clear()
        scale = SLICE_REF_S / statistics.fmean(inside + [probe_slice()])
        self.scales.append(scale)
        return end - start - sum(inside), scale


def set_up(wl, seed, out_dir, reps, speed):
    """Import mbproj and build the instance and its context, ``reps`` times;
    the last round's modules and instance are the ones benchmarked.
    Returns (measured, scale) per round."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        mods = load_mbproj()
        cfg = wl.run_config(mods.harness, seed, str(out_dir))
        instance = mods.harness.build_problem(cfg)
        instance.context()
        times.append(speed.measure(start, time.perf_counter()))
    return times, mods, cfg, instance


def closed_loop(op, seconds, speed, warmup=True):
    """Run ``op`` back to back until ``seconds`` have passed (at least two
    timed calls).  Returns the warm-up and the timed (result, measured,
    scale) triples."""
    def one():
        result = op()
        return (result, *speed.measure(result.start, result.end))

    deadline = time.perf_counter() + seconds
    warm = [one()] if warmup else []
    timed = []
    while len(timed) < 2 or time.perf_counter() < deadline:
        timed.append(one())
    return warm, timed


def reference_s(timed) -> list:
    return [measured * scale for _, measured, scale in timed]


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


def measure(wl, seed, seconds, trace, setup_reps=SETUP_REPS, reference=None):
    """One benchmark run; returns (result line dict, full record dict)."""
    out_dir = OUT / "work" / f"{wl.name}-seed{seed}"
    with SpeedProbe() as speed:
        setup, mods, cfg, instance = set_up(wl, seed, out_dir, setup_reps,
                                            speed)
        expected = expected_sweep(wl, instance) if wl.is_sweep else None

        def op(around=nullcontext):
            return run_op(wl, mods.harness, cfg, instance, expected, around)

        record = {"workload": wl.name, "seed": seed, "trace": trace,
                  "seconds": seconds, "machine": machine_info(),
                  "setup_measured_s": [t for t, _ in setup],
                  "setup_reference_s": [t * k for t, k in setup]}
        if not trace:
            warm, timed = closed_loop(op, seconds, speed)
            last = timed[-1][0]
            metrics = {"wall_s": statistics.median(reference_s(timed)),
                       "setup_s": statistics.median(t * k for t, k in setup),
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "final_f_gap": last.final_f_gap,
                       "final_dist_X": last.final_dist_X}
            units = END_TO_END_UNITS
            runs = warm + timed
        else:
            warm, timed = closed_loop(op, seconds / 2, speed)
            metrics, traced = trace_layers(wl, mods, cfg, instance, op,
                                           seconds / 2, speed, record)
            metrics["trace_overhead_frac"] = (
                statistics.median(reference_s(traced))
                / statistics.median(reference_s(timed)) - 1.0)
            units = LAYER_UNITS
            runs = warm + timed + traced
        record["speed_scales"] = speed.scales

    results = [r for r, _, _ in runs]
    digest = results[0].digest
    for r in results:
        if r.digest != digest and not r.failed:
            r.failed = r.attempted
            r.problems.append("output differs from the run's first operation")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    record.update(
        wall_measured_s=[t for _, t, _ in timed],
        wall_reference_s=reference_s(timed), digest=digest,
        reference=compare_reference(wl, seed, digest, reference),
        problems=sorted({p for r in results for p in r.problems}))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}
    return line, record


def trace_layers(wl, mods, cfg, instance, op, seconds, speed, record):
    """The traced half of a ``--trace 1`` run: per-layer metrics (low
    medians over the traced operations, so counts stay whole) and the traced
    (result, measured, scale) triples."""
    tracer = Tracer()
    tables, builds = [], []
    with installed(tracer, mods, instance):
        for _ in range(BUILD_REPS):
            start = time.perf_counter()
            mods.harness.build_problem(cfg).context()
            measured, scale = speed.measure(start, time.perf_counter())
            builds.append(measured * scale)

        def traced_op():
            tracer.reset()
            result = op(lambda: tracer.span(OP))
            table = span_table(tracer)
            check_required(table, tracer.counts, wl.required_spans, wl.name)
            if not tables:
                record["spans"] = (table, tracer.columns())
                record["self_time_s"] = {
                    name: {"calls": c, "incl": i / 1e9, "self": s / 1e9}
                    for name, (c, i, s) in table.items()}
            tables.append((table, Counter(tracer.counts)))
            return result

        _, traced = closed_loop(traced_op, seconds, speed, warmup=False)
    per_op = [layer_metrics(table, counts, cfg.iterations, scale)
              for (table, counts), (_, _, scale) in zip(tables, traced)]
    metrics = {key: statistics.median_low(m[key] for m in per_op)
               for key in per_op[0]}
    metrics["problems.build.s"] = statistics.median(builds)
    return metrics, traced


def compare_reference(wl, seed, digest, reference) -> str:
    """CSV digest against the one recorded for the default seed.  A mismatch
    is reported, not counted as a failure: a documented change of the index
    stream is allowed."""
    if not reference or wl is not WORKLOADS.get(wl.name) \
            or seed != reference["seed"]:
        return "not recorded for this seed"
    return "match" if reference["digests"].get(wl.name) == digest else "MISMATCH"


def write_record(line, record) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        table, cols = spans
        np.savez_compressed(OUT / f"{stem}-spans.npz",
                            names=np.array(list(table)), **cols)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(dict(record, result=line), fh, indent=1)


def print_result(line, record) -> None:
    ref, raw = record["wall_reference_s"], record["wall_measured_s"]
    print(f"workload {record['workload']} seed {record['seed']}: {len(ref)} "
          f"timed operations; median {statistics.median(ref):.4f} reference "
          f"s, {statistics.median(raw):.4f} measured s; median speed scale "
          f"{statistics.median(record['speed_scales']):.4f}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"csv digest {str(record['digest'])[:16]} vs reference: "
          f"{record['reference']}")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"]}))
    print(json.dumps(line))


def self_check() -> int:
    """Run every workload's pipeline at tiny sizes in both modes and check
    that exactly the metrics named in BENCHMARK.json are emitted."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        failures.append("workload names differ from BENCHMARK.json")
    for name, wl in TINY.items():
        for trace in (0, 1):
            line, record = measure(wl, 0, 0.5, trace, setup_reps=2)
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            bad = [k for k, m in line["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            status = []
            if got != want[trace]:
                status.append(f"metrics {sorted(set(got) ^ set(want[trace]))} "
                              "differ from BENCHMARK.json")
            if bad:
                status.append(f"non-numeric {bad}")
            if not line["correct"]:
                status.append(f"incorrect: {record['problems']}")
            print(f"self-check {name} trace={trace}: "
                  + ("; ".join(status) or "ok"))
            failures.extend(status)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny sizes, every workload, both modes")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        line, record = measure(WORKLOADS[args.workload], args.seed,
                               args.seconds, args.trace, reference=reference)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 3
    write_record(line, record)
    print_result(line, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
