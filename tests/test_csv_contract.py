"""The CSV contract: for a fixed seed and config, every CSV data row stays
byte-identical.

Each command of ``COMMANDS`` runs in-process through ``harness.main``.  The
digest of its CSV data rows (the non-``#`` lines of every CSV it writes,
with each file's path under its output directory) and the digest of its
console (exit code, stdout, stderr and warnings, with the temporary directory
named by one fixed token) must equal those pinned in ``csv_digests.json``.
So must the digest that ``bench/run_bench.py`` prints for one operation of
each benchmark workload at each of ``WORKLOAD_SEEDS``: the operation runs
once through ``bench/workloads.py``'s ``run_op``, which is only read here.
A change that moves one bit of one row fails here.  After a deliberate
change of the numbers, regenerate the file, and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_csv_contract.py --write

The file records the numpy version and the platform it was written on; a
failure names both next to the current ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from mbproj import harness
from mbproj.harness import main

PINNED = Path(__file__).with_name("csv_digests.json")
BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

# the benchmark's default --seed and its held-out one
WORKLOAD_SEEDS = (0, 1000)

# the exact L_4 of ``benchmark`` 10x20 at problem seed 0 (``exact_ln_linear``)
L4 = "0.710293403328827"

# an instance file on the whole space: x <= 1, y <= 1, -0.6 x - 0.8 y <= 2
WHOLE = """2 3
1 0 -1
0 1 -1
-0.6 -0.8 -2
objective quadratic
center 3 2
set whole
"""

SMALL = ["--iters", "200", "--seeds", "1..3"]
WIDE = ["--n", "50", "--m", "200", "--N-list", "1,8,64,200", "--iters", "30",
        "--seeds", "1,2"]

# name: one argv, or several run in turn; {out} is the command's output
# directory and {whole} the path of the WHOLE instance file
COMMANDS = {
    "sequential-sweep-beta0.5": [
        "sweep", "--variant", "sequential", "--beta", "0.5", "--N-list", "1,2,4",
        *SMALL],
    "sequential-sweep-beta1.6-lemma-checks": [
        "sweep", "--variant", "sequential", "--beta", "1.6", "--N-list", "2,3,4,8",
        "--assertions", "lemma-checks", "--iters", "60", "--seeds", "1,2"],
    "sequential-solve-lemma-checks": [
        "solve", "--variant", "sequential", "--beta", "1.3",
        "--assertions", "lemma-checks", "--iters", "100", "--seeds", "1,2"],
    "parallel-adaptive": ["solve", "--beta-policy", "adaptive", *SMALL],
    "parallel-adaptive-lemma-checks": [
        "solve", "--beta-policy", "adaptive", "--assertions", "lemma-checks",
        "--iters", "100", "--seeds", "1,2"],
    "parallel-adaptive-sweep-lemma-checks": [
        "sweep", "--beta-policy", "adaptive", "--assertions", "lemma-checks",
        "--N-list", "1,2,4", "--iters", "60", "--seeds", "1,2"],
    "parallel-extrapolated": [
        "solve", "--beta-policy", "extrapolated", "--ln-hint", L4, *SMALL],
    "parallel-fixed-declared": ["solve", "--beta", "2.5", "--ln-hint", L4, *SMALL],
    "parallel-declared-abort": [
        "solve", "--beta", "1", "--ln-hint", "0.3", "--iters", "50"],
    "parallel-wide-iid": [
        "sweep", "--beta", "1.3", "--sampler", "iid-uniform", *WIDE],
    "sequential-wide": ["sweep", "--variant", "sequential", "--beta", "0.7", *WIDE],
    "sequential-iid": [
        "sweep", "--variant", "sequential", "--sampler", "iid-uniform",
        "--N-list", "1,2,4,8", *SMALL],
    "c-hat-benchmark": ["sweep", "--c-hat", "5", "--N-list", "1,2,4", *SMALL],
    "c-hat-duplicated": [
        "sweep", "--builtin", "duplicated", "--n", "5", "--m", "8",
        "--N-list", "1,2,3", "--c-hat", "5", *SMALL],
    "orthant2-rate-check": [
        ["solve", "--builtin", "orthant2", "--N", "2", "--iters", "2000",
         "--seeds", "1,2"],
        ["rate-check", "--dir", "{out}", "--k-min", "10", "--k-max", "2000"]],
    "whole-space-instance": [
        "solve", "--instance", "{whole}", "--variant", "sequential", "--beta", "1.3",
        "--N", "2", *SMALL],
}


def run_command(name: str, root: Path) -> dict:
    """Run command ``name`` under the temporary directory ``root``; returns
    its CSV and console digests."""
    whole = root / "whole.txt"
    whole.write_text(WHOLE)
    out = root / name
    steps = COMMANDS[name]
    console = io.StringIO()
    for argv in steps if isinstance(steps[0], list) else [steps]:
        argv = [a.format(out=out, whole=whole) for a in argv]
        if argv[0] != "rate-check":
            argv += ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        console.write(f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
        for w in caught:
            console.write(f"warning {w.category.__name__}: {w.message}\n")
    rows = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")) if out.exists() else ():
        rows.update(f"{path.relative_to(out).as_posix()}\n".encode())
        with open(path, newline="") as fh:
            rows.update("".join(ln for ln in fh if not ln.startswith("#")).encode())
    text = console.getvalue().replace(str(root), "TMP")
    return {"csv": rows.hexdigest(),
            "console": hashlib.sha256(text.encode()).hexdigest()}


def load_workloads():
    """``bench/workloads.py`` as a module, imported from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # for its dataclasses
    spec.loader.exec_module(module)
    return module


def run_workload(workloads, name: str, seed: int, root: Path) -> str:
    """One operation of benchmark workload ``name`` at ``--seed`` ``seed``,
    in ``<name>-seed<seed>`` under ``root``, the directory name that the
    benchmark gives it and that its digest includes; returns that digest."""
    wl = workloads.WORKLOADS[name]
    cfg = wl.run_config(harness, seed, str(root / f"{name}-seed{seed}"))
    instance = harness.build_problem(cfg)
    expected = workloads.expected_sweep(wl, instance) if wl.is_sweep else None
    result = workloads.run_op(wl, harness, cfg, instance, expected)
    assert not result.failed, result.problems
    return result.digest


def workload_runs(workloads) -> list:
    return [(name, seed) for name in workloads.WORKLOADS for seed in WORKLOAD_SEEDS]


def environment() -> dict:
    return {"numpy": np.__version__,
            "platform": f"{platform.system()} {platform.machine()}",
            "python": platform.python_version()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output_is_pinned(name, pinned, tmp_path):
    assert name in pinned["commands"], f"{name} is not pinned: regenerate {PINNED.name}"
    got = run_command(name, tmp_path)
    env = {key: pinned[key] for key in environment()}
    assert got == pinned["commands"][name], (
        f"{name}: output differs from the pinned digests, written under "
        f"{env}; this run has {environment()}")


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
@pytest.mark.parametrize("name", ["smoke-orthant", "metric-dense", "sweep-ln"])
def test_workload_digest_is_pinned(name, seed, workloads, pinned, tmp_path):
    run = f"{name}-seed{seed}"
    assert run in pinned["workloads"], f"{run} is not pinned: regenerate {PINNED.name}"
    env = {key: pinned[key] for key in environment()}
    assert run_workload(workloads, name, seed, tmp_path) == pinned["workloads"][run], (
        f"{run}: digest differs from the pinned one, written under {env}; "
        f"this run has {environment()}")


def test_every_pinned_command_is_run(pinned, workloads):
    assert sorted(pinned["commands"]) == sorted(COMMANDS)
    assert sorted(pinned["workloads"]) == sorted(
        f"{name}-seed{seed}" for name, seed in workload_runs(workloads))


def write() -> None:
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        commands = {name: run_command(name, Path(tmp)) for name in COMMANDS}
        digests = {f"{name}-seed{seed}": run_workload(workloads, name, seed, Path(tmp))
                   for name, seed in workload_runs(workloads)}
    PINNED.write_text(json.dumps({**environment(), "commands": commands,
                                  "workloads": digests},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(commands)} command and {len(digests)} workload digests "
          f"to {PINNED}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {os.path.basename(__file__)} --write")
    write()
