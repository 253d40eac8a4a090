"""Experiment harness: configuration, CSV emission, rate-slope estimation,
minibatch sweeps and the command-line interface.

CSV files carry the effective configuration as leading ``#`` comment lines
and exactly the columns seed,k,f_gap,max_violation,dist_X,LN_k,beta_k,
elapsed_ns (a field is empty when the metric is unavailable).  The header
echoes only the settings that determine the numbers, with ``problem.n`` and
``problem.m`` read from the built instance: ``out_dir``, which only says
where files go, is left out.  By default the elapsed_ns column is
written as 0 so repeated identical invocations produce byte-identical files;
enable ``timing`` to record wall-clock times instead.  All seeds of a
``solve`` advance together as one block, so elapsed_ns is the block's time
since its start, and a seed's row reports when the block reached its k.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .geometry import DistanceOracleError, TOL_METRIC
from .oracle import OracleError
from .problems import (BenchmarkInstance, load_instance, make_builtin, qb_curves)
from .sampling import Sampler
from .solver import (BetaPolicy, ConfigError, RunResult, SolverAbort,
                     SolverConfig, run)

CSV_COLUMNS = ("seed", "k", "f_gap", "max_violation", "dist_X", "LN_k",
               "beta_k", "elapsed_ns")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_WINDOW = 4

BOOTSTRAP_SEED = 20260810
BOOTSTRAP_RESAMPLES = 200


class WindowError(RuntimeError):
    """Rate-check window invalid or not covered by the data."""


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    builtin: Optional[str] = "benchmark"
    instance: Optional[str] = None
    n: int = 10
    m: int = 20
    problem_seed: int = 0
    variant: str = "parallel"
    batch_size: int = 4
    beta_policy: str = "fixed"
    beta: float = 1.0
    delta: float = 0.1
    ln_hint: Optional[float] = None
    iterations: int = 10000
    sampler: str = "without-replacement"
    init: str = "gaussian"
    init_scale: float = 1.0
    assertions: str = "off"
    cadence: object = "geometric"
    timing: bool = False
    seeds: tuple = (1,)
    out_dir: str = "out"

    def solver_config(self) -> SolverConfig:
        """The solver settings, unchecked: ``run`` validates them.  Every
        policy gets every field, so a hint that its rule does not check
        reaches ``BetaPolicy.validate`` and is rejected there."""
        policy = BetaPolicy(self.beta_policy, beta=self.beta, delta=self.delta,
                            ln=self.ln_hint)
        return SolverConfig(variant=self.variant, batch_size=self.batch_size,
                            beta_policy=policy, iterations=self.iterations,
                            sampler_variant=self.sampler, seeds=self.seeds,
                            init=self.init, init_scale=self.init_scale,
                            log_cadence=self.cadence, assertions=self.assertions)

    def echo_items(self):
        """Stable key order for the effective-config CSV header (settings
        that determine the numbers only; ``out_dir`` is left out)."""
        items = [
            ("problem.builtin", self.builtin or ""),
            ("problem.instance", self.instance or ""),
            ("problem.n", self.n), ("problem.m", self.m),
            ("problem.problem_seed", self.problem_seed),
            ("solver.variant", self.variant),
            ("solver.batch_size", self.batch_size),
            ("solver.beta_policy", self.beta_policy),
            ("solver.beta", self.beta), ("solver.delta", self.delta),
            ("solver.ln_hint", "" if self.ln_hint is None else self.ln_hint),
            ("solver.iterations", self.iterations),
            ("solver.sampler", self.sampler),
            ("solver.init", self.init),
            ("solver.init_scale", self.init_scale),
            ("solver.assertions", self.assertions),
            ("logging.cadence", self.cadence),
            ("logging.timing", str(self.timing).lower()),
            ("output.seeds", format_seeds(self.seeds)),
        ]
        return items


def parse_seeds(text: str) -> tuple:
    """Parse seed lists: '1..20', '1,2,5' or a single integer."""
    text = text.strip()
    try:
        if ".." not in text:
            return parse_int_list(text)
        lo, hi = (int(t) for t in text.split("..", 1))
    except ValueError:
        raise ConfigError(f"seeds must be integers, got {text!r}") from None
    if hi < lo:
        raise ConfigError(f"empty seed range {text!r}")
    return tuple(range(lo, hi + 1))


def parse_int_list(text: str) -> tuple:
    """Comma-separated integers, e.g. '1,2,4'; raises ValueError otherwise."""
    return tuple(int(t) for t in text.split(",") if t.strip())


def parse_cadence(text: str):
    """Log cadence: 'geometric' or an integer step."""
    if text == "geometric":
        return text
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"cadence must be 'geometric' or an integer, got {text!r}") from None


def format_seeds(seeds) -> str:
    seeds = list(seeds)
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}..{seeds[-1]}"
    return ",".join(str(s) for s in seeds)


_SECTION_KEYS = {
    "problem": {"builtin": str, "instance": str, "n": int, "m": int,
                "problem_seed": int},
    "solver": {"variant": str, "batch_size": int, "beta_policy": str,
               "beta": float, "delta": float, "ln_hint": float,
               "iterations": int, "sampler": str, "init": str,
               "init_scale": float, "assertions": str},
    "logging": {"cadence": parse_cadence, "timing": bool},
    "output": {"seeds": parse_seeds, "out_dir": str},
}


def load_config_file(path: str) -> RunConfig:
    """Flat key = value configuration with sections (INI syntax)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = RunConfig()
    for section, keys in _SECTION_KEYS.items():
        if not parser.has_section(section):
            continue
        for key, value in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}] "
                                  f"of {path}")
            conv = keys[key]
            try:
                if conv is bool:
                    parsed = parser.getboolean(section, key)
                else:
                    parsed = conv(value)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(
                    f"bad value for {section}.{key} in {path}: {exc}") from exc
            setattr(cfg, key, parsed)
    return cfg


def build_problem(cfg: RunConfig) -> BenchmarkInstance:
    if cfg.instance:
        return load_instance(cfg.instance)
    return make_builtin(cfg.builtin, n=cfg.n, m=cfg.m, seed=cfg.problem_seed)


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path: str, cfg: RunConfig, rows) -> None:
    """Rows are sequences aligned with CSV_COLUMNS; None renders empty."""
    lines = [f"# {key} = {value}" for key, value in cfg.echo_items()]
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str):
    """Return (comments, list of dict rows with floats or None)."""
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line)
                continue
            if header is None:
                header = line.split(",")
                continue
            cells = line.split(",")
            row = {}
            for name, cell in zip(header, cells):
                row[name] = None if cell == "" else float(cell)
            rows.append(row)
    if header is None:
        raise WindowError(f"no data in {path}")
    return comments, rows


def _records_to_rows(result: RunResult, timing: bool):
    out = []
    for r in result.records:
        out.append((r.seed, r.k, r.f_gap, r.max_violation, r.dist_x, r.ln_k,
                    r.beta_k, r.elapsed_ns if timing else 0))
    return out


def aggregate_rows(per_seed_rows) -> list:
    """Mean over seeds per logged k (column-wise, ignoring empty cells)."""
    by_k = {}
    for rows in per_seed_rows:
        for row in rows:
            by_k.setdefault(row[1], []).append(row)
    agg = []
    for k in sorted(by_k):
        group = by_k[k]
        cells = [None, k]
        for col in range(2, len(CSV_COLUMNS)):
            vals = [g[col] for g in group if g[col] is not None]
            cells.append(float(np.mean(vals)) if vals else None)
        agg.append(tuple(cells))
    return agg


# ---------------------------------------------------------------------------
# experiments


def solve_experiment(cfg: RunConfig, instance: Optional[BenchmarkInstance] = None):
    """Run every seed of ``cfg`` as one block through ``run``; write
    per-seed CSVs and the aggregate.

    Returns (instance, results, paths).  Metrics use the instance's
    polyhedral context, so dist_X is the oracle distance to the feasible set.
    The CSV headers echo the built instance's n and m, which a builtin such
    as ``orthant2`` fixes whatever ``cfg`` asks for.  ``out_dir`` is created
    only after ``run`` returns, so a rejected configuration or a
    ``SolverAbort``, which stops the whole block, leaves no directory.
    """
    instance = instance or build_problem(cfg)
    context = instance.context() if instance.poly.m else None
    echo = replace(cfg, n=instance.spec.dimension, m=instance.spec.constraints.size)
    results = run(instance.spec, cfg.solver_config(), context=context)
    os.makedirs(cfg.out_dir, exist_ok=True)
    per_seed_rows, paths = [], []
    for result in results:
        rows = _records_to_rows(result, cfg.timing)
        path = os.path.join(cfg.out_dir, f"run_seed{result.seed}.csv")
        write_csv(path, echo, rows)
        per_seed_rows.append(rows)
        paths.append(path)
    agg_path = os.path.join(cfg.out_dir, "aggregate.csv")
    write_csv(agg_path, echo, aggregate_rows(per_seed_rows))
    paths.append(agg_path)
    return instance, results, paths


def final_metric_summary(results) -> dict:
    """Mean final f_gap / dist_X across seeds (for the CLI summary line)."""
    f_gaps = [r.records[-1].f_gap for r in results if r.records and
              r.records[-1].f_gap is not None]
    dists = [r.records[-1].dist_x for r in results if r.records and
             r.records[-1].dist_x is not None]
    return {
        "f_gap": float(np.mean(f_gaps)) if f_gaps else None,
        "dist_X": float(np.mean(dists)) if dists else None,
    }


def bootstrap_ci(values, n_resamples: int = BOOTSTRAP_RESAMPLES,
                 seed: int = BOOTSTRAP_SEED):
    """Percentile bootstrap CI (2.5%, 97.5%) for the mean of ``values``."""
    values = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.size, size=(n_resamples, values.size))
    means = values[idx].mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


@dataclass
class SlopeFit:
    metric: str
    slope: float
    intercept: float
    ci_half_width: float
    k_lo: float
    k_hi: float
    truncated: bool = False
    note: str = ""


def _fit_window(ks, values, k_min, k_max, metric_floor=TOL_METRIC):
    ks = np.asarray(ks, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    mask = (ks >= k_min) & (ks <= k_max)
    truncated = False
    alive = values >= metric_floor
    if not np.all(alive[mask]):
        truncated = True
        mask &= alive
    if mask.sum() < 2:
        raise WindowError("fewer than two usable points in the fit window")
    slope, intercept = np.polyfit(np.log(ks[mask]), np.log(values[mask]), 1)
    return float(slope), float(intercept), ks[mask], truncated


def rate_check(run_dir: str, k_min: float, k_max: float,
               n_resamples: int = BOOTSTRAP_RESAMPLES):
    """Log-log slope estimates for mean |f_gap| and mean dist_X over a window.

    Loads the per-seed CSVs from ``run_dir``; the mean-over-seeds curves are
    fitted by least squares and the confidence half-width comes from an
    over-seeds percentile bootstrap.  Points below the metric floor
    (1e-8) auto-truncate the window with a note.
    """
    if not (np.isfinite(k_min) and np.isfinite(k_max) and 0 < k_min < k_max):
        raise WindowError(f"rate window [{k_min}, {k_max}] must be finite "
                          "with 0 < k_min < k_max")
    if not os.path.isdir(run_dir):
        raise ConfigError(f"run directory {run_dir!r} is not a directory")
    if k_max / k_min < 100:
        raise WindowError("rate window must span at least two decades "
                          "(k_max / k_min >= 100)")
    seed_files = sorted(f for f in os.listdir(run_dir)
                        if f.startswith("run_seed") and f.endswith(".csv"))
    if not seed_files:
        raise WindowError(f"no per-seed CSV files in {run_dir}")
    per_seed = [read_csv(os.path.join(run_dir, f))[1] for f in seed_files]
    ks = [row["k"] for row in per_seed[0]]
    if min(ks) > k_min or max(ks) < k_max:
        raise WindowError(f"logged iterations cover [{min(ks)}, {max(ks)}], "
                          f"not the requested window [{k_min}, {k_max}]")

    fits = []
    for metric, column in (("abs_f_gap", "f_gap"), ("dist_X", "dist_X")):
        curves = []
        for rows in per_seed:
            vals = [row[column] for row in rows]
            if any(v is None for v in vals):
                curves = []
                break
            curves.append(np.abs(np.asarray(vals, dtype=np.float64)))
        if not curves:
            continue
        curves = np.asarray(curves)
        mean_curve = curves.mean(axis=0)
        slope, intercept, used_ks, truncated = _fit_window(ks, mean_curve,
                                                           k_min, k_max)
        rng = np.random.default_rng(BOOTSTRAP_SEED)
        slopes = []
        for _ in range(n_resamples):
            pick = rng.integers(0, curves.shape[0], size=curves.shape[0])
            resampled = curves[pick].mean(axis=0)
            try:
                s, _, _, _ = _fit_window(ks, resampled, k_min, k_max)
            except WindowError:
                continue
            slopes.append(s)
        half = float(np.percentile(slopes, 97.5)
                     - np.percentile(slopes, 2.5)) / 2.0 if slopes else float("nan")
        fits.append(SlopeFit(metric=metric, slope=slope, intercept=intercept,
                             ci_half_width=half, k_lo=float(used_ks.min()),
                             k_hi=float(used_ks.max()), truncated=truncated,
                             note="window truncated at metric floor"
                             if truncated else ""))
    if not fits:
        raise WindowError("no complete metric columns available for fitting")
    return fits


@dataclass
class SweepRow:
    batch_size: int
    final_dist_mean: float
    ci_lo: float
    ci_hi: float
    predicted_b: Optional[float]
    predicted_ratio: Optional[float]   # 1/sqrt(b_N), normalized to the first N
    outside_theory: bool = False


def minibatch_sweep(cfg: RunConfig, n_list, c_hat: Optional[float] = None,
                    instance: Optional[BenchmarkInstance] = None):
    """Fixed-budget sweep over minibatch sizes.

    For each N the final mean oracle distance (with bootstrap CI) is measured
    over the configured seeds, next to the predicted gain factors; the
    harness juxtaposes measurement and prediction without asserting either.
    Every N's settings pass ``SolverConfig.validate`` before any prediction
    is priced or any N runs.  Predictions use the runs' constant stepsize
    (``BetaPolicy.initial_beta``), so ``c_hat`` is a configuration error
    under the adaptive policy, as is a ``c_hat`` that ``qb_curves`` rejects.
    Only an ``exact_ln_linear`` enumeration above its cap drops the
    predictions.
    """
    if len(n_list) < 2:
        raise ConfigError("sweep needs at least two batch sizes")
    if c_hat is not None and cfg.beta_policy == "adaptive":
        raise ConfigError("--c-hat predictions need a constant stepsize; the "
                          "adaptive beta policy has none")
    instance = instance or build_problem(cfg)
    subs = [replace(cfg, batch_size=size,
                    out_dir=os.path.join(cfg.out_dir, f"N{size}"))
            for size in n_list]
    for sub in subs:
        sub.solver_config().validate(instance.spec)
    predictions = {}
    if c_hat is not None and instance.poly.m:
        beta = cfg.solver_config().beta_policy.initial_beta()
        try:
            rows = qb_curves(instance.poly, c_hat, instance.spec.M_g, beta,
                             n_list, with_replacement=cfg.sampler == "iid-uniform")
            predictions = {r.batch_size: r for r in rows}
        except OracleError:
            predictions = {}
    out = []
    base_ratio = None
    for sub in subs:
        size = sub.batch_size
        _, results, _ = solve_experiment(sub, instance=instance)
        finals = [r.records[-1].dist_x for r in results]
        if any(f is None for f in finals):
            raise ConfigError("sweep requires polyhedral distance metrics")
        lo, hi = bootstrap_ci(finals)
        pred = predictions.get(size)
        b_val = None
        ratio = None
        if pred is not None:
            b_val = pred.b_parallel if cfg.variant == "parallel" else pred.b_sequential
            if b_val is not None and b_val > 0:
                raw = 1.0 / np.sqrt(b_val)
                if base_ratio is None:
                    base_ratio = raw
                ratio = raw / base_ratio
        out.append(SweepRow(batch_size=size, final_dist_mean=float(np.mean(finals)),
                            ci_lo=lo, ci_hi=hi, predicted_b=b_val,
                            predicted_ratio=ratio,
                            outside_theory=pred.outside_theory if pred else False))
    return instance, out


# ---------------------------------------------------------------------------
# CLI


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--builtin", help="builtin problem name")
    p.add_argument("--instance", help="instance file path")
    p.add_argument("--n", type=int, help="problem dimension")
    p.add_argument("--m", type=int, help="number of constraints")
    p.add_argument("--problem-seed", type=int, dest="problem_seed")
    p.add_argument("--variant", choices=("parallel", "sequential"))
    p.add_argument("--N", type=int, dest="batch_size", help="minibatch size")
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-policy", dest="beta_policy",
                   choices=("fixed", "extrapolated", "adaptive"))
    p.add_argument("--delta", type=float)
    p.add_argument("--ln-hint", type=float, dest="ln_hint")
    p.add_argument("--iters", type=int, dest="iterations")
    p.add_argument("--sampler", choices=Sampler.VARIANTS)
    p.add_argument("--init", choices=("zero", "gaussian"))
    p.add_argument("--assertions", choices=("off", "lemma-checks"))
    p.add_argument("--cadence", help="'geometric' or an integer step")
    p.add_argument("--timing", action="store_true", default=None,
                   help="record wall-clock elapsed_ns (breaks byte-identity)")
    p.add_argument("--seeds", help="e.g. 1..20 or 3,5,8")
    p.add_argument("--out", dest="out_dir", help="output directory")


def _cfg_from_args(args) -> RunConfig:
    cfg = load_config_file(args.config) if args.config else RunConfig()
    for name in ("builtin", "instance", "n", "m", "problem_seed", "variant",
                 "batch_size", "beta", "beta_policy", "delta", "ln_hint",
                 "iterations", "sampler", "init", "assertions",
                 "timing", "out_dir"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "cadence", None) is not None:
        cfg.cadence = parse_cadence(args.cadence)
    if getattr(args, "seeds", None):
        cfg.seeds = parse_seeds(args.seeds)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbproj",
        description="Minibatch projection subgradient solvers and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver over seeds, emit CSVs")
    _add_solve_flags(p_solve)

    p_rate = sub.add_parser("rate-check", help="fit log-log rate slopes")
    p_rate.add_argument("--dir", required=True, help="directory of run CSVs")
    p_rate.add_argument("--k-min", type=float, default=100.0)
    p_rate.add_argument("--k-max", type=float, default=10000.0)

    p_sweep = sub.add_parser("sweep", help="fixed-budget minibatch-size sweep")
    _add_solve_flags(p_sweep)
    p_sweep.add_argument("--N-list", dest="n_list", required=True,
                         help="comma-separated batch sizes, e.g. 1,2,4,8")
    p_sweep.add_argument("--c-hat", type=float, dest="c_hat",
                         help="regularity estimate for predictions")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            cfg = _cfg_from_args(args)
            _, results, paths = solve_experiment(cfg)
            summary = final_metric_summary(results)
            print(f"wrote {len(paths)} files to {cfg.out_dir}")
            f_gap = summary["f_gap"]
            dist = summary["dist_X"]
            print("final mean f_gap: "
                  + ("n/a" if f_gap is None else format(f_gap, ".6e")))
            print("final mean dist_X: "
                  + ("n/a" if dist is None else format(dist, ".6e")))
            return EXIT_OK
        if args.command == "rate-check":
            fits = rate_check(args.dir, args.k_min, args.k_max)
            for fit in fits:
                extra = f"  [{fit.note}]" if fit.note else ""
                print(f"{fit.metric}: slope {fit.slope:+.4f} "
                      f"+/- {fit.ci_half_width:.4f} over k in "
                      f"[{fit.k_lo:g}, {fit.k_hi:g}]{extra}")
            return EXIT_OK
        if args.command == "sweep":
            cfg = _cfg_from_args(args)
            try:
                n_list = list(parse_int_list(args.n_list))
            except ValueError:
                raise ConfigError("--N-list must be comma-separated integers, "
                                  f"got {args.n_list!r}") from None
            _, rows = minibatch_sweep(cfg, n_list, c_hat=args.c_hat)
            print("N,final_dist_mean,ci_lo,ci_hi,predicted_b,predicted_ratio,outside_theory")
            for r in rows:
                print(f"{r.batch_size},{r.final_dist_mean:.6e},{r.ci_lo:.6e},"
                      f"{r.ci_hi:.6e},"
                      f"{'' if r.predicted_b is None else format(r.predicted_b, '.6g')},"
                      f"{'' if r.predicted_ratio is None else format(r.predicted_ratio, '.6g')},"
                      f"{str(r.outside_theory).lower()}")
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, OracleError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        if exc.snapshot:
            print(f"snapshot: {exc.snapshot}", file=sys.stderr)
        return EXIT_SOLVER
    except DistanceOracleError as exc:
        print(f"distance oracle: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except WindowError as exc:
        print(f"window error: {exc}", file=sys.stderr)
        return EXIT_WINDOW


if __name__ == "__main__":
    sys.exit(main())
