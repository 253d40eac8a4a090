"""Experiment harness: configuration, CSV emission, rate-slope estimation,
minibatch sweeps and the command-line interface.

A run's settings are the fields of ``RunConfig``; each field gives its INI
key, its CLI flag and its line of the CSV header, and ``solver.run`` reads
it by name after ``solver.validate`` has checked it.  A CSV row is a
``solver.RunRecord``: its fields are the columns seed,k,f_gap,max_violation,
dist_X,LN_k,beta_k (a cell is empty when the metric is unavailable), from
``run`` through ``write_csv`` and ``read_csv`` to the aggregate and
``rate_check``.  CSV files carry the header as leading ``#`` comment lines;
it echoes the settings that determine the numbers, with ``problem.n`` and
``problem.m`` read from the built instance, leaves ``problem.builtin`` and
``problem.problem_seed`` empty for an instance file, and leaves out
``out_dir``.  A file holds results only, so its bytes are a function of the
settings it echoes: repeated identical invocations write byte-identical
files.  Timing a run is the benchmark's job (``bench/run_bench.py``), not
the CSV's.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .geometry import DistanceOracleError, TOL_METRIC
from .oracle import OracleError
from .problems import (BenchmarkInstance, load_instance, make_builtin,
                       predicted_gain)
from .sampling import Sampler
from .solver import (ASSERTIONS, BETA_POLICIES, INITS, VARIANTS, ConfigError,
                     RunRecord, SolverAbort, initial_beta, run, validate)

CSV_COLUMNS = RunRecord._fields

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
    """Comma-separated integers, e.g. '1,2,4'; raises ValueError otherwise,
    on an empty item too ('1,,2', '1,2,')."""
    return tuple(int(t) for t in text.split(","))


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


def _setting(default, section: str, flag: str, parse=None, show=str, **cli):
    """A run setting: its default, INI ``section``, CLI ``flag`` with
    argparse options ``cli``, text parser (by default the flag's ``type``,
    else ``str``) and header ``show`` (None: not echoed)."""
    return field(default=default, metadata={
        "section": section, "flag": flag, "parse": parse or cli.get("type", str),
        "show": show, "cli": cli})


@dataclass
class RunConfig:
    """A run's settings, each listed once with its one default: a field
    gives its INI key ``section.name``, its CLI flag and its CSV header
    line.  No setting times a run; that is the benchmark's job.
    ``out_dir`` only says where files go, so it has no header line."""

    builtin: Optional[str] = _setting("benchmark", "problem", "--builtin",
                                      help="builtin problem name")
    instance: Optional[str] = _setting(None, "problem", "--instance",
                                       help="instance file path")
    n: int = _setting(10, "problem", "--n", type=int, help="problem dimension")
    m: int = _setting(20, "problem", "--m", type=int, help="number of constraints")
    problem_seed: int = _setting(0, "problem", "--problem-seed", type=int)
    variant: str = _setting("parallel", "solver", "--variant",
                            choices=VARIANTS)
    batch_size: int = _setting(4, "solver", "--N", type=int,
                               help="minibatch size (sweep takes --N-list)")
    beta_policy: str = _setting("fixed", "solver", "--beta-policy",
                                choices=BETA_POLICIES)
    beta: float = _setting(1.0, "solver", "--beta", type=float)
    delta: float = _setting(0.1, "solver", "--delta", type=float)
    ln_hint: Optional[float] = _setting(None, "solver", "--ln-hint", type=float)
    iterations: int = _setting(10000, "solver", "--iters", type=int)
    sampler: str = _setting("without-replacement", "solver", "--sampler",
                            choices=Sampler.VARIANTS)
    init: str = _setting("gaussian", "solver", "--init", choices=INITS)
    assertions: str = _setting("off", "solver", "--assertions",
                               choices=ASSERTIONS)
    cadence: object = _setting("geometric", "logging", "--cadence", parse=parse_cadence,
                               help="'geometric' or an integer step")
    seeds: tuple = _setting((1,), "output", "--seeds", parse=parse_seeds,
                            show=format_seeds, help="e.g. 1..20 or 3,5,8")
    out_dir: str = _setting("out", "output", "--out", show=None, help="output directory")

    def echo_items(self):
        """The CSV header's (``section.name``, text) pairs, in field order:
        every setting with a ``show``, an unset one as empty text."""
        return [(f"{f.metadata['section']}.{f.name}",
                 "" if value is None else f.metadata["show"](value))
                for f in fields(self) if f.metadata["show"]
                for value in (getattr(self, f.name),)]


def load_config_file(path: str) -> RunConfig:
    """Flat key = value configuration with sections (INI syntax): each key
    is a ``RunConfig`` field under its section, read by the field's parser.
    A key outside its section is an error; other sections are ignored.  A
    file that is not INI text is a ``ConfigError`` naming it."""
    settings = {}
    for f in fields(RunConfig):
        settings.setdefault(f.metadata["section"], {})[f.name] = f.metadata["parse"]
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        given = [(section, parser.items(section)) for section in settings
                 if parser.has_section(section)]
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: "
                          + " ".join(str(exc).split())) from exc
    cfg = RunConfig()
    for section, items in given:
        keys = settings[section]
        for key, value in items:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}] "
                                  f"of {path}")
            try:
                parsed = keys[key](value)
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
    """Rows are ``RunRecord``s, or other sequences aligned with CSV_COLUMNS;
    None renders empty."""
    lines = [f"# {key} = {value}" for key, value in cfg.echo_items()]
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str):
    """Return (the ``#`` comment lines, the data rows as ``RunRecord``s of
    floats, an empty cell as None).  A file that is not text, whose column
    line is not CSV_COLUMNS, with a row that is not one float or empty cell
    per column, or with no data row is a ``WindowError`` naming it."""
    try:
        with open(path) as fh:
            lines = [line for line in fh.read().split("\n") if line]
    except UnicodeDecodeError as exc:
        raise WindowError(f"{path} is not text: {exc}") from None
    column_line = ",".join(CSV_COLUMNS)
    data = [line for line in lines if not line.startswith("#")]
    if data[:1] != [column_line]:
        raise WindowError(f"{path} has no column line {column_line!r}")
    rows = []
    for line in data[1:]:
        try:
            rows.append(RunRecord(*(None if cell == "" else float(cell)
                                    for cell in line.split(","))))
        except (TypeError, ValueError):
            raise WindowError(f"{path}: malformed row {line!r}") from None
    if not rows:
        raise WindowError(f"no data rows in {path}")
    return [line for line in lines if line.startswith("#")], rows


def aggregate_rows(per_seed_rows) -> list:
    """Mean over seeds per logged k of each metric, ignoring empty cells:
    one ``RunRecord`` per k, in order, with an empty seed."""
    by_k = {}
    for rows in per_seed_rows:
        for row in rows:
            by_k.setdefault(row.k, []).append(row)
    agg = []
    for k in sorted(by_k):
        means = {}
        for name in CSV_COLUMNS[2:]:
            vals = [getattr(row, name) for row in by_k[k]]
            vals = [v for v in vals if v is not None]
            means[name] = float(np.mean(vals)) if vals else None
        agg.append(RunRecord(seed=None, k=k, **means))
    return agg


# ---------------------------------------------------------------------------
# experiments


def _check_out_dir(path: str) -> None:
    """Raise ``ConfigError`` when ``path``, or the nearest of its ancestors
    that exists, is not a directory, where no output directory can be
    made; nothing is created."""
    head = path
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigError(f"output path {head} exists and is not a directory")


def _write_results(cfg: RunConfig, instance: BenchmarkInstance, results) -> list:
    """Make ``cfg.out_dir`` and write a CSV per result, one seed's records
    as ``run`` made them, and the aggregate there, each headed by ``cfg``
    with the instance's n and m; returns the paths.  An instance file
    determines the problem alone, so its header leaves ``builtin`` and
    ``problem_seed`` empty."""
    unused = dict(builtin=None, problem_seed=None) if cfg.instance else {}
    echo = replace(cfg, n=instance.spec.simple_set.dimension,
                   m=instance.spec.constraints.size, **unused)
    os.makedirs(cfg.out_dir, exist_ok=True)
    per_seed_rows, paths = [], []
    for result in results:
        path = os.path.join(cfg.out_dir, f"run_seed{result.seed}.csv")
        write_csv(path, echo, result.records)
        per_seed_rows.append(result.records)
        paths.append(path)
    agg_path = os.path.join(cfg.out_dir, "aggregate.csv")
    write_csv(agg_path, echo, aggregate_rows(per_seed_rows))
    paths.append(agg_path)
    return paths


def solve_experiment(cfg: RunConfig, instance: Optional[BenchmarkInstance] = None):
    """Run every seed of ``cfg`` as one block through ``run``; write
    per-seed CSVs and the aggregate.

    Returns (instance, results, paths).  Metrics use the instance's
    polyhedron, so dist_X is the oracle distance to the feasible set.
    The CSV headers echo the built instance's n and m, which a builtin such
    as ``orthant2`` fixes whatever ``cfg`` asks for.  An ``out_dir`` that
    cannot be a directory is a ``ConfigError`` before ``run``; it is created
    only after ``run`` returns, so a rejected configuration or a
    ``SolverAbort``, which stops the whole block, leaves no directory.
    """
    instance = instance or build_problem(cfg)
    _check_out_dir(cfg.out_dir)
    results = run(instance.spec, cfg, poly=instance.poly)
    return instance, results, _write_results(cfg, instance, results)


def _bootstrap_picks(count: int) -> np.ndarray:
    """The (BOOTSTRAP_RESAMPLES, count) picks of every bootstrap resample."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    return rng.integers(0, count, size=(BOOTSTRAP_RESAMPLES, count))


def bootstrap_ci(values):
    """Percentile bootstrap CI (2.5%, 97.5%) for the mean of ``values``."""
    values = np.asarray(values, dtype=np.float64)
    means = values[_bootstrap_picks(values.size)].mean(axis=1)
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


def _fit_lines(ks, curves):
    """Least-squares lines log v = slope * log k + intercept, one per row of
    ``curves`` (R, L) logged at iterations ``ks`` > 0, each over its points
    at or above the metric floor: the slopes and intercepts, NaN for a row
    with fewer than two such points, and the (R, L) mask of points used."""
    used = curves >= TOL_METRIC
    count = np.count_nonzero(used, axis=1)
    slopes, intercepts = np.full((2, len(curves)), np.nan)
    fit = count >= 2
    w, n = used[fit], count[fit]
    # centred closed form, in which an unused point has weight 0
    x, y = np.log(ks), np.log(np.where(w, curves[fit], 1.0))
    x_mean, y_mean = (w * x).sum(axis=1) / n, y.sum(axis=1) / n
    dx = np.where(w, x - x_mean[:, None], 0.0)
    slopes[fit] = np.sum(dx * (y - y_mean[:, None]), axis=1) / np.sum(dx * dx, axis=1)
    intercepts[fit] = y_mean - slopes[fit] * x_mean
    return slopes, intercepts, used


def rate_check(run_dir: str, k_min: float, k_max: float):
    """Log-log slope estimates for mean |f_gap| and mean dist_X over a window.

    Loads the per-seed CSVs from ``run_dir``, which ``read_csv`` must
    accept and which must all log the same iterations k, or ``WindowError``
    names the first that does not.  ``bootstrap_ci``'s one draw picks the
    seeds of every resample of an over-seeds percentile bootstrap, and one
    batched least squares fit takes the mean-over-seeds curve with all the
    resampled ones, skipping a resample with fewer than two usable points.
    Points below the metric floor (1e-8) truncate the window: ``truncated``.
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
    ks = np.array([row.k for row in per_seed[0]])
    for name, rows in zip(seed_files[1:], per_seed[1:]):
        if [row.k for row in rows] != ks.tolist():
            raise WindowError(f"{name} logs other iterations k than "
                              f"{seed_files[0]}; the seeds' curves cannot "
                              "be averaged")
    if ks.min() > k_min or ks.max() < k_max:
        raise WindowError(f"logged iterations cover [{ks.min()}, {ks.max()}], "
                          f"not the requested window [{k_min}, {k_max}]")
    window = (ks >= k_min) & (ks <= k_max)
    ks = ks[window]

    fits = []
    for metric, column in (("abs_f_gap", "f_gap"), ("dist_X", "dist_X")):
        vals = [[getattr(row, column) for row in rows] for rows in per_seed]
        if any(None in curve for curve in vals):
            continue
        curves = np.abs(np.array(vals, dtype=np.float64))[:, window]
        resampled = curves[_bootstrap_picks(len(curves))].mean(axis=1)
        slopes, intercepts, used = _fit_lines(
            ks, np.vstack([curves.mean(axis=0), resampled]))
        slope, boot = slopes[0], slopes[1:][~np.isnan(slopes[1:])]
        if np.isnan(slope):
            raise WindowError("fewer than two usable points in the fit window")
        half = float(np.percentile(boot, 97.5)
                     - np.percentile(boot, 2.5)) / 2.0 if boot.size else float("nan")
        used_ks, truncated = ks[used[0]], not used[0].all()
        fits.append(SlopeFit(metric=metric, slope=float(slope),
                             intercept=float(intercepts[0]),
                             ci_half_width=half, k_lo=float(used_ks.min()),
                             k_hi=float(used_ks.max()), truncated=truncated))
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
    predicted_ratio: Optional[float]   # 1/sqrt(b_N), normalized to the first N with b_N > 0
    outside_theory: bool = False


def minibatch_sweep(cfg: RunConfig, n_list, c_hat: Optional[float] = None,
                    instance: Optional[BenchmarkInstance] = None):
    """Fixed-budget sweep over minibatch sizes.

    For each N the final mean oracle distance (with bootstrap CI) is measured
    over the configured seeds, next to the predicted gain b(N) of the runs'
    own variant; the harness juxtaposes measurement and prediction without
    asserting either.  Every N's settings pass ``solver.validate``, and
    each N's output directory must be makeable, before any prediction is
    priced or anything runs.  Then one ``run`` call advances every
    (N, seed) row, in blocks of sizes of similar width, each row with the
    bits of a ``solve`` at its N, and ``N<size>/`` under ``out_dir`` gets
    the CSVs that ``solve`` would write, only after ``run`` returns: a
    ``SolverAbort``, which stops the whole call, leaves no directory.  Predictions use the runs'
    constant stepsize (``solver.initial_beta``), so ``c_hat`` is a
    configuration error under the adaptive policy, as is a ``c_hat`` that
    ``predicted_gain`` rejects.  Batch sizes must be distinct, and are
    ``n_list`` alone: one INI file may serve ``solve`` and ``sweep``, so
    its ``batch_size`` is ignored here (the CLI's ``sweep`` rejects --N).
    ``outside_theory`` marks an N whose b the rate theory of the runs'
    variant does not cover; a sequential sweep covers every N and computes
    no L_N.  Each N is priced on its own: in a parallel sweep, an N whose
    ``exact_ln_linear`` enumeration passes its cap has an empty b, with
    ``outside_theory`` false, and a stderr note names that N and the cap.
    """
    if len(n_list) < 2:
        raise ConfigError("sweep needs at least two batch sizes")
    if len(set(n_list)) < len(n_list):
        raise ConfigError(f"sweep batch sizes must be distinct, got {n_list}")
    if c_hat is not None and cfg.beta_policy == "adaptive":
        raise ConfigError("--c-hat predictions need a constant stepsize; the "
                          "adaptive beta policy has none")
    instance = instance or build_problem(cfg)
    validate(cfg, instance.spec, n_list)
    out_dirs = {size: os.path.join(cfg.out_dir, f"N{size}") for size in n_list}
    for path in out_dirs.values():
        _check_out_dir(path)
    gains = {}
    if c_hat is not None:
        for size in n_list:
            try:
                gains[size] = predicted_gain(
                    instance.poly, cfg.variant, initial_beta(cfg), c_hat,
                    instance.spec.M_g, size,
                    with_replacement=cfg.sampler == "iid-uniform")
            except OracleError as exc:  # L_N enumeration above its cap
                print(f"note: no predicted_b for N = {size}: {exc}", file=sys.stderr)
    results = run(instance.spec, cfg, poly=instance.poly, sizes=n_list)
    out = []
    base_ratio = None
    for size in n_list:
        runs = [r for r in results if r.batch_size == size]
        _write_results(replace(cfg, batch_size=size, out_dir=out_dirs[size]),
                       instance, runs)
        finals = [r.records[-1].dist_X for r in runs]
        lo, hi = bootstrap_ci(finals)
        b_val = gains.get(size)
        ratio = None
        if b_val is not None and b_val > 0:
            raw = 1.0 / np.sqrt(b_val)
            if base_ratio is None:
                base_ratio = raw
            ratio = raw / base_ratio
        out.append(SweepRow(batch_size=size, final_dist_mean=float(np.mean(finals)),
                            ci_lo=lo, ci_hi=hi, predicted_b=b_val,
                            predicted_ratio=ratio,
                            outside_theory=size in gains and b_val is None))
    return instance, out


# ---------------------------------------------------------------------------
# CLI


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` and the flag of every ``RunConfig`` setting.  An absent
    flag is None, so the file's value or the field's default stands."""
    p.add_argument("--config", help="key = value configuration file")
    for f in fields(RunConfig):
        p.add_argument(f.metadata["flag"], dest=f.name, default=None,
                       **f.metadata["cli"])


def _cfg_from_args(args) -> RunConfig:
    """The file's settings (or the defaults), overridden by every flag
    given; a flag's value goes through its setting's parser, as the file's
    text does (a ``type=int`` or ``float`` value passes through unchanged)."""
    cfg = load_config_file(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, f.metadata["parse"](value))
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
                         help="regularity constant c, with c * M_g^2 > 1, for "
                         "the predicted gain b(N) of the run's variant")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            cfg = _cfg_from_args(args)
            _, results, paths = solve_experiment(cfg)
            print(f"wrote {len(paths)} files to {cfg.out_dir}")
            final = aggregate_rows([r.records for r in results])[-1]
            for name in ("f_gap", "dist_X"):
                print(f"final mean {name}: {getattr(final, name):.6e}")
            return EXIT_OK
        if args.command == "rate-check":
            fits = rate_check(args.dir, args.k_min, args.k_max)
            for fit in fits:
                extra = "  [window truncated at metric floor]" if fit.truncated else ""
                print(f"{fit.metric}: slope {fit.slope:+.4f} "
                      f"+/- {fit.ci_half_width:.4f} over k in "
                      f"[{fit.k_lo:g}, {fit.k_hi:g}]{extra}")
            return EXIT_OK
        if args.command == "sweep":
            if args.batch_size is not None:
                raise ConfigError("sweep takes its batch sizes from --N-list; drop --N")
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
    except (ConfigError, OracleError, OSError) as exc:
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
