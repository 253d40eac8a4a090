import argparse
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from mbproj.harness import (CSV_COLUMNS, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER,
                            EXIT_WINDOW, RunConfig, WindowError, _add_solve_flags,
                            aggregate_rows, bootstrap_ci, load_config_file, main,
                            minibatch_sweep, parse_int_list, parse_seeds,
                            rate_check, read_csv,
                            solve_experiment, write_csv)
from mbproj import geometry, harness, problems, solver
from mbproj.problems import (make_builtin, make_polyhedral_benchmark,
                             predicted_gain, save_instance)
from mbproj.solver import ConfigError, RunRecord, run as solver_run


def polyfit_window(ks, values, k_min, k_max):
    """One curve's least-squares line in log-log by np.polyfit, over the
    window's points at or above the metric floor: (slope, intercept, the
    ks used, whether the floor truncated the window)."""
    mask = (ks >= k_min) & (ks <= k_max)
    alive = values >= harness.TOL_METRIC
    truncated = not np.all(alive[mask])
    mask &= alive
    if mask.sum() < 2:
        raise WindowError("fewer than two usable points in the fit window")
    slope, intercept = np.polyfit(np.log(ks[mask]), np.log(values[mask]), 1)
    return slope, intercept, ks[mask], truncated


class TestSeedsAndConfig:
    def test_parse_seed_forms(self):
        assert parse_seeds("1..5") == (1, 2, 3, 4, 5)
        assert parse_seeds("3,5,8") == (3, 5, 8)
        assert parse_seeds("7") == (7,)

    def test_empty_seed_range_names_its_cause(self):
        with pytest.raises(ConfigError, match="empty seed range"):
            parse_seeds("5..1")

    def test_config_file_and_cli_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[problem]\nbuiltin = orthant2\n\n"
            "[solver]\nvariant = sequential\nbatch_size = 2\nbeta = 0.9\n"
            "iterations = 50\n\n"
            "[logging]\ncadence = geometric\n\n"
            "[output]\nseeds = 1..3\nout_dir = unused\n")
        cfg = load_config_file(path)
        assert cfg.builtin == "orthant2"
        assert cfg.variant == "sequential"
        assert cfg.beta == 0.9
        assert cfg.seeds == (1, 2, 3)
        # CLI flags override file values
        out = tmp_path / "out"
        code = main(["solve", "--config", str(path), "--variant", "parallel",
                     "--iters", "20", "--out", str(out)])
        assert code == EXIT_OK
        comments, _ = read_csv(out / "aggregate.csv")
        assert "# solver.variant = parallel" in comments
        assert "# solver.iterations = 20" in comments

    def test_unknown_config_key_rejected(self, tmp_path):
        # init_scale was a setting once and is an unknown key now
        path = tmp_path / "bad.ini"
        for key in ("bogus", "init_scale"):
            path.write_text(f"[solver]\n{key} = 1\n")
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_config_file(path)

    @pytest.mark.parametrize("key,message", [
        ("variant", "unknown variant 'partition'"),
        ("beta_policy", "unknown beta policy 'partition'"),
        ("init", "unknown init rule 'partition'"),
        ("assertions", "unknown assertions mode 'partition'"),
        ("sampler", "unknown sampler variant 'partition'"),
    ], ids=["variant", "beta_policy", "init", "assertions", "sampler"])
    def test_unknown_choice_in_config_is_config_error(self, tmp_path, capsys,
                                                      key, message):
        # the file takes no argparse choices: the validators reject the value
        path = tmp_path / "run.ini"
        path.write_text("[problem]\nbuiltin = orthant2\n\n"
                        f"[solver]\n{key} = partition\n")
        code = main(["solve", "--config", str(path), "--N", "1", "--iters", "5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not os.path.exists(tmp_path / "x")


def _solve_parser():
    parser = argparse.ArgumentParser()
    _add_solve_flags(parser)
    return parser


# a non-default value of every RunConfig field, as the text of its INI key
SETTING_TEXT = {
    "problem.builtin": "orthonormal", "problem.instance": "inst.txt",
    "problem.n": "7", "problem.m": "9", "problem.problem_seed": "3",
    "solver.variant": "sequential", "solver.batch_size": "2",
    "solver.beta_policy": "adaptive", "solver.beta": "0.5",
    "solver.delta": "0.2", "solver.ln_hint": "0.75", "solver.iterations": "50",
    "solver.sampler": "iid-uniform", "solver.init": "zero",
    "solver.assertions": "lemma-checks",
    "logging.cadence": "5", "output.seeds": "2..4",
    "output.out_dir": "elsewhere",
}


class TestOneOwnerPerSetting:
    """RunConfig's fields are the one list of a run's settings, so its INI
    keys, its flags and its CSV header cannot drift apart."""

    def test_eighteen_fields_eighteen_flags(self):
        names = [f.name for f in fields(RunConfig)]
        assert names == [key.split(".")[1] for key in SETTING_TEXT]
        dests = [a.dest for a in _solve_parser()._actions
                 if a.dest not in ("help", "config")]
        assert dests == names                  # in field order

    @pytest.mark.parametrize("key", list(SETTING_TEXT))
    def test_file_and_flag_echo_the_same_header(self, tmp_path, key):
        section, name = key.split(".")
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{name} = {SETTING_TEXT[key]}\n")
        parser = _solve_parser()
        # the file's value survives when no flag overrides it
        from_file = harness._cfg_from_args(parser.parse_args(["--config", str(path)]))
        assert from_file == load_config_file(path)
        assert getattr(from_file, name) != getattr(RunConfig(), name)
        action = next(a for a in parser._actions if a.dest == name)
        argv = [action.option_strings[0], SETTING_TEXT[key]]
        from_flag = harness._cfg_from_args(parser.parse_args(argv))
        assert from_flag == from_file
        assert from_flag.echo_items() == from_file.echo_items()

    def test_default_solve_header_is_pinned(self, tmp_path):
        out = tmp_path / "x"
        assert main(["solve", "--out", str(out)]) == EXIT_OK
        for name in ("run_seed1.csv", "aggregate.csv"):
            with open(out / name, "rb") as fh:
                head = fh.read().split(b"\n")[:18]
            assert head == DEFAULT_HEADER + [",".join(CSV_COLUMNS).encode()]

    @pytest.mark.parametrize("given, code, message", [
        ("flag", 2, "unrecognized arguments: --timing"),
        ("ini-key", EXIT_CONFIG, "unknown key 'timing'"),
        ("eight-columns", EXIT_WINDOW,
         "has no column line 'seed,k,f_gap,max_violation,dist_X,LN_k,beta_k'"),
    ], ids=["flag", "ini-key", "eight-columns"])
    def test_timing_inputs_fail_loudly(self, tmp_path, capsys, given, code,
                                       message):
        # CSVs hold results only: the timing flag, its INI key and a CSV with
        # the elapsed_ns column are rejected, each naming what it rejects
        out = ["--out", str(tmp_path / "x")]
        if given == "flag":
            argv = ["solve", "--timing", *out]
        elif given == "ini-key":
            path = tmp_path / "run.ini"
            path.write_text("[logging]\ntiming = true\n")
            argv = ["solve", "--config", str(path), *out]
        else:
            ks = [2 ** j for j in range(15)] + [40000]
            for seed in (1, 2):
                (tmp_path / f"run_seed{seed}.csv").write_text(
                    "# logging.timing = false\n"
                    + ",".join(CSV_COLUMNS) + ",elapsed_ns\n"
                    + "".join(f"{seed},{k},{1 / k},0,{1 / k},,1,0\n" for k in ks))
            argv = ["rate-check", "--dir", str(tmp_path), "--k-min", "100",
                    "--k-max", "40000"]
        try:
            got = main(argv)
        except SystemExit as exc:             # argparse's own exit
            got = exc.code
        assert got == code
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")


# the 17 header lines of ``mbproj solve`` with every setting at its default
DEFAULT_HEADER = [
    b"# problem.builtin = benchmark",
    b"# problem.instance = ",
    b"# problem.n = 10",
    b"# problem.m = 20",
    b"# problem.problem_seed = 0",
    b"# solver.variant = parallel",
    b"# solver.batch_size = 4",
    b"# solver.beta_policy = fixed",
    b"# solver.beta = 1.0",
    b"# solver.delta = 0.1",
    b"# solver.ln_hint = ",
    b"# solver.iterations = 10000",
    b"# solver.sampler = without-replacement",
    b"# solver.init = gaussian",
    b"# solver.assertions = off",
    b"# logging.cadence = geometric",
    b"# output.seeds = 1",
]


def _choice_cases():
    """(flag, value, companion flags) for every value of every solve flag
    that has ``choices``."""
    parser = _solve_parser()
    companions = {"extrapolated": ["--variant", "parallel", "--ln-hint", "1.0"],
                  "adaptive": ["--variant", "parallel"]}
    return [(action.option_strings[0], value, companions.get(value, []))
            for action in parser._actions if action.choices
            for value in action.choices]


CHOICE_CASES = _choice_cases()


class TestEveryChoiceRuns:
    @pytest.mark.parametrize("flag,value,extra", CHOICE_CASES,
                             ids=[f"{f}={v}" for f, v, _ in CHOICE_CASES])
    def test_tiny_solve_exits_ok(self, tmp_path, flag, value, extra):
        code = main(["solve", "--builtin", "orthant2", "--N", "1", "--iters", "5",
                     "--seeds", "1", "--out", str(tmp_path / "x"), flag, value]
                    + extra)
        assert code == EXIT_OK

    def test_sampler_choices(self):
        assert {(f, v) for f, v, _ in CHOICE_CASES if f == "--sampler"} == \
            {("--sampler", "iid-uniform"), ("--sampler", "without-replacement")}


class TestSolveCommand:
    def test_distance_oracle_error_exits_3_with_one_line(self, tmp_path, capsys,
                                                        monkeypatch):
        # a certificate failure raised in a flush of log points stops the
        # run: exit 3, its one stderr line, and no output directory
        def failing(poly, simple_set, v, active):
            raise geometry.DistanceOracleError("certificate failed", residuals={})

        monkeypatch.setattr(solver, "distance_oracle", failing)
        code = main(["solve", "--iters", "20", "--seeds", "1,2",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err == "distance oracle: certificate failed\n"
        assert not os.path.exists(tmp_path / "x")

    def test_orthant2_end_to_end(self, tmp_path):
        # the harness smoke configuration: parallel batches of 2 on the corner
        # problem, 10^4 iterations, 20 seeds
        out = tmp_path / "runs"
        code = main(["solve", "--builtin", "orthant2", "--variant", "parallel",
                     "--N", "2", "--beta", "1.0", "--iters", "10000",
                     "--seeds", "1..20", "--out", str(out)])
        assert code == EXIT_OK
        files = sorted(os.listdir(out))
        assert "aggregate.csv" in files
        assert sum(f.startswith("run_seed") for f in files) == 20
        comments, rows = read_csv(out / "run_seed1.csv")
        # geometric cadence plus the final iteration
        ks = [int(r.k) for r in rows]
        assert ks == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                      4096, 8192, 10000]
        with open(out / "run_seed1.csv") as fh:
            for line in fh:
                if not line.startswith("#"):
                    assert line.strip() == ",".join(CSV_COLUMNS)
                    break
        # final mean dist stays below the fitted-rate envelope
        fits = rate_check(str(out), 100, 10000)
        dist_fit = next(f for f in fits if f.metric == "dist_X")
        assert -1.3 <= dist_fit.slope <= -0.8
        _, agg = read_csv(out / "aggregate.csv")
        final = agg[-1]
        envelope = 2.0 * np.exp(dist_fit.intercept) * final.k ** dist_fit.slope
        assert final.dist_X <= envelope

    def test_benchmark_parallel_rate_with_sampling(self, tmp_path):
        # N = 4 of m = 20 rows without replacement: each batch is a random
        # subset.  dist_X falls at the paper's O(1/k) rate, fitted late, past
        # the slower start, in test_orthant2_end_to_end's band
        out = tmp_path / "runs"
        code = main(["solve", "--builtin", "benchmark", "--n", "10", "--m", "20",
                     "--problem-seed", "1", "--variant", "parallel", "--N", "4",
                     "--beta", "1.0", "--iters", "30000", "--seeds", "1..6",
                     "--out", str(out)])
        assert code == EXIT_OK
        fits = rate_check(str(out), 300, 30000)
        dist_fit = next(f for f in fits if f.metric == "dist_X")
        assert -1.3 <= dist_fit.slope <= -0.8

    def test_benchmark_sequential_rate_with_sampling(self, tmp_path):
        # the chained pass on the parallel test's instance, problem seed 1,
        # with N = 4 < m = 20: dist_X falls at the paper's O(1/k) rate in the
        # same band
        out = tmp_path / "runs"
        code = main(["solve", "--builtin", "benchmark", "--n", "10", "--m", "20",
                     "--problem-seed", "1", "--variant", "sequential", "--N", "4",
                     "--beta", "1.0", "--iters", "30000", "--seeds", "1..6",
                     "--out", str(out)])
        assert code == EXIT_OK
        fits = rate_check(str(out), 300, 30000)
        dist_fit = next(f for f in fits if f.metric == "dist_X")
        assert -1.3 <= dist_fit.slope <= -0.8

    def test_aggregate_is_arithmetic_mean_of_per_seed_files(self, tmp_path):
        out = tmp_path / "runs"
        code = main(["solve", "--builtin", "benchmark", "--n", "4", "--m", "6",
                     "--variant", "parallel", "--N", "2", "--beta", "1.0",
                     "--iters", "64", "--seeds", "1..4", "--out", str(out)])
        assert code == EXIT_OK
        per_seed = [read_csv(out / f"run_seed{s}.csv")[1] for s in (1, 2, 3, 4)]
        _, agg = read_csv(out / "aggregate.csv")
        for i, row in enumerate(agg):
            for col in ("f_gap", "max_violation", "dist_X", "beta_k"):
                vals = [getattr(ps[i], col) for ps in per_seed
                        if getattr(ps[i], col) is not None]
                if vals:
                    assert getattr(row, col) == pytest.approx(np.mean(vals), rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--builtin", "benchmark", "--n", "4", "--m", "6", "--seeds", "1..3"],
        ["--builtin", "orthant2", "--variant", "sequential", "--seeds", "2,5"],
    ], ids=["parallel", "sequential"])
    def test_summary_is_the_aggregate_last_row(self, tmp_path, capsys, argv):
        out = tmp_path / "runs"
        assert main(["solve", "--N", "2", "--iters", "100", "--out", str(out)]
                    + argv) == EXIT_OK
        _, agg = read_csv(out / "aggregate.csv")
        # every problem has constraints and a known optimum, so neither is
        # empty
        shown = [format(v, ".6e") for v in (agg[-1].f_gap, agg[-1].dist_X)]
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"final mean f_gap: {shown[0]}", f"final mean dist_X: {shown[1]}"]

    def test_zero_iterations_is_config_error(self, tmp_path):
        code = main(["solve", "--builtin", "orthant2", "--iters", "0",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["solve", "--N", "0"],
        ["solve", "--builtin", "benchmark", "--n", "4", "--m", "3", "--N", "4"],
        ["solve", "--iters", "0"],
        ["solve", "--seeds", ","],
        ["solve", "--beta-policy", "extrapolated"],
        ["solve", "--variant", "sequential", "--beta", "2.0"],
        ["sweep", "--builtin", "benchmark", "--n", "4", "--m", "3",
         "--N-list", "1,4", "--iters", "20", "--seeds", "1"],
        ["solve", "--seeds=-1"],
        ["solve", "--problem-seed=-1"],
        ["solve", "--seeds", "1,1,2"],
        ["sweep", "--builtin", "benchmark", "--n", "4", "--m", "6",
         "--N-list", "1,2,2", "--iters", "20", "--seeds", "1"],
        ["solve", "--seeds", "", "--iters", "5"],
        ["solve", "--iters", "5", "--config", "builtin = orthant2\n"],
        ["solve", "--iters", "5", "--config", "[problem]\nn = 4\n[problem]\nm = 6\n"],
        ["solve", "--iters", "5", "--config", "[problem]\nbuiltin\n"],
        ["solve", "--iters", "5", "--config", "[output]\nout_dir = a%b\n"],
        ["solve", "--config", None],
        ["solve", "--cadence", "0"],
        ["sweep", "--N-list", "1,2", "--cadence", "0"],
        ["solve", "--beta-policy", "adaptive", "--delta", "1.5"],
        ["solve", "--beta-policy", "adaptive", "--delta", "0"],
    ], ids=["N0", "N-above-m", "iters0", "no-seeds", "extrapolated-no-hint",
            "sequential-beta2", "sweep-N-above-m",
            "negative-seed", "negative-problem-seed", "repeated-seed",
            "sweep-repeated-N", "empty-seeds", "ini-no-section",
            "ini-repeated-section", "ini-no-equals", "ini-bare-percent",
            "missing-config", "cadence0", "sweep-cadence0", "delta-above-1",
            "delta0"])
    def test_rejected_run_leaves_no_out_dir(self, tmp_path, capsys, argv):
        # solver.validate is the one gate; it runs before the out directory
        # is created, and a sweep passes every N through it first.  A
        # --config value here is the text of a file, written out before the
        # call, or None for a file that does not exist
        if "--config" in argv:
            at = argv.index("--config") + 1
            ini = tmp_path / "run.ini"
            if argv[at] is not None:
                ini.write_text(argv[at])
            argv = argv[:at] + [str(ini)] + argv[at + 1:]
        code = main(argv + ["--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "--config" not in argv or str(tmp_path / "run.ini") in err
        assert not os.path.exists(tmp_path / "x")

    def test_instance_file_header_leaves_builtin_empty(self, tmp_path):
        # the file alone determines the problem: whatever --builtin and
        # --problem-seed say, the header leaves both empty and the rows agree
        path = tmp_path / "inst.txt"
        save_instance(make_builtin("benchmark", n=3, m=4, seed=0), path)
        files = []
        for name, extra in (("given", ["--builtin", "orthonormal",
                                       "--problem-seed", "3"]), ("default", [])):
            out = tmp_path / name
            assert main(["solve", "--instance", str(path), "--iters", "20",
                         "--seeds", "1,2", "--out", str(out)] + extra) == EXIT_OK
            files.append([read_csv(out / f) for f in
                          ("run_seed1.csv", "run_seed2.csv", "aggregate.csv")])
        for (head, rows), (other_head, other_rows) in zip(*files):
            assert head == other_head and rows == other_rows
            assert head[:5] == ["# problem.builtin = ", f"# problem.instance = {path}",
                                "# problem.n = 3", "# problem.m = 4",
                                "# problem.problem_seed = "]

    def test_bad_builtin_is_config_error(self, tmp_path):
        code = main(["solve", "--builtin", "nope", "--iters", "5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_unconstrained_is_an_unknown_builtin(self, tmp_path, capsys):
        # every problem has functional constraints, so no builtin has none
        code = main(["solve", "--builtin", "unconstrained", "--iters", "5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown builtin problem 'unconstrained'" in err
        assert str(sorted(problems.BUILTINS)) in err and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "x")

    def test_instance_without_rows_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "norows.txt"
        path.write_text("2 0\nobjective quadratic\ncenter 1 1\nset ball 0 0 5\n")
        code = main(["solve", "--instance", str(path), "--iters", "5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("configuration error: a polyhedron needs at least one "
                       "constraint row\n")
        assert not os.path.exists(tmp_path / "x")

    def test_divergent_run_is_solver_abort(self, tmp_path):
        # an extrapolated stepsize against a wildly understated alignment
        # bound (hint 0.001, realized L_N,k = 1 on duplicated rows); the ball
        # projection keeps the iterates finite, so the abort comes from the
        # realized L_N,k exceeding the declared hint
        code = main(["solve", "--builtin", "duplicated", "--n", "4", "--m", "6",
                     "--variant", "parallel", "--N", "2",
                     "--beta-policy", "extrapolated", "--delta", "0.1",
                     "--ln-hint", "0.001", "--iters", "2000", "--seeds", "1",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_SOLVER

    @pytest.mark.parametrize("extra", [
        ["--variant", "parallel", "--beta", "1.0"],
        ["--variant", "parallel", "--beta-policy", "adaptive"],
        ["--variant", "sequential", "--beta", "1.0"],
        ["--variant", "parallel", "--beta", "1.0", "--sampler", "iid-uniform"],
        ["--variant", "sequential", "--beta", "1.0", "--assertions", "lemma-checks"],
    ], ids=["parallel-fixed", "parallel-adaptive", "sequential", "iid-uniform",
            "lemma-checks"])
    def test_byte_identical_outputs_across_invocations_and_seed_splits(self, tmp_path,
                                                                       extra):
        args = ["solve", "--builtin", "benchmark", "--n", "4", "--m", "6",
                "--N", "2", "--iters", "200"] + extra
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(args + ["--seeds", "1..6", "--out", str(out)]) == EXIT_OK
            blob = {}
            for name in sorted(os.listdir(out)):
                with open(out / name, "rb") as fh:
                    blob[name] = fh.read()
            blobs.append(blob)
        assert blobs[0] == blobs[1]

        def data_rows(path):
            with open(path, "rb") as fh:
                return [line for line in fh if not line.startswith(b"#")]

        # a seed's rows do not depend on the other seeds of its block: a
        # 6-seed block, a 3-seed block and single seeds agree byte for byte
        assert main(args + ["--seeds", "1..3", "--out", str(tmp_path / "three")]) \
            == EXIT_OK
        for seed in range(1, 7):
            name = f"run_seed{seed}.csv"
            out = tmp_path / f"single{seed}"
            assert main(args + ["--seeds", str(seed), "--out", str(out)]) == EXIT_OK
            assert data_rows(out / name) == data_rows(tmp_path / "a" / name)
            if seed <= 3:
                assert data_rows(tmp_path / "three" / name) == \
                    data_rows(tmp_path / "a" / name)

    @pytest.mark.parametrize("fault", ["understated-ln", "nan-value"])
    def test_abort_in_a_block_names_the_failing_seed(self, tmp_path, capsys,
                                                    monkeypatch, fault):
        # seed 2 of the block fails first: alone it aborts at k=k2, and seeds
        # 1 and 3 alone fail later or never; the block stops at k2 naming it
        args = ["solve", "--builtin", "benchmark", "--n", "6", "--m", "10",
                "--variant", "parallel", "--iters", "300"]
        if fault == "understated-ln":
            # realized ratios of 3-batches reach 0.87 on this instance
            args += ["--N", "3", "--beta-policy", "extrapolated", "--delta", "0.1",
                     "--ln-hint", "0.5"]
            k2 = 3
        else:
            # the family reports NaN for constraint 8, which seed 2 draws first
            args += ["--N", "1"]
            k2 = 1
            build = harness.build_problem

            def poisoned(cfg):
                inst = build(cfg)
                fam = inst.spec.constraints

                def batch(indices, v):
                    values, rows = fam.batch(indices, v)
                    return np.where(indices == 8, np.nan, values), rows

                inst.spec = replace(inst.spec, constraints=replace(fam, batch=batch))
                return inst

            monkeypatch.setattr(harness, "build_problem", poisoned)

        def abort_k(seeds, out):
            code = main(args + ["--seeds", seeds, "--out", str(out)])
            err = capsys.readouterr().err
            if code == EXIT_OK:
                return None
            assert code == EXIT_SOLVER, err
            return int(re.search(r"at k=(\d+), seed (\d+)", err).group(1)), err

        k, err = abort_k("1..3", tmp_path / "block")
        assert k == k2
        assert "seed 2" in err and "'seed': 2" in err
        # no seed of an aborted block finishes, so no CSV, not even the
        # out directory, is written
        assert not os.path.exists(tmp_path / "block")
        assert abort_k("2", tmp_path / "two")[0] == k2
        for seed in ("1", "3"):
            alone = abort_k(seed, tmp_path / seed)
            assert alone is None or alone[0] > k2

    @pytest.mark.parametrize("extra", [
        ["--variant", "parallel", "--beta-policy", "adaptive"],
        ["--variant", "sequential", "--beta", "1.0"],
    ], ids=["adaptive", "sequential"])
    def test_unchecked_ln_hint_is_config_error(self, tmp_path, extra):
        # neither run checks a declared L_N, so the hint must not be accepted
        # (every batch of the duplicated rows has L_N,k = 1)
        code = main(["solve", "--builtin", "duplicated", "--n", "4", "--m", "6",
                     "--N", "2", "--ln-hint", "0.001", "--iters", "200",
                     "--seeds", "1", "--out", str(tmp_path / "x")] + extra)
        assert code == EXIT_CONFIG

    def test_non_integer_cadence_is_config_error(self, tmp_path):
        code = main(["solve", "--builtin", "orthant2", "--iters", "50",
                     "--cadence", "ten", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        path = tmp_path / "run.ini"
        path.write_text("[problem]\nbuiltin = orthant2\n\n"
                        "[logging]\ncadence = ten\n")
        with pytest.raises(ConfigError, match="cadence"):
            load_config_file(path)
        code = main(["solve", "--config", str(path), "--iters", "50",
                     "--out", str(tmp_path / "y")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["solve", "--seeds", "a"],
        ["solve", "--seeds", "1..a"],
        ["sweep", "--seeds", "1", "--N-list", "1,x"],
    ], ids=["seeds", "seed-range", "N-list"])
    def test_non_integer_list_is_config_error(self, tmp_path, capsys, argv):
        code = main(argv + ["--builtin", "orthant2", "--iters", "5",
                            "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seeds", "--N-list"])
    @pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1,2", "1, ,2"])
    def test_empty_list_item_is_config_error(self, tmp_path, capsys, flag, text):
        # an empty item is no integer: it is not dropped from the list
        with pytest.raises(ValueError):
            parse_int_list(text)
        argv = ["sweep", "--seeds", "1", "--N-list", text] if flag == "--N-list" \
            else ["solve", "--seeds", text]
        out = tmp_path / "x"
        code = main(argv + ["--builtin", "orthant2", "--iters", "5",
                            "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and repr(text) in err
        assert not out.exists()

    @staticmethod
    def edited_instance(path, edits):
        """Save ``benchmark`` 3x4 at ``path`` and edit it: ``edits`` maps a
        key to the text of its new line, a callable of the old line, or ""
        to drop it, a text being appended when the file has no such key
        (``anchor``); the key None puts nan in the first row's b entry."""
        save_instance(make_builtin("benchmark", n=3, m=4, seed=0), path)
        lines = path.read_text().splitlines()
        if None in edits:
            lines[1] = lines[1].rsplit(" ", 1)[0] + " nan"
        for key, text in edits.items():
            if key is not None and not any(ln.split()[0] == key for ln in lines):
                lines.append(text)
            lines = [(text(ln) if callable(text) else text)
                     if ln.split()[0] == key else ln for ln in lines]
            lines = [ln for ln in lines if ln]
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("field,key,text", [
        ("row 0", None, None),
        ("center", "center", "center 0.4 0.0"),
        ("xstar", "xstar", "xstar 0.2 0.2"),
        ("anchor", "anchor", "anchor 0"),
        ("mu", "mu", "mu nan"),
        ("anchr", "anchor", "anchr 0 0 0"),
        ("mu", "mu", "mu 1\nmu 2"),
        ("fstar given without xstar", "xstar", ""),
        ("xstar given without fstar", "fstar", ""),
        ("mu 20 misses the true mu", "mu", "mu 20"),
        ("Mg 0.01 misses the true Mg", "Mg", "Mg 0.01"),
        ("Mf 0.001 misses the true Mf", "Mf", "Mf 0.001"),
        ("misses the true fstar", "fstar",
         lambda line: f"fstar {float(line.split()[1]) / 2!r}"),
        ("misses the true xstar by 0.001", "xstar",
         lambda line: "xstar " + " ".join(repr(float(t) + 1e-3)
                                          for t in line.split()[1:])),
        ("anchor 0 0 100 misses the true anchor", "anchor", "anchor 0 0 100"),
        ("unsupported set variant 'cube'", "set", "set cube"),
    ], ids=["b-nan", "short-center", "short-xstar", "short-anchor", "mu-nan",
            "misspelled-anchor", "repeated-mu", "fstar-without-xstar",
            "xstar-without-fstar", "false-mu", "false-Mg", "false-Mf",
            "false-fstar", "false-xstar", "false-anchor", "set-cube"])
    def test_malformed_instance_is_config_error(self, tmp_path, capsys, field,
                                                key, text):
        # a saved 3x4 instance with one line edited; a false claim is one
        # that the problem the file defines shows false
        path = tmp_path / "instance.txt"
        self.edited_instance(path, {key: text})
        code = main(["solve", "--instance", str(path), "--iters", "50",
                     "--N", "2", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edits", [
        {"mu": "mu 0.5", "Mg": "Mg 2",
         "Mf": lambda line: f"Mf {2 * float(line.split()[1])!r}"},
        {"fstar": "", "xstar": ""},
        {"mu": "", "Mf": "", "Mg": "", "fstar": "", "xstar": ""},
        {"anchor": "anchor 0 0 0"},
    ], ids=["weaker", "no-optimum", "no-claims", "true-anchor"])
    def test_true_claims_change_nothing(self, tmp_path, edits):
        # each run reads its file from the one path that the header echoes:
        # weaker true claims, or none, write the true file's bytes, whose
        # f_gap the derived optimum gives
        path, outs = tmp_path / "instance.txt", []
        for change in ({}, edits):
            self.edited_instance(path, change)
            outs.append(tmp_path / f"out{len(outs)}")
            assert main(["solve", "--instance", str(path), "--iters", "50",
                         "--N", "2", "--seeds", "1..2",
                         "--out", str(outs[-1])]) == EXIT_OK
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])) and len(names) == 3
        for name in names:
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
        _, rows = read_csv(outs[1] / "run_seed1.csv")
        assert all(row.f_gap is not None for row in rows)

    @pytest.mark.parametrize("command,flag,name,exit_code", [
        ("solve", "--instance", "inst.txt", EXIT_CONFIG),
        ("solve", "--config", "run.ini", EXIT_CONFIG),
        ("rate-check", "--dir", "run_seed1.csv", EXIT_WINDOW),
    ], ids=["instance", "config", "rate-check-csv"])
    def test_non_utf8_file_is_one_line(self, tmp_path, capsys, command, flag,
                                       name, exit_code):
        # bytes that do not decode: one stderr line and the file's exit code
        (tmp_path / name).write_bytes(b"\xff\xfe")
        target = tmp_path if flag == "--dir" else tmp_path / name
        argv = [command, flag, str(target)]
        if command == "solve":
            argv += ["--builtin", "orthant2", "--iters", "5",
                     "--out", str(tmp_path / "x")]
        assert main(argv) == exit_code
        err = capsys.readouterr().err
        assert str(tmp_path / name) in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["--beta", "nan"], "fixed beta must be finite and positive, got nan"),
        (["--beta-policy", "extrapolated", "--ln-hint", "nan"],
         "a declared L_N must be finite and positive, got nan"),
    ], ids=["beta", "ln-hint"])
    def test_nonfinite_setting_is_config_error(self, tmp_path, capsys, argv,
                                               message):
        code = main(["solve", "--builtin", "orthant2", "--N", "2", "--iters", "5",
                     "--seeds", "1", "--out", str(tmp_path / "x")] + argv)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["--builtin", "duplicated", "--m", "0"],
        ["--builtin", "benchmark", "--n", "1"],
        ["--builtin", "benchmark", "--m", "0"],
        ["--builtin", "orthonormal", "--n", "3"],
    ], ids=["duplicated-m0", "benchmark-n1", "benchmark-m0", "orthonormal-n3"])
    def test_unbuildable_builtin_size_is_config_error(self, tmp_path, capsys, argv):
        code = main(["solve", "--iters", "5", "--seeds", "1",
                     "--out", str(tmp_path / "x")] + argv)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: need") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "x")

    def test_empty_feasible_set_is_config_error(self, tmp_path, capsys):
        # x1 <= 0 and x1 >= 1 in a radius-10 ball: building the problem
        # at load, before any run, proves the feasible set empty
        path = tmp_path / "empty.txt"
        path.write_text("2 2\n1 0 0\n-1 0 1\nobjective quadratic\n"
                        "center 0.5 0\nset ball 0 0 10\nmu 1\nMf 20\nMg 1\n")
        code = main(["solve", "--instance", str(path), "--N", "1", "--iters", "5",
                     "--seeds", "1", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "feasible set is empty" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("variant", ["parallel", "sequential"])
    def test_lemma_checks_need_no_feasible_point(self, tmp_path, capsys, variant):
        # x <= -1 and y <= -1 in the ball of center (-2, -2) and radius 5:
        # the origin is infeasible and the file names no anchor, yet the
        # checks run, and the rows are those of a run without them
        path = tmp_path / "corner.txt"
        path.write_text("2 2\n1 0 1\n0 1 1\nobjective quadratic\n"
                        "center 1 1\nset ball -2 -2 5\n")
        rows = []
        for checks in ("lemma-checks", "off"):
            out = tmp_path / checks
            assert main(["solve", "--instance", str(path), "--variant", variant,
                         "--N", "2", "--beta", "1.5", "--assertions", checks,
                         "--iters", "300", "--seeds", "1..3",
                         "--out", str(out)]) == EXIT_OK
            rows.append([ln for name in sorted(os.listdir(out))
                         for ln in (out / name).read_text().splitlines()
                         if not ln.startswith("#")])
        assert rows[0] == rows[1]
        assert "error" not in capsys.readouterr().err

    def test_failed_certificate_is_solver_exit(self, tmp_path, capsys, monkeypatch):
        # a bound no residual can meet fails the first certificate, which is
        # the build-time projection onto the feasible set
        monkeypatch.setattr(geometry, "TOL_METRIC", -1.0)
        code = main(["solve", "--builtin", "orthant2", "--iters", "5",
                     "--seeds", "1", "--out", str(tmp_path / "x")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "certificate failed" in err and "stationarity" in err

    @pytest.mark.parametrize("argv,n,m", [
        (["--builtin", "orthant2", "--n", "0", "--m", "0"], 2, 2),
        (["--builtin", "orthonormal", "--n", "5", "--m", "9"], 5, 5),
    ], ids=["orthant2", "orthonormal"])
    def test_header_echoes_built_size(self, tmp_path, argv, n, m):
        out = tmp_path / "x"
        code = main(["solve", "--N", "1", "--iters", "5", "--seeds", "1",
                     "--out", str(out)] + argv)
        assert code == EXIT_OK
        for name in ("run_seed1.csv", "aggregate.csv"):
            comments, _ = read_csv(out / name)
            assert f"# problem.n = {n}" in comments
            assert f"# problem.m = {m}" in comments

    @pytest.mark.parametrize("command,path_flag", [
        ("solve", "--instance"), ("solve", "--out"), ("sweep", "--out"),
    ], ids=["instance-is-a-directory", "solve-out-is-a-file", "sweep-out-is-a-file"])
    def test_file_system_error_is_config_error(self, tmp_path, capsys, command,
                                               path_flag):
        # reading a directory as an instance, or making the out directory
        # where a file is, raises an OSError that is one configuration line
        taken = tmp_path / "taken"
        if path_flag == "--instance":
            taken.mkdir()
        else:
            taken.write_text("")
        argv = [command, "--builtin", "orthant2", "--iters", "5",
                path_flag, str(taken)]
        if path_flag == "--instance":
            argv += ["--out", str(tmp_path / "x")]
        argv += ["--N-list", "1,2"] if command == "sweep" else ["--N", "2"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert "--N-list" not in err

    @pytest.mark.parametrize("nested", [False, True], ids=["out", "below-out"])
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_out_file_is_rejected_before_any_run(self, tmp_path, monkeypatch,
                                                 capsys, command, nested):
        # an --out that is, or lies below, an existing file is a
        # configuration error before any seed runs, and nothing is created
        runs = []

        def counted_run(*args, **kwargs):
            runs.append(args)
            return solver_run(*args, **kwargs)

        monkeypatch.setattr(harness, "run", counted_run)
        argv = [command, "--builtin", "orthant2", "--iters", "5"]
        argv += ["--N-list", "1,2"] if command == "sweep" else ["--N", "2"]
        assert main(argv + ["--out", str(tmp_path / "fine")]) == EXIT_OK
        assert len(runs) == 1
        runs.clear()
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "x" if nested else taken
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert runs == []
        assert f"output path {taken} exists and is not a directory" in \
            capsys.readouterr().err
        assert taken.read_text() == ""
        # an empty path, from the flag or from the INI file, names no
        # directory: nothing runs, and nothing appears in the working one
        monkeypatch.chdir(tmp_path)
        ini = tmp_path / "empty.ini"
        ini.write_text("[output]\nout_dir =\n")
        before = sorted(os.listdir(tmp_path))
        for given in (["--out", ""], ["--config", str(ini)]):
            assert main(argv + given) == EXIT_CONFIG
            assert runs == []
            assert "output path is empty" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before


class TestRateCheck:
    def synthetic_dir(self, tmp_path, curve, n_seeds=3, gap=None):
        # f_gap follows ``gap`` where given, else ``curve`` as dist_X does
        gap = gap or curve
        cfg = RunConfig(seeds=tuple(range(1, n_seeds + 1)))
        ks = [2 ** j for j in range(15)] + [40000]
        out = tmp_path / "synth"
        os.makedirs(out, exist_ok=True)
        for seed in cfg.seeds:
            rows = [(seed, k, gap(k, seed), 0.0, curve(k, seed), None, 1.0)
                    for k in ks]
            write_csv(os.path.join(out, f"run_seed{seed}.csv"), cfg, rows)
        write_csv(os.path.join(out, "aggregate.csv"), cfg, [])
        return str(out)

    def test_flat_curve_gives_zero_slope(self, tmp_path):
        d = self.synthetic_dir(tmp_path, lambda k, s: 3.0)
        fits = rate_check(d, 100, 40000)
        for fit in fits:
            assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_slope_invariant_under_metric_rescaling(self, tmp_path):
        d1 = self.synthetic_dir(tmp_path / "one", lambda k, s: 2.0 / k)
        d2 = self.synthetic_dir(tmp_path / "two", lambda k, s: 10.0 / k)
        s1 = rate_check(d1, 100, 40000)[0].slope
        s2 = rate_check(d2, 100, 40000)[0].slope
        assert s1 == pytest.approx(-1.0, abs=1e-10)
        assert s2 == pytest.approx(s1, abs=1e-10)

    def test_underflow_truncates_window_with_note(self, tmp_path, capsys):
        d = self.synthetic_dir(tmp_path, lambda k, s: k ** -3.0)
        fits = rate_check(d, 100, 40000)
        assert all(f.truncated for f in fits)
        assert all(f.k_hi < 40000 for f in fits)
        capsys.readouterr()
        assert main(["rate-check", "--dir", d, "--k-min", "100",
                     "--k-max", "40000"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(fits)
        assert all(line.endswith("  [window truncated at metric floor]")
                   for line in lines)

    CURVES = {
        # seed 1 crosses the floor at k = 316, seed 2 at 464, seed 3 lies
        # below it: a resample without seeds 1 and 2 has no usable point,
        # and one with seed 1 once and seed 3 twice has one
        "crossing": lambda k, s: (1e-3 * k ** -2.0, k ** -3.0, 1e-12)[s - 1],
        "noisy": lambda k, s: (1.0 + 0.3 * np.sin(k * s)) / k,
    }

    @pytest.mark.parametrize("name", list(CURVES))
    def test_one_pass_bootstrap_equals_a_fit_per_resample(self, tmp_path, name):
        # against np.polyfit on the mean curve and on each resample in turn
        d = self.synthetic_dir(tmp_path, self.CURVES[name])
        per_seed = [read_csv(os.path.join(d, f"run_seed{s}.csv"))[1]
                    for s in (1, 2, 3)]
        ks = np.array([row.k for row in per_seed[0]])
        window = (ks >= 100) & (ks <= 40000)
        fits, skipped = rate_check(d, 100, 40000), 0
        for fit, column in zip(fits, ("f_gap", "dist_X")):
            curves = np.abs([[getattr(row, column) for row in rows]
                             for rows in per_seed])
            slope, intercept, used, truncated = polyfit_window(
                ks, curves.mean(axis=0), 100, 40000)
            rng = np.random.default_rng(harness.BOOTSTRAP_SEED)
            slopes = []
            for _ in range(harness.BOOTSTRAP_RESAMPLES):
                pick = rng.integers(0, 3, size=3)
                try:
                    slopes.append(polyfit_window(
                        ks, curves[pick].mean(axis=0), 100, 40000)[0])
                except WindowError:
                    slopes.append(np.nan)
            slopes = np.array(slopes)
            kept = slopes[~np.isnan(slopes)]
            half = (np.percentile(kept, 97.5) - np.percentile(kept, 2.5)) / 2.0
            assert fit.slope == pytest.approx(slope, abs=1e-12)
            assert fit.intercept == pytest.approx(intercept, abs=1e-12)
            assert fit.ci_half_width == pytest.approx(half, abs=1e-12)
            assert (fit.k_lo, fit.k_hi, fit.truncated) == \
                (used.min(), used.max(), truncated)
            rng = np.random.default_rng(harness.BOOTSTRAP_SEED)
            picks = rng.integers(0, 3, size=(harness.BOOTSTRAP_RESAMPLES, 3))
            batched, _, _ = harness._fit_lines(
                ks[window], curves[picks].mean(axis=1)[:, window])
            np.testing.assert_allclose(batched, slopes, rtol=0, atol=1e-12)
            skipped += np.count_nonzero(np.isnan(slopes))
        if name == "crossing":
            assert skipped > 0 and all(f.truncated for f in fits)

    def test_no_per_seed_file_rejected(self, tmp_path):
        d = self.synthetic_dir(tmp_path, lambda k, s: 1.0 / k)
        for name in os.listdir(d):
            if name.startswith("run_seed"):
                os.remove(os.path.join(d, name))
        with pytest.raises(WindowError, match="no per-seed CSV files"):
            rate_check(d, 100, 40000)

    def test_empty_f_gap_column_fits_dist_x_alone(self, tmp_path):
        # a run without a known optimum logs f_gap empty
        d = self.synthetic_dir(tmp_path, lambda k, s: 2.0 / k, gap=lambda k, s: None)
        fits = rate_check(d, 100, 40000)
        assert [fit.metric for fit in fits] == ["dist_X"]
        assert fits[0].slope == pytest.approx(-1.0, abs=1e-10)

    def test_fewer_than_two_usable_points_rejected(self, tmp_path):
        # only k = 128 of the window lies above the metric floor
        d = self.synthetic_dir(tmp_path, lambda k, s: 1.0 if k == 128 else 1e-12)
        with pytest.raises(WindowError, match="fewer than two usable points"):
            rate_check(d, 100, 40000)

    def test_no_complete_column_rejected(self, tmp_path):
        # f_gap is empty, and seed 2 misses one dist_X
        d = self.synthetic_dir(tmp_path, lambda k, s: None if (k, s) == (8, 2) else 1.0 / k,
                               gap=lambda k, s: None)
        with pytest.raises(WindowError, match="no complete metric columns"):
            rate_check(d, 100, 40000)

    def test_narrow_window_rejected(self, tmp_path):
        d = self.synthetic_dir(tmp_path, lambda k, s: 1.0 / k)
        with pytest.raises(WindowError, match="decades"):
            rate_check(d, 100, 5000)

    def test_uncovered_window_rejected(self, tmp_path):
        d = self.synthetic_dir(tmp_path, lambda k, s: 1.0 / k)
        with pytest.raises(WindowError, match="cover"):
            rate_check(d, 100, 100000)

    def test_window_error_exit_code(self, tmp_path):
        d = self.synthetic_dir(tmp_path, lambda k, s: 1.0 / k)
        assert main(["rate-check", "--dir", d, "--k-min", "100",
                     "--k-max", "5000"]) == EXIT_WINDOW
        assert main(["rate-check", "--dir", d, "--k-min", "100",
                     "--k-max", "40000"]) == EXIT_OK

    @pytest.mark.parametrize("k_min,k_max", [
        ("0", "40000"), ("-1", "40000"), ("nan", "40000"), ("100", "inf"),
        ("40000", "100"),
    ])
    def test_degenerate_window_is_window_error(self, tmp_path, capsys, k_min,
                                               k_max):
        d = self.synthetic_dir(tmp_path, lambda k, s: 1.0 / k)
        assert main(["rate-check", "--dir", d, "--k-min", k_min,
                     "--k-max", k_max]) == EXIT_WINDOW
        assert "0 < k_min < k_max" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", [
        [10 * j for j in range(1, 17)],
        [2 ** j for j in range(15)],
    ], ids=["same-length", "shorter"])
    def test_seeds_on_other_k_grids_are_window_error(self, tmp_path, capsys, ks):
        # seeds 1 and 2 log the geometric grid up to 40000, seed 3 another
        # grid: its column cannot be averaged with theirs
        d = self.synthetic_dir(tmp_path, lambda k, s: 1.0 / k)
        rows = [(3, k, 1.0 / k, 0.0, 1.0 / k, None, 1.0) for k in ks]
        write_csv(os.path.join(d, "run_seed3.csv"), RunConfig(seeds=(3,)), rows)
        assert main(["rate-check", "--dir", d, "--k-min", "100",
                     "--k-max", "40000"]) == EXIT_WINDOW
        err = capsys.readouterr().err
        assert err.startswith("window error: run_seed3.csv") and err.count("\n") == 1

    @pytest.mark.parametrize("text,cause", [
        (",".join(CSV_COLUMNS) + "\n", "no data rows"),
        ("", "no column line"),
        ("seed,k,f_gap\n1,1,0.5\n", "no column line"),
        (",".join(CSV_COLUMNS) + "\n1,1,0.5\n", "malformed row"),
        (",".join(CSV_COLUMNS) + "\n1,1,x,0,0,,1\n", "malformed row"),
    ], ids=["header-only", "empty", "other-columns", "short-row", "bad-cell"])
    def test_unreadable_seed_file_is_window_error(self, tmp_path, capsys, text,
                                                  cause):
        d = self.synthetic_dir(tmp_path, lambda k, s: 1.0 / k)
        path = os.path.join(d, "run_seed2.csv")
        with open(path, "w") as fh:
            fh.write("# solver.variant = parallel\n" + text)
        assert main(["rate-check", "--dir", d, "--k-min", "100",
                     "--k-max", "40000"]) == EXIT_WINDOW
        err = capsys.readouterr().err
        assert err.startswith("window error: ") and err.count("\n") == 1
        assert path in err and cause in err

    def test_dir_that_is_a_file_is_config_error(self, tmp_path):
        path = tmp_path / "not_a_dir.csv"
        path.write_text("")
        assert main(["rate-check", "--dir", str(path)]) == EXIT_CONFIG
        assert main(["rate-check", "--dir", str(tmp_path / "missing")]) == EXIT_CONFIG


class TestSweep:
    def test_sweep_rows_and_cli(self, tmp_path):
        cfg = RunConfig(builtin="benchmark", n=4, m=6, problem_seed=2,
                        variant="sequential", beta=1.0, iterations=300,
                        seeds=tuple(range(1, 6)),
                        out_dir=str(tmp_path / "sweep"))
        inst = make_polyhedral_benchmark(4, 6, seed=2)
        _, rows = minibatch_sweep(cfg, [1, 4], c_hat=4.0, instance=inst)
        assert [r.batch_size for r in rows] == [1, 4]
        for r in rows:
            assert r.ci_lo <= r.final_dist_mean <= r.ci_hi
        assert rows[0].predicted_b is not None
        assert rows[1].predicted_b > rows[0].predicted_b  # sequential gain grows
        code = main(["sweep", "--builtin", "benchmark", "--n", "4", "--m", "6",
                     "--variant", "sequential", "--beta", "1.0",
                     "--iters", "200", "--seeds", "1..4", "--N-list", "1,2",
                     "--out", str(tmp_path / "cli_sweep")])
        assert code == EXIT_OK

    def test_iid_sweep_predicts_no_gain(self, tmp_path):
        # an iid batch may repeat one index N times, with ratio exactly 1, so
        # L_N = 1 and the predicted gain is flat in N (N = 4 > m = 2 included)
        cfg = RunConfig(builtin="orthant2", sampler="iid-uniform", beta=1.0,
                        iterations=50, seeds=(1, 2), out_dir=str(tmp_path / "s"))
        _, rows = minibatch_sweep(cfg, [1, 2, 4], c_hat=2.0)
        assert [r.predicted_ratio for r in rows] == [1.0, 1.0, 1.0]

    def test_predictions_use_the_runs_stepsize(self, tmp_path):
        # extrapolated runs step with beta = (2 - 0.1) / 1.0 = 1.9, and the
        # predictions are priced at that beta, not at the unused --beta
        cfg = RunConfig(builtin="benchmark", n=4, m=6, variant="parallel",
                        beta_policy="extrapolated", delta=0.1, ln_hint=1.0,
                        iterations=50, seeds=(1, 2), out_dir=str(tmp_path / "s"))
        inst, rows = minibatch_sweep(cfg, [1, 2], c_hat=4.0)
        assert [r.predicted_b for r in rows] == [
            predicted_gain(inst.poly, "parallel", 1.9, 4.0, 1.0, size)
            for size in (1, 2)]

    def test_sequential_sweep_computes_no_ln(self, tmp_path, monkeypatch):
        def unused(poly, batch_size):
            raise AssertionError("a sequential sweep computed L_N")

        monkeypatch.setattr(problems, "exact_ln_linear", unused)
        cfg = RunConfig(builtin="benchmark", n=4, m=6, variant="sequential",
                        iterations=20, seeds=(1, 2), out_dir=str(tmp_path / "s"))
        _, rows = minibatch_sweep(cfg, [1, 4], c_hat=4.0)
        assert all(r.predicted_b is not None for r in rows)

    def test_outside_theory_is_the_runs_variant(self, tmp_path, capsys):
        # c_hat M_g^2 = 1.05 > 1 covers the sequential variant at every N,
        # though c_hat M_g^2 L_N = 1.05 / 4 <= 1 leaves parallel N = 4 out;
        # q = 1 / 1.05 gives b = 21^N - 1
        code = main(["sweep", "--builtin", "orthonormal", "--n", "6",
                     "--variant", "sequential", "--beta", "1", "--N-list", "1,4",
                     "--c-hat", "1.05", "--iters", "50", "--seeds", "1..2",
                     "--out", str(tmp_path / "s")])
        assert code == EXIT_OK
        rows = [line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], r[6]) for r in rows] == [("1", "false"), ("4", "false")]
        assert float(rows[1][4]) == pytest.approx(21.0 ** 4 - 1.0, rel=1e-5)

    @pytest.mark.parametrize("variant,expected", [
        ("sequential", [1.0, 2.0 ** 20 - 1.0]),
        ("parallel", [1.0, None]),
    ], ids=["sequential", "parallel"])
    def test_sequential_sweep_past_enumeration_cap_is_priced(self, tmp_path, capsys,
                                                             variant, expected):
        # C(60, 20) subsets exceed the L_N enumeration cap, which a
        # sequential prediction never reaches; a parallel sweep prices each
        # N on its own, so only N = 20 loses its prediction (L_1 = 1 needs
        # no enumeration)
        cfg = RunConfig(builtin="benchmark", n=10, m=60, variant=variant,
                        iterations=20, seeds=(1, 2), out_dir=str(tmp_path / "s"))
        _, rows = minibatch_sweep(cfg, [1, 20], c_hat=2.0)
        # q = 1 * (2 - 1) / 2 = 0.5, so b = 2^N - 1 (and b = 1 at N = 1 in
        # the parallel variant too, where L_1 = 1)
        assert [r.predicted_b for r in rows] == pytest.approx(expected)
        assert not any(r.outside_theory for r in rows)
        notice = capsys.readouterr().err
        if variant == "parallel":
            assert notice.count("\n") == 1
            assert "N = 20" in notice and "1000000 cap" in notice
        else:
            assert notice == ""

    def test_c_hat_under_adaptive_policy_is_config_error(self, tmp_path, capsys):
        code = main(["sweep", "--builtin", "benchmark", "--n", "4", "--m", "6",
                     "--variant", "parallel", "--beta-policy", "adaptive",
                     "--iters", "20", "--seeds", "1..2", "--N-list", "1,2",
                     "--c-hat", "4", "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert "adaptive" in capsys.readouterr().err

    @pytest.mark.parametrize("c_hat", ["0.5", "-3", "nan", "inf"])
    def test_unusable_c_hat_is_config_error(self, tmp_path, capsys, c_hat):
        # each used to exit 0 with empty, nan or zero predictions
        code = main(["sweep", "--builtin", "benchmark", "--n", "4", "--m", "6",
                     "--N-list", "1,2", "--c-hat", c_hat, "--iters", "50",
                     "--seeds", "1..3", "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert "c_hat" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "s")

    def test_extrapolated_without_hint_is_config_error(self, tmp_path, capsys):
        # the policy is validated before the predictions are priced at its beta
        code = main(["sweep", "--builtin", "benchmark", "--n", "4", "--m", "6",
                     "--variant", "parallel", "--beta-policy", "extrapolated",
                     "--iters", "20", "--seeds", "1..2", "--N-list", "1,2",
                     "--c-hat", "4", "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert "requires a known positive L_N" in capsys.readouterr().err

    @pytest.mark.parametrize("problem_seed", [0, 1, 2])
    def test_sequential_minibatch_gain(self, tmp_path, problem_seed):
        # the paper's claim for the chained pass: the predicted gain b(N)
        # grows with N, and so does the measured one, each larger N's final
        # dist_X CI lying wholly below the smaller N's
        cfg = RunConfig(builtin="benchmark", n=10, m=20, problem_seed=problem_seed,
                        variant="sequential", beta=1.0, iterations=300,
                        seeds=tuple(range(1, 7)), out_dir=str(tmp_path / "s"))
        _, rows = minibatch_sweep(cfg, [1, 4, 16], c_hat=5.0)
        for small, large in zip(rows, rows[1:]):
            assert large.predicted_b > small.predicted_b
            assert large.ci_hi < small.ci_lo

    def test_sweep_needs_two_sizes(self, tmp_path):
        cfg = RunConfig(builtin="orthant2", iterations=50, seeds=(1, 2),
                        out_dir=str(tmp_path / "s"))
        with pytest.raises(ConfigError, match="at least two batch sizes"):
            minibatch_sweep(cfg, [2])

    @pytest.mark.parametrize("size", ["0", "3", "999"])
    def test_sweep_rejects_a_batch_size_flag(self, tmp_path, monkeypatch,
                                             capsys, size):
        # the sizes are --N-list alone: --N is one configuration line before
        # anything is built or run, and no output directory is made
        monkeypatch.setattr(harness, "build_problem", None)
        monkeypatch.setattr(harness, "run", None)
        code = main(["sweep", "--builtin", "orthant2", "--iters", "5",
                     "--N", size, "--N-list", "1,2", "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert captured.err.count("\n") == 1 and "--N-list" in captured.err
        assert not os.path.exists(tmp_path / "s")

    def test_sweep_takes_an_ini_batch_size(self, tmp_path):
        # one file may serve solve and sweep: its batch_size is not a sweep's
        ini = tmp_path / "run.ini"
        ini.write_text("[problem]\nbuiltin = orthant2\n[solver]\nbatch_size = 7\n")
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(ini), "--iters", "5",
                     "--N-list", "1,2", "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["N1", "N2"]

    def test_repeated_size_is_config_error(self, tmp_path, capsys):
        code = main(["sweep", "--builtin", "orthant2", "--iters", "50",
                     "--N-list", "2,2", "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert "must be distinct" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "s")

    @pytest.mark.parametrize("extra", [
        ["--variant", "parallel", "--beta", "1.9"],
        ["--variant", "parallel", "--beta-policy", "adaptive"],
        ["--variant", "sequential", "--beta", "1.0", "--sampler", "iid-uniform"],
        ["--variant", "sequential", "--beta", "0.7", "--assertions", "lemma-checks"],
    ], ids=["parallel-fixed", "parallel-adaptive", "sequential-iid",
            "sequential-lemma-checks"])
    def test_each_size_is_its_solve_in_one_run(self, tmp_path, monkeypatch,
                                               extra):
        # one run call advances every (N, seed) row, and each N<size>/ holds
        # the bytes that solve --N <size> writes with the same settings
        runs = []

        def counted_run(*args, **kwargs):
            runs.append(kwargs.get("sizes"))
            return solver_run(*args, **kwargs)

        monkeypatch.setattr(harness, "run", counted_run)
        common = ["--builtin", "benchmark", "--n", "4", "--m", "6",
                  "--iters", "300", "--seeds", "1..3"] + extra
        sizes = (4, 1, 6)
        assert main(["sweep", "--N-list", "4,1,6", "--out", str(tmp_path / "s")]
                    + common) == EXIT_OK
        assert runs == [list(sizes)]
        for size in sizes:
            out = tmp_path / f"solve{size}"
            assert main(["solve", "--N", str(size), "--out", str(out)]
                        + common) == EXIT_OK
            swept = tmp_path / "s" / f"N{size}"
            assert sorted(os.listdir(swept)) == sorted(os.listdir(out))
            for name in os.listdir(out):
                assert (swept / name).read_bytes() == (out / name).read_bytes()

    def test_size_dir_that_is_a_file_is_rejected_before_any_run(self, tmp_path,
                                                                capsys):
        # N1 under --out is a file: no size runs, and N2 is not written
        out = tmp_path / "s"
        out.mkdir()
        (out / "N1").write_text("")
        assert main(["sweep", "--builtin", "orthant2", "--iters", "5",
                     "--N-list", "2,1", "--out", str(out)]) == EXIT_CONFIG
        assert f"output path {out / 'N1'} exists and is not a directory" in \
            capsys.readouterr().err
        assert os.listdir(out) == ["N1"]

    def test_aborted_sweep_leaves_no_output(self, tmp_path, capsys):
        # the N = 1 rows exceed the declared L_N at k = 1, long before the
        # N = 4 rows would finish; the block stops and nothing is written
        out = tmp_path / "s"
        code = main(["sweep", "--builtin", "benchmark", "--n", "6", "--m", "10",
                     "--variant", "parallel", "--beta", "1", "--ln-hint", "0.8",
                     "--N-list", "4,1", "--iters", "100", "--seeds", "1..3",
                     "--out", str(out)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert re.search(r"exceeds the declared L_N 0\.8 at k=1, seed \d, N=1 ", err)
        assert "'batch_size': 1" in err
        assert not os.path.exists(out)


class TestBootstrap:
    def test_ci_brackets_mean_and_is_deterministic(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        lo1, hi1 = bootstrap_ci(values)
        lo2, hi2 = bootstrap_ci(values)
        assert (lo1, hi1) == (lo2, hi2)
        assert lo1 <= values.mean() <= hi1

    def test_degenerate_sample(self):
        lo, hi = bootstrap_ci(np.array([2.0, 2.0, 2.0]))
        assert lo == hi == 2.0


class TestCsvRoundTrip:
    def test_empty_cells_render_and_parse(self, tmp_path):
        cfg = RunConfig(seeds=(1,))
        path = tmp_path / "t.csv"
        write_csv(str(path), cfg, [RunRecord(1, 5, None, 0.25, None, None, 1.0)])
        _, rows = read_csv(str(path))
        assert rows[0].f_gap is None
        assert rows[0].dist_X is None
        assert rows[0].max_violation == 0.25

    @pytest.mark.parametrize("builtin,variant", [
        ("benchmark", "parallel"), ("benchmark", "sequential"),
    ])
    def test_read_returns_the_records_written(self, tmp_path, builtin, variant):
        # every cell round-trips exactly, an empty one as None
        cfg = RunConfig(builtin=builtin, n=4, m=6, variant=variant, batch_size=2,
                        beta_policy="adaptive" if variant == "parallel" else "fixed",
                        iterations=40, cadence=3, seeds=(1, 2))
        inst = harness.build_problem(cfg)
        results = solver_run(inst.spec, cfg, poly=inst.poly)
        for result in results:
            path = str(tmp_path / f"run_seed{result.seed}.csv")
            write_csv(path, cfg, result.records)
            assert read_csv(path)[1] == result.records
        path = str(tmp_path / "aggregate.csv")
        agg = aggregate_rows([r.records for r in results])
        write_csv(path, cfg, agg)
        assert read_csv(path)[1] == agg

    def test_aggregate_rows_nan_aware(self):
        per_seed = [
            [RunRecord(1, 1, 1.0, 0.5, None, 0.4, 1.0)],
            [RunRecord(2, 1, 3.0, 1.5, None, None, 1.0)],
        ]
        (agg,) = aggregate_rows(per_seed)
        assert (agg.seed, agg.k) == (None, 1)
        assert agg.f_gap == pytest.approx(2.0)    # f_gap mean
        assert agg.dist_X is None                 # dist stays empty
        assert agg.LN_k == pytest.approx(0.4)     # LN_k over defined entries
