import os

import numpy as np
import pytest

from mbproj.harness import (CSV_COLUMNS, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER,
                            EXIT_WINDOW, RunConfig, WindowError, aggregate_rows,
                            bootstrap_ci, load_config_file, main, minibatch_sweep,
                            parse_seeds, rate_check, read_csv, solve_experiment,
                            write_csv)
from mbproj.problems import make_polyhedral_benchmark
from mbproj.solver import ConfigError


class TestSeedsAndConfig:
    def test_parse_seed_forms(self):
        assert parse_seeds("1..5") == (1, 2, 3, 4, 5)
        assert parse_seeds("3,5,8") == (3, 5, 8)
        assert parse_seeds("7") == (7,)

    def test_config_file_and_cli_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[problem]\nbuiltin = orthant2\n\n"
            "[solver]\nvariant = sequential\nbatch_size = 2\nbeta = 0.9\n"
            "iterations = 50\n\n"
            "[logging]\ncadence = geometric\ntiming = false\n\n"
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
        path = tmp_path / "bad.ini"
        path.write_text("[solver]\nbogus = 1\n")
        with pytest.raises(Exception):
            load_config_file(path)


class TestSolveCommand:
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
        ks = [int(r["k"]) for r in rows]
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
        envelope = 2.0 * np.exp(dist_fit.intercept) * final["k"] ** dist_fit.slope
        assert final["dist_X"] <= envelope

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
                vals = [ps[i][col] for ps in per_seed if ps[i][col] is not None]
                if vals:
                    assert row[col] == pytest.approx(np.mean(vals), rel=1e-12)

    def test_zero_iterations_is_config_error(self, tmp_path):
        code = main(["solve", "--builtin", "orthant2", "--iters", "0",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_bad_builtin_is_config_error(self, tmp_path):
        code = main(["solve", "--builtin", "nope", "--iters", "5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

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

    def test_byte_identical_outputs_across_invocations_and_seed_splits(self, tmp_path):
        args = ["solve", "--builtin", "benchmark", "--n", "4", "--m", "6",
                "--variant", "parallel", "--N", "2", "--beta", "1.0",
                "--iters", "200"]
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(args + ["--seeds", "1..3", "--out", str(out)]) == EXIT_OK
            blob = {}
            for name in sorted(os.listdir(out)):
                with open(out / name, "rb") as fh:
                    blob[name] = fh.read()
            blobs.append(blob)
        assert blobs[0] == blobs[1]

        def data_rows(path):
            with open(path) as fh:
                return [line for line in fh if not line.startswith("#")]

        # a seed's rows do not depend on the other seeds of its invocation
        for seed in (1, 2, 3):
            out = tmp_path / f"single{seed}"
            assert main(args + ["--seeds", str(seed), "--out", str(out)]) == EXIT_OK
            name = f"run_seed{seed}.csv"
            assert data_rows(out / name) == data_rows(tmp_path / "a" / name)

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

    def test_timing_flag_records_wall_clock(self, tmp_path):
        out = tmp_path / "timed"
        code = main(["solve", "--builtin", "orthant2", "--N", "2",
                     "--iters", "50", "--seeds", "1", "--timing",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out / "run_seed1.csv")
        assert rows[-1]["elapsed_ns"] > 0


class TestRateCheck:
    def synthetic_dir(self, tmp_path, curve, n_seeds=3):
        cfg = RunConfig(seeds=tuple(range(1, n_seeds + 1)))
        ks = [2 ** j for j in range(15)] + [40000]
        out = tmp_path / "synth"
        os.makedirs(out, exist_ok=True)
        for seed in cfg.seeds:
            rows = [(seed, k, curve(k, seed), 0.0, curve(k, seed), None, 1.0, 0)
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

    def test_underflow_truncates_window_with_note(self, tmp_path):
        d = self.synthetic_dir(tmp_path, lambda k, s: k ** -3.0)
        fits = rate_check(d, 100, 40000)
        assert all(f.truncated for f in fits)
        assert all("floor" in f.note for f in fits)
        assert all(f.k_hi < 40000 for f in fits)

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

    def test_sweep_needs_two_sizes(self, tmp_path):
        cfg = RunConfig(builtin="orthant2", iterations=50, seeds=(1, 2),
                        out_dir=str(tmp_path / "s"))
        with pytest.raises(Exception):
            minibatch_sweep(cfg, [2])


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
        write_csv(str(path), cfg, [(1, 5, None, 0.25, None, None, 1.0, 0)])
        _, rows = read_csv(str(path))
        assert rows[0]["f_gap"] is None
        assert rows[0]["dist_X"] is None
        assert rows[0]["max_violation"] == 0.25

    def test_aggregate_rows_nan_aware(self):
        per_seed = [
            [(1, 1, 1.0, 0.5, None, 0.4, 1.0, 0)],
            [(2, 1, 3.0, 1.5, None, None, 1.0, 0)],
        ]
        agg = aggregate_rows(per_seed)
        assert agg[0][2] == pytest.approx(2.0)   # f_gap mean
        assert agg[0][4] is None                 # dist stays empty
        assert agg[0][5] == pytest.approx(0.4)   # LN_k over defined entries
