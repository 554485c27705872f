import itertools
import json
import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pointsaga import GeneratorSpec, SolverConfig, cli, gen_quadratic, run, run_many, theoretical_rate
from pointsaga.errors import ProxFailure
from pointsaga.sampling import SplitMix64, sample_k_subset
import pointsaga.problems
import pointsaga.solver
import pointsaga.verify


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


# --- rates -----------------------------------------------------------------------


def test_rates_unit_case(capsys):
    code = cli.main(["rates", "--gamma", "1", "--s", "1", "--n", "1",
                     "--mu", "1", "--L", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho"] == 0.5
    assert out["rho_defazio"] == 0.5
    assert out["rho_dr"] == 0.5


def test_rates_hand_case(capsys):
    code = cli.main(["rates", "--gamma", "0.1", "--s", "1", "--n", "10",
                     "--mu", "1", "--L", "10"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["rho"] - 29 / 31) <= 1e-12
    assert out["rho_defazio"] == 0.95
    assert "rho_dr" not in out


def test_rates_invalid_constants(capsys):
    code = cli.main(["rates", "--gamma", "1", "--s", "1", "--n", "1",
                     "--mu", "2", "--L", "1"])
    assert code == 2


def test_rates_infinite_L_exits_2(capsys):
    code = cli.main(["rates", "--gamma", "0.1", "--s", "1", "--n", "10",
                     "--mu", "1", "--L", "inf"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "InvalidConstants" in captured.err


# --- run -------------------------------------------------------------------------


def run_args(tmp_path, command="run", **over):
    """argv of command, run or sweep, with these flags, updated by over;
    sweep has no --trace-every."""
    base = {
        "problem": "quad", "n": "20", "dim": "4", "mu": "1", "L": "10",
        "s": "4", "gamma": "auto", "iters": "300", "seed": "42",
        "repeats": "1", "trace-every": "10", "out": str(tmp_path),
    }
    if command == "sweep":
        del base["trace-every"]
    base.update(over)
    argv = [command]
    for key, val in base.items():
        argv += [f"--{key}", val]
    return argv


def test_run_writes_trace_and_summary(tmp_path):
    code = cli.main(run_args(tmp_path))
    assert code == 0
    header, rows = read_csv(tmp_path / "trace_seed42.csv")
    assert header == "t,dist_sq,lyapunov,table_drift,wall_ns"
    # Records at t=0, every 10th iteration, and the final t.
    expect = sorted({0, *range(10, 301, 10), 300})
    assert [int(r.split(",")[0]) for r in rows] == expect

    summary = json.loads((tmp_path / "summary.json").read_text())
    gamma = math.sqrt(4 / (10 * 1 * 20))
    expect_rho = theoretical_rate(gamma, 4, 20, 1.0, 10.0).rho
    assert abs(summary["rho"] - expect_rho) <= 1e-12
    assert summary["final_dist_sq"] >= 0
    assert summary["prox_calls"] == 4 * 300
    assert 0 < summary["empirical_contraction"] < 1


def test_run_traces_are_byte_identical(tmp_path):
    # Byte identity covers every column except wall_ns, which is real wall
    # time and cannot repeat.
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    assert cli.main(run_args(tmp_path, out=str(out1))) == 0
    assert cli.main(run_args(tmp_path, out=str(out2))) == 0

    def strip_wall(path):
        return b"\n".join(
            line.rsplit(b",", 1)[0]
            for line in path.read_bytes().strip().split(b"\n")
        )

    assert strip_wall(out1 / "trace_seed42.csv") == strip_wall(
        out2 / "trace_seed42.csv"
    )


def test_run_batch_larger_than_n_exits_2(tmp_path, capsys):
    code = cli.main(run_args(tmp_path, s="60", n="50"))
    assert code == 2
    assert "InvalidBatchSize" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("gamma", "inf"), ("trace-every", "0")])
def test_run_invalid_constant_exits_2_and_writes_nothing(tmp_path, capsys, flag, value):
    code = cli.main(run_args(tmp_path, **{flag: value}))
    assert code == 2
    assert "InvalidConstants" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("over,error", [
    ({"mu": "inf", "L": "inf"}, "InvalidConstants"),
    ({"gamma": "1e300"}, "InvalidConstants"),
    ({"problem": "ridge", "L": "1e300", "iters": "1"}, "InvalidConstants: mu=1, L=1e+300"),
    ({"problem": "nope"}, "unknown problem kind 'nope'"),
], ids=["mu-L-inf", "gamma-1e300", "ridge-L-1e300", "problem-nope"])
def test_run_overflowing_constants_exit_2_and_write_nothing(tmp_path, capsys, over, error):
    assert cli.main(run_args(tmp_path, **over)) == 2
    assert error in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_ridge_whose_hessian_overflows_exits_2_naming_mu_and_l(tmp_path, capsys):
    argv = ["run", "--problem", "ridge", "--L", "1e308", "--iters", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "InvalidConstants: mu=1, L=1e+308" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--gamma", "1e153", "--L", "1e3", "--n", "20", "--dim", "4", "--iters", "30"],
    ["sweep", "--gammas", "1e153,0.1", "--L", "1e3", "--n", "20", "--dim", "4", "--iters", "30"],
    ["run", "--gamma", "1e153", "--iters", "3"],
], ids=["run-L-1e3", "sweep-L-1e3", "run-defaults"])
def test_psi_overflowing_at_t0_exits_2_naming_gamma_and_writes_nothing(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert "InvalidConstants: Psi at t=0 overflows at gamma=1e+153" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--mu", "3e-5", "--L", "10"],
    ["--n", "20", "--dim", "50", "--mu", "0.3", "--L", "5", "--gamma", "10000", "--iters", "50"],
], ids=["L-over-mu-3e5", "gamma-1e4"])
def test_run_logistic_at_extreme_constants_exits_0(tmp_path, flags):
    # The first needs a reference solve at L/mu = 3.3e5; in the second the
    # prox's root-finding meets rounding above TOL_LOGISTIC_ROOT.
    assert cli.main(["run", "--problem", "logistic", *flags, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "summary.json").exists()


def test_run_missing_data_file_exits_3(tmp_path):
    code = cli.main(run_args(tmp_path, problem="file:/does/not/exist"))
    assert code == 3


def test_run_malformed_data_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("+1 1:abc\n")
    code = cli.main(run_args(tmp_path, problem=f"file:{bad}"))
    assert code == 3
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"+1 1:1\n\xff\xfe 1:1\n", b"+1 1:1\n1 1:1e308 2:1e308\n"],
                         ids=["non-utf8", "row-norm-overflow"])
def test_run_undecodable_or_overflowing_data_file_exits_3(tmp_path, capsys, content):
    data = tmp_path / "data.txt"
    data.write_bytes(content)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(run_args(out, problem=f"file:{data}")) == 3
    assert "line 2" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("problem", ["logistic", "file"])
def test_run_subnormal_mu_exits_2_and_writes_nothing(tmp_path, capsys, problem):
    # L/mu overflows, so the reference solve has no finite iteration budget.
    if problem == "file":
        data = tmp_path / "data.txt"
        data.write_text("+1 1:1.0 2:0.5\n-1 1:-0.4 2:1.0\n")
        problem = f"file:{data}"
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(run_args(out, problem=problem, mu="1e-310", L="1")) == 2
    assert "InvalidConstants" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_run_wide_index_data_file_exits_3(tmp_path, capsys, monkeypatch):
    # A dense row of width 10**12 would be 8 TB; np.zeros raises here, so a
    # missing width check fails the test instead of allocating.
    def no_alloc(*args, **kwargs):
        raise AssertionError("dense matrix allocated")

    monkeypatch.setattr(np, "zeros", no_alloc)
    data = tmp_path / "data.txt"
    data.write_text("+1 1000000000000:1\n")
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(run_args(out, problem=f"file:{data}")) == 3
    assert "line 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_run_on_tiny_libsvm_file(tmp_path):
    data = tmp_path / "tiny.txt"
    data.write_text("+1 1:1.0 2:0.5\n-1 1:-0.4 2:1.0\n")
    code = cli.main(run_args(tmp_path, problem=f"file:{data}", s="2",
                             iters="50", n="2", dim="2"))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_dist_sq"] < 1e-6


# --- sweep -----------------------------------------------------------------------


@pytest.mark.parametrize("repeats", [1, 3])
def test_sweep_single_cell_matches_run(tmp_path, monkeypatch, repeats):
    # With the clock a counter, both commands read the same ticks: wall_ns
    # is the records' own in each.
    monkeypatch.setattr(time, "perf_counter_ns", itertools.count().__next__)
    out_run = tmp_path / "run"
    out_run.mkdir()
    assert cli.main(run_args(tmp_path, out=str(out_run), repeats=str(repeats),
                             **{"trace-every": "1"})) == 0
    summary = json.loads((out_run / "summary.json").read_text())
    assert sorted(p.name for p in out_run.glob("trace_seed*.csv")) == [
        f"trace_seed{42 + k}.csv" for k in range(repeats)
    ]

    out_sweep = tmp_path / "sweep"
    out_sweep.mkdir()
    argv = run_args(tmp_path, "sweep", out=str(out_sweep), repeats=str(repeats))
    assert cli.main(argv + ["--ss", "4"]) == 0
    header, rows = read_csv(out_sweep / "sweep.csv")
    assert header == "gamma,s,rho,empirical_contraction,iters_to_threshold,prox_calls,wall_ns"
    assert len(rows) == 1
    cells = rows[0].split(",")
    assert abs(float(cells[0]) - summary["gamma"]) <= 1e-15
    assert int(cells[1]) == 4
    assert abs(float(cells[2]) - summary["rho"]) <= 1e-12
    assert float(cells[3]) == summary["empirical_contraction"]
    assert int(cells[6]) == summary["wall_ns"] > 0


def test_sweep_makes_no_drift_pass_and_run_still_writes_one(tmp_path, monkeypatch):
    # sweep.csv has no drift column, so a sweep pays no O(n*d) drift pass;
    # run's trace keeps a finite drift on every row.
    calls = []
    table_drift = pointsaga.solver.table_drift

    def counting_drift(state):
        calls.append(state.t)
        return table_drift(state)

    monkeypatch.setattr(pointsaga.solver, "table_drift", counting_drift)
    assert cli.main(run_args(tmp_path, "sweep", iters="50") + ["--ss", "1,4"]) == 0
    assert calls == []
    assert cli.main(run_args(tmp_path)) == 0
    assert calls == list(range(10, 301, 10))
    _, rows = read_csv(tmp_path / "trace_seed42.csv")
    assert all(math.isfinite(float(r.split(",")[3])) for r in rows)


def test_sweep_requires_an_axis(tmp_path, capsys):
    assert cli.main(run_args(tmp_path, "sweep")) == 2
    assert "sweep needs --gammas and/or --ss" in capsys.readouterr().err


def test_sweep_empty_axis_exits_2(tmp_path, capsys):
    assert cli.main(run_args(tmp_path, "sweep") + ["--ss", ""]) == 2
    assert "empty s axis" in capsys.readouterr().err


def test_sweep_has_no_trace_every_flag(tmp_path, capsys):
    # A sweep cell records every iteration, so the flag would do nothing.
    argv = run_args(tmp_path, "sweep", **{"trace-every": "1"}) + ["--ss", "4"]
    assert cli.main(argv) == 2
    assert "unrecognized arguments: --trace-every 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert cli.main(["sweep", "--help"]) == 0
    assert "--trace-every" not in capsys.readouterr().out


def test_sweep_grid_shape(tmp_path):
    argv = run_args(tmp_path, "sweep", iters="100")
    assert cli.main(argv + ["--ss", "1,4", "--gammas", "0.05,auto"]) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 4


# --- trajectories advanced together ------------------------------------------------


def test_run_and_sweep_advance_their_trajectories_in_one_call(tmp_path, monkeypatch):
    # sweep's cells times repeats, and run's repeats, each in one run_many call.
    calls = []
    many = pointsaga.solver.run_many

    def counted(problem, configs, x0, **kw):
        calls.append([(c.s, c.seed) for c in configs])
        return many(problem, configs, x0, **kw)

    monkeypatch.setattr(cli, "run_many", counted)
    argv = run_args(tmp_path, "sweep", iters="20", repeats="2")
    assert cli.main(argv + ["--ss", "1,4", "--gammas", "0.05,auto"]) == 0
    assert calls == [[(s, seed) for s in (1, 4) for _ in range(2) for seed in (42, 43)]]
    calls.clear()
    assert cli.main(run_args(tmp_path, iters="20", repeats="3")) == 0
    assert calls == [[(4, 42), (4, 43), (4, 44)]]


def test_groups_fit_the_entry_budget(tmp_path, monkeypatch):
    # n * dim = 80 entries a table and 22 records of 32 a trajectory: 784
    # entries, so a budget of 2000 takes two trajectories at a time.
    sizes = []
    many = pointsaga.solver.run_many
    monkeypatch.setattr(cli, "GROUP_ENTRIES", 2000)
    monkeypatch.setattr(cli, "run_many", lambda problem, configs, x0, **kw: (
        sizes.append(len(configs)) or many(problem, configs, x0, **kw)))
    grouped, alone = tmp_path / "grouped", tmp_path / "alone"
    for out in (grouped, alone):
        out.mkdir()
        assert cli.main(run_args(out, iters="20", repeats="5", **{"trace-every": "1"})) == 0
        monkeypatch.setattr(cli, "GROUP_ENTRIES", 1)  # each trajectory alone
    assert sizes == [2, 2, 1, 1, 1, 1, 1, 1]
    for name in [f"trace_seed{42 + k}.csv" for k in range(5)]:
        assert strip_wall(grouped / name) == strip_wall(alone / name)
    a, b = (json.loads((out / "summary.json").read_text()) for out in (grouped, alone))
    assert {**a, "wall_ns": 0} == {**b, "wall_ns": 0}


def strip_wall(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def _failing_component(monkeypatch, component):
    """Every quadratic prox of component (0-based) fails the residual check."""
    prox = pointsaga.problems.QuadraticBank.prox

    def failing(bank, gamma, idx, Z):
        P, residuals = prox(bank, gamma, idx, Z)
        return P, np.where(idx == component, np.inf, residuals)

    monkeypatch.setattr(pointsaga.problems.QuadraticBank, "prox", failing)


def _first_draw(component, seed, n, s, iters):
    """The first iteration whose subset holds component (0-based), or None."""
    rng = SplitMix64(seed)
    return next((t for t in range(1, iters + 1)
                 if component + 1 in sample_k_subset(rng, n, s)), None)


def _loop_of_runs(problem, configs):
    """What running configs one after another leaves: the records of those
    that finish, and the error of the first that fails."""
    finished = []
    for config in configs:
        try:
            finished.append(run(problem, config, np.zeros(problem.dim))[1])
        except ProxFailure as exc:
            return finished, exc
    return finished, None


def test_failing_repeats_raise_and_write_what_a_loop_of_runs_does(tmp_path, capsys, monkeypatch):
    # Component c fails wherever it is proxed. Repeat 0 never draws it; repeats
    # 1 and 2 do, repeat 2 first. Advanced together, repeat 2's error comes
    # first; the CLI runs the repeats again one at a time, so it reports
    # repeat 1's and leaves repeat 0's trace, as a loop of runs does.
    n, s, iters = 20, 2, 12
    seed, c = next((seed, c) for seed in range(500) for c in range(n)
                   if _first_draw(c, seed, n, s, iters) is None
                   and (_first_draw(c, seed + 2, n, s, iters) or iters + 1)
                   < (_first_draw(c, seed + 1, n, s, iters) or 0))
    _failing_component(monkeypatch, c)
    problem = gen_quadratic(GeneratorSpec("quadratic", n, 4, 1.0, 10.0, seed=seed))
    configs = [SolverConfig(s=s, max_iters=iters, seed=seed + k, trace_every=3)
               for k in range(3)]
    with pytest.raises(ProxFailure) as together:
        run_many(problem, configs, np.zeros(4))
    finished, error = _loop_of_runs(problem, configs)
    assert len(finished) == 1 and error.t != together.value.t

    out = tmp_path / "out"
    out.mkdir()
    argv = run_args(out, n=str(n), s=str(s), iters=str(iters), seed=str(seed), repeats="3",
                    **{"trace-every": "3"})
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == f"error: {error}\n"
    assert [p.name for p in out.iterdir()] == [f"trace_seed{seed}.csv"]
    expected = ["t,dist_sq,lyapunov,table_drift"] + [
        f"{r.t},{r.dist_sq:.17g},{r.lyapunov:.17g},{r.table_drift:.17g}" for r in finished[0]]
    assert strip_wall(out / f"trace_seed{seed}.csv") == expected


def test_failing_cells_raise_the_first_cells_error(tmp_path, capsys, monkeypatch):
    # Every prox fails, so both cells of each command fail at iteration 1;
    # the error is the first cell's, and nothing is written.
    monkeypatch.setattr(pointsaga.solver, "TOL_PROX", 1e-30)
    problem = gen_quadratic(GeneratorSpec("quadratic", 20, 4, 1.0, 10.0, seed=42))
    configs = [SolverConfig(s=s, gamma=0.05, max_iters=30, seed=42, trace_every=1)
               for s in (1, 4)]
    _, error = _loop_of_runs(problem, configs)
    argv = run_args(tmp_path, "sweep", iters="30", gamma="0.05")
    assert cli.main(argv + ["--ss", "1,4"]) == 4
    assert capsys.readouterr().err == f"error: {error}\n"
    _, error = _loop_of_runs(problem, [SolverConfig(s=4, gamma=0.05, max_iters=30, seed=42 + k)
                                       for k in range(2)])
    assert cli.main(run_args(tmp_path, iters="30", gamma="0.05", repeats="2")) == 4
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_checks_every_cell_before_it_runs_any(tmp_path, capsys, monkeypatch):
    # A gamma of nan fails the second cell's check, so no cell runs: not even
    # a first cell whose every prox would fail.
    def no_run(*args, **kwargs):
        raise AssertionError("a cell ran before every cell was checked")

    monkeypatch.setattr(cli, "run_many", no_run)
    argv = run_args(tmp_path, "sweep", iters="30") + ["--ss", "4", "--gammas", "0.05,nan"]
    for _ in range(2):
        assert cli.main(argv) == 2
        assert "InvalidConstants: gamma must be finite and > 0, got nan" in capsys.readouterr().err
        monkeypatch.setattr(pointsaga.solver, "TOL_PROX", 1e-30)
    assert list(tmp_path.iterdir()) == []


# --- verify ----------------------------------------------------------------------


def test_verify_quick_passes(capsys):
    assert cli.main(["verify", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_verify_full_runs_stated_scales(capsys):
    assert cli.main(["verify", "--scale", "full"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "10000 iterations" in out  # drift suite at full depth
    assert "100 states" in out  # contraction suite at full enumeration count


def test_verify_reports_the_contraction_margin(capsys):
    assert cli.main(["verify", "--scale", "quick"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if "one-step-contraction" in l)
    margin = float(re.search(r"max lhs/rhs ([0-9.]+)$", line).group(1))
    assert 0.0 < margin < 1.0


def test_verify_detects_wrong_average_coefficient(monkeypatch, capsys):
    # Fault injection: corrupt the table-average recurrence and expect the
    # drift (and contraction) suites to notice.
    monkeypatch.setattr(
        pointsaga.solver, "_prop1_coeffs", lambda n, s: (n - s + 1, s)
    )
    assert cli.main(["verify", "--scale", "quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "prop1-drift" in out


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_whose_psi_underflows_writes_null_contraction(tmp_path):
    # With n = 1 and mu = L, Psi reaches 0 before the first record it is
    # measured from, so there is no ratio to report.
    argv = ["run", "--problem", "quad", "--n", "1", "--dim", "1", "--mu", "1", "--L", "1",
            "--iters", "2000", "--trace-every", "100", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "empirical_contraction" in summary and summary["empirical_contraction"] is None


def test_summary_is_strict_json(tmp_path):
    assert cli.main(run_args(tmp_path, iters="20")) == 0
    text = (tmp_path / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["prox_calls"] == 4 * 20


def test_zero_repeats_exit_2_and_write_nothing(tmp_path, capsys):
    assert cli.main(run_args(tmp_path, repeats="0")) == 2
    assert "--repeats must be >= 1" in capsys.readouterr().err
    assert cli.main(run_args(tmp_path, "sweep", repeats="0") + ["--ss", "4"]) == 2
    assert "--repeats must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("problem", ["quad", "file"])
def test_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys, problem):
    # A file: problem never seeds numpy, so the flag itself is checked.
    if problem == "file":
        data = tmp_path / "data.txt"
        data.write_text("+1 1:1.0 2:0.5\n-1 1:-0.4 2:1.0\n")
        problem = f"file:{data}"
    out = tmp_path / "out"
    out.mkdir()
    for command, axis in [("run", []), ("sweep", ["--ss", "1"])]:
        argv = run_args(out, command, problem=problem, seed="-1", n="2", dim="2", s="1")
        assert cli.main(argv + axis) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed,repeats", [(2**64, 1), (2**64 - 2, 3)])
def test_seed_beyond_64_bits_exits_2_and_writes_nothing(tmp_path, capsys, seed, repeats):
    # SplitMix64 keeps 64 bits of its seed, so seed 2^64 would rerun seed 0's stream.
    for command, axis in [("run", []), ("sweep", ["--ss", "4"])]:
        argv = run_args(tmp_path, command, seed=str(seed), repeats=str(repeats), iters="3")
        assert cli.main(argv + axis) == 2
        assert "--seed + --repeats - 1 must be < 2^64" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_largest_seed_runs(tmp_path):
    assert cli.main(run_args(tmp_path, seed=str(2**64 - 2), repeats="2", iters="3")) == 0
    assert sorted(p.name for p in tmp_path.glob("trace_seed*.csv")) == [
        f"trace_seed{2**64 - 2}.csv", f"trace_seed{2**64 - 1}.csv"]


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
def test_sweep_bad_threshold_exits_2_and_writes_nothing(tmp_path, capsys, threshold):
    argv = run_args(tmp_path, "sweep", iters="3")
    assert cli.main(argv + ["--ss", "4", "--threshold", threshold]) == 2
    assert "--threshold must be finite and > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("out", ["missing", "notdir"])
def test_unusable_out_exits_3_before_any_problem_is_built(tmp_path, capsys, monkeypatch,
                                                          command, out):
    def no_build(args):
        raise AssertionError("problem built before --out was checked")

    monkeypatch.setattr(cli, "_build_problem", no_build)
    (tmp_path / "notdir").write_text("")
    argv = run_args(tmp_path / out, command)
    assert cli.main(argv + (["--ss", "1,4"] if command == "sweep" else [])) == 3
    assert "is not an existing directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["notdir"]


# --- argv property test ----------------------------------------------------------

# Flag values from edge sets: negative, zero, tiny, huge, nan, inf and
# non-numeric; seeds also at the 64-bit edge. Huge sizes lie above every
# dense-entry cap, so they are rejected before anything is allocated; --iters
# and --repeats stay at 3 or less.
_INTS = ["-1", "0", "1", "2", "3", str(10**9), "1.5", "x"]
_SEEDS = _INTS + [str(2**64 - 1), str(2**64)]
_SMALL_INTS = ["-1", "0", "1", "3", "x"]
_FLOATS = ["-1", "0", "5e-324", "1e-300", "0.5", "1", "10", "1e153", "1e300", "nan",
           "inf", "-inf", "x"]
# Placeholders the test replaces with paths in its own temporary directory.
_PROBLEMS = ["quad", "ridge", "logistic", "FILE", "NOFILE", "nope"]
_OUTS = ["OUT", "MISSING", "NOTDIR"]


def _flags(pairs, max_flags, min_flags=0):
    """Between min_flags and max_flags of the flags, each given one value from
    its edge set; the others keep their defaults."""
    chosen = st.lists(st.sampled_from(pairs), unique_by=lambda p: p[0],
                      min_size=min_flags, max_size=max_flags)
    return chosen.flatmap(lambda ps: st.tuples(*[st.sampled_from(v) for _, v in ps]).map(
        lambda vals: [tok for (flag, _), val in zip(ps, vals) for tok in (flag, val)]))


_PROBLEM_FLAGS = [("--problem", _PROBLEMS), ("--n", _INTS), ("--dim", _INTS),
                  ("--mu", _FLOATS), ("--L", _FLOATS), ("--s", _INTS),
                  ("--gamma", _FLOATS + ["auto"]), ("--seed", _SEEDS),
                  ("--repeats", _SMALL_INTS), ("--out", _OUTS)]
_AXES = [("--gammas", ["auto", "0.1,1e300", "nan", "x", ","]),
         ("--ss", ["1", "1,2", "-1", "0", str(10**9), "x", ","])]
_iters = st.sampled_from(_SMALL_INTS).map(lambda v: ["--iters", v])
_run_argv = st.tuples(_flags(_PROBLEM_FLAGS + [("--trace-every", _INTS)], 3), _iters).map(
    lambda t: ["run", *t[0], *t[1]])
_sweep_argv = st.tuples(_flags(_PROBLEM_FLAGS + [("--threshold", _FLOATS)], 3),
                        _flags(_AXES, 2, min_flags=1), _iters).map(
    lambda t: ["sweep", *t[0], *t[1], *t[2]])
_rates_argv = _flags([("--gamma", _FLOATS), ("--s", _INTS), ("--n", _INTS),
                      ("--mu", _FLOATS), ("--L", _FLOATS)], 5, min_flags=5).map(
    lambda f: ["rates", *f])


@settings(max_examples=300)
@given(argv=_run_argv | _sweep_argv | _rates_argv)
@example(argv=["run", "--seed", "-1", "--iters", "3", "--out", "OUT"])
@example(argv=["sweep", "--ss", "1", "--threshold", "nan", "--iters", "3", "--out", "OUT"])
@example(argv=["run", "--problem", "logistic", "--n", "3", "--dim", "2", "--mu", "0.5",
               "--L", "1e300", "--iters", "3", "--out", "OUT"])
@example(argv=["run", "--dim", "100000", "--iters", "3", "--out", "OUT"])
@example(argv=["run", "--mu", "5e-324", "--L", "5e-324", "--iters", "0", "--out", "OUT"])
@example(argv=["run", "--problem", "logistic", "--mu", "3e-5", "--L", "10", "--iters", "3",
               "--out", "OUT"])
@example(argv=["run", "--problem", "ridge", "--L", "1e308", "--iters", "1", "--out", "OUT"])
@example(argv=["run", "--problem", "nope", "--iters", "1", "--out", "OUT"])
@example(argv=["run", "--seed", str(2**64), "--iters", "1", "--out", "OUT"])
@example(argv=["run", "--seed", str(2**64 - 1), "--repeats", "2", "--iters", "1", "--out", "OUT"])
@example(argv=["run", "--gamma", "1e153", "--L", "1e3", "--n", "20", "--dim", "4", "--iters", "30",
               "--out", "OUT"])
@example(argv=["sweep", "--gammas", "1e153,0.1", "--L", "1e3", "--n", "20", "--dim", "4",
               "--iters", "30", "--out", "OUT"])
@example(argv=["run", "--gamma", "1e153", "--iters", "3", "--out", "OUT"])
@example(argv=["sweep", "--ss", "50", "--iters", "3", "--threshold", "1e308", "--out", "OUT"])
def test_cli_exits_with_a_documented_code(tmp_path_factory, argv):
    base = tmp_path_factory.getbasetemp() / "cli-argv"
    base.mkdir(exist_ok=True)
    (base / "out").mkdir(exist_ok=True)
    data = base / "data.txt"
    data.write_text("+1 1:1.0 2:0.5\n-1 1:-0.4 2:1.0\n+1 2:-0.3\n")
    places = {"OUT": str(base / "out"), "MISSING": str(base / "missing" / "out"),
              "NOTDIR": str(data), "FILE": f"file:{data}",
              "NOFILE": f"file:{base / 'missing.txt'}"}
    argv = [places.get(tok, tok) for tok in argv]
    cwd = os.getcwd()
    os.chdir(base / "out")  # a run without --out writes here
    try:
        code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4), argv
    if code == 0 and argv[0] == "run":
        json.loads((base / "out" / "summary.json").read_text(),
                   parse_constant=lambda c: pytest.fail(f"{c} in summary.json: {argv}"))
    if code == 0 and argv[0] == "sweep":
        text = (base / "out" / "sweep.csv").read_text().lower()
        assert "nan" not in text and "inf" not in text, argv
