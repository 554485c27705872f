"""Command-line front end: run experiments, sweep parameters, print rate
reports, and execute the verification suites.

Exit codes: 0 success, 1 failed verification, 2 configuration error,
3 I/O or data-file error, 4 solver failure.

Trace files are CSV with header ``t,dist_sq,lyapunov,table_drift,wall_ns``;
floats carry 17 significant digits so they round-trip. Every problem gets a
known solution (generators plant one; ``reference_solution`` computes one for
a file), so no field is empty.

``run``'s repeats and ``sweep``'s cells times repeats advance together, in
groups that share one solver.run_many call and one clock: a record's
``wall_ns`` counts from the start of its group's records, after set-up, and
``summary.json``'s, like a ``sweep.csv`` row's, adds up, over the groups its
trajectories ran in, the largest last-record ``wall_ns`` among them.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .analysis import reference_solution, theoretical_rate
from .errors import (
    EmptyFile,
    MaxInnerIterations,
    MaxIterations,
    ParseError,
    PointSagaError,
    ProxFailure,
    _finite,
)
from .problems import GeneratorSpec, gen_logistic_ridge, gen_quadratic, gen_ridge_regression, load_libsvm
from .solver import SolverConfig, run, run_many

TRACE_HEADER = "t,dist_sq,lyapunov,table_drift,wall_ns"

_CONFIG_ERRORS = 2
_IO_ERRORS = 3
_SOLVER_ERRORS = 4


def _gamma_arg(text):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"gamma must be a float or 'auto', got {text!r}")
    return value


def _gamma_list(text):
    items = [t for t in text.split(",") if t]
    if not items:
        raise argparse.ArgumentTypeError("empty gamma axis")
    return [_gamma_arg(t) for t in items]


def _int_list(text):
    items = [t for t in text.split(",") if t]
    if not items:
        raise argparse.ArgumentTypeError("empty s axis")
    try:
        return [int(t) for t in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pointsaga",
        description="Minibatch proximal incremental solver and rate verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("--problem", default="quad",
                       help="quad | ridge | logistic | file:<path>")
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--dim", type=int, default=10)
        p.add_argument("--mu", type=float, default=1.0)
        p.add_argument("--L", type=float, default=10.0)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--gamma", type=_gamma_arg, default="auto")
        p.add_argument("--iters", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--repeats", type=int, default=1)
        p.add_argument("--out", default=".", help="output directory")

    p_run = sub.add_parser("run", help="run trajectories, write traces and a summary")
    add_problem_flags(p_run)
    p_run.add_argument("--trace-every", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="grid over gamma and/or s values")
    add_problem_flags(p_sweep)
    p_sweep.add_argument("--gammas", type=_gamma_list, default=None,
                         help="comma list of stepsizes (floats or 'auto')")
    p_sweep.add_argument("--ss", type=_int_list, default=None,
                         help="comma list of batch sizes")
    p_sweep.add_argument("--threshold", type=float, default=1e-8,
                         help="stop accounting at Psi <= threshold * Psi0")

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--scale", choices=("quick", "full"), default="quick")

    p_rates = sub.add_parser("rates", help="print the theoretical rate report")
    p_rates.add_argument("--gamma", type=float, required=True)
    p_rates.add_argument("--s", type=int, required=True)
    p_rates.add_argument("--n", type=int, required=True)
    p_rates.add_argument("--mu", type=float, required=True)
    p_rates.add_argument("--L", type=float, required=True)

    return parser


def _check_flags(args):
    """Reject flag values no problem can use, before any problem is built."""
    # With no repeats there is nothing to average: the summary would hold NaN.
    if args.repeats < 1:
        raise PointSagaError(f"--repeats must be >= 1, got {args.repeats}")
    # A file: problem never seeds numpy, so the generators' check misses it.
    if args.seed < 0:
        raise PointSagaError(f"--seed must be >= 0, got {args.seed}")
    # Repeat k runs seed --seed + k, and SplitMix64 seeds are 64-bit.
    if args.seed + args.repeats - 1 >= 1 << 64:
        raise PointSagaError(
            f"--seed + --repeats - 1 must be < 2^64, got {args.seed + args.repeats - 1}")
    # Fail before any solve, not at the first write after it (exit 3).
    if not os.path.isdir(args.out):
        raise NotADirectoryError(f"--out {args.out!r} is not an existing directory")


def _build_problem(args):
    """The problem the flags name, with its minimizer attached."""
    if args.problem.startswith("file:"):
        _, problem = load_libsvm(args.problem[5:], args.mu)
        return problem.with_known_solution(reference_solution(problem, tol=1e-12))
    family, generate = {
        "quad": ("quadratic", gen_quadratic),
        "ridge": ("ridge_regression", gen_ridge_regression),
        "logistic": ("logistic_ridge", gen_logistic_ridge),
    }.get(args.problem, (None, None))
    if family is None:
        raise PointSagaError(f"unknown problem kind {args.problem!r}")
    return generate(GeneratorSpec(family, n=args.n, dim=args.dim, mu=args.mu,
                                  L=args.L, seed=args.seed))


def _fmt(value):
    return "" if value is None else f"{float(value):.17g}"


def _write_trace(path, records):
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.t},{_fmt(r.dist_sq)},{_fmt(r.lyapunov)},"
                f"{_fmt(r.table_drift)},{r.wall_ns}\n"
            )


def _empirical_contraction(records):
    """Per-iteration geometric-mean Psi ratio from iteration 10 on."""
    pts = [(r.t, r.lyapunov) for r in records if r.t >= 10]
    if len(pts) < 2:
        return None
    (t0, p0), (t1, p1) = pts[0], pts[-1]
    if not (p0 > 0 and p1 > 0) or t1 <= t0:
        return None
    return float(np.exp((np.log(p1) - np.log(p0)) / (t1 - t0)))


#: Most entries the trajectories one run_many call advances may hold between
#: them: n * dim per gradient table, and RECORD_ENTRIES per trace record
#: (a TraceRecord of numpy scalars takes about as much memory). The CLI's
#: trajectories run in groups of consecutive ones within this budget; a
#: trajectory over it runs alone.
GROUP_ENTRIES = 1 << 21
RECORD_ENTRIES = 32


def _advanced(problem, configs, drift):
    """(state, records) per config, from x0 = 0: run_many's, or on a
    PointSagaError each config's run in turn, yielded as it finishes, so the
    error raised, and every trace written before it, are what a loop of
    runs gives."""
    x0 = np.zeros(problem.dim)
    try:
        yield from run_many(problem, configs, x0, drift=drift)
    except PointSagaError:
        for config in configs:
            yield run(problem, config, x0, drift=drift)


class _Trajectory(NamedTuple):
    """What a summary needs of one trajectory's records. hit is the first t
    whose record is at or below threshold * Psi(0), where a threshold is
    given; wall_ns is the last record's; group names the run_many call that
    advanced it."""

    contraction: float | None
    final_dist_sq: float
    hit: int | None
    wall_ns: int
    group: int


def _trajectories(problem, configs, threshold=None, trace_dir=None):
    """A _Trajectory per config. The configs advance together in groups of
    consecutive ones whose tables and records fit GROUP_ENTRIES, so no more
    records than that are held at once. Each trajectory's trace, with the
    table drift, is written to trace_dir, when given, as soon as its group
    finishes; without one no record makes the drift pass."""
    done = []
    per_trajectory = configs[0].max_iters // configs[0].trace_every + 2  # records, at most
    per_group = max(1, GROUP_ENTRIES // (problem.n * problem.dim + RECORD_ENTRIES * per_trajectory))
    for start in range(0, len(configs), per_group):
        group = configs[start:start + per_group]
        for config, (_, records) in zip(group, _advanced(problem, group, trace_dir is not None)):
            if trace_dir is not None:
                _write_trace(f"{trace_dir}/trace_seed{config.seed}.csv", records)
            hit = None
            if threshold is not None:
                # A Python float: a bound past the float range reads inf, without a warning.
                bound = threshold * float(records[0].lyapunov)
                hit = next((r.t for r in records if r.lyapunov <= bound), None)
            last = records[-1]
            done.append(_Trajectory(_empirical_contraction(records), float(last.dist_sq), hit,
                                    last.wall_ns, start))
    return done


def _summarize(trajectories, s, iters, threshold=None):
    """The summary quantities of one cell's repeats, from their _Trajectory
    entries, each run for iters iterations; wall_ns adds up the largest
    wall_ns of each group they ran in. With a threshold (sweep), prox calls
    are counted up to each hit."""
    contractions = [r.contraction for r in trajectories if r.contraction is not None]
    hits = [r.hit for r in trajectories if r.hit is not None]
    walls = {}
    for r in trajectories:
        walls[r.group] = max(walls.get(r.group, 0), r.wall_ns)
    summary = {
        "empirical_contraction": float(np.mean(contractions)) if contractions else None,
        "final_dist_sq": float(np.mean([r.final_dist_sq for r in trajectories])),
        "prox_calls": sum(s * (iters if r.hit is None else r.hit) for r in trajectories),
        "wall_ns": sum(walls.values()),
    }
    if threshold is not None:
        summary["iters_to_threshold"] = (
            float(np.mean(hits)) if len(hits) == len(trajectories) else -1.0
        )
    return summary


def _repeats(problem, args, s, gamma_spec, trace_every):
    """The stepsize of one (s, gamma) pair of the flags, once its config
    validates for problem, and the configs of its --repeats trajectories:
    repeat k runs seed --seed + k."""
    probe = SolverConfig(s=s, gamma=gamma_spec, max_iters=args.iters, trace_every=trace_every)
    probe.validate(problem)
    gamma = probe.resolve_gamma(problem)
    return gamma, [replace(probe, gamma=gamma, seed=args.seed + k) for k in range(args.repeats)]


def cmd_run(args):
    _check_flags(args)
    problem = _build_problem(args)
    gamma, configs = _repeats(problem, args, args.s, args.gamma, args.trace_every)
    report = theoretical_rate(gamma, args.s, problem.n, problem.mu, problem.L)
    trajectories = _trajectories(problem, configs, trace_dir=args.out)
    summary = {"gamma": gamma, **report.to_dict(), **_summarize(trajectories, args.s, args.iters)}
    text = json.dumps(summary, indent=2, allow_nan=False)
    with open(f"{args.out}/summary.json", "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_sweep(args):
    if args.gammas is None and args.ss is None:
        raise PointSagaError("sweep needs --gammas and/or --ss")
    _check_flags(args)
    if not (_finite(args.threshold) and args.threshold > 0):
        raise PointSagaError(f"--threshold must be finite and > 0, got {args.threshold}")
    gammas = args.gammas if args.gammas is not None else [args.gamma]
    ss = args.ss if args.ss is not None else [args.s]

    problem = _build_problem(args)
    # Every cell is checked before any runs. Each records every iteration,
    # without the table drift that sweep.csv does not hold.
    cells, configs = [], []
    for s in ss:
        for gamma_spec in gammas:
            gamma, repeats = _repeats(problem, args, s, gamma_spec, 1)
            rho = theoretical_rate(gamma, s, problem.n, problem.mu, problem.L).rho
            cells.append((gamma, s, rho))
            configs += repeats
    trajectories = _trajectories(problem, configs, threshold=args.threshold)

    path = f"{args.out}/sweep.csv"
    with open(path, "w") as fh:
        fh.write("gamma,s,rho,empirical_contraction,iters_to_threshold,"
                 "prox_calls,wall_ns\n")
        for k, (gamma, s, rho) in enumerate(cells):
            row = _summarize(trajectories[k * args.repeats:(k + 1) * args.repeats], s,
                             args.iters, threshold=args.threshold)
            fh.write(
                f"{gamma:.17g},{s},{rho:.17g},"
                f"{_fmt(row['empirical_contraction'])},"
                f"{row['iters_to_threshold']:.17g},"
                f"{row['prox_calls']},{row['wall_ns']}\n"
            )
    print(f"wrote {path} ({len(cells)} cells)")
    return 0


def cmd_verify(args):
    from .verify import run_suites

    return 0 if run_suites(scale=args.scale) else 1


def cmd_rates(args):
    report = theoretical_rate(args.gamma, args.s, args.n, args.mu, args.L)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    handlers = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify,
                "rates": cmd_rates}
    try:
        return handlers[args.command](args)
    except (ParseError, EmptyFile, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _IO_ERRORS
    except (ProxFailure, MaxInnerIterations, MaxIterations) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _SOLVER_ERRORS
    except PointSagaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _CONFIG_ERRORS


if __name__ == "__main__":
    sys.exit(main())
