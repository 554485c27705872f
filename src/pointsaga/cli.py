"""Command-line front end: run experiments, sweep parameters, print rate
reports, and execute the verification suites.

Exit codes: 0 success, 1 failed verification, 2 configuration error,
3 I/O or data-file error, 4 solver failure.

Trace files are CSV with header ``t,dist_sq,lyapunov,table_drift,wall_ns``;
floats carry 17 significant digits so they round-trip. Every problem gets a
known solution (generators plant one; ``reference_solution`` computes one for
a file), so no field is empty.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from .analysis import reference_solution, theoretical_rate
from .errors import (
    EmptyFile,
    InconsistentDimension,
    MaxInnerIterations,
    MaxIterations,
    ParseError,
    PointSagaError,
    ProxFailure,
    _finite,
)
from .problems import GeneratorSpec, gen_logistic_ridge, gen_quadratic, gen_ridge_regression, load_libsvm
from .solver import SolverConfig, run

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
        p.add_argument("--trace-every", type=int, default=1)
        p.add_argument("--out", default=".", help="output directory")

    p_run = sub.add_parser("run", help="run trajectories, write traces and a summary")
    add_problem_flags(p_run)

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


def _stepsize(problem, args, s, gamma_spec):
    """Validate one (s, gamma) pair of the flags and resolve its stepsize."""
    probe = SolverConfig(s=s, gamma=gamma_spec, max_iters=args.iters,
                         trace_every=args.trace_every)
    probe.validate(problem.n)
    return probe.resolve_gamma(problem)


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


def _solve_cell(problem, args, gamma, s, threshold=None, trace_dir=None):
    """Run `repeats` trajectories; aggregate the summary quantities.

    With a threshold (sweep) every iteration is recorded, without the table
    drift that sweep.csv does not hold, and prox calls are counted up to the
    first record at or below threshold * Psi(0). Otherwise records follow
    --trace-every and carry the drift, and each repeat's trace is written to
    trace_dir, when given, as soon as that repeat finishes.
    """
    x0 = np.zeros(problem.dim)
    contractions = []
    finals = []
    iters_hit = []
    prox_calls = 0
    wall = 0
    for k in range(args.repeats):
        config = SolverConfig(
            s=s, gamma=gamma, max_iters=args.iters, seed=args.seed + k,
            trace_every=args.trace_every if threshold is None else 1,
        )
        state, records = run(problem, config, x0, drift=threshold is None)
        if trace_dir is not None:
            _write_trace(f"{trace_dir}/trace_seed{config.seed}.csv", records)
        contr = _empirical_contraction(records)
        if contr is not None:
            contractions.append(contr)
        finals.append(float(records[-1].dist_sq))
        wall += records[-1].wall_ns
        hit = None
        if threshold is not None:
            psi0 = records[0].lyapunov
            hit = next((r.t for r in records if r.lyapunov <= threshold * psi0), None)
            if hit is not None:
                iters_hit.append(hit)
        prox_calls += s * (hit if hit is not None else state.t)
    summary = {
        "empirical_contraction": float(np.mean(contractions)) if contractions else None,
        "final_dist_sq": float(np.mean(finals)),
        "prox_calls": prox_calls,
        "wall_ns": wall,
    }
    if threshold is not None:
        summary["iters_to_threshold"] = (
            float(np.mean(iters_hit)) if len(iters_hit) == args.repeats else -1.0
        )
    return summary


def cmd_run(args):
    _check_flags(args)
    problem = _build_problem(args)
    gamma = _stepsize(problem, args, args.s, args.gamma)
    report = theoretical_rate(gamma, args.s, problem.n, problem.mu, problem.L)
    summary = {"gamma": gamma, **report.to_dict(),
               **_solve_cell(problem, args, gamma, args.s, trace_dir=args.out)}
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
    rows = []
    for s in ss:
        for gamma_spec in gammas:
            gamma = _stepsize(problem, args, s, gamma_spec)
            rho = theoretical_rate(gamma, s, problem.n, problem.mu, problem.L).rho
            t_begin = time.perf_counter_ns()
            cell = _solve_cell(problem, args, gamma, s, threshold=args.threshold)
            rows.append({"gamma": gamma, "s": s, "rho": rho, **cell,
                         "wall_ns": time.perf_counter_ns() - t_begin})

    path = f"{args.out}/sweep.csv"
    with open(path, "w") as fh:
        fh.write("gamma,s,rho,empirical_contraction,iters_to_threshold,"
                 "prox_calls,wall_ns\n")
        for row in rows:
            fh.write(
                f"{row['gamma']:.17g},{row['s']},{row['rho']:.17g},"
                f"{_fmt(row['empirical_contraction'])},"
                f"{row['iters_to_threshold']:.17g},"
                f"{row['prox_calls']},{row['wall_ns']}\n"
            )
    print(f"wrote {path} ({len(rows)} cells)")
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
    except (ParseError, EmptyFile, InconsistentDimension, OSError) as exc:
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
