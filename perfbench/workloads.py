"""The benchmark's workloads. Each loads a different pointsaga module and
leaves the others nearly idle; see NOTE.md for which metric should move where.

A workload object is driven by run.py in this order:

    prepare(seed, tmpdir)   make the inputs from the seed (untimed)
    setup()                 build the problem through the public API (timed)
    op(k)                   one unit of timed work; returns its outputs
    check(out)              correctness of one op's outputs
    same(a, b)              bitwise agreement of two ops with the same k
    work(out)               units of work in one op, for work_per_s

``setup_repeats`` is how many set-ups a run times, about 3 s of them but at
least 3. ``probe_kind`` names the speed.py kernel whose speed moves with the
workload's own: "memory" where passes over large arrays dominate,
"interpreter" elsewhere.

Every call into pointsaga goes through a module attribute (``solver.run``,
``problems.gen_quadratic``, ...), so the tracer's wrappers see it.
"""

import contextlib
import io
import math
import os
import time

import numpy as np

from pointsaga import analysis, cli, problems, solver
from pointsaga.analysis import LyapunovWeights, optimal_stepsize, theoretical_rate
from pointsaga.problems import GeneratorSpec
from pointsaga.solver import SolverConfig, SolverState

# Sizes of the full benchmark and of the smoke mode the benchmark's own tests
# use. The smoke sizes only need to run every code path quickly.
SIZES = {
    "full": {
        "ridge_n": 20000, "ridge_iters": 300, "ridge_control_n": 100,
        "gate_iters": 2000,
        "sweep_n": 1000, "sweep_iters": 1000,
        "certify_n": 12, "certify_ss": (1, 2, 3, 6, 12),
    },
    "smoke": {
        "ridge_n": 500, "ridge_iters": 30, "ridge_control_n": 100,
        "gate_iters": 200,
        "sweep_n": 100, "sweep_iters": 100,
        "certify_n": 6, "certify_ss": (1, 2, 3, 6),
    },
}


def _finite(*values):
    """True when every value is a finite number; None or "" (a CSV field the
    CLI left empty) is not."""
    return all(v not in (None, "") and math.isfinite(float(v)) for v in values)


class RidgeLargeN:
    """Rank-one ridge at n=20000, d=50, s=1: per-iteration passes over all
    n rows (Lyapunov diagnostics, table copy, sampler) dominate the prox."""

    name = "ridge-large-n"
    unit_of_work = "iterations"
    setup_repeats = 5
    probe_kind = "memory"

    def __init__(self, size):
        self.n = size["ridge_n"]
        self.iters = size["ridge_iters"]
        self.control_n = size["ridge_control_n"]

    def prepare(self, seed, tmpdir):
        self.seed = seed
        self.control = problems.gen_ridge_regression(
            GeneratorSpec("ridge_regression", self.control_n, 50, 0.1, 10.0, seed=seed)
        )

    def setup(self):
        self.problem = None  # so the peak holds one problem, not two
        self.problem = problems.gen_ridge_regression(
            GeneratorSpec("ridge_regression", self.n, 50, 0.1, 10.0, seed=self.seed)
        )

    def _solve(self, problem, k):
        # Sparse tracing: records at t=0, every 100 iterations and the end.
        config = SolverConfig(s=1, gamma="auto", max_iters=self.iters,
                              seed=self.seed * 1000 + k, trace_every=100)
        return solver.run(problem, config, np.zeros(50))

    def op(self, k):
        return self._solve(self.problem, k)

    def control_op(self, k):
        """The same solve on the n=100 control problem; returns seconds."""
        t0 = time.perf_counter()
        self._solve(self.control, k)
        return time.perf_counter() - t0

    def check(self, out):
        state, records = out
        if not all(_finite(r.dist_sq, r.lyapunov, r.table_drift) for r in records):
            return False
        diff = state.g_avg - state.grad_table.mean(axis=0)
        drift = float(np.sqrt(diff @ diff))
        return drift <= 1e-10 * (1.0 + float(np.linalg.norm(state.g_avg)))

    def same(self, a, b):
        return (np.array_equal(a[0].x, b[0].x)
                and np.array_equal(a[0].grad_table, b[0].grad_table))

    def work(self, out):
        return out[0].t


class QuadLdGate:
    """Acceptance criterion 2's work for one solver seed: longdouble
    quadratics (n=50, d=10) at s = 1, 5, 50 with refresh and tracing every
    iteration; the per-call prox dominates."""

    name = "quad-ld-gate"
    unit_of_work = "iterations"
    setup_repeats = 200
    probe_kind = "interpreter"
    batch_sizes = (1, 5, 50)
    mu, L, n, d = 1.0, 10.0, 50, 10

    def __init__(self, size):
        self.iters = size["gate_iters"]

    def prepare(self, seed, tmpdir):
        self.seed = seed

    def setup(self):
        ld = np.longdouble
        self.problem = problems.gen_quadratic(
            GeneratorSpec("quadratic", self.n, self.d, self.mu, self.L, seed=self.seed),
            dtype=ld,
        )
        direction = np.zeros(self.d, dtype=ld)
        direction[0] = 1.0
        self.x0 = self.problem.known_solution + ld(1e200) * direction

    def op(self, k):
        outs = []
        for s in self.batch_sizes:
            gamma = optimal_stepsize(s, self.n, self.mu, self.L)
            config = SolverConfig(s=s, gamma=gamma, max_iters=self.iters,
                                  seed=self.seed * 1000 + k + 1, trace_every=1,
                                  refresh_every=1)
            outs.append((s, gamma) + solver.run(self.problem, config, self.x0))
        return outs

    def check(self, out):
        ld = np.longdouble
        for s, gamma, _, records in out:
            rho = theoretical_rate(gamma, s, self.n, self.mu, self.L).rho
            w = LyapunovWeights.from_constants(gamma, s, self.mu, self.L)
            last = records[self.iters]
            geo = float(np.exp((np.log(last.lyapunov) - np.log(records[10].lyapunov))
                               / ld(self.iters - 10)))
            bound = ld(rho) ** self.iters * records[0].lyapunov / ld(w.w_x) * 10
            if not (geo <= rho + 0.01 and last.dist_sq <= bound):
                return False
        return True

    def same(self, a, b):
        return all(np.array_equal(sa.x, sb.x)
                   and np.array_equal(sa.grad_table, sb.grad_table)
                   for (_, _, sa, _), (_, _, sb, _) in zip(a, b))

    def work(self, out):
        return sum(state.t for _, _, state, _ in out)


class LogisticFileSweep:
    """`pointsaga sweep` in process on a seeded sparse libsvm file: general
    reference solve, iterative logistic prox, drift at every iteration."""

    name = "logistic-file-sweep"
    unit_of_work = "iterations"
    setup_repeats = 3
    probe_kind = "interpreter"
    features, nonzeros, mu, threshold = 50, 8, 0.05, 1e-6
    batch_sizes = (1, 10, 100)

    def __init__(self, size):
        self.n = size["sweep_n"]
        self.iters = size["sweep_iters"]

    def prepare(self, seed, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir
        self.ops_run = 0
        self.path = os.path.join(tmpdir, "data.libsvm")
        rng = np.random.default_rng(seed)
        with open(self.path, "w") as fh:
            for _ in range(self.n):
                idx = np.sort(rng.choice(self.features, self.nonzeros, replace=False))
                vals = rng.normal(size=self.nonzeros)
                # Every row has norm 2, so L (and with it the reference
                # solve's step) does not depend on the seed.
                vals *= 2.0 / np.linalg.norm(vals)
                label = 1 if rng.random() < 0.5 else -1
                feats = " ".join(f"{i + 1}:{v:.17g}" for i, v in zip(idx, vals))
                fh.write(f"{label} {feats}\n")

    def setup(self):
        _, problem = problems.load_libsvm(self.path, self.mu)
        analysis.reference_solution(problem, tol=1e-12)

    def op(self, k):
        self.ops_run += 1
        out_dir = os.path.join(self.tmpdir, f"op{self.ops_run}")
        os.mkdir(out_dir)
        argv = [
            "sweep", "--problem", f"file:{self.path}", "--mu", str(self.mu),
            "--ss", ",".join(map(str, self.batch_sizes)),
            "--iters", str(self.iters), "--threshold", str(self.threshold),
            "--seed", str(self.seed * 1000 + k), "--out", out_dir,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        rows = []
        csv = os.path.join(out_dir, "sweep.csv")
        if code == 0:
            with open(csv) as fh:
                rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
        written = sum(os.path.getsize(os.path.join(out_dir, f))
                      for f in os.listdir(out_dir))
        return {"code": code, "rows": rows, "bytes_written": written}

    def check(self, out):
        if out["code"] != 0 or len(out["rows"]) != len(self.batch_sizes):
            return False
        for row in out["rows"]:
            if not _finite(*row):
                return False
            rho, hit = float(row[2]), float(row[4])
            bound = math.log(1.0 / self.threshold) / (1.0 - rho)
            # Criterion 8's band, for rows whose bound fits the budget.
            if bound <= self.iters and not bound / 3 <= hit <= 3 * bound:
                return False
        return True

    def same(self, a, b):
        # Rows agree apart from wall_ns, the last column.
        return a["code"] == b["code"] and [r[:-1] for r in a["rows"]] == [
            r[:-1] for r in b["rows"]
        ]

    def work(self, out):
        return self.iters * len(out["rows"])

    def useful_iter_ratio(self, out):
        """Iterations up to the threshold over iterations run."""
        useful = 0.0
        for row in out["rows"]:
            hit = float(row[4])
            useful += hit if hit >= 0 else self.iters
        return useful / self.work(out)


class CertifyExhaustive:
    """verify_one_step_contraction at a random state for every s in
    {1, 2, 3, 6, 12} and gamma in {0.1, 1, 10} * g*: C(12, s) pure subset
    steps from one state per call."""

    name = "certify-exhaustive"
    unit_of_work = "subsets"
    setup_repeats = 200
    probe_kind = "interpreter"
    mu, L, d = 1.0, 10.0, 4

    def __init__(self, size):
        self.n = size["certify_n"]
        self.batch_sizes = size["certify_ss"]

    def prepare(self, seed, tmpdir):
        self.seed = seed

    def setup(self):
        self.problem = problems.gen_quadratic(
            GeneratorSpec("quadratic", self.n, self.d, self.mu, self.L, seed=self.seed)
        )
        x_star = self.problem.known_solution
        self.grad_star = np.stack([c.gradient(x_star) for c in self.problem.components])

    def op(self, k):
        rng = np.random.default_rng((self.seed, k))
        table = rng.normal(size=(self.n, self.d)) * 2
        state = SolverState(0, rng.normal(size=self.d) * 2, table, table.mean(axis=0))
        results = []
        for s in self.batch_sizes:
            g_star = optimal_stepsize(s, self.n, self.mu, self.L)
            for gamma in (0.1 * g_star, g_star, 10.0 * g_star):
                results.append(analysis.verify_one_step_contraction(
                    state, self.problem, gamma, s,
                    self.problem.known_solution, self.grad_star,
                ))
        return results

    def check(self, out):
        return all(ok for _, _, ok in out)

    def same(self, a, b):
        return a == b

    def work(self, out):
        return 3 * sum(math.comb(self.n, s) for s in self.batch_sizes)


WORKLOADS = {w.name: w for w in (RidgeLargeN, QuadLdGate, LogisticFileSweep,
                                 CertifyExhaustive)}
