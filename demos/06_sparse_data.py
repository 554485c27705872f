"""Ingest a sparse classification file and solve the regularized logistic
model per sample. Rows keep their scale; the smoothness constant is bounded
from the largest row norm."""

import os
import tempfile

import numpy as np

from pointsaga import (
    SolverConfig,
    load_libsvm,
    optimal_stepsize,
    reference_solution,
    run,
    theoretical_rate,
)

LINES = """\
# toy two-feature classification set
+1 1:1.2 2:0.4
-1 1:-0.8 2:0.9
+1 1:0.5
-1 2:-1.1
+1 1:0.9 2:0.3
-1 1:-1.0 2:0.2
"""

with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
    fh.write(LINES)
    path = fh.name

try:
    _, problem = load_libsvm(path, mu=0.5)
    print(f"loaded {problem.n} rows, {problem.dim} features; mu={problem.mu}, "
          f"L={problem.L:.4f} (from max row norm)")

    x_star = reference_solution(problem, tol=1e-12)
    problem = problem.with_known_solution(x_star)
    print("reference minimizer:", np.round(x_star, 6))

    s = 2
    gamma = optimal_stepsize(s, problem.n, problem.mu, problem.L)
    rho = theoretical_rate(gamma, s, problem.n, problem.mu, problem.L).rho
    config = SolverConfig(s=s, gamma=gamma, max_iters=400, seed=0, trace_every=50)
    state, records = run(problem, config, np.zeros(problem.dim))
    print(f"batch s={s}, stepsize {gamma:.4f}, theoretical rho {rho:.4f}")
    for r in records:
        print(f"  t={r.t:4d}  ||x - x*||^2 = {r.dist_sq:.3e}")
finally:
    os.unlink(path)
