"""Batch-size accounting: more proxes per iteration buy fewer iterations.

Iterations to reach a fixed accuracy shrink as s grows, but each iteration
costs s prox calls; total prox work follows the s * (sqrt(L n / (mu s)) + n/s)
complexity curve, so counted in prox calls small-to-moderate batches do the
least work. Wall time is another measure: the banks batch an iteration's s
proxes, whose cost is mostly per-call overhead, so in wall time large batches
can win even on one core. The script prints both. The prox-call columns are
machine-independent; the last column, the wall time of run's first record at
or below the threshold, is not. On this demo's problem, pinned to one core
with BLAS at one thread, s=50 reached the threshold in 3.6 ms against 77.7 ms
at s=1 (best of 3, x86 VM).
"""

import numpy as np

from pointsaga import (
    GeneratorSpec,
    SolverConfig,
    gen_quadratic,
    optimal_stepsize,
    run,
    theoretical_rate,
)

n, d, mu, L = 50, 10, 1.0, 10.0
problem = gen_quadratic(GeneratorSpec("quadratic", n, d, mu, L, seed=3))
target = 1e-8

print("    s   gamma*    rho     iters   prox calls   theory curve   wall ms*")
for s in (1, 2, 5, 10, 25, 50):
    gamma = optimal_stepsize(s, n, mu, L)
    rho = theoretical_rate(gamma, s, n, mu, L).rho
    config = SolverConfig(s=s, gamma=gamma, max_iters=4000, seed=11, trace_every=1)
    _, records = run(problem, config, np.zeros(d))
    psi0 = records[0].lyapunov
    first = next(r for r in records if r.lyapunov <= target * psi0)
    hit, ms = first.t, first.wall_ns / 1e6
    curve = s * (np.sqrt(L * n / (mu * s)) + n / s)
    print(f"{s:5d}  {gamma:6.3f}  {rho:6.4f}  {hit:7d}   {s * hit:10d}   {curve:12.1f}"
          f"   {ms:8.2f}")

print("\n(prox calls = s * iterations-to-threshold; the theory curve is the")
print(" serial-work shape those counts follow, up to a constant factor;")
print(" * wall milliseconds from the run's start to that record, machine-dependent)")
