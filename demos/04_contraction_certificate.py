"""Certify the one-step contraction inequality exactly on a small problem.

With n small we can enumerate every s-subset the sampler could draw, score
the Lyapunov energy that one deterministic iteration on each subset leaves,
and average those energies: that average is the *exact* conditional
expectation, no Monte Carlo. A component's prox from a fixed state is the
same in every subset that holds it, so the certificate makes n proxes and
then O(C(n, s) * (s * d + n)) vector arithmetic. It checks the average never
exceeds rho times the current energy.
"""

import numpy as np

from pointsaga import (
    FiniteSumProblem,
    GeneratorSpec,
    QuadraticComponent,
    SolverState,
    gen_quadratic,
    optimal_stepsize,
    verify_one_step_contraction,
)

problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=21))
x_star, grad_star = problem.known_solution, problem.grad_star

rng = np.random.default_rng(5)
print("batch   gamma     worst lhs/rhs over 50 random states")
for s in (1, 2, 3, 6):
    gamma = optimal_stepsize(s, 6, 1.0, 10.0)
    worst = 0.0
    for _ in range(50):
        table = rng.normal(size=(6, 3))
        state = SolverState(0, rng.normal(size=3), table, table.mean(axis=0))
        lhs, rhs, ok = verify_one_step_contraction(
            state, problem, gamma, s, x_star, grad_star
        )
        assert ok
        worst = max(worst, lhs / rhs)
    print(f"{s:5d}  {gamma:6.3f}     {worst:.6f}")

print("\nThe bound can be met exactly. A one-component problem started at")
print("x=2 with a zeroed gradient table contracts its energy by precisely 1/2:")
comp = QuadraticComponent(np.eye(1), np.ones(1), np.zeros(1))
unit = FiniteSumProblem((comp,), 1.0, 1.0, 1, known_solution=np.zeros(1))
state = SolverState(0, np.array([2.0]), np.zeros((1, 1)), np.zeros(1))
lhs, rhs, ok = verify_one_step_contraction(
    state, unit, 1.0, 1, np.zeros(1), np.zeros((1, 1))
)
print(f"  lhs = {lhs}, rhs = {rhs}, tight: {lhs == rhs}")
