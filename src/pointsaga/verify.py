"""Self-check suites behind the command line's `verify` subcommand.

Each suite returns (ok, detail). The `quick` scale trims trial counts to run
in seconds; `full` matches the sizes used by the acceptance tests.
"""

import numpy as np

from .analysis import (
    check_coercivity,
    defazio_rate,
    dr_rate,
    optimal_stepsize,
    theoretical_rate,
    verify_one_step_contraction,
)
from .problems import (
    GeneratorSpec,
    LogisticRidgeComponent,
    QuadraticComponent,
    RankOneRidgeComponent,
    gen_quadratic,
)
from .solver import SolverConfig, SolverState, run, table_drift


def _random_components(rng, d=3, mu=1.0, L=10.0):
    G = rng.normal(size=(d, d))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    eig = np.concatenate([[mu, L], rng.uniform(mu, L, size=d - 2)])
    quad = QuadraticComponent(Q, eig, rng.normal(size=d))
    a = rng.normal(size=d)
    a *= np.sqrt(L - mu) / np.linalg.norm(a)
    ridge = RankOneRidgeComponent(a, rng.normal(), mu)
    b = rng.normal(size=d)
    b *= 2.0 * np.sqrt(L - mu) / np.linalg.norm(b)
    logistic = LogisticRidgeComponent(b, 1.0 if rng.random() < 0.5 else -1.0, mu)
    return quad, ridge, logistic


def suite_prox_residuals(scale="quick"):
    trials = 1000 if scale == "quick" else 10000
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(trials):
        comps = _random_components(rng)
        gamma = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e2))))
        z = rng.normal(size=3) * 3.0
        for comp in comps:
            res = comp.prox(gamma, z).residual
            worst = max(worst, float(res))
            if res > 1e-10:
                return False, f"residual {res:.3e} > 1e-10 at trial {k}"
    return True, f"{trials} trials/family, max residual {worst:.2e}"


def suite_firm_nonexpansive(scale="quick"):
    trials = 1000 if scale == "quick" else 10000
    rng = np.random.default_rng(202)
    for k in range(trials):
        comps = _random_components(rng)
        gamma = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
        z1 = rng.normal(size=3) * 2.0
        z2 = rng.normal(size=3) * 2.0
        for comp in comps:
            p1 = comp.prox(gamma, z1).point
            p2 = comp.prox(gamma, z2).point
            dp = p1 - p2
            lhs = dp @ dp
            rhs = dp @ (z1 - z2)
            if lhs > rhs + 1e-10 * (1.0 + abs(rhs)):
                return False, f"violated at trial {k}: {lhs:.6e} > {rhs:.6e}"
    return True, f"{trials} trials/family"


def suite_prop1_drift(scale="quick"):
    iters = 2000 if scale == "quick" else 10000
    spec = GeneratorSpec("quadratic", n=50, dim=10, mu=1.0, L=10.0, seed=11)
    problem = gen_quadratic(spec)
    config = SolverConfig(
        s=5, gamma="auto", max_iters=iters, seed=3, trace_every=iters,
        refresh_every=None,
    )
    rng = np.random.default_rng(5)
    state, _ = run(problem, config, rng.normal(size=10))
    drift = float(table_drift(state))
    bound = 1e-10 * (1.0 + float(np.linalg.norm(state.g_avg)))
    ok = drift <= bound
    return ok, f"drift {drift:.2e} vs bound {bound:.2e} after {iters} iterations"


def suite_coercivity(scale="quick"):
    pairs = 200 if scale == "quick" else 1000
    rng = np.random.default_rng(303)
    mu, L = 1.0, 10.0
    comps = _random_components(rng, mu=mu, L=L)
    for comp in comps:
        for _ in range(pairs):
            x = rng.normal(size=3) * 3.0
            y = rng.normal(size=3) * 3.0
            if not check_coercivity(comp, x, y, mu, L):
                return False, f"violated for {type(comp).__name__}"
    return True, f"{pairs} pairs/component family"


def suite_contraction(scale="quick"):
    trials = 20 if scale == "quick" else 100
    spec = GeneratorSpec("quadratic", n=6, dim=3, mu=1.0, L=10.0, seed=21)
    problem = gen_quadratic(spec)
    x_star, grad_star = problem.known_solution, problem.grad_star
    rng = np.random.default_rng(7)
    worst = 0.0  # the largest lhs/rhs: how close the certificate came to failing
    for s in (1, 2, 3, 6):
        g_star = optimal_stepsize(s, 6, 1.0, 10.0)
        for gamma in (0.1 * g_star, g_star, 10.0 * g_star):
            for k in range(trials):
                table = rng.normal(size=(6, 3))
                state = SolverState(
                    t=0,
                    x=rng.normal(size=3),
                    grad_table=table,
                    g_avg=table.mean(axis=0),
                )
                lhs, rhs, ok = verify_one_step_contraction(
                    state, problem, gamma, s, x_star, grad_star
                )
                worst = max(worst, lhs / rhs)
                if not ok:
                    return False, (
                        f"s={s} gamma={gamma:.4g} trial {k}: lhs {lhs:.6e} > rhs {rhs:.6e}, "
                        f"max lhs/rhs {worst:.6f}"
                    )
    return True, f"{trials} states per (s, gamma) cell, max lhs/rhs {worst:.6f}"


def suite_rate_dominance(scale="quick"):
    del scale  # grid is cheap either way
    gammas = np.logspace(-3, 2, 10)
    kappas = np.logspace(0, 4, 10)
    ns = np.unique(np.round(np.logspace(0, 3, 10)).astype(int))
    mu = 1.0
    for gamma in gammas:
        for kappa in kappas:
            L = mu * kappa
            for n in ns:
                r1 = theoretical_rate(gamma, 1, int(n), mu, L).rho
                if r1 > defazio_rate(gamma, int(n), mu, L) + 1e-12:
                    return False, f"s=1 dominance fails at gamma={gamma}, L={L}, n={n}"
                rn = theoretical_rate(gamma, int(n), int(n), mu, L).rho
                if rn > dr_rate(gamma, mu, L) + 1e-12:
                    return False, f"s=n dominance fails at gamma={gamma}, L={L}, n={n}"
    return True, f"{len(gammas) * len(kappas) * len(ns)} grid points"


def suite_sn_determinism(scale="quick"):
    iters = 200 if scale == "quick" else 500
    spec = GeneratorSpec("quadratic", n=10, dim=4, mu=1.0, L=10.0, seed=31)
    problem = gen_quadratic(spec)
    x0 = np.arange(1.0, 5.0)
    finals = []
    for seed in (0, 1):
        config = SolverConfig(s=10, gamma="auto", max_iters=iters, seed=seed,
                              trace_every=iters)
        state, _ = run(problem, config, x0)
        finals.append((state.x.copy(), state.grad_table.copy()))
    same = np.array_equal(finals[0][0], finals[1][0]) and np.array_equal(
        finals[0][1], finals[1][1]
    )
    return same, f"{iters} iterations, seeds 0 and 1 bitwise equal: {same}"


SUITES = [
    ("prox-residuals", suite_prox_residuals),
    ("firm-nonexpansiveness", suite_firm_nonexpansive),
    ("prop1-drift", suite_prop1_drift),
    ("coercivity", suite_coercivity),
    ("one-step-contraction", suite_contraction),
    ("rate-dominance", suite_rate_dominance),
    ("s=n-determinism", suite_sn_determinism),
]


def run_suites(scale="quick"):
    """Run every suite, printing one line each; returns True iff all pass."""
    all_ok = True
    for name, fn in SUITES:
        ok, detail = fn(scale)
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
