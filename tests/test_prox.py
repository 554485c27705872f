import warnings

import numpy as np
import pytest

from pointsaga import (
    GeneratorSpec,
    GenericComponent,
    LogisticRidgeComponent,
    QuadraticComponent,
    RankOneRidgeComponent,
    gen_quadratic,
    prox_generic,
    prox_logistic_ridge,
    prox_rank_one_quadratic,
)
from pointsaga._linalg import _dots, _matvecs, solve
from pointsaga.errors import DimensionMismatch, InvalidSpec, MaxInnerIterations, SingularSystem
import pointsaga.prox as prox
from pointsaga.prox import TOL_PROX, sigmoid


def random_psd(rng, d, mu=1.0, L=10.0):
    Q, R = np.linalg.qr(rng.normal(size=(d, d)))
    Q = Q * np.sign(np.diag(R))
    eig = np.concatenate([[mu, L], rng.uniform(mu, L, size=d - 2)])
    return (Q * eig) @ Q.T


# --- _linalg.solve -------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_linalg_solve_singular_raises(dtype):
    with pytest.raises(SingularSystem):
        solve(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=dtype), np.ones(2, dtype=dtype))
    with pytest.raises(SingularSystem):
        solve(np.zeros((2, 2), dtype=dtype), np.ones(2, dtype=dtype))


def test_linalg_solve_longdouble_matches_lapack():
    rng = np.random.default_rng(11)
    A = np.eye(6) + random_psd(rng, 6)
    b = rng.normal(size=6)
    x = solve(A.astype(np.longdouble), b.astype(np.longdouble))
    assert x.dtype == np.longdouble
    assert np.allclose(x.astype(float), np.linalg.solve(A, b), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [1, 4, 50])
@pytest.mark.parametrize("dtype,x_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.longdouble, np.longdouble),
    (np.float32, np.float64), (np.longdouble, np.float64)], ids=lambda t: np.dtype(t).name)
def test_row_dots_of_gathered_rows_match_the_full_pass(dtype, x_dtype, d):
    # solver.run recomputes Psi's row errors for the rows a step writes and
    # needs each to be bitwise the same row of a pass over every row. The
    # row banks dot their rows with one vector x, which may be wider.
    rng = np.random.default_rng(d)
    E = (rng.standard_normal((40, d)) * np.logspace(-8, 8, 40)[:, None]).astype(dtype)
    F = rng.standard_normal((40, d)).astype(x_dtype)
    x = rng.standard_normal(d).astype(x_dtype)
    for B in (E, F, x):
        full = _dots(E, B)
        assert full.dtype == np.result_type(E, B)
        for idx in (np.array([0]), np.array([3, 17, 39]), np.arange(1, 40, 2), np.arange(40)):
            part = _dots(E[idx], B if B.ndim == 1 else B[idx])
            assert np.array_equal(part, full[idx])
            assert all(part[k] == E[i] @ (B if B.ndim == 1 else B[i]) for k, i in enumerate(idx))


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
def test_stacked_matvecs_are_each_product_alone(dtype):
    # QuadraticBank's prox rows must be bitwise its components' M @ v. In
    # float32 and float64 that product is BLAS gemv, which a dot per row
    # does not reproduce on 10-by-10 random matrices.
    rng = np.random.default_rng(10)
    M = rng.standard_normal((50, 10, 10)).astype(dtype)
    V = rng.standard_normal((50, 10)).astype(dtype)
    for got, want in ((_matvecs(M, V), np.stack([M[k] @ V[k] for k in range(50)])),
                      (_matvecs(M, V[0]), np.stack([M[k] @ V[0] for k in range(50)])),
                      (_matvecs(M[0], V[0]), M[0] @ V[0])):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want)


# --- prox_rank_one_quadratic --------------------------------------------------


def test_rank_one_hand_solve():
    # (I + e1 e1') x = (2, 3): first coordinate halves, second unchanged.
    r = prox_rank_one_quadratic(np.array([1.0, 0.0]), 0.0, 0.0, 1.0,
                                np.array([2.0, 3.0]))
    assert np.allclose(r.point, [1.0, 3.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("prox_fn", [prox_rank_one_quadratic, prox_logistic_ridge])
def test_row_prox_rejects_mismatched_shapes(prox_fn):
    with pytest.raises(DimensionMismatch, match=r"a has shape \(2,\), z has shape \(3,\)"):
        prox_fn(np.ones(2), 1.0, 0.1, 0.5, np.zeros(3))


@pytest.mark.parametrize("prox_fn", [prox_rank_one_quadratic, prox_logistic_ridge])
def test_row_prox_admits_its_arrays_as_model_check_array_does(prox_fn):
    # An int8 row computed in int8, where its a'a overflowed (residual 2.8e7
    # for the rank-one quadratic); a complex one computed in complex.
    for name in ("a", "z"):
        args = {"a": np.full(3, 100), "z": np.ones(3)}
        want = prox_fn(args["a"].astype(np.float64), 1.0, 0.5, 0.1, args["z"])
        got = prox_fn(**{**args, name: args[name].astype(np.int8)}, y=1.0, mu_reg=0.5, gamma=0.1)
        assert np.array_equal(got.point, want.point) and got.residual == want.residual
        with pytest.raises(InvalidSpec, match=f"{name} must hold integers or floats"):
            prox_fn(**{**args, name: args[name] * 1j}, y=1.0, mu_reg=0.5, gamma=0.1)


def test_rank_one_zero_row_reduces_to_ridge():
    r = prox_rank_one_quadratic(np.zeros(2), 0.0, 1.0, 1.0, np.array([4.0, -2.0]))
    assert np.allclose(r.point, [2.0, -1.0], rtol=0, atol=1e-15)


def test_rank_one_small_gamma_is_identity():
    rng = np.random.default_rng(1)
    a = rng.normal(size=3)
    z = rng.normal(size=3)
    r = prox_rank_one_quadratic(a, 0.7, 2.0, 1e-12, z)
    assert np.allclose(r.point, z, rtol=0, atol=1e-9)


def test_rank_one_matches_dense_solve_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = rng.integers(1, 6)
        a = rng.normal(size=d)
        y = rng.normal()
        mu = float(rng.uniform(0, 3))
        gamma = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e2))))
        z = rng.normal(size=d) * 2
        system = (1 + gamma * mu) * np.eye(d) + gamma * np.outer(a, a)
        expect = np.linalg.solve(system, z + gamma * y * a)
        got = prox_rank_one_quadratic(a, y, mu, gamma, z)
        assert np.allclose(got.point, expect, rtol=1e-11, atol=1e-11)
        assert got.residual <= TOL_PROX


# --- prox_logistic_ridge ------------------------------------------------------


def test_logistic_zero_row_is_scaled_identity():
    z = np.array([3.0, -6.0])
    r = prox_logistic_ridge(np.zeros(2), 1.0, 1.0, 1.0, z)
    assert np.allclose(r.point, z / 2.0, rtol=0, atol=1e-15)


def test_logistic_scalar_root_vs_bisection_oracle():
    # d=1, a=1, y=+1, mu_reg=1, gamma=1, z=0: optimality reduces to
    # h(u) = 2u - sigmoid(-u) = 0. Oracle: plain bisection to 1e-14.
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 2 * mid - sigmoid(-mid) > 0:
            hi = mid
        else:
            lo = mid
    u_oracle = 0.5 * (lo + hi)
    r = prox_logistic_ridge(np.array([1.0]), 1.0, 1.0, 1.0, np.array([0.0]))
    assert abs(r.point[0] - u_oracle) <= 1e-12
    assert r.inner_iters > 0


def test_logistic_odd_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.normal(size=3)
        z = rng.normal(size=3) * 2
        gamma = float(rng.uniform(0.05, 5.0))
        p_plus = prox_logistic_ridge(a, 1.0, 0.5, gamma, z).point
        p_minus = prox_logistic_ridge(a, -1.0, 0.5, gamma, -z).point
        assert np.allclose(p_plus, -p_minus, rtol=0, atol=1e-11)


def test_logistic_residual_below_tolerance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.normal(size=4) * 2
        y = 1.0 if rng.random() < 0.5 else -1.0
        gamma = float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0))))
        z = rng.normal(size=4) * 3
        r = prox_logistic_ridge(a, y, 1.0, gamma, z)
        assert r.residual <= TOL_PROX


def test_logistic_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(prox, "NEWTON_BUDGET", 0)  # no Newton step allowed
    with pytest.raises(MaxInnerIterations):
        prox_logistic_ridge(np.array([2.0, 1.0]), 1.0, 1.0, 1.0, np.array([5.0, -2.0]))


# --- prox_generic -------------------------------------------------------------


def quadratic_generic(dim=2):
    return GenericComponent(
        grad_fn=lambda x: x,
        mu=1.0,
        L=1.0,
    )


def test_generic_matches_known_closed_form():
    r = prox_generic(quadratic_generic(), 1.0, np.array([2.0, 0.0]), 1e-10, 1.0, 1.0)
    assert np.allclose(r.point, [1.0, 0.0], rtol=0, atol=1e-10)


def test_generic_matches_rank_one_closed_form():
    rng = np.random.default_rng(8)
    a = rng.normal(size=3)
    y = 0.4
    mu_reg = 1.0
    L = mu_reg + float(a @ a)
    comp = RankOneRidgeComponent(a, y, mu_reg)
    generic = GenericComponent(comp.gradient, mu_reg, L)
    tol = 1e-11
    for _ in range(100):
        gamma = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
        z = rng.normal(size=3) * 2
        closed = prox_rank_one_quadratic(a, y, mu_reg, gamma, z)
        iterative = prox_generic(generic, gamma, z, tol, mu_reg, L)
        assert np.allclose(iterative.point, closed.point, rtol=0, atol=10 * tol)


def test_generic_budget_survives_large_gamma():
    # Budget grows with (1 + gamma L) / (1 + gamma mu); for a well-conditioned
    # component it stays modest even at gamma = 1e6.
    rng = np.random.default_rng(9)
    a = rng.normal(size=3)
    mu_reg = 1.0
    L = mu_reg + float(a @ a)
    comp = RankOneRidgeComponent(a, 0.0, mu_reg)
    generic = GenericComponent(comp.gradient, mu_reg, L)
    gamma = 1e6
    z = rng.normal(size=3)
    r = prox_generic(generic, gamma, z, 1e-12, mu_reg, L)
    kappa = (1 + gamma * L) / (1 + gamma * mu_reg)
    budget = 10 * int(np.ceil(kappa * np.log(1e12)))
    assert r.inner_iters <= budget


def test_generic_residual_stays_finite_where_its_square_overflows():
    # The first defect is z itself, ~1e160, whose square overflows float64;
    # its norm is taken scaled, and the second step lands on the root.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = quadratic_generic().prox(1.0, np.full(3, 1e160))
    assert r.residual == 0.0 and r.inner_iters == 1
    assert np.array_equal(r.point, np.full(3, 5e159))


def test_generic_unreachable_tolerance_raises():
    # Anisotropic curvature: the inner descent's residual floors at rounding
    # level, far above 1e-30.
    D = np.array([1.0, 10.0])
    comp = GenericComponent(
        grad_fn=lambda x: D * x,
        mu=1.0,
        L=10.0,
    )
    with pytest.raises(MaxInnerIterations):
        prox_generic(comp, 1.0, np.array([5.0, 1.0]), 1e-30, 1.0, 10.0)


# --- resolvent defect -----------------------------------------------------------


def test_residual_of_op_outputs_below_tol():
    rng = np.random.default_rng(10)
    for _ in range(50):
        A = random_psd(rng, 3)
        comp = QuadraticComponent(*_decompose(A, rng))
        gamma = float(rng.uniform(0.01, 10))
        z = rng.normal(size=3) * 2
        x = comp.prox(gamma, z).point
        defect = x + gamma * comp.gradient(x) - z
        assert np.sqrt(defect @ defect) <= TOL_PROX


def _decompose(A, rng):
    eig, Q = np.linalg.eigh(A)
    return Q, eig, rng.normal(size=A.shape[0])


# --- shared operator properties ------------------------------------------------


@pytest.fixture(scope="module")
def family_instances():
    rng = np.random.default_rng(11)
    quad_problem = gen_quadratic(GeneratorSpec("quadratic", 3, 3, 1.0, 10.0, seed=13))
    a = rng.normal(size=3)
    a *= 3.0 / np.linalg.norm(a)
    comps = list(quad_problem.components)
    comps.append(RankOneRidgeComponent(a, 0.3, 1.0))
    comps.append(LogisticRidgeComponent(a * 2, -1.0, 1.0))
    return comps


def test_firm_nonexpansiveness(family_instances):
    rng = np.random.default_rng(12)
    for comp in family_instances:
        for _ in range(200):
            gamma = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
            z1 = rng.normal(size=3) * 2
            z2 = rng.normal(size=3) * 2
            p1 = comp.prox(gamma, z1).point
            p2 = comp.prox(gamma, z2).point
            dp = p1 - p2
            assert dp @ dp <= dp @ (z1 - z2) + 1e-10


def test_resolvent_contraction_inequality():
    # Full-strength contraction at the solution: for p = prox(z),
    # (1 + 2 g mu L/(L+mu)) ||p - x*||^2 + (g^2 + 2 g/(L+mu)) ||grad p - grad x*||^2
    #     <= ||z - z*||^2 with z* = x* + g grad f(x*).
    problem = gen_quadratic(GeneratorSpec("quadratic", 4, 3, 1.0, 10.0, seed=17))
    x_star = problem.known_solution
    mu, L = problem.mu, problem.L
    rng = np.random.default_rng(14)
    for comp in problem.components:
        g_star = comp.gradient(x_star)
        for _ in range(200):
            gamma = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e1))))
            z = rng.normal(size=3) * 3
            z_star = x_star + gamma * g_star
            p = comp.prox(gamma, z).point
            dp = p - x_star
            dg = comp.gradient(p) - g_star
            dz = z - z_star
            lhs = (1 + 2 * gamma * mu * L / (L + mu)) * (dp @ dp) + (
                gamma**2 + 2 * gamma / (L + mu)
            ) * (dg @ dg)
            assert lhs <= dz @ dz + 1e-9 * (1 + dz @ dz)
