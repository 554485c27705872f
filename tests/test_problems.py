import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointsaga import (
    FiniteSumProblem,
    GeneratorSpec,
    GenericComponent,
    QuadraticComponent,
    SolverConfig,
    assemble_problem,
    check_coercivity,
    full_gradient,
    gen_logistic_ridge,
    gen_quadratic,
    gen_ridge_regression,
    load_libsvm,
    reference_solution,
    run,
)
from pointsaga.errors import (
    DimensionMismatch,
    EmptyComponentList,
    EmptyFile,
    InvalidConstants,
    InvalidSpec,
    MaxInnerIterations,
    ParseError,
    PointSagaError,
)
import pointsaga.cli as cli
import pointsaga.problems as problems
import pointsaga.prox as prox
from pointsaga.model import ComponentBank, _row_total
from pointsaga.problems import (
    MAX_DENSE_ENTRIES,
    LogisticBank,
    LogisticRidgeComponent,
    QuadraticBank,
    RankOneRidgeComponent,
    RidgeBank,
)
from pointsaga.prox import sigmoid


# --- GeneratorSpec ---------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        GeneratorSpec("nope", 1, 1, 1.0, 1.0)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("quadratic", 0, 1, 1.0, 1.0)
    # mu > L is the constants fault a problem raises, with its message.
    with pytest.raises(InvalidConstants, match=r"^need finite 0 < mu <= L, got mu=2.0, L=1.0$"):
        GeneratorSpec("quadratic", 1, 1, 2.0, 1.0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_spec_rejects_non_finite_constants(bad):
    with pytest.raises(InvalidConstants):
        GeneratorSpec("quadratic", 2, 2, 1.0, bad)
    with pytest.raises(InvalidConstants):
        GeneratorSpec("quadratic", 2, 2, bad, bad)


def test_spec_rejects_negative_seed():
    with pytest.raises(InvalidSpec, match="seed"):
        GeneratorSpec("quadratic", 2, 2, 1.0, 1.0, seed=-1)


@pytest.mark.parametrize("field", [{"n": 2.5}, {"dim": 3.0}, {"seed": 1.5}],
                         ids=["n-2.5", "dim-3.0", "seed-1.5"])
def test_spec_rejects_non_integral_sizes(field):
    name, value = next(iter(field.items()))
    spec = {"family": "quadratic", "n": 3, "dim": 2, "mu": 1.0, "L": 2.0, **field}
    with pytest.raises(InvalidSpec, match=f"{name} must be an integer, got {value}"):
        GeneratorSpec(**spec)


def test_spec_accepts_numpy_integer_sizes():
    spec = GeneratorSpec("quadratic", np.int64(3), np.int32(2), 1.0, 2.0, seed=np.uint64(4))
    python = gen_quadratic(GeneratorSpec("quadratic", 3, 2, 1.0, 2.0, seed=4))
    assert np.array_equal(gen_quadratic(spec).known_solution, python.known_solution)
    # n * d * d = 2^64 would wrap to 0 in int64 and slip under the cap.
    with pytest.raises(InvalidSpec, match="dense entries"):
        GeneratorSpec("quadratic", np.int64(2**32), np.int64(2**16), 1.0, 2.0)


@pytest.mark.parametrize("generate,family", [(gen_ridge_regression, "ridge_regression"),
                                             (gen_logistic_ridge, "logistic_ridge")])
def test_spec_widens_float32_constants(generate, family):
    # A float32 mu reached the banks' mu_reg, where 1 + gamma mu_reg rounded
    # in float32: the first prox missed its tolerance (residual ~5e-10). The
    # spec binds the Python float of the same value instead.
    spec = GeneratorSpec(family, 20, 3, np.float32(0.1), np.float32(10.0), seed=1)
    assert type(spec.mu) is float and type(spec.L) is float
    assert spec.mu == np.float32(0.1)
    config = SolverConfig(s=2, max_iters=50, seed=1)
    state, _ = run(generate(spec), config, np.zeros(3))
    python = GeneratorSpec(family, 20, 3, float(np.float32(0.1)), 10.0, seed=1)
    assert np.array_equal(state.x, run(generate(python), config, np.zeros(3))[0].x)


def test_spec_keeps_longdouble_constants():
    spec = GeneratorSpec("quadratic", 3, 2, np.longdouble(1), 2, seed=1)
    assert type(spec.mu) is np.longdouble and type(spec.L) is float


# Each family at its dense-entry cap, then one step over it: quadratics hold
# n d-by-d matrices, ridge and logistic n-by-d rows and a d-by-d Hessian.
_AT_CAP = [("quadratic", 1, 10**4), ("ridge_regression", 10**8, 1),
           ("ridge_regression", 1, 10**4), ("logistic_ridge", 10**7, 10),
           ("logistic_ridge", 1, 10**4)]
_OVER_CAP = [("quadratic", 2, 10**4), ("ridge_regression", 10**8 + 1, 1),
             ("ridge_regression", 1, 10**4 + 1), ("logistic_ridge", 10**7 + 1, 10),
             ("logistic_ridge", 1, 10**4 + 1)]


@pytest.mark.parametrize("family,n,dim", _OVER_CAP,
                         ids=["quad-n-d2", "ridge-n-d", "ridge-d2", "logistic-n-d",
                              "logistic-d2"])
def test_generators_reject_oversized_specs_before_allocating(monkeypatch, family, n, dim):
    # default_rng starts every generator's draws; it fails the test here, so
    # a missing size check fails instead of allocating.
    def no_alloc(*args, **kwargs):
        raise AssertionError("generator allocated")

    monkeypatch.setattr(np.random, "default_rng", no_alloc)
    generate = {"quadratic": gen_quadratic, "ridge_regression": gen_ridge_regression,
                "logistic_ridge": gen_logistic_ridge}[family]
    with pytest.raises(InvalidSpec) as err:
        generate(GeneratorSpec(family, n, dim, 0.5, 1.0))
    assert str(MAX_DENSE_ENTRIES) in str(err.value)


# Each generator given another family's spec. The last spec passes the ridge
# cap, but a quadratic of that size would need 10**12 dense entries.
_FOREIGN = [(gen_quadratic, "logistic_ridge", 2, 2), (gen_ridge_regression, "quadratic", 2, 2),
            (gen_logistic_ridge, "ridge_regression", 2, 2),
            (gen_quadratic, "ridge_regression", 10**4, 10**4)]


@pytest.mark.parametrize("generate,family,n,dim", _FOREIGN,
                         ids=["quad", "ridge", "logistic", "quad-of-ridge-cap"])
def test_generators_reject_another_familys_spec_before_allocating(monkeypatch, generate,
                                                                   family, n, dim):
    def no_alloc(*args, **kwargs):
        raise AssertionError("generator allocated")

    monkeypatch.setattr(np.random, "default_rng", no_alloc)
    with pytest.raises(InvalidSpec, match=f"expected family .*, got '{family}'"):
        generate(GeneratorSpec(family, n, dim, 0.5, 1.0))


def test_spec_accepts_specs_at_the_dense_cap():
    assert MAX_DENSE_ENTRIES == 10**8  # the sizes of _AT_CAP are set from it
    for family, n, dim in _AT_CAP:
        GeneratorSpec(family, n, dim, 0.5, 1.0)


def test_each_problem_builds_its_bank_once(monkeypatch, tmp_path):
    # Attaching the minimizer keeps the bank the problem was built with.
    # Quadratic and row banks are built from their arrays, not through
    # ComponentBank.__init__.
    built = []
    for cls in (ComponentBank, QuadraticBank, problems._RowBank):
        def counting_init(self, *args, init=cls.__init__):
            built.append(type(self))
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    gen_ridge_regression(GeneratorSpec("ridge_regression", 6, 3, 1.0, 10.0, seed=1))
    gen_logistic_ridge(GeneratorSpec("logistic_ridge", 6, 3, 1.0, 10.0, seed=1))
    path = tmp_path / "data.svm"
    path.write_text("+1 1:0.5 2:-1\n-1 1:2 3:0.25\n+1 2:1.5\n")
    args = cli.build_parser().parse_args(["run", "--problem", f"file:{path}"])
    problem = cli._build_problem(args)
    assert problem.known_solution is not None
    _, loaded = load_libsvm(str(path), mu=0.5)  # demo 06's path
    problem = loaded.with_known_solution(reference_solution(loaded, tol=1e-12))
    assert problem.bank is loaded.bank
    assert built == [QuadraticBank, RidgeBank, LogisticBank, LogisticBank, LogisticBank]


# --- quadratic generator -----------------------------------------------------------


def test_quadratic_one_dim_plants_center():
    problem = gen_quadratic(GeneratorSpec("quadratic", 1, 1, 1.0, 1.0, seed=0))
    comp = problem.components[0]
    # f(x) = (x - c)^2 / 2: minimizer is c itself.
    assert abs(problem.known_solution[0] - comp.c[0]) <= 1e-12


def test_quadratic_one_dim_needs_equal_constants():
    with pytest.raises(InvalidSpec):
        gen_quadratic(GeneratorSpec("quadratic", 2, 1, 1.0, 2.0, seed=0))


def test_quadratic_eigenvalues_within_bounds():
    # Oracle: dense symmetric eigensolve of every A_i.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 5, 1.0, 10.0, seed=12))
    for comp in problem.components:
        eigs = np.linalg.eigvalsh(comp.A)
        assert eigs.min() >= 1.0 - 1e-9
        assert eigs.max() <= 10.0 + 1e-9
        # both endpoints present
        assert abs(eigs.min() - 1.0) <= 1e-9
        assert abs(eigs.max() - 10.0) <= 1e-9


def test_quadratic_planted_stationarity():
    problem = gen_quadratic(GeneratorSpec("quadratic", 7, 4, 1.0, 10.0, seed=13))
    g = full_gradient(problem, problem.known_solution)
    assert np.linalg.norm(g) <= problem.n * 1e-10


def test_quadratic_deterministic_in_seed():
    spec = GeneratorSpec("quadratic", 4, 3, 1.0, 10.0, seed=9)
    p1 = gen_quadratic(spec)
    p2 = gen_quadratic(spec)
    for c1, c2 in zip(p1.components, p2.components):
        assert np.array_equal(c1.A, c2.A)
        assert np.array_equal(c1.c, c2.c)
    assert np.array_equal(p1.known_solution, p2.known_solution)


def _quadratic_one_at_a_time(spec, dtype):
    """gen_quadratic's (Q, eig, c, A, A c) as built one component at a time,
    with A and A c from the 2-d formulas."""
    rng = np.random.default_rng(spec.seed)
    out = []
    for _ in range(spec.n):
        G = rng.normal(size=(spec.dim, spec.dim))
        Q, R = np.linalg.qr(G)
        Q = Q * np.sign(np.diag(R))
        if spec.dim == 1:
            eig = np.array([spec.mu])
        else:
            eig = np.concatenate(
                [[spec.mu, spec.L], rng.uniform(spec.mu, spec.L, size=spec.dim - 2)]
            )
        c = rng.normal(size=spec.dim)
        Q, eig, c = Q.astype(dtype), eig.astype(dtype), c.astype(dtype)
        A = (Q * eig) @ Q.T
        out.append((Q, eig, c, A, A @ c))
    return [np.stack(arrays) for arrays in zip(*out)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_quadratic_generator_matches_one_component_at_a_time(dtype, d):
    spec = GeneratorSpec("quadratic", 9, d, 10.0 if d == 1 else 1.0, 10.0, seed=d)
    problem = gen_quadratic(spec, dtype=dtype)
    bank = problem.bank
    Q, eig, c, A, Ac = _quadratic_one_at_a_time(spec, dtype)
    for got, want in zip((bank.Q, bank.eig, bank.c, bank.A, bank.Ac), (Q, eig, c, A, Ac)):
        assert_bitwise(got, want)
    # The minimizer from the same Newton solve over the same arrays, and its
    # gradients from the 2-d formula.
    oracle = assemble_problem(
        [QuadraticComponent(*arrays) for arrays in zip(Q, eig, c)], spec.mu, spec.L, d)
    assert_bitwise(problem.known_solution, reference_solution(oracle))
    assert_bitwise(problem.grad_star,
                   np.stack([A_i @ problem.known_solution - Ac_i for A_i, Ac_i in zip(A, Ac)]))


def test_quadratic_longdouble_matches_float64_draws():
    spec = GeneratorSpec("quadratic", 3, 3, 1.0, 10.0, seed=4)
    p64 = gen_quadratic(spec)
    pld = gen_quadratic(spec, dtype=np.longdouble)
    assert pld.components[0].A.dtype == np.longdouble
    for c64, cld in zip(p64.components, pld.components):
        assert np.array_equal(c64.Q, cld.Q.astype(np.float64))
        assert np.array_equal(c64.c, cld.c.astype(np.float64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
def test_quadratic_bank_rows_match_component_prox(dtype):
    for d, mu in ((5, 1.0), (1, 10.0)):  # dim=1 needs mu = L
        problem = gen_quadratic(GeneratorSpec("quadratic", 9, d, mu, 10.0, seed=6), dtype=dtype)
        bank = problem.bank
        assert isinstance(bank, QuadraticBank)
        bank.prox(0.5, np.arange(9), np.ones((9, d), dtype=dtype))
        rng = np.random.default_rng(8)
        for gamma in (0.03, 0.7, 0.03, 25.0):
            for s in (1, 4, 9):
                idx = np.sort(rng.choice(9, size=s, replace=False))
                Z = (rng.normal(size=(s, d)) * 10.0).astype(dtype)
                P, residual = bank.prox(gamma, idx, Z)
                assert P.dtype == dtype and residual.shape == (s,)
                for k, i in enumerate(idx):
                    one = problem.components[i].prox(gamma, Z[k])
                    assert np.array_equal(P[k], one.point)
                    assert residual[k] == one.residual
            (M, g_Ac), = bank._resolvents([gamma])
            assert M.dtype == dtype and g_Ac.dtype == dtype
            for i, comp in enumerate(problem.components):
                M_i, g_Ac_i = comp._resolvent(gamma)
                assert np.array_equal(M[i], M_i) and np.array_equal(g_Ac[i], g_Ac_i)


def test_shared_quadratic_prox_is_thread_safe():
    # The bank caches the resolvents of the gammas of its last call, and the
    # component builds its own on each call; four threads cycling through
    # three gammas, alone and per row, keep replacing the bank's cache under
    # one another.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 4, 1.0, 10.0, seed=12))
    comp, bank = problem.components[2], problem.bank
    gammas = (0.05, 0.8, 12.0)
    idx = np.array([0, 2, 5])
    Z = np.random.default_rng(13).normal(size=(3, 4)) * 5.0

    def prox_both(gamma):
        one = comp.prox(gamma, Z[0])
        P, residual = bank.prox(gamma, idx, Z)
        P_rows, residual_rows = bank.prox(np.array([gamma, 0.05, gamma]), idx, Z)
        return one.point, one.residual, P, residual, P_rows[[0, 2]], residual_rows[[0, 2]]

    serial = {gamma: prox_both(gamma) for gamma in gammas}
    results = [[] for _ in range(4)]
    start = threading.Barrier(4, timeout=30)

    def worker(out, offset):
        start.wait()
        for k in range(200):
            gamma = gammas[(k + offset) % 3]
            out.append((gamma, prox_both(gamma)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=worker, args=(results[i], i))
                   for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)

    assert not any(th.is_alive() for th in threads)
    assert [len(out) for out in results] == [200] * 4
    for out in results:
        for gamma, got in out:
            assert all(np.array_equal(a, b) for a, b in zip(got, serial[gamma]))


def test_assembled_components_get_the_default_bank():
    # A family bank comes from its arrays; components a user assembles get
    # the default bank, whatever their classes, shapes and dtypes.
    def quad(d, dtype=np.float64):
        return QuadraticComponent(np.eye(d, dtype=dtype), np.ones(d, dtype=dtype),
                                  np.zeros(d, dtype=dtype))

    thin = QuadraticComponent([[1.0], [0.0]], np.ones(1), np.zeros(2))
    ridge = gen_ridge_regression(GeneratorSpec("ridge_regression", 3, 2, 0.1, 1.0, seed=1))
    assert type(ridge.bank) is RidgeBank
    logistic = LogisticRidgeComponent(np.ones(2), -1.0, 0.1)

    class OwnProx(QuadraticComponent):
        def prox(self, gamma, z):
            return super().prox(gamma, z)

    own = OwnProx(np.eye(2), np.ones(2), np.zeros(2))
    for comps in ([quad(2), quad(2)], [quad(2), quad(2, np.longdouble)], [quad(2), thin],
                  [quad(2), ridge.components[0]], list(ridge.components), [logistic] * 2,
                  [own, own]):
        problem = assemble_problem(comps, 0.1, 1.0, 2)
        assert type(problem.bank) is ComponentBank
        assert problem.bank.components is problem.components == tuple(comps)
    problem = assemble_problem([quad(2), thin], 0.5, 1.0, 2)
    P, residuals = problem.bank.prox(0.5, np.arange(2), np.ones((2, 2)))
    assert np.array_equal(P[1], thin.prox(0.5, np.ones(2)).point)


@pytest.mark.parametrize("family,generate", [("quadratic", gen_quadratic),
                                             ("ridge_regression", gen_ridge_regression),
                                             ("logistic_ridge", gen_logistic_ridge)],
                         ids=["quadratic", "ridge", "logistic"])
def test_family_bank_width_must_match_dim(family, generate):
    # A bank of width 4 under dim 3 used to construct, and a later run
    # raised numpy's untyped ValueError.
    p = generate(GeneratorSpec(family, 6, 4, 0.5, 5.0, seed=1))
    for dim in (3, 5):
        with pytest.raises(DimensionMismatch, match=f"width 4, expected dim {dim}"):
            assemble_problem(p.components, p.mu, p.L, dim)
        with pytest.raises(DimensionMismatch):
            FiniteSumProblem(p.bank, p.mu, p.L, dim)
    assert assemble_problem(p.components, p.mu, p.L, 4).bank is p.bank


def _row_problem(family, n, d, dtype):
    if family == "ridge":
        spec = GeneratorSpec("ridge_regression", n, d, 0.3, 5.0, seed=d)
        return gen_ridge_regression(spec, dtype=dtype)
    return gen_logistic_ridge(GeneratorSpec("logistic_ridge", n, d, 0.3, 5.0, seed=d))


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("family,dtype", [("ridge", np.float64), ("ridge", np.longdouble),
                                          ("logistic", np.float64)])
def test_row_bank_gradients_match_component_bank(family, dtype, d):
    problem = _row_problem(family, 40, d, dtype)
    bank, loop = problem.bank, ComponentBank(problem.components)
    assert type(bank) is {"ridge": RidgeBank, "logistic": LogisticBank}[family]
    rng = np.random.default_rng(d)
    for x_dtype in (np.float64, np.longdouble, np.float32):
        x = (rng.normal(size=d) * 3.0).astype(x_dtype)
        G = bank.gradients(x)
        assert G.dtype == loop.gradients(x).dtype
        assert np.array_equal(G, loop.gradients(x))
        assert np.array_equal(full_gradient(problem, x), _row_total(loop.gradients(x)))
    assert np.array_equal(full_gradient(problem, np.zeros(d)),
                          _row_total(loop.gradients(np.zeros(d))))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_quadratic_bank_gradients_match_component_gradients(dtype):
    problem = gen_quadratic(GeneratorSpec("quadratic", 9, 4, 1.0, 10.0, seed=3), dtype=dtype)
    assert type(problem.bank) is QuadraticBank
    rng = np.random.default_rng(5)
    for x_dtype in (np.float64, np.longdouble, np.float32):
        x = (rng.normal(size=4) * 3.0).astype(x_dtype)
        G = problem.bank.gradients(x)
        total = np.zeros_like(x)
        for i, comp in enumerate(problem.components):
            assert np.array_equal(G[i], comp.gradient(x))
            total = total + comp.gradient(x)
        assert np.array_equal(full_gradient(problem, x), total)


@pytest.mark.parametrize("family", ["quadratic", "quadratic-longdouble", "ridge", "logistic"])
def test_bank_hessian_sum_matches_central_differences(family):
    if family.startswith("quadratic"):
        dtype = np.longdouble if family.endswith("longdouble") else np.float64
        problem = gen_quadratic(GeneratorSpec("quadratic", 9, 4, 1.0, 10.0, seed=3), dtype=dtype)
    else:
        problem = _row_problem(family, 30, 4, np.float64)
    bank, h = problem.bank, 1e-5
    # The default bank over the same components sums their hessian in index
    # order: the quadratic bank's sum bitwise, the row banks' matrix product
    # up to its rounding.
    loop = ComponentBank(list(problem.components))
    rng = np.random.default_rng(8)
    for _ in range(3):
        x = rng.normal(size=4)
        H = bank.hessian_sum(x)
        assert H.shape == (4, 4)
        E = np.eye(4) * h
        diffs = np.stack([(full_gradient(problem, x + e) - full_gradient(problem, x - e)) / (2 * h)
                          for e in E], axis=1)
        assert np.allclose(H, diffs, rtol=0, atol=1e-6 * np.abs(H).max())
        if family != "logistic":  # constant in x, so built once and read-only
            assert H is bank.hessian_sum(-x) and not H.flags.writeable
        if family.startswith("quadratic"):
            assert_bitwise(loop.hessian_sum(x), H)
        else:
            assert np.abs(loop.hessian_sum(x) - H).max() <= 1e-13 * np.abs(H).max()


def test_default_bank_has_no_hessian():
    # Only the components without a hessian are named.
    comps = [GenericComponent(lambda x: x, 1.0, 1.0),
             QuadraticComponent(np.eye(2), np.ones(2), np.zeros(2)),
             GenericComponent(lambda x: 2.0 * x, 2.0, 2.0)]
    with pytest.raises(InvalidSpec, match="^no Hessian for GenericComponent: declare known_solution$"):
        ComponentBank(comps).hessian_sum(np.zeros(2))


def test_logistic_bank_prox_matches_component_prox(monkeypatch):
    monkeypatch.setattr(problems, "NEWTON_BATCH_MIN", 1)  # batch every subset
    problem = _row_problem("logistic", 12, 4, np.float64)
    bank, loop = problem.bank, ComponentBank(problem.components)
    rng = np.random.default_rng(9)
    for gamma in (0.01, 0.7, 25.0):
        for s in (1, 5, 12):
            idx = np.sort(rng.choice(12, size=s, replace=False))
            for dtype in (np.float64, np.longdouble):
                Z = (rng.normal(size=(s, 4)) * 10.0).astype(dtype)
                P, residuals = bank.prox(gamma, idx, Z)
                P_loop, residuals_loop = loop.prox(gamma, idx, Z)
                assert P.dtype == dtype
                assert np.array_equal(P, P_loop)
                assert np.array_equal(residuals, residuals_loop)


@pytest.mark.parametrize("gamma_type", [float, np.float32, np.longdouble])
def test_logistic_bank_prox_matches_component_prox_for_a_numpy_scalar_gamma(gamma_type):
    # Both solves work in float64, so a gamma of another precision is taken
    # as its float64 value by the batch and by the scalar solve alike.
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 12, 4, 1.0, 10.0, seed=3))
    bank, loop = problem.bank, ComponentBank(problem.components)
    idx = np.array([0, 1, 3, 4, 6, 7, 9, 10])
    assert len(idx) >= problems.NEWTON_BATCH_MIN
    Z = np.random.default_rng(12).normal(size=(8, 4)) * 3.0
    P, residuals = bank.prox(gamma_type(0.3), idx, Z)
    P_loop, residuals_loop = loop.prox(gamma_type(0.3), idx, Z)
    assert np.array_equal(P, P_loop)
    assert np.array_equal(residuals, residuals_loop)
    assert np.array_equal(P, bank.prox(float(gamma_type(0.3)), idx, Z)[0])


def test_logistic_bank_prox_matches_component_prox_at_large_gamma():
    # At gamma = 1e4 rounding in h(u) exceeds TOL_LOGISTIC_ROOT, so both
    # solves stop at the same rounding bound, bitwise alike and within budget.
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 20, 50, 0.3, 5.0, seed=0))
    bank, loop = problem.bank, ComponentBank(problem.components)
    rng = np.random.default_rng(11)
    idx = np.arange(20)
    for _ in range(5):
        Z = rng.normal(size=(20, 50)) * 10.0
        P, residuals = bank.prox(1e4, idx, Z)
        P_loop, residuals_loop = loop.prox(1e4, idx, Z)
        assert np.array_equal(P, P_loop)
        assert np.array_equal(residuals, residuals_loop)
        assert np.all(residuals <= prox.TOL_PROX * (1.0 + np.sqrt((Z * Z).sum(axis=1))))


def _spy_on_hand_off(monkeypatch):
    """The idx lists a LogisticBank hands to ComponentBank.prox's scalar
    solve, one per call, recorded as they are handed over."""
    handed, scalar_prox = [], ComponentBank.prox

    def spy(bank, gamma, idx, Z):
        if isinstance(bank, LogisticBank):
            handed.append(idx.tolist())
        return scalar_prox(bank, gamma, idx, Z)

    monkeypatch.setattr(ComponentBank, "prox", spy)
    return handed


@pytest.mark.parametrize("case", ["zero-row-and-widened-bracket", "bisection-step",
                                  "all-zero-rows", "signed-zero-row"])
def test_logistic_bank_prox_edge_rows(monkeypatch, case):
    monkeypatch.setattr(problems, "NEWTON_BATCH_MIN", 1)
    if case == "zero-row-and-widened-bracket":
        # Row 0 is zero, so only the ridge term acts. For row 1 at this z the
        # derived bracket end falls short of the root by rounding (mu_reg is
        # so small that alpha rounds to 1), so the bracket must be widened.
        a, gamma, mu_reg = np.array([0.7, 0.2]), 0.1, 1e-17
        rows, labels = np.array([np.zeros(2), a, [1.0, -2.0]]), np.array([-1.0, 1.0, -1.0])
        Z = np.array([[3.0, -4.0], 3e16 * a, [0.5, 0.25]])
        aa, hi = a @ a, (np.sqrt(a @ a) * np.sqrt(Z[1] @ Z[1]) + gamma * (a @ a)) + 1.0
        assert hi - a @ Z[1] - gamma * aa * sigmoid(-hi) < 0.0
    elif case == "all-zero-rows":
        # No row has a root to find, so none is live from the start.
        gamma, mu_reg = 0.7, 0.3
        rows, labels = np.zeros((3, 2)), np.array([1.0, -1.0, 1.0])
        Z = np.array([[3.0, -4.0], [-1.5, 0.5], [1e-300, -2.5]])
    elif case == "signed-zero-row":
        # Row 1 is zero with y = +1, and its z holds a -0.0. The scalar solve
        # returns z / alpha and keeps that sign; Newton's formula
        # (z + gamma y s a) / alpha would add +0.0 to it and lose it.
        gamma, mu_reg = 0.7, 0.3
        rows, labels = np.array([[1.0, -2.0], [0.0, 0.0], [0.5, 0.25]]), np.array([-1.0, 1.0, 1.0])
        Z = np.array([[0.5, 0.25], [-0.0, 2.0], [3.0, -4.0]])
    else:
        # Row 0's root is a'z = 1e17, where h vanishes, and the derived bracket
        # end is a'z too: the bound's +1 margin rounds away. Newton closes in
        # on the root from below, so its steps land on the bracket end and are
        # bisected instead.
        a, gamma, mu_reg = np.array([1e6, 0.0]), 1e-25, 1.0
        rows, labels = np.array([a, [1.0, 0.5]]), np.array([1.0, 1.0])
        Z = np.array([[1e11, 0.0], [0.3, -0.2]])
        aa, az = a @ a, a @ Z[0]
        hi = (np.sqrt(aa) * np.sqrt(Z[0] @ Z[0]) + gamma * aa) / (1.0 + gamma * mu_reg) + 1.0
        assert hi == az and (1.0 + gamma * mu_reg) * az - az - gamma * aa * sigmoid(-az) == 0.0
    problem = assemble_problem(LogisticBank(rows, labels, mu_reg), mu_reg, 10.0, 2)
    comps, idx = problem.components, np.arange(len(labels))
    handed = _spy_on_hand_off(monkeypatch)
    P, residuals = problem.bank.prox(gamma, idx, Z)
    # Zero rows and rows whose derived bracket fails go to the scalar solve, in
    # one call; the outputs alone cannot show this, as a batched Newton from a
    # bracket that misses the root still converges to the same bits.
    assert handed == {"zero-row-and-widened-bracket": [[0, 1]], "bisection-step": [],
                      "all-zero-rows": [[0, 1, 2]], "signed-zero-row": [[1]]}[case]
    P_loop, residuals_loop = ComponentBank(comps).prox(gamma, idx, Z)
    assert np.array_equal(P, P_loop)
    assert np.array_equal(residuals, residuals_loop)
    if case == "zero-row-and-widened-bracket":
        assert np.array_equal(P[0], Z[0] / (1.0 + gamma * mu_reg))
    elif case == "all-zero-rows":
        assert np.array_equal(P, Z / (1.0 + gamma * mu_reg))
    elif case == "signed-zero-row":
        # array_equal counts -0.0 equal to +0.0, so the sign bits are compared.
        assert np.signbit(P[1, 0]) and np.array_equal(np.signbit(P), np.signbit(P_loop))
    else:
        # Plain Newton would stop on the bracket end after two steps; the
        # bisections the fallback takes instead cost more than that budget.
        monkeypatch.setattr(prox, "NEWTON_BUDGET", 2)
        for bank in (problem.bank, ComponentBank(comps)):
            with pytest.raises(MaxInnerIterations, match="^prox of component 1:"):
                bank.prox(gamma, idx, Z)


def test_logistic_bank_prox_raises_at_a_nan_point(monkeypatch):
    # The scalar solve never accepts a NaN root, so neither may the batch.
    monkeypatch.setattr(problems, "NEWTON_BATCH_MIN", 1)
    problem = _row_problem("logistic", 12, 4, np.float64)
    Z = np.ones((12, 4))
    Z[2, 1] = np.nan
    for bank in (problem.bank, ComponentBank(problem.components)):
        with pytest.raises(MaxInnerIterations, match="^prox of component 3:"):
            bank.prox(1.0, np.arange(12), Z)


def test_logistic_bank_names_first_component_out_of_budget(monkeypatch):
    monkeypatch.setattr(prox, "NEWTON_BUDGET", 4)
    problem = _row_problem("logistic", 12, 4, np.float64)
    Z = np.random.default_rng(3).normal(size=(12, 4)) * 10.0
    idx, gamma = np.arange(12), 1.0
    fails = []
    for k, i in enumerate(idx):
        try:
            problem.components[i].prox(gamma, Z[k])
        except MaxInnerIterations:
            fails.append(i + 1)
    assert 1 < fails[0] and len(fails) < 12
    handed = _spy_on_hand_off(monkeypatch)
    for batch_min in (1, 13):  # batched, then one component at a time
        monkeypatch.setattr(problems, "NEWTON_BATCH_MIN", batch_min)
        with pytest.raises(MaxInnerIterations, match=f"^prox of component {fails[0]}:"):
            problem.bank.prox(gamma, idx, Z)
    # The batch hands over exactly the rows out of budget, whose scalar solve
    # raises; below NEWTON_BATCH_MIN every row goes.
    assert handed == [[i - 1 for i in fails], list(range(12))]


def test_logistic_prox_brackets_a_huge_point_without_overflow():
    # At ||z|| = 2e170 the bracket's ||z|| overflows as a plain sum of
    # squares; normed by _norms it stays finite, and both solves return a
    # point within the solver's residual bound.
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 10, 4, 1.0, 10.0))
    z = np.full(4, 1e170)
    bound = prox.TOL_PROX * (1.0 + 2e170)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in (1e-3, 1.0, 1e3):
            one = problem.components[0].prox(gamma, z)
            assert np.isfinite(one.point).all() and one.residual <= bound
            P, residuals = problem.bank.prox(gamma, np.arange(6), np.tile(z, (6, 1)))
            assert np.isfinite(P).all() and np.all(residuals <= bound)
            assert np.array_equal(P[0], one.point) and residuals[0] == one.residual


# --- per-row stepsizes ------------------------------------------------------------

# Three trajectories' subsets of n = 12 components, joined as one solver
# iteration joins them: each part sorted, the parts sharing components, the
# last one every component (s = n), each at its own stepsize.
_UNION_PARTS = ([0, 3, 5], [3, 5, 7, 8, 11], list(range(12)))
_UNION_GAMMAS = (0.05, 0.7, 3.0)


def _per_row_problem(kind):
    if kind in ("ridge", "logistic"):
        return _row_problem(kind, 12, 3, np.float64)
    dtype = np.longdouble if kind == "quad-ld" else np.float64
    problem = gen_quadratic(GeneratorSpec("quadratic", 12, 3, 1.0, 10.0, seed=4), dtype=dtype)
    if kind == "default":  # the same components, one at a time
        return assemble_problem(tuple(problem.components), 1.0, 10.0, 3)
    return problem


@pytest.mark.parametrize("kind,batch_min", [
    ("quad-f64", 6), ("quad-ld", 6), ("ridge", 6), ("default", 6),
    ("logistic", 6),  # the union takes the batched Newton, its parts of 3 and 5 rows alone do not
    ("logistic", 1), ("logistic", 100)], ids=lambda v: str(v))
def test_bank_prox_at_per_row_gammas_matches_one_gamma_at_a_time(kind, batch_min, monkeypatch):
    monkeypatch.setattr(problems, "NEWTON_BATCH_MIN", batch_min)
    problem = _per_row_problem(kind)
    assert type(problem.bank) is {"quad-f64": QuadraticBank, "quad-ld": QuadraticBank,
                                  "ridge": RidgeBank, "logistic": LogisticBank,
                                  "default": ComponentBank}[kind]
    idx = np.concatenate(_UNION_PARTS)
    gamma = np.repeat(_UNION_GAMMAS, [len(part) for part in _UNION_PARTS])
    dtype = np.longdouble if kind == "quad-ld" else np.float64
    rng = np.random.default_rng(5)
    for _ in range(3):
        Z = (rng.normal(size=(len(idx), 3)) * 4.0).astype(dtype)
        P, residuals = problem.bank.prox(gamma, idx, Z)
        assert P.dtype == dtype
        start = 0
        for part, g in zip(_UNION_PARTS, _UNION_GAMMAS):
            rows = slice(start, start + len(part))
            P_one, residuals_one = problem.bank.prox(g, np.array(part), Z[rows])
            assert_bitwise(P[rows], P_one)
            assert_bitwise(residuals[rows], residuals_one)
            start += len(part)


@pytest.mark.parametrize("rows", [2, 8])
@pytest.mark.parametrize("kind", ["quad-f64", "ridge", "logistic"])
def test_bank_prox_at_a_0d_gamma_matches_the_python_float(kind, rows):
    # A 0-d gamma array is its scalar: the bits of the Python float, on a
    # fresh bank, so QuadraticBank builds its resolvents from the 0-d call.
    problem = _per_row_problem(kind)
    idx = np.arange(rows)
    Z = np.random.default_rng(rows).normal(size=(rows, 3)) * 4.0
    P, residuals = problem.bank.prox(np.array(0.2), idx, Z)
    P_float, residuals_float = problem.bank.prox(0.2, idx, Z)
    assert_bitwise(P, P_float)
    assert_bitwise(residuals, residuals_float)


def test_logistic_bank_hands_scalar_rows_their_own_gammas(monkeypatch):
    # The zero row (0) and the row whose derived bracket falls short of its
    # root (1) go to the scalar solve, each at the gamma of its own row.
    monkeypatch.setattr(problems, "NEWTON_BATCH_MIN", 1)
    a, mu_reg = np.array([0.7, 0.2]), 1e-17
    rows, labels = np.array([np.zeros(2), a, [1.0, -2.0]]), np.array([-1.0, 1.0, -1.0])
    Z = np.array([[3.0, -4.0], 3e16 * a, [0.5, 0.25]])
    problem = assemble_problem(LogisticBank(rows, labels, mu_reg), mu_reg, 10.0, 2)
    gammas = (0.1, 0.4)
    handed = _spy_on_hand_off(monkeypatch)
    P, residuals = problem.bank.prox(np.repeat(gammas, 3), np.tile(np.arange(3), 2),
                                     np.tile(Z, (2, 1)))
    assert handed == [[0, 1, 0, 1]]
    for k, gamma in enumerate(gammas):
        P_one, residuals_one = problem.bank.prox(gamma, np.arange(3), Z)
        assert_bitwise(P[3 * k:3 * k + 3], P_one)
        assert_bitwise(residuals[3 * k:3 * k + 3], residuals_one)


def test_quadratic_bank_keeps_the_resolvents_of_its_last_call(monkeypatch):
    # One stack per gamma of the call; a later call reuses what it shares.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=2))
    bank, built = problem.bank, []
    resolvents = problems._resolvents
    monkeypatch.setattr(problems, "_resolvents",
                        lambda Q, eig, gamma: built.append(gamma) or resolvents(Q, eig, gamma))
    Z, idx = np.ones((4, 3)), np.array([0, 2, 2, 5])
    bank.prox(np.array([0.1, 0.1, 0.5, 0.5]), idx, Z)
    bank.prox(0.5, idx[:2], Z[:2])
    bank.prox(np.array([0.5, 0.5, 0.1, 0.2]), idx, Z)
    bank.prox(0.1, idx[:2], Z[:2])
    assert built == [0.1, 0.5, 0.2]
    assert sorted(bank._cache) == [0.1, 0.2, 0.5]



def test_quadratic_bank_gives_each_row_its_own_gammas_resolvents():
    # Calls whose gammas are a strict subset of the cached ones, and a call
    # whose gammas all equal one of them, read each row's stack by its gamma.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=2))
    bank, rng = problem.bank, np.random.default_rng(3)
    idx = np.array([0, 2, 5, 3, 1, 4])
    for gammas in ([0.1, 0.2, 0.5], [0.1, 0.5], [0.5, 0.5], [0.2, 0.1]):
        gamma = np.repeat(gammas, len(idx) // len(gammas))
        Z = rng.normal(size=(len(idx), 3)) * 4.0
        P, residuals = bank.prox(gamma, idx, Z)
        for k in range(len(idx)):
            P_one, residuals_one = bank.prox(gamma[k].item(), idx[k:k + 1], Z[k:k + 1])
            assert_bitwise(P[k], P_one[0])
            assert_bitwise(residuals[k], residuals_one[0])


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("family", ["ridge", "logistic"])
def test_row_bank_gradients_keep_the_component_dtype(family):
    # float32 rows with a float64 mu_reg give float64 gradients, and a
    # longdouble x longdouble ones: an in-place sum must not narrow either.
    rng = np.random.default_rng(2)
    rows, ys = rng.normal(size=(6, 3)), rng.normal(size=6)
    if family == "ridge":
        bank = RidgeBank(rows.astype(np.float32), ys.astype(np.float32), np.float64(0.5))
    else:
        bank = LogisticBank(rows, np.sign(ys), np.float64(0.5))
    problem = assemble_problem(bank, 0.5, 10.0, 3)
    loop = ComponentBank(list(problem.components))
    assert problem.bank is bank
    for x_dtype, expected in ((np.float32, np.float64), (np.float64, np.float64),
                              (np.longdouble, np.longdouble)):
        x = rng.normal(size=3).astype(x_dtype)
        G = bank.gradients(x)
        assert G.dtype == expected
        assert_bitwise(G, loop.gradients(x))
        assert_bitwise(full_gradient(problem, x), _row_total(loop.gradients(x)))


# --- row banks built from their arrays ------------------------------------------------

_ROW_KINDS = ["ridge-float32", "ridge-float64", "ridge-longdouble", "logistic", "libsvm"]
_BANK_KINDS = _ROW_KINDS + ["quadratic-float32", "quadratic-longdouble"]

#: Each bank's own arrays, by bank attribute, and the component attribute that
#: holds the component's slice of each.
_OWNED = {RidgeBank: {"rows": "a"}, LogisticBank: {"rows": "a"},
          QuadraticBank: {"Q": "Q", "eig": "eig", "c": "c", "A": "A", "Ac": "_Ac"}}


def _libsvm_problem(tmp_path):
    """load_libsvm on a seeded 12-row file of width 6."""
    rng = np.random.default_rng(4)
    lines = []
    for _ in range(12):
        idx = np.sort(rng.choice(6, size=3, replace=False)) + 1
        feats = " ".join(f"{i}:{float(v)!r}" for i, v in zip(idx, rng.normal(size=3)))
        lines.append(f"{'+1' if rng.random() < 0.5 else '-1'} {feats}\n")
    path = tmp_path / "rows.svm"
    path.write_text("".join(lines))
    return load_libsvm(path, mu=0.5)


def _row_kind_problem(kind, tmp_path):
    """A 12-component problem of the family kind names."""
    if kind.startswith("quadratic"):
        spec = GeneratorSpec("quadratic", 12, 4, 1.0, 10.0, seed=2)
        return gen_quadratic(spec, dtype=getattr(np, kind.split("-")[1]))
    if kind == "libsvm":
        return _libsvm_problem(tmp_path)[1]
    if kind == "logistic":
        return _row_problem("logistic", 12, 4, np.float64)
    return _row_problem("ridge", 12, 4, getattr(np, kind.split("-")[1]))


def test_generators_and_loader_build_no_component_objects(monkeypatch, tmp_path):
    built = []
    for cls in (RankOneRidgeComponent, LogisticRidgeComponent, QuadraticComponent):
        def counting_init(self, *args, init=cls.__init__):
            built.append(type(self))
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    hessians = []
    monkeypatch.setattr(problems, "_hessians",
                        lambda *a, f=problems._hessians: hessians.append(1) or f(*a))
    ridge = gen_ridge_regression(GeneratorSpec("ridge_regression", 50, 4, 0.3, 5.0, seed=1))
    logistic = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 50, 4, 0.3, 5.0, seed=1))
    _, loaded = _libsvm_problem(tmp_path)
    quadratic = gen_quadratic(GeneratorSpec("quadratic", 50, 4, 0.3, 5.0, seed=1))
    assert ridge.known_solution is not None and logistic.known_solution is not None
    assert quadratic.known_solution is not None
    assert built == [] and hessians == [1]  # the quadratic bank's one stacked product
    # Each bank is its problem's components: nothing wraps it.
    assert all(p.components is p.bank for p in (ridge, logistic, loaded, quadratic))
    # A component is built when it is read, one per access.
    ridge.components[3], logistic.components[-1], loaded.components[0]
    assert built == [RankOneRidgeComponent, LogisticRidgeComponent, LogisticRidgeComponent]
    # A quadratic one takes the bank's A and A c rather than building its own.
    first, again = quadratic.components[7], quadratic.components[7]
    assert type(first) is QuadraticComponent and first is not again
    assert np.shares_memory(first.A, quadratic.bank.A)
    assert np.shares_memory(first._Ac, quadratic.bank.Ac)
    assert len(built) == 3 and hessians == [1]


@pytest.mark.parametrize("kind", _BANK_KINDS)
def test_row_components_are_a_view_over_the_bank(kind, tmp_path):
    problem = _row_kind_problem(kind, tmp_path)
    comps, bank = problem.components, problem.bank
    assert comps is bank
    assert len(comps) == problem.n == 12
    owned = _OWNED[type(bank)]
    for i in (0, 5, -1):
        comp = comps[i]
        assert type(comp) is getattr(bank, "family", QuadraticComponent)
        for name, attr in owned.items():
            array = getattr(bank, name)
            assert np.shares_memory(getattr(comp, attr), array)
            assert_bitwise(getattr(comp, attr), array[i])
        if hasattr(bank, "labels"):
            assert comp.y == bank.labels[i] and comp.mu_reg is bank.mu_reg
    part = comps[2:9:3]
    assert type(part) is tuple and len(part) == 3
    first = next(iter(owned.values()))  # the rows, or Q
    assert all(np.array_equal(getattr(c, first), getattr(comps[i], first))
               for c, i in zip(part, (2, 5, 8)))
    assert all(np.array_equal(getattr(c, first), getattr(comps[i], first))
               for i, c in enumerate(comps))
    with pytest.raises(IndexError):
        comps[12]
    with pytest.raises(TypeError):
        comps[1.0]
    with pytest.raises(TypeError):
        comps[0] = comps[1]
    # Wrapping the components again shares the bank instead of stacking the rows.
    for again in (FiniteSumProblem(comps, problem.mu, problem.L, problem.dim),
                  assemble_problem(comps, problem.mu, problem.L, problem.dim)):
        assert again.bank is bank and again.components is bank


@pytest.mark.parametrize("kind", _BANK_KINDS)
def test_row_matrix_is_read_only(kind, tmp_path):
    problem = _row_kind_problem(kind, tmp_path)
    bank, comp = problem.bank, problem.components[0]
    for name, attr in _OWNED[type(bank)].items():
        for array in (getattr(bank, name), getattr(comp, attr)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] += 1.0
    if hasattr(bank, "labels"):
        assert not bank.labels.flags.writeable


def test_loaded_rows_cannot_go_stale(tmp_path):
    # The dataset's rows were the components' rows but not the bank's, so a
    # write into them changed the per-component oracles and left the batched
    # ones as they were: subsets below and above NEWTON_BATCH_MIN then solved
    # different problems. Now load_libsvm returns the bank itself, whose
    # arrays are read-only.
    bank, problem = _libsvm_problem(tmp_path)
    assert bank is problem.bank
    with pytest.raises(ValueError):
        bank.rows[0, 0] += 1.0
    with pytest.raises(ValueError):
        bank.labels[0] = -bank.labels[0]
    x = np.linspace(-1.0, 1.0, problem.dim)
    assert np.array_equal(problem.components[0].gradient(x), problem.bank.gradients(x)[0])
    idx = np.array([0, 1, 3, 4, 6, 7, 9, 10])
    assert len(idx) >= problems.NEWTON_BATCH_MIN
    Z = np.random.default_rng(12).normal(size=(8, problem.dim)) * 3.0
    P, residuals = problem.bank.prox(0.3, idx, Z)
    P_loop, residuals_loop = ComponentBank(problem.components).prox(0.3, idx, Z)
    assert np.array_equal(P, P_loop) and np.array_equal(residuals, residuals_loop)


@pytest.mark.parametrize("kind", _BANK_KINDS)
def test_reassembled_row_components_give_the_same_bank(kind, tmp_path):
    # A user's tuple of the same components gets the default bank, which
    # calls them one at a time: bitwise the family bank's gradients and
    # proxes, and its Hessian sum too on quadratics. A row bank's sum is one
    # matrix product, which rounds otherwise than a sum of outer products.
    problem = _row_kind_problem(kind, tmp_path)
    bank = problem.bank
    again = assemble_problem(list(problem.components), problem.mu, problem.L,
                             problem.dim).bank
    assert type(again) is ComponentBank
    x = np.linspace(-1.0, 1.0, problem.dim).astype(bank.Q.dtype if hasattr(bank, "Q")
                                                    else bank.rows.dtype)
    assert_bitwise(again.gradients(x), bank.gradients(x))
    H = bank.hessian_sum(x)
    if isinstance(bank, QuadraticBank):
        assert_bitwise(again.hessian_sum(x), H)
    else:
        # The row bank takes n mu_reg in float64 where mu_reg is a float, so
        # even in longdouble the two sums may differ at float64's rounding.
        rtol = max(1e-13, 16 * np.finfo(H.dtype).eps)
        assert again.hessian_sum(x).dtype == H.dtype
        assert np.abs(again.hessian_sum(x) - H).max() <= rtol * np.abs(H).max()
    rng = np.random.default_rng(7)
    for s in (1, 8):
        idx = np.sort(rng.choice(problem.n, size=s, replace=False))
        Z = (rng.normal(size=(s, problem.dim)) * 3.0).astype(x.dtype)
        for got, want in zip(again.prox(0.3, idx, Z), bank.prox(0.3, idx, Z)):
            assert_bitwise(got, want)


# --- ridge generator -----------------------------------------------------------------


def test_ridge_row_norms_exact():
    problem = gen_ridge_regression(
        GeneratorSpec("ridge_regression", 8, 4, 1.0, 10.0, seed=3)
    )
    for comp in problem.components:
        nn = float(comp.a @ comp.a)
        assert abs(nn - 9.0) <= 1e-12 * 9.0


def test_ridge_hessian_spectrum():
    # Rank-one update of mu*I: spectrum {mu (d-1 times), L}.
    problem = gen_ridge_regression(
        GeneratorSpec("ridge_regression", 3, 4, 1.0, 10.0, seed=5)
    )
    x = np.array([0.5, -1.0, 2.0, 0.0])
    for comp in problem.components:
        H = assemble_problem([comp], 1.0, 10.0, 4).bank.hessian_sum(x)
        eigs = np.sort(np.linalg.eigvalsh(H))
        assert np.allclose(eigs[:-1], 1.0, rtol=0, atol=1e-10)
        assert abs(eigs[-1] - 10.0) <= 1e-9


def test_ridge_planted_stationarity():
    problem = gen_ridge_regression(
        GeneratorSpec("ridge_regression", 10, 5, 1.0, 10.0, seed=6)
    )
    g = full_gradient(problem, problem.known_solution)
    assert np.linalg.norm(g) <= 1e-10


def test_generator_blames_constants_whose_scale_defeats_the_stationarity_bound():
    with pytest.raises(InvalidConstants, match=r"mu=1, L=1e\+300"):
        gen_ridge_regression(GeneratorSpec("ridge_regression", 50, 10, 1.0, 1e300))


@pytest.mark.parametrize("family,generate", [("ridge_regression", gen_ridge_regression),
                                             ("logistic_ridge", gen_logistic_ridge)],
                         ids=["ridge", "logistic"])
def test_ridge_requires_strict_gap(family, generate):
    with pytest.raises(InvalidSpec, match="mu < L"):
        generate(GeneratorSpec(family, 2, 2, 1.0, 1.0, seed=0))


# --- logistic generator ----------------------------------------------------------------


def test_logistic_smoothness_sampled():
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 5, 3, 1.0, 5.0, seed=7))
    rng = np.random.default_rng(2)
    for comp in problem.components:
        assert abs(float(comp.a @ comp.a) - 16.0) <= 1e-10  # 4 (L - mu)
        for _ in range(200):
            x = rng.normal(size=3) * 2
            y = rng.normal(size=3) * 2
            dg = comp.gradient(x) - comp.gradient(y)
            dx = x - y
            assert np.linalg.norm(dg) <= 5.0 * np.linalg.norm(dx) * (1 + 1e-12)


def test_logistic_coercivity_sampled():
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 4, 3, 1.0, 5.0, seed=8))
    rng = np.random.default_rng(3)
    for comp in problem.components:
        for _ in range(200):
            assert check_coercivity(
                comp, rng.normal(size=3) * 2, rng.normal(size=3) * 2, 1.0, 5.0
            )


def test_logistic_label_row_negation_invariance():
    # f_i depends on y_i a_i only, so negating both changes nothing.
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 4, 3, 1.0, 5.0, seed=9))
    from pointsaga.problems import LogisticRidgeComponent
    from pointsaga.model import FiniteSumProblem

    flipped = FiniteSumProblem(
        tuple(
            LogisticRidgeComponent(-c.a, -c.y, c.mu_reg) for c in problem.components
        ),
        problem.mu,
        problem.L,
        problem.dim,
    )
    x_orig = reference_solution(
        FiniteSumProblem(problem.components, problem.mu, problem.L, problem.dim),
        tol=1e-12,
    )
    x_flip = reference_solution(flipped, tol=1e-12)
    assert np.array_equal(x_orig, x_flip)


def test_logistic_planted_stationarity():
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 6, 3, 1.0, 5.0, seed=10))
    g = full_gradient(problem, problem.known_solution)
    assert np.linalg.norm(g) <= 1e-10


# --- sparse file ingestion ----------------------------------------------------------------


def test_load_two_line_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("+1 1:1.0\n-1 1:-1.0\n")
    dataset, problem = load_libsvm(path, mu=1.0)
    assert dataset.rows.shape == (2, 1)
    assert problem.n == 2
    assert problem.dim == 1
    # L = mu + max row norm^2 / 4 = 1 + 1/4.
    assert problem.L == 1.25
    assert np.array_equal(dataset.labels, [1.0, -1.0])


def test_load_comments_blanks_and_sparsity(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(
        "# leading comment\n"
        "+1 2:0.5 7:1.5   # trailing comment\n"
        "\n"
        "-1 1:2.0\n"
    )
    dataset, problem = load_libsvm(path, mu=0.5)
    assert dataset.rows.shape == (2, 7)
    assert dataset.rows[0, 1] == 0.5
    assert dataset.rows[0, 6] == 1.5
    assert dataset.rows[1, 0] == 2.0
    assert problem.dim == 7


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n\n")
    with pytest.raises(EmptyFile):
        load_libsvm(path, mu=1.0)


def test_load_malformed_token_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    for text, match in (("+1 1:abc\n", "bad feature token"),
                        ("+1 0:1.0\n", "index must be >= 1")):
        path.write_text(text)
        with pytest.raises(ParseError, match=match) as err:
            load_libsvm(path, mu=1.0)
        assert err.value.line_no == 1


def test_load_rejects_non_increasing_indices(tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("+1 1:1.0 ok\n")
    with pytest.raises(ParseError):
        load_libsvm(path, mu=1.0)
    path.write_text("+1 3:1.0 2:2.0\n")
    with pytest.raises(ParseError) as err:
        load_libsvm(path, mu=1.0)
    assert "increase" in str(err.value)


def test_load_rejects_non_binary_label(tmp_path):
    path = tmp_path / "label.txt"
    path.write_text("2 1:1.0\n")
    with pytest.raises(ParseError):
        load_libsvm(path, mu=1.0)


@pytest.mark.parametrize("mu", [float("inf"), float("nan"), 0.0])
def test_load_rejects_bad_mu(tmp_path, mu):
    # The class FiniteSumProblem, GeneratorSpec and the rates raise for it too.
    path = tmp_path / "tiny.txt"
    path.write_text("+1 1:1.0\n")
    with pytest.raises(InvalidConstants, match="mu must be finite and > 0"):
        load_libsvm(path, mu=mu)


def test_load_rejects_non_utf8_line(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"+1 1:1.0\n\xff\xfe 1:1.0\n")
    with pytest.raises(ParseError, match="UTF-8") as err:
        load_libsvm(path, mu=1.0)
    assert err.value.line_no == 2


@pytest.mark.parametrize("row", ["1 1:1e308 2:1e308", "1 1:1.2e154 2:1.2e154"],
                         ids=["square-overflows", "sum-overflows"])
def test_load_rejects_overflowing_row_norm(tmp_path, row):
    # The second row has finite squares whose sum overflows.
    path = tmp_path / "huge.txt"
    path.write_text(f"+1 1:1.0\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_libsvm(path, mu=1.0)
    assert err.value.line_no == 2


def test_load_rejects_wide_index_before_allocating(tmp_path, monkeypatch):
    # One row of width 10**12 would be 8 TB dense. np.zeros raises here, so a
    # missing check fails the test instead of allocating.
    def no_alloc(*args, **kwargs):
        raise AssertionError("dense matrix allocated")

    monkeypatch.setattr(np, "zeros", no_alloc)
    path = tmp_path / "wide.txt"
    path.write_text("+1 1:1.0\n-1 3:1.0 1000000000000:1.0\n+1 2:1.0\n")
    with pytest.raises(ParseError) as err:
        load_libsvm(path, mu=1.0)
    assert err.value.line_no == 2
    assert str(MAX_DENSE_ENTRIES) in str(err.value)


def test_load_rejects_width_whose_hessian_is_over_the_cap(tmp_path, monkeypatch):
    # Two rows of width 10**4 + 1 fit as rows, but not as the reference
    # solve's square Hessian.
    monkeypatch.setattr(np, "zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    path = tmp_path / "wide.txt"
    path.write_text("+1 1:1.0\n-1 10001:1.0\n")
    with pytest.raises(ParseError) as err:
        load_libsvm(path, mu=1.0)
    assert err.value.line_no == 2
    assert str(MAX_DENSE_ENTRIES) in str(err.value)


# Indices stay small, and junk text has no digits to form one, so that no
# example allocates a wide dense matrix.
_label = st.sampled_from(["+1", "-1", "1", "-1.0"])
_row = st.builds(
    lambda label, feats: " ".join([label] + [f"{i}:{v!r}" for i, v in sorted(feats.items())]),
    _label,
    st.dictionaries(st.integers(1, 40), st.floats(allow_nan=False), max_size=6),
)
_junk = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=8)
_junk_row = st.builds(
    lambda label, tokens: " ".join([label, *tokens]),
    _label | st.sampled_from(["0", "2", "nan"]) | _junk,
    st.lists(st.builds("{}:{!r}".format, st.integers(-2, 40), st.floats()) | _junk, max_size=4),
)


def _lines_file(line):
    return st.lists(line, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8"))


@given(data=st.binary(max_size=200) | _lines_file(_row) | _lines_file(_row | _junk_row))
def test_load_libsvm_raises_typed_error_or_has_finite_L(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(data)
    try:
        _, problem = load_libsvm(path, mu=0.1)
    except PointSagaError:
        return
    assert math.isfinite(problem.L)


# --- bank constructors check their arrays --------------------------------------------


def test_bank_validation():
    for family in (RidgeBank, LogisticBank):
        with pytest.raises(DimensionMismatch):
            family(np.zeros((2, 2)), np.zeros(3), 0.5)
        with pytest.raises(InvalidSpec):
            family(np.array([[1.0, np.inf]]), np.zeros(1), 0.5)


def test_bank_rejects_rows_that_are_not_2d():
    for family in (RidgeBank, LogisticBank):
        with pytest.raises(DimensionMismatch, match="axes .nd."):
            family(np.zeros(3), np.zeros(3), 0.5)


_EYES = np.tile(np.eye(2), (4, 1, 1))


@pytest.mark.parametrize("family,args,error", [
    (RidgeBank, (np.ones((5, 3)), np.ones(4), 0.5), DimensionMismatch),
    (QuadraticBank, (_EYES, np.ones((4, 2)), np.ones((5, 2))), DimensionMismatch),
    (LogisticBank, (np.ones(3), np.ones(3), 0.5), DimensionMismatch),
    (RidgeBank, (np.array([[1.0, np.nan], [1.0, 1.0]]), np.ones(2), 0.5), InvalidSpec),
    (RidgeBank, ([[1.0, 2.0], [3.0]], [1.0, 2.0], 0.5), DimensionMismatch),
    (LogisticBank, (np.ones((2, 2)), np.ones(2), np.nan), InvalidSpec),
    (RidgeBank, (np.ones((5, 3)), np.ones((5, 1)), 0.5), DimensionMismatch),
    (RidgeBank, (np.ones((0, 3)), np.ones(0), 0.5), EmptyComponentList),
    (RidgeBank, (np.ones((2, 3)), np.array(["a", "b"]), 0.5), InvalidSpec),
    (RidgeBank, (np.ones((2, 3)), np.ones(2), -0.5), InvalidSpec),
    (QuadraticBank, (_EYES, np.zeros((4, 2)), np.ones((4, 2))), InvalidSpec),
    (QuadraticBank, (np.ones((4, 2, 3)), np.ones((4, 2)), np.ones((4, 2))), DimensionMismatch),
    (QuadraticBank, (_EYES, np.ones((4, 3)), np.ones((4, 2))), DimensionMismatch),
    (LogisticBank, (np.ones((2, 2)), [3.0, -1.0], 0.5), InvalidSpec),
    (LogisticBank, (np.ones((2, 2)), [0.0, 1.0], 0.5), InvalidSpec),
    (LogisticBank, (np.ones((2, 2)), np.array([1, 2]), 0.5), InvalidSpec),
    (LogisticBank, (np.ones((2, 2)), [0.5, -1.0], 0.5), InvalidSpec),
], ids=["lengths", "quadratic-lengths", "1-d-rows", "nan-row", "ragged-list", "nan-mu_reg",
        "labels-5x1", "empty", "string-labels", "negative-mu_reg", "zero-eig", "non-square-Q",
        "eig-width", "logistic-label-3", "logistic-label-0", "logistic-int-label-2",
        "logistic-label-0.5"])
def test_bank_constructor_raises_a_typed_error(family, args, error):
    # The NaN row ran, and failed at iteration 1 with ProxFailure (residual
    # nan); a logistic label other than +-1 built a bank whose curvature
    # exceeds the shared L; the other faults raised numpy's untyped errors,
    # or none.
    with pytest.raises(error):
        family(*args)


def test_only_logistic_labels_are_plus_or_minus_one():
    rows = np.ones((3, 2))
    for labels in ([1.0, -1.0, 1.0], np.array([1, -1, -1]), np.array([-1.0, 1.0, 1.0], np.float32)):
        assert np.array_equal(LogisticBank(rows, labels, 0.5).labels, labels)
    assert np.array_equal(RidgeBank(rows, [3.0, 0.0, -0.5], 0.5).labels, [3.0, 0.0, -0.5])


def test_bank_takes_lists_through_asarray():
    rows, labels, x = [[1.0, 2.0], [0.5, -1.0]], [1.0, -1.0], np.array([0.3, -0.2])
    for family in (RidgeBank, LogisticBank):
        listed, arrayed = family(rows, labels, 0.5), family(np.array(rows), np.array(labels), 0.5)
        assert not listed.rows.flags.writeable and not listed.labels.flags.writeable
        assert np.array_equal(listed.gradients(x), arrayed.gradients(x))


#: Each family's arrays, one letter per axis: n components of dimension d.
_BANK_AXES = {RidgeBank: ("nd", "n"), LogisticBank: ("nd", "n"),
              QuadraticBank: ("ndd", "nd", "nd")}


#: Faults _bank_calls puts into one argument each.
_BANK_FAULTS = ["rank", "shape", "nan", "inf", "zero", "negative", "0-d", "str", "ragged",
                "mu_reg"]


@st.composite
def _bank_calls(draw):
    """A family and its arguments: arrays of the family's shapes (logistic
    labels +-1), each passed as an array, a list, integers or float32, or
    with a drawn fault (up to two): a wrong rank or a drawn shape, a
    non-finite or non-positive entry, a 0-d value, strings, a ragged list or
    a bad mu_reg."""
    family = draw(st.sampled_from(list(_BANK_AXES)))
    sizes = {"n": draw(st.integers(1, 3)), "d": draw(st.integers(1, 3))}
    args = []
    for k, axes in enumerate(_BANK_AXES[family]):
        shape = tuple(sizes[axis] for axis in axes)
        size = math.prod(shape)
        labels = family is LogisticBank and k == 1
        entry = st.sampled_from([-1.0, 1.0]) if labels else st.floats(0.5, 2.0)
        values = draw(st.lists(entry, min_size=size, max_size=size))
        args.append(np.array(values).reshape(shape))
    mu_reg = draw(st.floats(0.0, 1.0))
    faults = st.tuples(st.sampled_from(_BANK_FAULTS), st.integers(0, len(args) - 1))
    faulted = draw(st.lists(faults, max_size=2, unique_by=lambda fault: fault[1]))
    for fault, k in faulted:
        array = args[k]
        if fault == "mu_reg":
            mu_reg = draw(st.sampled_from([np.nan, np.inf, -1.0, "a"]))
        elif fault in ("nan", "inf", "zero", "negative"):
            array.flat[draw(st.integers(0, array.size - 1))] = {
                "nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0}[fault]
        else:
            shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
            args[k] = {"rank": lambda: array[..., None], "shape": lambda: np.ones(shape),
                       "0-d": lambda: 1.0, "str": lambda: array.astype(str),
                       "ragged": lambda: [[1.0], [1.0, 2.0]]}[fault]()
    for k in sorted(set(range(len(args))) - {k for _, k in faulted}):
        array = args[k]
        form = draw(st.sampled_from(["array", "list", "int", "float32"]))
        args[k] = {"array": array, "list": array.tolist(), "int": np.rint(array).astype(int),
                   "float32": array.astype(np.float32)}[form]
    if family is not QuadraticBank:
        args.append(mu_reg)
    return family, args


@settings(max_examples=300)
@given(call=_bank_calls())
def test_bank_constructors_build_or_raise_a_typed_error(call):
    family, args = call
    try:
        bank = family(*args)
    except PointSagaError:
        return
    assert len(bank) >= 1
    G = bank.gradients(np.ones(bank.dim))
    assert G.shape == (len(bank), bank.dim) and np.isfinite(G).all()
