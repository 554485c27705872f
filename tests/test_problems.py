import math
import sys
import tempfile
import threading

import hypothesis.configuration
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointsaga import (
    Dataset,
    GeneratorSpec,
    QuadraticComponent,
    assemble_problem,
    check_coercivity,
    full_gradient,
    gen_logistic_ridge,
    gen_quadratic,
    gen_ridge_regression,
    load_libsvm,
    reference_solution,
)
from pointsaga.errors import (
    EmptyFile,
    InconsistentDimension,
    InvalidSpec,
    ParseError,
    PointSagaError,
)
from pointsaga.model import ComponentBank
from pointsaga.problems import MAX_DENSE_ENTRIES, QuadraticBank

# Hypothesis caches unicode tables and source constants in its home directory,
# ./.hypothesis by default. Its pytest plugin fills that cache while collecting,
# so point the home at a directory that is removed when the test run ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
hypothesis.configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


# --- GeneratorSpec ---------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        GeneratorSpec("nope", 1, 1, 1.0, 1.0)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("quadratic", 0, 1, 1.0, 1.0)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("quadratic", 1, 1, 2.0, 1.0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_spec_rejects_non_finite_constants(bad):
    with pytest.raises(InvalidSpec):
        GeneratorSpec("quadratic", 2, 2, 1.0, bad)
    with pytest.raises(InvalidSpec):
        GeneratorSpec("quadratic", 2, 2, bad, bad)


def test_spec_rejects_negative_seed():
    with pytest.raises(InvalidSpec, match="seed"):
        GeneratorSpec("quadratic", 2, 2, 1.0, 1.0, seed=-1)


# Each family at its dense-entry cap, then one step over it: quadratics hold
# n d-by-d matrices, ridge n-by-d rows and a d-by-d normal matrix, logistic
# n-by-d rows.
_AT_CAP = [("quadratic", 1, 10**4), ("ridge_regression", 10**8, 1),
           ("ridge_regression", 1, 10**4), ("logistic_ridge", 10**7, 10)]
_OVER_CAP = [("quadratic", 2, 10**4), ("ridge_regression", 10**8 + 1, 1),
             ("ridge_regression", 1, 10**4 + 1), ("logistic_ridge", 10**7 + 1, 10)]


@pytest.mark.parametrize("family,n,dim", _OVER_CAP,
                         ids=["quad-n-d2", "ridge-n-d", "ridge-d2", "logistic-n-d"])
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


def test_spec_accepts_specs_at_the_dense_cap():
    assert MAX_DENSE_ENTRIES == 10**8  # the sizes of _AT_CAP are set from it
    for family, n, dim in _AT_CAP:
        GeneratorSpec(family, n, dim, 0.5, 1.0)


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


def test_quadratic_longdouble_matches_float64_draws():
    spec = GeneratorSpec("quadratic", 3, 3, 1.0, 10.0, seed=4)
    p64 = gen_quadratic(spec)
    pld = gen_quadratic(spec, dtype=np.longdouble)
    assert pld.components[0].A.dtype == np.longdouble
    for c64, cld in zip(p64.components, pld.components):
        assert np.array_equal(c64.Q, cld.Q.astype(np.float64))
        assert np.array_equal(c64.c, cld.c.astype(np.float64))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_quadratic_bank_rows_match_component_prox(dtype):
    problem = gen_quadratic(GeneratorSpec("quadratic", 9, 5, 1.0, 10.0, seed=6), dtype=dtype)
    bank = problem.bank
    assert isinstance(bank, QuadraticBank)
    rng = np.random.default_rng(8)
    for gamma in (0.03, 0.7, 0.03, 25.0):
        for s in (1, 4, 9):
            idx = np.sort(rng.choice(9, size=s, replace=False))
            Z = (rng.normal(size=(s, 5)) * 10.0).astype(dtype)
            P, residual = bank.prox(gamma, idx, Z)
            assert P.dtype == dtype and residual.shape == (s,)
            for k, i in enumerate(idx):
                one = problem.components[i].prox(gamma, Z[k])
                assert np.array_equal(P[k], one.point)
                assert residual[k] == one.residual


def test_shared_quadratic_prox_is_thread_safe():
    # Each object caches the resolvent of its last gamma; four threads cycling
    # through three gammas keep replacing that cache under one another.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 4, 1.0, 10.0, seed=12))
    comp, bank = problem.components[2], problem.bank
    gammas = (0.05, 0.8, 12.0)
    idx = np.array([0, 2, 5])
    Z = np.random.default_rng(13).normal(size=(3, 4)) * 5.0

    def prox_both(gamma):
        one = comp.prox(gamma, Z[0])
        P, residual = bank.prox(gamma, idx, Z)
        return one.point, one.residual, P, residual

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


def test_prox_bank_needs_one_quadratic_shape_and_dtype():
    def quad(d, dtype=np.float64):
        return QuadraticComponent(np.eye(d, dtype=dtype), np.ones(d, dtype=dtype),
                                  np.zeros(d, dtype=dtype))

    assert isinstance(assemble_problem([quad(2), quad(2)], 1.0, 1.0, 2).bank,
                      QuadraticBank)
    bank = assemble_problem([quad(2), quad(2, np.longdouble)], 1.0, 1.0, 2).bank
    assert type(bank) is ComponentBank
    assert type(assemble_problem([quad(2), quad(3)], 1.0, 1.0, 2).bank) is ComponentBank
    ridge = gen_ridge_regression(GeneratorSpec("ridge_regression", 3, 2, 0.1, 1.0, seed=1))
    assert type(ridge.bank) is ComponentBank
    mixed = assemble_problem([quad(2), ridge.components[0]], 0.1, 1.0, 2)
    assert type(mixed.bank) is ComponentBank

    class OwnProx(QuadraticComponent):
        def prox(self, gamma, z):
            return super().prox(gamma, z)

    own = OwnProx(np.eye(2), np.ones(2), np.zeros(2))
    assert type(assemble_problem([own, own], 1.0, 1.0, 2).bank) is ComponentBank


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
    for comp in problem.components:
        H, _ = comp.quadratic_terms()
        eigs = np.sort(np.linalg.eigvalsh(H))
        assert np.allclose(eigs[:-1], 1.0, rtol=0, atol=1e-10)
        assert abs(eigs[-1] - 10.0) <= 1e-9


def test_ridge_planted_stationarity():
    problem = gen_ridge_regression(
        GeneratorSpec("ridge_regression", 10, 5, 1.0, 10.0, seed=6)
    )
    g = full_gradient(problem, problem.known_solution)
    assert np.linalg.norm(g) <= 1e-10


def test_ridge_requires_strict_gap():
    with pytest.raises(InvalidSpec):
        gen_ridge_regression(GeneratorSpec("ridge_regression", 2, 2, 1.0, 1.0, seed=0))


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
    path.write_text("+1 1:abc\n")
    with pytest.raises(ParseError) as err:
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
    path = tmp_path / "tiny.txt"
    path.write_text("+1 1:1.0\n")
    with pytest.raises(InvalidSpec):
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


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.binary(max_size=200) | _lines_file(_row) | _lines_file(_row | _junk_row))
def test_load_libsvm_raises_typed_error_or_has_finite_L(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(data)
    try:
        _, problem = load_libsvm(path, mu=0.1)
    except PointSagaError:
        return
    assert math.isfinite(problem.L)


def test_dataset_validation():
    with pytest.raises(InconsistentDimension):
        Dataset(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(InconsistentDimension):
        Dataset(np.array([[1.0, np.inf]]), np.zeros(1))
