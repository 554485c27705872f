"""Concrete component families, synthetic generators with planted solutions,
and ingestion of sparse classification data.

Generators rescale their data so the shared (mu, L) pair is tight for every
component; ingested data keeps its scale and gets a conservative L instead.
All generators are deterministic functions of their spec (same seed, same
problem to the last bit).
"""

from dataclasses import dataclass, replace

import numpy as np

from .analysis import _finite, reference_solution
from .errors import EmptyFile, InconsistentDimension, InvalidSpec, ParseError
from .model import ComponentBank, ComponentFunction, assemble_problem
from .prox import (
    TOL_PROX,
    prox_generic,
    prox_logistic_ridge,
    prox_rank_one_quadratic,
    sigmoid,
    ProxResult,
)

#: Cap on the entries of the dense arrays a generator or load_libsvm builds
#: (10**8 float64 entries are 800 MB).
MAX_DENSE_ENTRIES = 10**8


class QuadraticComponent(ComponentFunction):
    """f(x) = (x - c)' A (x - c) / 2 with A = Q diag(eig) Q'.

    The prox solves (I + gamma A) x = z + gamma A c through the
    eigendecomposition, so it works in any float dtype (including
    longdouble) and costs one cached d-by-d matvec per call. The cache for
    the last gamma is one tuple, replaced by a single attribute write.
    """

    def __init__(self, Q, eig, c):
        self.Q = np.asarray(Q)
        self.eig = np.asarray(eig)
        self.c = np.asarray(c)
        self.A = (self.Q * self.eig) @ self.Q.T
        self._Ac = self.A @ self.c
        self._cache = (None, None, None)

    def value(self, x):
        d = x - self.c
        return 0.5 * (d @ (self.A @ d))

    def gradient(self, x):
        return self.A @ x - self._Ac

    def quadratic_terms(self):
        """(H, r) with grad f(x) = H x - r."""
        return self.A, self._Ac

    def _resolvent(self, gamma):
        """(I + gamma A)^{-1} and gamma A c for this gamma, cached."""
        cache = self._cache
        if cache[0] != gamma:
            M = (self.Q * (1.0 / (1.0 + gamma * self.eig))) @ self.Q.T
            cache = self._cache = (gamma, M, gamma * self._Ac)
        return cache[1], cache[2]

    def prox(self, gamma, z):
        M, g_Ac = self._resolvent(gamma)
        x = M @ (z + g_Ac)
        defect = x + gamma * (self.A @ x - self._Ac) - z
        return ProxResult(x, np.sqrt(defect @ defect))

    @classmethod
    def stack(cls, components):
        kinds = {(c.A.shape, c.A.dtype, c._Ac.dtype, c.Q.dtype, c.eig.dtype)
                 for c in components}
        if cls.prox is QuadraticComponent.prox and len(kinds) == 1:
            return QuadraticBank(components)
        return super().stack(components)  # calls a subclass's own prox


class QuadraticBank(ComponentBank):
    """Quadratic components of one shape and dtype, stacked so that one call
    proxes a whole subset. Row k of the result is bitwise what
    ``components[idx[k]].prox`` returns: the same operations in the same
    order, with the matvecs batched through matmul's per-matrix loop.
    """

    def __init__(self, components):
        super().__init__(components)
        self.A = np.stack([c.A for c in components])
        self.Ac = np.stack([c._Ac for c in components])
        self._cache = (None, None, None)

    def _resolvent(self, gamma):
        cache = self._cache
        if cache[0] != gamma:
            pairs = [c._resolvent(gamma) for c in self.components]
            M = np.stack([m for m, _ in pairs])
            cache = self._cache = (gamma, M, np.stack([g for _, g in pairs]))
        return cache[1], cache[2]

    def prox(self, gamma, idx, Z):
        """(P, residuals): row k is the prox of component idx[k] at Z[k]."""
        M, g_Ac = self._resolvent(gamma)
        P = _matvecs(M[idx], Z + g_Ac[idx])
        D = P + gamma * (_matvecs(self.A[idx], P) - self.Ac[idx]) - Z
        return P.astype(Z.dtype, copy=False), np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])


def _matvecs(M, V):
    """Row k is M[k] @ V[k]."""
    return (M @ V[:, :, None])[:, :, 0]


class RankOneRidgeComponent(ComponentFunction):
    """f(x) = (a'x - y)^2 / 2 + mu_reg ||x||^2 / 2; O(d) closed-form prox."""

    def __init__(self, a, y, mu_reg):
        self.a = np.asarray(a)
        self.y = y
        self.mu_reg = mu_reg

    def value(self, x):
        r = self.a @ x - self.y
        return 0.5 * r * r + 0.5 * self.mu_reg * (x @ x)

    def gradient(self, x):
        return self.a * (self.a @ x - self.y) + self.mu_reg * x

    def quadratic_terms(self):
        d = self.a.shape[0]
        H = np.outer(self.a, self.a) + self.mu_reg * np.eye(d, dtype=self.a.dtype)
        return H, self.y * self.a

    def prox(self, gamma, z):
        return prox_rank_one_quadratic(self.a, self.y, self.mu_reg, gamma, z)


class LogisticRidgeComponent(ComponentFunction):
    """f(x) = log(1 + exp(-y a'x)) + mu_reg ||x||^2 / 2, y in {-1, +1}."""

    def __init__(self, a, y, mu_reg):
        self.a = np.asarray(a, dtype=float)
        self.y = float(y)
        self.mu_reg = mu_reg

    def value(self, x):
        margin = -self.y * (self.a @ x)
        return np.logaddexp(0.0, margin) + 0.5 * self.mu_reg * (x @ x)

    def gradient(self, x):
        s = sigmoid(-self.y * float(self.a @ x))
        return -self.y * s * self.a + self.mu_reg * x

    def prox(self, gamma, z):
        return prox_logistic_ridge(self.a, self.y, self.mu_reg, gamma, z)


class GenericComponent(ComponentFunction):
    """Component from bare value/gradient callables; prox by inner descent."""

    def __init__(self, value_fn, grad_fn, mu, L):
        self._value = value_fn
        self._grad = grad_fn
        self.mu = mu
        self.L = L

    def value(self, x):
        return self._value(x)

    def gradient(self, x):
        return self._grad(x)

    def prox(self, gamma, z):
        return prox_generic(self, gamma, z, TOL_PROX, self.mu, self.L)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic problem family."""

    family: str
    n: int
    dim: int
    mu: float
    L: float
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("quadratic", "ridge_regression", "logistic_ridge"):
            raise InvalidSpec(f"unknown family {self.family!r}")
        if self.n < 1 or self.dim < 1:
            raise InvalidSpec(f"need n >= 1 and dim >= 1, got n={self.n}, dim={self.dim}")
        if not (_finite(self.mu) and _finite(self.L) and 0 < self.mu <= self.L):
            raise InvalidSpec(f"need finite 0 < mu <= L, got mu={self.mu}, L={self.L}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        # Quadratics hold n d-by-d matrices; ridge rows are n-by-d and its
        # normal equations d-by-d; logistic rows are n-by-d.
        n, d = self.n, self.dim
        entries = {"quadratic": n * d * d, "ridge_regression": max(n * d, d * d),
                   "logistic_ridge": n * d}[self.family]
        if entries > MAX_DENSE_ENTRIES:
            raise InvalidSpec(f"n={n}, dim={d} needs {entries} dense entries, "
                              f"over {MAX_DENSE_ENTRIES}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Dense feature rows plus labels (+-1 for classification)."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2:
            raise InconsistentDimension("rows must form a dense n-by-d matrix")
        if rows.shape[0] != np.asarray(self.labels).shape[0]:
            raise InconsistentDimension("rows and labels disagree in length")
        if not np.all(np.isfinite(rows)):
            raise InconsistentDimension("rows contain non-finite entries")


def gen_quadratic(spec, dtype=np.float64):
    """Random-rotation quadratics: f_i(x) = (x - c_i)' A_i (x - c_i) / 2.

    Each spectrum contains both mu and L (so the shared constants are tight),
    with interior eigenvalues uniform in [mu, L]. The minimizer is planted by
    solving sum_i A_i x = sum_i A_i c_i directly. dim = 1 therefore needs
    mu = L. Draws happen in float64 and are cast to dtype afterwards, so one
    seed describes the same problem at every precision.
    """
    if spec.family != "quadratic":
        raise InvalidSpec(f"expected family 'quadratic', got {spec.family!r}")
    if spec.dim == 1 and spec.mu != spec.L:
        raise InvalidSpec("dim=1 cannot contain both spectrum endpoints unless mu == L")
    rng = np.random.default_rng(spec.seed)
    comps = []
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
        comps.append(
            QuadraticComponent(Q.astype(dtype), eig.astype(dtype), c.astype(dtype))
        )
    problem = assemble_problem(comps, spec.mu, spec.L, spec.dim)
    return replace(problem, known_solution=reference_solution(problem))


def gen_ridge_regression(spec, dtype=np.float64):
    """Per-sample ridge regression with rows rescaled so ||a_i||^2 = L - mu.

    Each Hessian a_i a_i' + mu I then has spectrum {mu, ..., mu, L}: the
    shared constants are exact per component. Needs mu < L strictly.
    """
    if spec.family != "ridge_regression":
        raise InvalidSpec(f"expected family 'ridge_regression', got {spec.family!r}")
    if not spec.mu < spec.L:
        raise InvalidSpec("ridge family needs mu < L to leave room for the data term")
    rng = np.random.default_rng(spec.seed)
    rows = rng.normal(size=(spec.n, spec.dim))
    norms = np.sqrt((rows * rows).sum(axis=1))
    rows = rows * (np.sqrt(spec.L - spec.mu) / norms)[:, None]
    ys = rng.normal(size=spec.n)
    comps = [
        RankOneRidgeComponent(rows[i].astype(dtype), dtype(ys[i]), spec.mu)
        for i in range(spec.n)
    ]
    problem = assemble_problem(comps, spec.mu, spec.L, spec.dim)
    return replace(problem, known_solution=reference_solution(problem))


def gen_logistic_ridge(spec):
    """Ridge-regularized logistic losses with ||a_i||^2 = 4 (L - mu).

    The logistic curvature never exceeds ||a||^2 / 4, so every component is
    exactly L-smooth as a bound and mu-strongly convex from the ridge. The
    minimizer comes from the deterministic reference solve at tol 1e-12.
    """
    if spec.family != "logistic_ridge":
        raise InvalidSpec(f"expected family 'logistic_ridge', got {spec.family!r}")
    if not spec.mu < spec.L:
        raise InvalidSpec("logistic family needs mu < L to leave room for the loss")
    rng = np.random.default_rng(spec.seed)
    rows = rng.normal(size=(spec.n, spec.dim))
    norms = np.sqrt((rows * rows).sum(axis=1))
    rows = rows * (2.0 * np.sqrt(spec.L - spec.mu) / norms)[:, None]
    labels = 2.0 * rng.integers(0, 2, size=spec.n) - 1.0
    comps = [
        LogisticRidgeComponent(rows[i], labels[i], spec.mu) for i in range(spec.n)
    ]
    problem = assemble_problem(comps, spec.mu, spec.L, spec.dim)
    return replace(problem, known_solution=reference_solution(problem, tol=1e-12))


def load_libsvm(path, mu):
    """Read sparse "label idx:val ..." lines into a logistic-ridge problem.

    The file is UTF-8. Indices are 1-based and must increase strictly within
    each line; '#' starts a comment; labels must be +-1; every row's squared
    norm must be finite. Rows are stored dense, so rows times the largest
    index may not exceed MAX_DENSE_ENTRIES. Rows keep their scale, so the
    smoothness constant is the conservative mu + max_i ||a_i||^2 / 4.
    """
    if not (_finite(mu) and mu > 0):
        raise InvalidSpec(f"mu must be finite and > 0, got {mu}")
    sparse_rows = []
    labels = []
    max_idx = max_line = 0
    # surrogateescape keeps undecodable bytes, so a bad line can be named.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(line_no, "not valid UTF-8") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(line_no, f"bad label token {tokens[0]!r}") from None
            if label not in (-1.0, 1.0):
                raise ParseError(line_no, f"label must be +-1, got {tokens[0]!r}")
            idxs = []
            vals = []
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_str, val_str = tok.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(line_no, f"bad feature token {tok!r}") from None
                if idx < 1:
                    raise ParseError(line_no, f"index must be >= 1, got {idx}")
                if idx <= prev:
                    raise ParseError(
                        line_no, f"indices must increase strictly, got {idx} after {prev}"
                    )
                if not np.isfinite(val):
                    raise ParseError(line_no, f"non-finite value {val_str!r}")
                idxs.append(idx)
                vals.append(val)
                prev = idx
            if prev > max_idx:
                max_idx, max_line = prev, line_no
            sparse_rows.append((line_no, idxs, vals))
            labels.append(label)
    if not sparse_rows:
        raise EmptyFile(f"{path}: no data lines")
    if max_idx == 0:
        raise EmptyFile(f"{path}: rows carry no features")
    if len(sparse_rows) * max_idx > MAX_DENSE_ENTRIES:
        raise ParseError(
            max_line,
            f"{len(sparse_rows)} rows of width {max_idx} exceed "
            f"{MAX_DENSE_ENTRIES} dense entries",
        )

    rows = np.zeros((len(sparse_rows), max_idx))
    for i, (_, idxs, vals) in enumerate(sparse_rows):
        rows[i, np.asarray(idxs, dtype=int) - 1] = vals
    labels = np.asarray(labels)
    dataset = Dataset(rows, labels)

    with np.errstate(over="ignore"):
        sq_norms = (rows * rows).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(sq_norms))
    if bad.size:
        raise ParseError(sparse_rows[bad[0]][0], "squared row norm overflows")
    L = mu + 0.25 * float(sq_norms.max())
    comps = [
        LogisticRidgeComponent(rows[i], labels[i], mu) for i in range(rows.shape[0])
    ]
    problem = assemble_problem(comps, mu, L, max_idx)
    return dataset, problem
