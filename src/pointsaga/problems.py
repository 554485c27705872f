"""Concrete component families, synthetic generators with planted solutions,
and ingestion of sparse classification data.

Generators rescale their data so the shared (mu, L) pair is tight for every
component; ingested data keeps its scale and gets a conservative L instead.
All generators are deterministic functions of their spec (same seed, same
problem to the last bit). Generators and load_libsvm build each family's
bank straight from its arrays, with no component object, and the bank is
the problem's components: item i is built only when it is read.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import _dots, _matvecs, _norms, _per_row, _sum_rows
from .analysis import ROW_BLOCK_ENTRIES, reference_solution
from .errors import (
    EmptyFile,
    InvalidConstants,
    InvalidKnownSolution,
    InvalidSpec,
    ParseError,
    _check_constants,
    _finite,
    _integral,
)
from . import prox
from .model import ComponentFunction, _ArrayBank, assemble_problem
from .prox import (
    TOL_PROX,
    logistic_root_tol,
    prox_generic,
    prox_logistic_ridge,
    prox_rank_one_quadratic,
    sigmoid,
    ProxResult,
)

#: Cap on the entries of the dense arrays a generator or load_libsvm builds
#: (10**8 float64 entries are 800 MB).
MAX_DENSE_ENTRIES = 10**8

#: Fewest rows LogisticBank proxes in one batched Newton; smaller subsets go
#: one component at a time. The batch costs about as much as six scalar
#: solves (0.20-0.25 ms against 35-42 us each on a 2-core x86 VM, numpy 2.4,
#: d = 50, gamma from 0.02 to 3).
NEWTON_BATCH_MIN = 6


class QuadraticComponent(ComponentFunction):
    """f(x) = (x - c)' A (x - c) / 2 with A = Q diag(eig) Q'.

    It is item 0 of QuadraticBank([Q], [eig], [c]), which admits and checks
    Q, eig and c and builds A and A c. The prox solves (I + gamma A) x = z +
    gamma A c through the eigendecomposition, in any float dtype (longdouble
    too), building (I + gamma A)^{-1} on every call; a bank caches the stack
    of them.
    """

    def __init__(self, Q, eig, c):
        vars(self).update(vars(QuadraticBank([Q], [eig], [c])[0]))

    def gradient(self, x):
        return self.A @ x - self._Ac

    def hessian(self, x):
        return self.A

    def _resolvent(self, gamma):
        """(I + gamma A)^{-1} and gamma A c for this gamma."""
        return _resolvents(self.Q, self.eig, gamma), gamma * self._Ac

    def prox(self, gamma, z):
        M, g_Ac = self._resolvent(gamma)
        x = M @ (z + g_Ac)
        defect = x + gamma * (self.A @ x - self._Ac) - z
        return ProxResult(x, _norms(defect[None])[0])


def _hessians(Q, eig, c):
    """A = Q diag(eig) Q' and A c; on stacks, each bitwise as if alone."""
    A = (Q * eig[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return A, _matvecs(A, c)


def _resolvents(Q, eig, gamma):
    """(I + gamma Q diag(eig) Q')^{-1}; on stacks, each matrix bitwise as if alone."""
    return (Q * (1.0 / (1.0 + gamma * eig))[..., None, :]) @ np.swapaxes(Q, -1, -2)


def _bound(cls, **attributes):
    """An object of cls with attributes bound as given, built without running
    cls's constructor: a bank's item takes the slices the bank admitted."""
    item = cls.__new__(cls)
    vars(item).update(attributes)
    return item


class QuadraticBank(_ArrayBank):
    """Quadratic components as stacks of Q, eig and c, with A and A c built in
    one stacked product each by the component's own helper. One call proxes
    a subset: row k is bitwise ``components[idx[k]].prox``, the same
    operations in the same order, batched through _linalg._matvecs (BLAS
    matmul in float32 and float64, np.vecdot in longdouble).
    A cache holds the n resolvents, one stacked product, of each gamma of
    the last call that had to build one, and the Hessian sum is built once.
    Its item i reads the bank's A and A c too. An eig <= 0 raises
    InvalidSpec, and so does a Q whose columns are not orthonormal to
    8 d eps (eps of Q's dtype, at least float64's), both before A and A c
    are built: the prox's resolvent is (I + gamma A)^{-1} only for such a Q."""

    axes = {"Q": "ndd", "eig": "nd", "c": "nd"}

    def __init__(self, Q, eig, c):
        super().__init__(Q, eig, c)
        if not (self.eig > 0).all():
            raise InvalidSpec("every eigenvalue in eig must be > 0")
        Q64 = self.Q.astype(np.float64, copy=False)  # through BLAS; tol covers the rounding to it
        defect = float(np.abs(np.swapaxes(Q64, -1, -2) @ Q64 - np.eye(self.dim)).max())
        tol = 8 * self.dim * max(np.finfo(self.Q.dtype).eps, np.finfo(np.float64).eps)
        if not defect <= tol:
            raise InvalidSpec(f"the columns of Q must be orthonormal: "
                              f"max |Q'Q - I| = {defect:.3g} exceeds {tol:.3g}")
        self.A, self.Ac = _hessians(self.Q, self.eig, self.c)
        self.A.flags.writeable = self.Ac.flags.writeable = False
        self._cache = {}

    def component(self, i):
        return _bound(QuadraticComponent, Q=self.Q[i], eig=self.eig[i], c=self.c[i],
                      A=self.A[i], _Ac=self.Ac[i])

    def gradients(self, x):
        return _matvecs(self.A, x) - self.Ac

    def hessian_sum(self, x):
        """sum_i A_i, added in index order by _linalg._sum_rows, as
        model.full_gradient adds the gradient rows; read-only."""
        return self._hessian

    @functools.cached_property
    def _hessian(self):
        H = _sum_rows(self.A)
        H.flags.writeable = False
        return H

    def _resolvents(self, gammas):
        """[(the n resolvents, gamma * A c) for gamma in gammas]. The cache is
        the last call's that had to build a stack: it holds the gammas of
        that call, each stack built once while it is kept."""
        cache = self._cache
        stacks = [cache.get(gamma) for gamma in gammas]
        if None in stacks:
            stacks = [stack or (_resolvents(self.Q, self.eig, gamma), gamma * self.Ac)
                      for gamma, stack in zip(gammas, stacks)]
            self._cache = dict(zip(gammas, stacks))
        return stacks

    def prox(self, gamma, idx, Z):
        """(P, residuals): row k is the prox of component idx[k] at Z[k] with
        stepsize gamma, or gamma[k] for a 1-d array of stepsizes, bitwise
        the row a call at that one gamma gives."""
        per_row = isinstance(gamma, np.ndarray)
        if per_row and not gamma.ndim:  # a 0-d array: looked up, and built, as its scalar
            gamma, per_row = gamma[()], False
        if not per_row:
            (M, g_Ac), = self._resolvents([gamma])
            M, g_Ac = M.take(idx, axis=0), g_Ac.take(idx, axis=0)
        else:  # each row's resolvent from its own gamma's stack
            found, which = np.unique(gamma, return_inverse=True)
            stacks = self._resolvents(found.tolist())
            M, g_Ac = (np.empty((len(idx),) + a.shape[1:], a.dtype) for a in stacks[0])
            for j, (M_j, g_Ac_j) in enumerate(stacks):
                rows = np.flatnonzero(which == j)
                M[rows], g_Ac[rows] = M_j.take(idx[rows], axis=0), g_Ac_j.take(idx[rows], axis=0)
        P = _matvecs(M, Z + g_Ac)
        curvature = _matvecs(self.A.take(idx, axis=0), P) - self.Ac.take(idx, axis=0)
        D = P + _per_row(gamma, curvature) * curvature - Z
        return P.astype(Z.dtype, copy=False), _norms(D)


def _sigmoids(v):
    """prox.sigmoid of each entry, bitwise, without its branch: exp(-|v|) is
    the exp(-v) it takes for v >= 0 and the exp(v) it takes below."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


class _RowBank(_ArrayBank):
    """Components f_i built on a data row a_i and label y_i, held as one n-by-d
    row matrix, a label vector and the mu_reg they share, which must be
    finite and >= 0 (InvalidSpec). Its item i is a ``family`` object bound to
    a = rows[i], y = labels[i] and mu_reg, as the bank admitted them."""

    axes = {"rows": "nd", "labels": "n"}

    def __init__(self, rows, labels, mu_reg):
        if not (_finite(mu_reg) and mu_reg >= 0):
            raise InvalidSpec(f"mu_reg must be finite and >= 0, got {mu_reg}")
        super().__init__(rows, labels)
        self.mu_reg = mu_reg

    def component(self, i):
        return _bound(self.family, a=self.rows[i], y=self.labels[i], mu_reg=self.mu_reg)

    def _add_ridge(self, G, x):
        """G + mu_reg * x, written into G where that sum keeps G's dtype, so
        a gradient stack needs no second n-by-d array; otherwise (say float32
        rows with a float64 mu_reg) a new array of the wider dtype."""
        ridge = self.mu_reg * x
        if np.result_type(G, ridge) != G.dtype:
            return G + ridge
        G += ridge
        return G

    def _hessian_sum(self, weighted_rows):
        """weighted_rows' rows + n mu_reg I, row i weighted by f_i's curvature."""
        n, d = self.rows.shape
        return weighted_rows.T @ self.rows + n * self.mu_reg * np.eye(d, dtype=self.rows.dtype)


class RankOneRidgeComponent(ComponentFunction):
    """f(x) = (a'x - y)^2 / 2 + mu_reg ||x||^2 / 2; O(d) closed-form prox.
    It is item 0 of RidgeBank([a], [y], mu_reg), which admits and checks a,
    y and mu_reg."""

    def __init__(self, a, y, mu_reg):
        vars(self).update(vars(RidgeBank([a], [y], mu_reg)[0]))

    def gradient(self, x):
        return self.a * (self.a @ x - self.y) + self.mu_reg * x

    def hessian(self, x):
        return np.outer(self.a, self.a) + self.mu_reg * np.eye(len(self.a), dtype=self.a.dtype)

    def prox(self, gamma, z):
        return prox_rank_one_quadratic(self.a, self.y, self.mu_reg, gamma, z)


class RidgeBank(_RowBank):
    """Rank-one ridge components as rows: the gradients come from one batched
    pass, written into the one n-by-d array they return; the O(d) closed-form
    prox stays per component, through RankOneRidgeComponent.prox on its item."""

    family = RankOneRidgeComponent

    def gradients(self, x):
        return self._add_ridge(self.rows * (_dots(self.rows, x) - self.labels)[:, None], x)

    def hessian_sum(self, x):
        return self._hessian

    @functools.cached_property
    def _hessian(self):
        H = self._hessian_sum(self.rows)
        H.flags.writeable = False
        return H


class LogisticRidgeComponent(ComponentFunction):
    """f(x) = log(1 + exp(-y a'x)) + mu_reg ||x||^2 / 2, y in {-1, +1}. It is
    item 0 of LogisticBank([a], [y], mu_reg), which admits and checks a, y
    and mu_reg, and binds a and y in float64, as the prox computes."""

    def __init__(self, a, y, mu_reg):
        vars(self).update(vars(LogisticBank([a], [y], mu_reg)[0]))

    def gradient(self, x):
        s = sigmoid(-self.y * float(self.a @ x))
        return -self.y * s * self.a + self.mu_reg * x

    def hessian(self, x):
        s = sigmoid(-self.y * float(self.a @ x))
        return s * (1.0 - s) * np.outer(self.a, self.a) + self.mu_reg * np.eye(len(self.a))

    def prox(self, gamma, z):
        return prox_logistic_ridge(self.a, self.y, self.mu_reg, gamma, z)


class LogisticBank(_RowBank):
    """Logistic-ridge components as rows. ``prox`` runs prox_logistic_ridge's
    safeguarded Newton on all s scalar roots at once when s >=
    NEWTON_BATCH_MIN: each row keeps its root, bracket and iteration count in
    place, and a mask picks the rows whose root is still moving. Every
    operation is the scalar one applied elementwise, so row k is bitwise what
    ``components[idx[k]].prox`` returns. The batch does only that common
    case; zero rows, rows whose derived bracket needs widening and rows out
    of budget are left to the scalar solve, on a view of the row. A label
    other than +-1 raises InvalidSpec: the curvature bound ||a||^2 / 4 that
    gen_logistic_ridge's and load_libsvm's L rest on needs |y| = 1. The
    family works in float64: rows and labels are bound in it, whatever the
    dtype they are given in, so an item's oracles are its bank's rows in
    every dtype."""

    family = LogisticRidgeComponent
    dtype = np.float64

    def __init__(self, rows, labels, mu_reg):
        super().__init__(rows, labels, mu_reg)
        if not (np.abs(self.labels) == 1).all():
            raise InvalidSpec("logistic labels must be +-1")
        self.aa = _dots(self.rows, self.rows)

    def _gradients(self, a, y, x):
        """Row k is the gradient of the component on (a[k], y[k]) at x, or at
        x[k] for a matrix x."""
        return self._add_ridge(
            (-y * _sigmoids(-y * _dots(a, x).astype(float, copy=False)))[:, None] * a, x)

    def gradients(self, x):
        return self._gradients(self.rows, self.labels, x)

    def hessian_sum(self, x):
        s = _sigmoids(-self.labels * _dots(self.rows, x).astype(float, copy=False))
        return self._hessian_sum(self.rows * (s * (1.0 - s))[:, None])

    def prox(self, gamma, idx, Z):
        """(P, residuals) as ComponentBank.prox, gamma a stepsize or a 1-d
        array of them, one per row: the Newton is elementwise, so a row is
        bitwise the same at its own gamma alone. Rows the batched Newton
        cannot finish go through ComponentBank.prox, whose scalar solve
        handles them and raises MaxInnerIterations naming the first
        component whose root the budget does not reach."""
        if len(idx) < NEWTON_BATCH_MIN:
            return super().prox(gamma, idx, Z)
        gamma = np.asarray(gamma, dtype=float)  # as the scalar solve, which works in float64
        a, y, aa = self.rows.take(idx, axis=0), self.labels.take(idx), self.aa.take(idx)
        z = Z.astype(float, copy=False)
        alpha = 1.0 + gamma * self.mu_reg
        az, gamma_aa, gya, neg_y = _dots(a, z), gamma * aa, gamma * y * aa, -y
        budget, abs_az = prox.NEWTON_BUDGET, np.abs(az)

        def h(u):
            """(h(u), sigmoid(-y u)) row by row, for the scalar root-find
            h(u) = alpha u - a'z - gamma y ||a||^2 sigmoid(-y u) = 0."""
            s = _sigmoids(neg_y * u)
            return alpha * u - az - gya * s, s

        bound = (np.sqrt(aa) * _norms(z) + gamma_aa) / alpha + 1.0
        lo, hi = -bound, bound
        u = 0.5 * (lo + hi)
        # h at both bracket ends and the first midpoint, in one call. h(lo) <= 0
        # <= h(hi) by the bound's derivation; zero rows (no root to find) and rows
        # that fail the scalar's own test of that are left to the scalar solve.
        (h_lo, h_hi, hu), (_, _, s) = h(np.stack([lo, hi, u]))
        scalar = (aa == 0.0) | (h_lo > 0.0) | (h_hi < 0.0)
        live = ~scalar
        iters, passes = np.zeros(len(idx), dtype=int), 0
        while True:  # s ends as each row's sigmoid(-y u) at its root
            # Negated as the scalar test is, so a NaN root runs out of budget.
            live &= ~(np.abs(hu) <= logistic_root_tol(alpha, u, abs_az, gamma_aa))
            iters += live
            passes += 1  # a row still live has taken every pass
            if passes > budget or not live.any():
                break
            up = hu > 0.0  # the bracket of a row that is not live no longer matters
            hi = np.where(up, u, hi)
            lo = np.where(up, lo, u)
            step = u - hu / (alpha + gamma_aa * s * (1.0 - s))
            inside = (lo < step) & (step < hi)
            u = np.where(live, np.where(inside, step, 0.5 * (lo + hi)), u)
            hu, s = h(u)
        scalar |= iters > budget  # the scalar solve raises for these

        x = (z + (gamma * y * s)[:, None] * a) / _per_row(alpha, z)
        D = x + _per_row(gamma, x) * self._gradients(a, y, x) - z
        P, residuals = x.astype(Z.dtype, copy=False), _norms(D)
        if scalar.any():
            P[scalar], residuals[scalar] = super().prox(
                gamma[scalar] if gamma.ndim else float(gamma), idx[scalar], Z[scalar])
        return P, residuals


class GenericComponent(ComponentFunction):
    """Component from a bare gradient callable; prox by inner descent. mu and
    L are bound as the Python floats errors._check_constants returns, which
    raises InvalidConstants unless finite 0 < mu <= L holds."""

    def __init__(self, grad_fn, mu, L):
        self._grad = grad_fn
        self.mu, self.L, _ = _check_constants(mu, L)

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
        for name in ("n", "dim", "seed"):
            if not _integral(getattr(self, name)):
                raise InvalidSpec(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 1 or self.dim < 1:
            raise InvalidSpec(f"need n >= 1 and dim >= 1, got n={self.n}, dim={self.dim}")
        _check_constants(self.mu, self.L)
        # mu and L scale float64 data and enter the banks' mu_reg, where a
        # float32 value would demote the prox arithmetic; so each is widened
        # to at least float64. A longdouble value stays: gen_quadratic's eig
        # takes its dtype.
        for name in ("mu", "L"):
            if np.result_type(getattr(self, name), np.float64) == np.float64:
                object.__setattr__(self, name, float(getattr(self, name)))
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        # Quadratics hold n d-by-d matrices; ridge and logistic hold n-by-d
        # rows and the reference solve's d-by-d Hessian.
        n, d = int(self.n), int(self.dim)  # Python ints: no numpy wraparound
        entries = n * d * d if self.family == "quadratic" else max(n, d) * d
        if entries > MAX_DENSE_ENTRIES:
            raise InvalidSpec(f"n={n}, dim={d} needs {entries} dense entries, "
                              f"over {MAX_DENSE_ENTRIES}")


def _planted(problem, spec):
    """problem with its reference minimizer attached. The stationarity check on
    it is absolute, so when it fails the spec's scale has put rounding above
    the bound: the constants are at fault, not the minimizer."""
    x_star = reference_solution(problem)
    try:
        return problem.with_known_solution(x_star)
    except InvalidKnownSolution as exc:
        raise InvalidConstants(
            f"mu={spec.mu:g}, L={spec.L:g}: at this scale rounding keeps the planted "
            f"minimizer from the stationarity bound ({exc})"
        ) from None


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
    n, d, rng = spec.n, spec.dim, np.random.default_rng(spec.seed)
    Q, c = np.empty((n, d, d)), np.empty((n, d))
    eig = np.empty((n, d), dtype=np.result_type(spec.mu, spec.L, np.float64))
    eig[:, :2] = [spec.mu, spec.L][:d]
    for i in range(n):  # component by component: the order the seed's stream is read in
        Q[i] = rng.normal(size=(d, d))
        eig[i, 2:] = rng.uniform(spec.mu, spec.L, size=max(d - 2, 0))
        c[i] = rng.normal(size=d)
    # QRs in blocks, which bound their temporaries; the factors overwrite the draws.
    block = max(1, ROW_BLOCK_ENTRIES // (d * d))
    for start in range(0, n, block):
        q, R = np.linalg.qr(Q[start:start + block])
        Q[start:start + block] = q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    # Drops Q's draws before A is built.
    Q, eig, c = (_handed_over(a.astype(dtype, copy=False)) for a in (Q, eig, c))
    return _planted(assemble_problem(QuadraticBank(Q, eig, c), spec.mu, spec.L, d), spec)


def _handed_over(a):
    """a, made read-only, for a caller that made a and never writes it
    again: a family bank binds such an array without a copy."""
    a.flags.writeable = False
    return a


def _scaled_rows(spec, family, scale, term):
    """The spec's rng and its n-by-dim normal rows, each rescaled to norm
    scale * sqrt(L - mu), once the spec is of family and mu < L leaves room for term."""
    if spec.family != family:
        raise InvalidSpec(f"expected family {family!r}, got {spec.family!r}")
    if not spec.mu < spec.L:
        raise InvalidSpec(f"{family.partition('_')[0]} family needs mu < L "
                          f"to leave room for {term}")
    rng = np.random.default_rng(spec.seed)
    rows = rng.normal(size=(spec.n, spec.dim))
    norms = np.sqrt((rows * rows).sum(axis=1))
    rows *= (scale * np.sqrt(spec.L - spec.mu) / norms)[:, None]
    return rng, rows


def gen_ridge_regression(spec, dtype=np.float64):
    """Per-sample ridge regression with rows rescaled so ||a_i||^2 = L - mu.

    Each Hessian a_i a_i' + mu I then has spectrum {mu, ..., mu, L}: the
    shared constants are exact per component. Needs mu < L strictly.
    """
    rng, rows = _scaled_rows(spec, "ridge_regression", 1.0, "the data term")
    rows, ys = (_handed_over(a.astype(dtype, copy=False)) for a in (rows, rng.normal(size=spec.n)))
    bank = RidgeBank(rows, ys, spec.mu)
    return _planted(assemble_problem(bank, spec.mu, spec.L, spec.dim), spec)


def gen_logistic_ridge(spec):
    """Ridge-regularized logistic losses with ||a_i||^2 = 4 (L - mu).

    The logistic curvature never exceeds ||a||^2 / 4, so every component is
    exactly L-smooth as a bound and mu-strongly convex from the ridge. The
    minimizer comes from the deterministic reference solve at tol 1e-12.
    """
    rng, rows = _scaled_rows(spec, "logistic_ridge", 2.0, "the loss")
    labels = 2.0 * rng.integers(0, 2, size=spec.n) - 1.0
    bank = LogisticBank(_handed_over(rows), _handed_over(labels), spec.mu)
    return _planted(assemble_problem(bank, spec.mu, spec.L, spec.dim), spec)


def load_libsvm(path, mu):
    """Read sparse "label idx:val ..." lines into a logistic-ridge problem.

    The file is UTF-8. Indices are 1-based and must increase strictly within
    each line; '#' starts a comment; labels must be +-1; every row's squared
    norm must be finite. Rows and the reference solve's Hessian are dense, so
    max(rows, width) * width may not exceed MAX_DENSE_ENTRIES, width being the
    largest index. Rows keep their scale, so L is mu + max_i ||a_i||^2 / 4.
    Returns (problem.bank, problem), a pair because callers unpack two values;
    the bank holds the read-only ``rows`` and ``labels``.
    """
    if not (_finite(mu) and mu > 0):
        raise InvalidConstants(f"mu must be finite and > 0, got {mu}")
    sparse_rows, labels = [], []
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
            idxs, vals = [], []
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
                if not math.isfinite(val):
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
    if max(len(sparse_rows), max_idx) * max_idx > MAX_DENSE_ENTRIES:
        raise ParseError(
            max_line,
            f"{len(sparse_rows)} rows of width {max_idx}, or their square Hessian, "
            f"exceed {MAX_DENSE_ENTRIES} dense entries",
        )

    rows = np.zeros((len(sparse_rows), max_idx))
    for i, (_, idxs, vals) in enumerate(sparse_rows):
        rows[i, np.asarray(idxs, dtype=int) - 1] = vals

    with np.errstate(over="ignore"):
        sq_norms = (rows * rows).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(sq_norms))
    if bad.size:
        raise ParseError(sparse_rows[bad[0]][0], "squared row norm overflows")
    L = mu + 0.25 * float(sq_norms.max())
    problem = assemble_problem(LogisticBank(_handed_over(rows), labels, mu), mu, L, max_idx)
    return problem.bank, problem
