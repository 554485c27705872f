"""Finite-sum problem container and the oracle contract for its components.

A problem is ``min_x sum_i f_i(x)`` over R^d where every component is
mu-strongly convex with an L-Lipschitz gradient, sharing one (mu, L) pair.
Its components are evaluated through its bank. A family bank comes from its
arrays: it batches the oracles to bitwise the per-component results, and it
is the read-only sequence of its components, so a problem built on one has
that bank as its components. Assembled components use the default
ComponentBank, which calls them one at a time and sums their ``hessian``.
"""

import copy
import itertools
import operator
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _norms, _sum_rows
from .errors import (
    DimensionMismatch,
    EmptyComponentList,
    InvalidConstants,
    InvalidKnownSolution,
    InvalidSpec,
    MaxInnerIterations,
    _check_constants,
    _integral,
)

#: Absolute tolerance on ||sum_i grad f_i(x*)|| / n for declared minimizers.
TOL_STAR = 1e-8


class ComponentFunction(ABC):
    """Oracle bundle for one component f_i: its gradient and its prox, the
    only oracles the method and its analysis use.

    Implementations must behave as pure functions of their inputs: problems
    are shared freely between threads after assembly. ``prox`` returns a
    :class:`~pointsaga.prox.ProxResult` whose ``point`` minimizes
    ``f(x) + ||x - z||^2 / (2 gamma)``.

    A component may also define ``hessian(x)``, the d-by-d Hessian of its
    ``gradient`` at x, which the default bank sums for the reference solve.
    It is optional, but where it is defined it must match ``gradient``: a
    subclass that overrides ``gradient`` must override ``hessian`` too.
    """

    @abstractmethod
    def gradient(self, x):
        """Gradient of f at x, same shape as x."""

    @abstractmethod
    def prox(self, gamma, z):
        """Proximity operator of gamma * f at z."""


class ComponentBank:
    """The components of a problem, evaluated one at a time. A family bank
    is a subclass that batches them to the same results, bit for bit."""

    def __init__(self, components):
        self.components = components

    def gradients(self, x):
        """n-by-d array whose row i is components[i].gradient(x)."""
        return np.stack([c.gradient(x) for c in self.components])

    def hessian_sum(self, x):
        """sum_i of the components' ``hessian(x)``, added in index order by
        _linalg._sum_rows; InvalidSpec names the classes that have none."""
        names = ", ".join(sorted({type(c).__name__ for c in self.components
                                  if not hasattr(c, "hessian")}))
        if names:
            raise InvalidSpec(f"no Hessian for {names}: declare known_solution")
        return _sum_rows(np.stack([c.hessian(x) for c in self.components]))

    def prox(self, gamma, idx, Z):
        """(P, residuals): row k of P, in Z's dtype, is the prox of component
        idx[k] at Z[k] with stepsize gamma, or gamma[k] for a 1-d array of
        stepsizes, and residuals[k] is its resolvent defect. An inner solve
        out of budget raises MaxInnerIterations naming its component."""
        P = np.empty_like(Z)
        residuals = []
        components = self.components
        per_row = isinstance(gamma, np.ndarray) and gamma.ndim
        gammas = gamma.tolist() if per_row else itertools.repeat(gamma)
        for k, (i, g) in enumerate(zip(idx.tolist(), gammas)):
            try:
                result = components[i].prox(g, Z[k])  # perfbench reads z as args[2]
            except MaxInnerIterations as exc:
                raise MaxInnerIterations(f"prox of component {i + 1}: {exc}") from None
            P[k] = result.point
            residuals.append(result.residual)
        return P, np.array(residuals)


class _ArrayBank(ComponentBank, Sequence):
    """A bank that owns its components' arrays, stacked on the first axis and
    read-only, so no component can change under it: an array it made (a
    cast, say) is frozen, and an array of the caller's is copied unless the
    caller handed it over read-only with read-only bases, as the generators
    and load_libsvm do. The flags of an array the bank did not make are left
    alone, and no later write to the caller's arrays reaches the bank. It is
    the read-only sequence of its components too: item i is
    ``component(i)``, bound to the bank's own slices on access without
    running a constructor, and a slice is a tuple of them. A family's component class builds the one-row bank
    of its arguments and takes its item 0, so the bank's constructor and
    its subclasses' are the one check of a family's inputs.

    The constructor checks a family's arrays, declared in ``axes`` by
    attribute name, one letter per axis (n components, dimension d). Each is
    admitted by _check_array, so an integer one is bound as float64, and
    cast to ``dtype`` where the family sets one; a wrong rank or an axis
    that disagrees raises DimensionMismatch, a non-finite entry InvalidSpec,
    and n = 0 EmptyComponentList. Only then are they bound."""

    #: The float dtype a family computes in; None keeps each array's own.
    dtype = None

    def __init__(self, *arrays):
        sizes, checked = {}, []
        for (name, axes), array in zip(self.axes.items(), arrays):
            array = np.asarray(_check_array(array, None, name), dtype=self.dtype)
            if array.ndim != len(axes) or any(sizes.setdefault(axis, size) != size
                                              for axis, size in zip(axes, array.shape)):
                raise DimensionMismatch(f"{name} has shape {array.shape}; its axes "
                                        f"{axes!r} must agree with {sizes}")
            if not np.isfinite(array).all():
                raise InvalidSpec(f"{name} must hold finite entries")
            checked.append(array)
        if sizes["n"] == 0:
            raise EmptyComponentList("need at least one component")
        for name, array, given in zip(self.axes, checked, arrays):
            if np.may_share_memory(array, given) and not _frozen(array):
                array = array.copy()
            array.flags.writeable = False  # a no-op on a frozen array of the caller's
            setattr(self, name, array)
        self._n, self.dim = sizes["n"], sizes["d"]

    @property
    def components(self):
        return self

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.component, range(*i.indices(self._n))))
        return self.component(operator.index(i))


def _frozen(a):
    """True when no write can reach a: it and the arrays it views are
    read-only, down to one that owns its data."""
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        a = a.base
    return a is None


@dataclass(frozen=True, eq=False)
class FiniteSumProblem:
    """n components plus the shared constants of the analysis.

    Attributes
    ----------
    components : sequence of ComponentFunction
        A tuple, or a family bank that owns its components' arrays, whose
        items are built on access from them.
    mu, L : float
        Strong-convexity modulus (> 0) and smoothness constant (>= mu) shared
        by every component, as the Python floats errors._check_constants returns.
    dim : int
        Ambient dimension d, an integer >= 1 (numpy's too), as a Python int.
    known_solution : ndarray or None
        Minimizer of the sum, when available: a read-only copy of the array
        given as _check_array admits it, validated for stationarity.
    bank : ComponentBank
        The components themselves when they are a family bank, which comes
        from its arrays; otherwise the default bank over them.
    grad_star : ndarray or None
        Read-only n-by-d table whose row i is grad f_i(known_solution), in
        the bank's dtype at known_solution's dtype; None without a known
        solution. It is the gradient stack the stationarity check sums, kept
        so that run need not build it again.
    """

    components: Sequence
    mu: float
    L: float
    dim: int
    known_solution: np.ndarray | None = field(default=None)
    bank: ComponentBank = field(default=None, init=False, repr=False)
    grad_star: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if len(self.components) == 0:
            raise EmptyComponentList("need at least one component")
        mu, L, _ = _check_constants(self.mu, self.L)
        if not (_integral(self.dim) and self.dim >= 1):
            raise InvalidConstants(f"dim must be >= 1 and an integer, got {self.dim}")
        vars(self).update(mu=mu, L=L, dim=int(self.dim))
        if isinstance(self.components, _ArrayBank):
            bank = self.components
            if bank.dim != self.dim:
                raise DimensionMismatch(f"the bank's rows have width {bank.dim}, "
                                        f"expected dim {self.dim}")
        else:
            bank = ComponentBank(self.components)
        object.__setattr__(self, "bank", bank)
        if self.known_solution is not None:
            self._set_solution(self.known_solution)

    def with_known_solution(self, x_star):
        """A copy sharing this bank, with known_solution a read-only copy of
        x_star and its grad_star; raises unless x_star is stationary."""
        problem = copy.copy(self)
        problem._set_solution(x_star)
        return problem

    def _set_solution(self, x_star):
        """Bind known_solution, a read-only copy of x_star, and grad_star, the
        read-only stack of grad f_i(x_star), once _check_array admits x_star
        and the stack's row total, full_gradient's bits, is within n*TOL_STAR
        of 0. The caller's array stays writable, and no later write to it
        moves the solution away from its grad_star."""
        x_star = np.array(_check_array(x_star, (self.dim,), "known_solution"))
        G = self.bank.gradients(x_star)
        g = _row_total(G)
        norm = float(_norms(g[None])[0])
        if not norm <= self.n * TOL_STAR:  # a NaN norm fails too
            raise InvalidKnownSolution(
                f"||sum grad f_i(x*)|| = {norm:.3e} exceeds n*{TOL_STAR:g}"
            )
        x_star.flags.writeable = G.flags.writeable = False
        object.__setattr__(self, "known_solution", x_star)
        object.__setattr__(self, "grad_star", G)

    @property
    def n(self):
        return len(self.components)

    def check_point(self, x):
        """x as _check_array admits it, named "point", at shape (dim,)."""
        return _check_array(x, (self.dim,), "point")


def _check_array(a, shape, name):
    """np.asarray(a) as the package computes with it: a float array as it is,
    an integer one as float64. A ragged nested sequence or a shape other than
    shape (any for None) raises DimensionMismatch naming it, with sizes by
    str (3, not np.int64(3)); entries that are not integers or floats
    (complex, bool, object, str) raise InvalidSpec."""
    try:
        a = np.asarray(a)
    except ValueError:  # a ragged nested sequence
        raise DimensionMismatch(f"{name} is not a rectangular array") from None
    if shape is not None and a.shape != shape:
        expected = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected ({expected})")
    if a.dtype.kind == "f":
        return a
    if a.dtype.kind not in "iu":
        raise InvalidSpec(f"{name} must hold integers or floats, got dtype {a.dtype}")
    return a.astype(np.float64)


def _check_state(state, problem):
    """The state to go on with: a new one whose t is an integer >= 0 (numpy's
    too) as a Python int, else InvalidConstants, and whose x (dim,),
    grad_table (n, dim) and g_avg (dim,) are what _check_array admits,
    checked in that order."""
    n, dim = problem.n, problem.dim
    if not (_integral(state.t) and state.t >= 0):
        raise InvalidConstants(f"state.t must be an integer >= 0, got {state.t!r}")
    return type(state)(t=operator.index(state.t), x=_check_array(state.x, (dim,), "state.x"),
                       grad_table=_check_array(state.grad_table, (n, dim), "state.grad_table"),
                       g_avg=_check_array(state.g_avg, (dim,), "state.g_avg"))


def assemble_problem(components, mu, L, dim):
    """Pack components into a FiniteSumProblem, which checks them, mu, L and dim.

    A family bank that owns its components' arrays is kept as it is; any
    other iterable is packed into a tuple. The known solution is left unset;
    ``with_known_solution`` attaches one.
    """
    if not isinstance(components, _ArrayBank):
        components = tuple(components)
    return FiniteSumProblem(components, mu, L, dim)


def _row_total(G):
    """G's rows added in index order from +0.0: the in-order sum, plus +0.0,
    which changes only a -0.0 total, the one a start from +0.0 cannot give.
    G itself is left as it is."""
    return _sum_rows(G) + 0.0


def full_gradient(problem, x):
    """Gradient of the full objective, sum_i grad f_i(x), added in index order."""
    return _row_total(problem.bank.gradients(problem.check_point(x)))
