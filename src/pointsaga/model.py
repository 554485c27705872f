"""Finite-sum problem container and the oracle contract for its components.

A problem is ``min_x sum_i f_i(x)`` over R^d where every component is
mu-strongly convex with an L-Lipschitz gradient, sharing one (mu, L) pair.
Its components are evaluated through its bank: the per-component
ComponentBank, or a family's batched subclass with bitwise the same results.
Only family banks sum Hessians, so other problems must declare known_solution.
A bank that holds its components as arrays hands them out as a ComponentView.
"""

import copy
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
    """

    @abstractmethod
    def gradient(self, x):
        """Gradient of f at x, same shape as x."""

    @abstractmethod
    def prox(self, gamma, z):
        """Proximity operator of gamma * f at z."""

    @classmethod
    def stack(cls, components):
        """The bank through which the solver evaluates these components, all
        of class cls; a family may override it to batch them."""
        return ComponentBank(components)


class ComponentBank:
    """The components of a problem, evaluated one at a time. A family's
    ``stack`` may return a subclass that batches them to the same results,
    bit for bit."""

    def __init__(self, components):
        self.components = components

    def gradients(self, x):
        """n-by-d array whose row i is components[i].gradient(x)."""
        return np.stack([c.gradient(x) for c in self.components])

    def hessian_sum(self, x):
        """sum_i of the components' Hessians at x; only family banks have it."""
        names = ", ".join(sorted({type(c).__name__ for c in self.components}))
        raise InvalidSpec(f"no Hessian sum for {names}: declare known_solution")

    def prox(self, gamma, idx, Z):
        """(P, residuals): row k of P, in Z's dtype, is the prox of component
        idx[k] at Z[k], and residuals[k] is its resolvent defect. An inner
        solve out of budget raises MaxInnerIterations naming its component."""
        P = np.empty_like(Z)
        residuals = []
        components = self.components
        for k, i in enumerate(idx.tolist()):
            try:
                result = components[i].prox(gamma, Z[k])  # perfbench reads z as args[2]
            except MaxInnerIterations as exc:
                raise MaxInnerIterations(f"prox of component {i + 1}: {exc}") from None
            P[k] = result.point
            residuals.append(result.residual)
        return P, np.array(residuals)


class ComponentView(Sequence):
    """The n components of a bank that holds them as arrays, as a read-only
    sequence: item i is ``bank.component(i)``, built on access, and a slice
    is a tuple of them. A FiniteSumProblem given one evaluates through its
    bank. The bank does not keep its view, so the two form no cycle."""

    def __init__(self, bank, n):
        self.bank = bank
        self._n = n

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.bank.component, range(*i.indices(self._n))))
        return self.bank.component(operator.index(i))


@dataclass(frozen=True, eq=False)
class FiniteSumProblem:
    """n components plus the shared constants of the analysis.

    Attributes
    ----------
    components : sequence of ComponentFunction
        A tuple, or a ComponentView whose items are built on access from
        the arrays of a family's bank.
    mu : float
        Strong-convexity modulus shared by every component, > 0.
    L : float
        Smoothness constant shared by every component, >= mu.
    dim : int
        Ambient dimension d.
    known_solution : ndarray or None
        Minimizer of the sum, when available. Validated for stationarity.
    bank : ComponentBank
        A ComponentView's own bank; otherwise the components' ``stack`` when
        all share one class, else the default.
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
        if not (0 < self.mu <= self.L):
            raise InvalidConstants(f"need 0 < mu <= L, got mu={self.mu}, L={self.L}")
        if self.dim < 1:
            raise InvalidConstants(f"dim must be >= 1, got {self.dim}")
        if isinstance(self.components, ComponentView):
            bank = self.components.bank
        else:
            kinds = {type(c) for c in self.components}
            stack = getattr(kinds.pop() if len(kinds) == 1 else None, "stack", ComponentBank)
            bank = stack(self.components)
        object.__setattr__(self, "bank", bank)
        if self.known_solution is not None:
            object.__setattr__(self, "grad_star", self._stationary_gradients(self.known_solution))

    def with_known_solution(self, x_star):
        """A copy sharing this bank, with known_solution x_star and its
        grad_star; raises unless x_star is stationary."""
        grad_star = self._stationary_gradients(x_star)
        problem = copy.copy(self)
        object.__setattr__(problem, "known_solution", x_star)
        object.__setattr__(problem, "grad_star", grad_star)
        return problem

    def _stationary_gradients(self, x_star):
        """The read-only stack of grad f_i(x_star), after checking its shape
        and that its row total, full_gradient's bits, is within n*TOL_STAR of 0."""
        xs = np.asarray(x_star)
        if xs.shape != (self.dim,):
            raise DimensionMismatch(
                f"known_solution has shape {xs.shape}, expected ({self.dim},)"
            )
        G = self.bank.gradients(xs)
        g = _row_total(G)
        norm = float(_norms(g[None])[0])
        if not norm <= self.n * TOL_STAR:  # a NaN norm fails too
            raise InvalidKnownSolution(
                f"||sum grad f_i(x*)|| = {norm:.3e} exceeds n*{TOL_STAR:g}"
            )
        G.flags.writeable = False
        return G

    @property
    def n(self):
        return len(self.components)

    def check_point(self, x):
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {x.shape}, expected ({self.dim},)")
        return x


def assemble_problem(components, mu, L, dim):
    """Validate and pack components into a FiniteSumProblem.

    A ComponentView is kept as it is, with its bank; any other iterable is
    packed into a tuple. The known solution is left unset;
    ``with_known_solution`` attaches one.
    """
    if not isinstance(components, ComponentView):
        components = tuple(components)
    return FiniteSumProblem(components, float(mu), float(L), int(dim))


def _row_total(G):
    """G's rows added in index order from +0.0: the in-order sum, plus +0.0,
    which changes only a -0.0 total, the one a start from +0.0 cannot give.
    G itself is left as it is."""
    return _sum_rows(G) + 0.0


def full_gradient(problem, x):
    """Gradient of the full objective, sum_i grad f_i(x), added in index order."""
    return _row_total(problem.bank.gradients(problem.check_point(x)))
