"""Finite-sum problem container and the oracle contract for its components.

A problem is ``min_x sum_i f_i(x)`` over R^d where every component is
mu-strongly convex with an L-Lipschitz gradient, sharing one (mu, L) pair.
Its components are evaluated through its bank: the per-component
ComponentBank, or a family's batched subclass with bitwise the same results.
Only family banks sum Hessians, so other problems must declare known_solution.
"""

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _sum_rows
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

    def gradient_sum(self, x):
        """sum_i components[i].gradient(x), added in index order from zero.

        The rows are added one after another by one reduction where a row
        holds two or more entries. Where d = 1 a reduction would sum pairwise,
        so there the sum is a cumulative one (_linalg._sum_rows): either way
        the bits are those of the loop over i, whatever n is."""
        G = self.gradients(x)
        G[0] += 0.0  # starting from +0.0 turns a -0.0 into +0.0
        return _sum_rows(G)

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
        for k, i in enumerate(idx.tolist()):
            try:
                result = self.components[i].prox(gamma, Z[k])  # perfbench reads z as args[2]
            except MaxInnerIterations as exc:
                raise MaxInnerIterations(f"prox of component {i + 1}: {exc}") from None
            P[k] = result.point
            residuals.append(result.residual)
        return P, np.array(residuals)


@dataclass(frozen=True, eq=False)
class FiniteSumProblem:
    """n components plus the shared constants of the analysis.

    Attributes
    ----------
    components : tuple of ComponentFunction
    mu : float
        Strong-convexity modulus shared by every component, > 0.
    L : float
        Smoothness constant shared by every component, >= mu.
    dim : int
        Ambient dimension d.
    known_solution : ndarray or None
        Minimizer of the sum, when available. Validated for stationarity.
    bank : ComponentBank
        The components' ``stack`` when all share one class, else the default.
    """

    components: tuple
    mu: float
    L: float
    dim: int
    known_solution: np.ndarray | None = field(default=None)
    bank: ComponentBank = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if len(self.components) == 0:
            raise EmptyComponentList("need at least one component")
        if not (0 < self.mu <= self.L):
            raise InvalidConstants(f"need 0 < mu <= L, got mu={self.mu}, L={self.L}")
        if self.dim < 1:
            raise InvalidConstants(f"dim must be >= 1, got {self.dim}")
        kinds = {type(c) for c in self.components}
        stack = getattr(kinds.pop() if len(kinds) == 1 else None, "stack", ComponentBank)
        object.__setattr__(self, "bank", stack(self.components))
        if self.known_solution is not None:
            self.with_known_solution(self.known_solution)  # for its check; the copy is dropped

    def with_known_solution(self, x_star):
        """A copy sharing this bank, with known_solution x_star; raises unless stationary."""
        xs = np.asarray(x_star)
        if xs.shape != (self.dim,):
            raise DimensionMismatch(
                f"known_solution has shape {xs.shape}, expected ({self.dim},)"
            )
        g = full_gradient(self, xs)
        with np.errstate(over="ignore"):  # an overflow reads inf and fails
            norm = float(np.sqrt(np.dot(g, g)))
        if norm > self.n * TOL_STAR:
            raise InvalidKnownSolution(
                f"||sum grad f_i(x*)|| = {norm:.3e} exceeds n*{TOL_STAR:g}"
            )
        problem = copy.copy(self)
        object.__setattr__(problem, "known_solution", x_star)
        return problem

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

    The known solution is left unset; ``with_known_solution`` attaches one.
    """
    return FiniteSumProblem(tuple(components), float(mu), float(L), int(dim))


def full_gradient(problem, x):
    """Gradient of the full objective, sum_i grad f_i(x)."""
    return problem.bank.gradient_sum(problem.check_point(x))
