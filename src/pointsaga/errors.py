"""Exception types raised across the package, and the scalar checks behind them."""

import math
import operator


class PointSagaError(Exception):
    """Base class for all package-specific errors."""


class EmptyComponentList(PointSagaError, ValueError):
    """A finite-sum problem needs at least one component."""


class InvalidConstants(PointSagaError, ValueError):
    """Constants violate 0 < mu <= L, or another scalar precondition."""


class InvalidKnownSolution(PointSagaError, ValueError):
    """A supplied minimizer fails the stationarity check."""


class DimensionMismatch(PointSagaError, ValueError):
    """A point, table or family bank array does not fit the dimension or n."""


class SingularSystem(PointSagaError, ValueError):
    """Linear system in a prox solve is singular (indefinite matrix supplied)."""


class MaxInnerIterations(PointSagaError, RuntimeError):
    """An iterative prox subproblem exhausted its iteration budget."""


class MaxIterations(PointSagaError, RuntimeError):
    """The reference solve ran out of Newton steps."""


class InvalidBatchSize(PointSagaError, ValueError):
    """Minibatch size s must satisfy 1 <= s <= n."""


class EnumerationTooLarge(PointSagaError, ValueError):
    """C(n, s) exceeds the subset-enumeration cap."""


class ProxFailure(PointSagaError, RuntimeError):
    """A component prox returned a point with an excessive resolvent residual
    at iteration t (the t of the state it would have produced), stepsize gamma."""

    def __init__(self, index, residual, t, gamma):
        self.index = index
        self.residual = residual
        self.t = t
        self.gamma = gamma
        super().__init__(f"prox of component {index} failed at iteration {t}, "
                         f"gamma={gamma:g} (residual {residual:.3e})")


class InvalidSpec(PointSagaError, ValueError):
    """Generator spec is inconsistent with the requested family."""


class ParseError(PointSagaError, ValueError):
    """Malformed line in a sparse data file."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EmptyFile(PointSagaError, ValueError):
    """Data file contains no usable rows."""


class EpsNotBelowPsi0(PointSagaError, ValueError):
    """Target accuracy must satisfy 0 < eps <= psi0, both finite."""


def _finite(value):
    """True for a finite real number; False for inf, NaN and non-numbers."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def _integral(value):
    """True for a Python or numpy integer; False for floats and non-numbers."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _check_constants(mu, L, gamma=None, s=None, n=None):
    if not (_finite(mu) and _finite(L) and 0 < mu <= L):
        raise InvalidConstants(f"need finite 0 < mu <= L, got mu={mu}, L={L}")
    if gamma is not None and not (_finite(gamma) and gamma > 0):
        raise InvalidConstants(f"gamma must be finite and > 0, got {gamma}")
    if n is not None and not (_integral(n) and n >= 1):
        raise InvalidConstants(f"n must be an integer >= 1, got {n!r}")
    if s is not None and not (_integral(s) and 1 <= s <= (n if n is not None else s)):
        raise InvalidConstants(f"need integer 1 <= s <= n, got s={s!r}, n={n!r}")
