"""Exception types raised across the package, and the scalar checks behind them."""

import math
import operator


class PointSagaError(Exception):
    """Base class for all package-specific errors."""


class EmptyComponentList(PointSagaError, ValueError):
    """A finite-sum problem needs at least one component."""


class InvalidConstants(PointSagaError, ValueError):
    """A constant fails finite 0 < mu <= L (in a problem or a generator spec),
    finite mu > 0 (load_libsvm's), finite gamma > 0, integer dim >= 1 or a
    solver setting other than s, or a value overflows at the constants given."""


class InvalidKnownSolution(PointSagaError, ValueError):
    """A supplied minimizer fails the stationarity check."""


class DimensionMismatch(PointSagaError, ValueError):
    """A point, solver state, table or family bank array does not fit the
    dimension or n, or is a ragged nested sequence."""


class SingularSystem(PointSagaError, ValueError):
    """Linear system in a prox solve is singular (indefinite matrix supplied)."""


class MaxInnerIterations(PointSagaError, RuntimeError):
    """An iterative prox subproblem exhausted its iteration budget."""


class MaxIterations(PointSagaError, RuntimeError):
    """The reference solve ran out of Newton steps."""


class InvalidBatchSize(PointSagaError, ValueError):
    """A size fails _check_sizes: s or n is not an integer, or 1 <= s <= n
    <= 2^63 fails; or a subset is not sorted distinct integers in [0, n)."""


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
    """A problem's description is malformed: a generator spec's family, sizes
    or seed, or constants its family cannot use; a family bank entry that is
    not a finite number, a bad mu_reg, an eig <= 0 or a logistic label other
    than +-1; components without a needed Hessian. Any array argument (a
    point, a state, x_star, grad_star, a known solution, g0, a family's
    arrays) of entries not integers or floats (complex, bool, object, str)
    raises it too."""


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


def _check_sizes(n, s):
    """n and s as Python ints, once both are integers (numpy integers too)
    and 1 <= s <= n <= 2^63 holds (so every 0-based index fits int64; a
    problem's n is a tuple's length, far below)."""
    try:
        n, s = operator.index(n), operator.index(s)
    except TypeError:
        raise InvalidBatchSize(f"sizes must be integers, got s={s!r}, n={n!r}") from None
    if not 1 <= s <= n <= 1 << 63:
        raise InvalidBatchSize(f"need 1 <= s <= n <= 2^63, got s={s}, n={n}")
    return n, s


def _check_constants(mu, L, gamma=None, s=None, n=None):
    """InvalidConstants unless finite 0 < mu <= L and gamma, if given, finite
    and > 0; then, if n is given, _check_sizes(n, s), with s = 1 if not.
    Returns the Python floats callers compute on: mu, L and gamma (or None)."""
    if not (_finite(mu) and _finite(L) and 0 < mu <= L):
        raise InvalidConstants(f"need finite 0 < mu <= L, got mu={mu}, L={L}")
    if gamma is not None and not (_finite(gamma) and gamma > 0):
        raise InvalidConstants(f"gamma must be finite and > 0, got {gamma}")
    if n is not None:
        _check_sizes(n, 1 if s is None else s)
    return float(mu), float(L), None if gamma is None else float(gamma)
