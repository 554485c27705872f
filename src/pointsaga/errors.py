"""Exception types raised across the package."""


class PointSagaError(Exception):
    """Base class for all package-specific errors."""


class EmptyComponentList(PointSagaError, ValueError):
    """A finite-sum problem needs at least one component."""


class InvalidConstants(PointSagaError, ValueError):
    """Constants violate 0 < mu <= L, or another scalar precondition."""


class InvalidKnownSolution(PointSagaError, ValueError):
    """A supplied minimizer fails the stationarity check."""


class DimensionMismatch(PointSagaError, ValueError):
    """A point or table does not match the problem dimension."""


class SingularSystem(PointSagaError, ValueError):
    """Linear system in a prox solve is singular (indefinite matrix supplied)."""


class MaxInnerIterations(PointSagaError, RuntimeError):
    """An iterative prox subproblem exhausted its iteration budget."""


class MaxIterations(PointSagaError, RuntimeError):
    """Reference solver exhausted its iteration budget."""


class InvalidBatchSize(PointSagaError, ValueError):
    """Minibatch size s must satisfy 1 <= s <= n."""


class EnumerationTooLarge(PointSagaError, ValueError):
    """C(n, s) exceeds the subset-enumeration cap."""


class ProxFailure(PointSagaError, RuntimeError):
    """A component prox returned a point with an excessive resolvent residual."""

    def __init__(self, index, residual, message=""):
        self.index = index
        self.residual = residual
        super().__init__(
            message or f"prox of component {index} failed (residual {residual:.3e})"
        )


class InvalidSpec(PointSagaError, ValueError):
    """Generator spec is inconsistent with the requested family."""


class ParseError(PointSagaError, ValueError):
    """Malformed line in a sparse data file."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EmptyFile(PointSagaError, ValueError):
    """Data file contains no usable rows."""


class InconsistentDimension(PointSagaError, ValueError):
    """Dataset rows do not share a common dimension."""


class EpsNotBelowPsi0(PointSagaError, ValueError):
    """Target accuracy must satisfy 0 < eps <= psi0."""
