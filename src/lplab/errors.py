"""Exception types shared across the package."""


class LplabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(LplabError, ValueError):
    """A family or operation parameter is outside its valid domain."""


class InsufficientDataError(LplabError, ValueError):
    """A custom coefficient sequence is too short for the requested operation."""


class DivergentMajorantError(LplabError, ArithmeticError):
    """The geometric majorant ratio is >= 1, so no finite tail bound exists."""


class TruncationError(LplabError, ArithmeticError):
    """Series summation hit the term cap before the tail bound met the target.

    Carries the best partial result in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class FloatRangeError(LplabError, ArithmeticError):
    """A result or its error bound leaves the floating-point range."""


class ZeroOnCircleError(LplabError, ArithmeticError):
    """The sampled circle passes too close to a zero for a certified count."""


class RealRootsError(LplabError, ValueError):
    """A formula that presumes complex-conjugate roots was applied where the
    roots are real (nonnegative discriminant)."""


class ConsistencyError(LplabError, ArithmeticError):
    """Two independent computation routes disagree beyond tolerance."""


class BracketError(LplabError, ValueError):
    """A bisection predicate has the same truth value at both endpoints."""


class MonotonicityError(LplabError, ArithmeticError):
    """A bisection predicate changed truth value more than once on the probe
    grid.  Carries the probe scan in ``scan`` for diagnosis."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan or []


class PreconditionError(LplabError, ValueError):
    """A documented operation precondition does not hold."""
