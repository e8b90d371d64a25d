"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class SignatureMismatch(AlgebraError):
    """Two operands live in different Clifford algebras."""


class WrongSignature(AlgebraError):
    """Operation is only defined for a specific signature."""


class UnsupportedSignature(AlgebraError):
    """Operation is restricted to the quaternionic and (0,3) algebras."""


class NotInvertible(AlgebraError):
    """Element is zero or a zero divisor."""


class NotInCone(AlgebraError):
    """Element lies outside the quadratic cone."""


class ParseError(AlgebraError, ValueError):
    """Malformed multivector or polynomial text."""


class DuplicatePoint(AlgebraError):
    """Interpolation points must be pairwise distinct."""


class PointNotInCone(AlgebraError):
    """Interpolation points must lie in the quadratic cone."""


class MultiPointClassInR03(AlgebraError):
    """In R_{0,3} every conjugacy class may carry at most one data point."""


class CollinearityViolated(AlgebraError):
    """Three or more same-class quaternionic points carry incompatible values."""

    def __init__(self, group_index: int, h: int, representative=None):
        self.group_index = group_index
        self.h = h
        self.representative = representative
        where = f" (class of {representative})" if representative is not None else ""
        super().__init__(
            f"collinearity violated in class group j={group_index} at point h={h}{where}"
        )

    def __reduce__(self):
        # BaseException rebuilds from self.args, which holds only the message
        return type(self), (self.group_index, self.h, self.representative), self.__dict__


class InternalNonInvertible(AlgebraError):
    """A value the construction guarantees to be invertible was not.

    Raised only when an interpolation precondition was breached upstream.
    """
