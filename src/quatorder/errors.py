"""Exception hierarchy for quatorder.

Every error raised by the library derives from QuatOrderError, so callers
(notably the CLI) can map failures onto a stable exit-code contract:

    2 -- invalid parameters (InvalidParametersError)
    3 -- no supported case / unsupported place (CaseMismatchError and friends)
    4 -- not enough working precision (PrecisionLossError)

Any other exception is a bug in the library; the CLI reports it on one
line and exits 5, never 1, which is kept for a failed certificate.
"""


class QuatOrderError(Exception):
    """Base class for all library errors."""


class InvalidParametersError(QuatOrderError):
    """Inputs violate a documented precondition (bad discriminant, level, ...)."""


class NoSquareRootError(QuatOrderError):
    """The requested square root does not exist in the given ring."""


class NotANormError(QuatOrderError):
    """The target value is not a norm from the relevant quadratic extension."""


class SearchExhaustedError(QuatOrderError):
    """A bounded deterministic search ran out of candidates."""


class CaseMismatchError(QuatOrderError):
    """No construction covers the requested place/parameter combination."""


class RamifiedPlaceError(CaseMismatchError):
    """The operation is undefined at a prime dividing the discriminant."""


class NotDivisibleError(CaseMismatchError):
    """An inclusion that requires one level to divide the other."""


class PrecisionLossError(QuatOrderError):
    """A p-adic computation no longer carries enough digits to decide."""


class AmbientMismatchError(QuatOrderError):
    """Two lattices do not live in the same ambient space."""


class NotAnOrderBasisError(QuatOrderError):
    """Four elements whose Gram determinant is not a nonzero perfect square."""
