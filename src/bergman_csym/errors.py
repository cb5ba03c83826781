"""Exception types shared across the toolkit, and the open-disk check that raises one."""


class ToolkitError(Exception):
    """Base class for every error raised deliberately by this package."""


class InvalidInputError(ToolkitError, ValueError):
    """An argument is outside its documented domain: a NaN, a negative size, a zero count."""


class DegenerateDenominatorError(ToolkitError):
    """A linear denominator c*z + d had d = 0, so no Maclaurin expansion exists."""


class DegenerateMapError(ToolkitError):
    """The coefficient matrix of a fractional linear map has zero determinant."""


class NotSelfMapError(ToolkitError):
    """The symbol does not map the open unit disk into itself."""


class ArgOutsideDiskError(ToolkitError):
    """A point that must lie in the open unit disk does not."""


def require_in_disk(alpha) -> complex:
    """``complex(alpha)``, or ``ArgOutsideDiskError`` unless ``|alpha| < 1`` (so NaN fails)."""
    alpha = complex(alpha)
    if not abs(alpha) < 1.0:
        raise ArgOutsideDiskError(f"need |alpha| < 1, got {alpha}")
    return alpha


class IdentityMapError(ToolkitError):
    """The requested quantity is undefined for the identity map."""


class NotHyperbolicError(ToolkitError):
    """The map does not have the interior-plus-boundary fixed point pattern."""


class NotUnitaryError(ToolkitError):
    """A number expected on the unit circle has modulus different from 1."""


class NonIntegerBetaError(ToolkitError):
    """An exact finite formula was requested but the weight exponent is not an integer."""


class IntegerBetaError(ToolkitError):
    """A formula meant for non-integer weight exponents was called with an integer one."""


class DimMismatchError(ToolkitError):
    """Matrix or vector dimensions do not agree."""


class NotAnEigenvectorError(ToolkitError):
    """A claimed eigenpair fails its residual check."""


class EscapedDiskError(ToolkitError):
    """An orbit left the closed unit disk; the symbol is not a valid self-map."""


class ExponentOutOfRangeError(ToolkitError):
    """The requested power function does not belong to the space."""
