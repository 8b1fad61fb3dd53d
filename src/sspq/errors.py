"""Exception types shared across the package, which raises only these, its two argument checks and its finiteness check."""

import math
from numbers import Real

import numpy as np


class SspqError(Exception):
    """Base class for all sspq errors."""


class LengthMismatchError(SspqError):
    """Two vectors that must have equal length do not."""


class ShapeMismatchError(SspqError):
    """Two arrays that must have compatible shapes do not."""


class IndivisibleDimensionError(SspqError):
    """Vector dimension is not an exact multiple of the subspace count."""


class EmptyInputError(SspqError):
    """An operation received zero input points."""


class EmptyGalleryError(SspqError):
    """Search requested against an empty gallery."""


class EmptyRelevantSetError(SspqError):
    """Average precision requested with no relevant items."""


class MissingLabelsError(SspqError):
    """Label coverage is incomplete for the given embeddings, or a label is not an integer."""


class ZeroTargetProbabilityError(SspqError):
    """KL divergence is infinite: target assigns zero mass where the source does not."""


class NonPowerOfTwoKError(SspqError):
    """Centroid count must be a power of two for code-size accounting."""


class BadConfigError(SspqError):
    """Configuration values violate a precondition."""


class NonFiniteInputError(SspqError):
    """Input points, or values about to be written, hold a NaN or an infinity."""


class FormatError(SspqError):
    """A binary or CSV artifact is malformed."""


class InvariantError(SspqError):
    """A value breaks an invariant its container declares, such as unit-norm rows."""


def shown(value) -> str:
    """``repr(value)``, or an int's sign and bit length where Python refuses to print its digits."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ``BadConfigError`` unless ``value`` is an int or NumPy integer >= ``low``, and <= ``high`` if given, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low or (high is not None and value > high):
        raise BadConfigError(f"{name} must be an int >= {low}{'' if high is None else f' and <= {high}'}, got {shown(value)}")


def check_real(name: str, value, positive: bool) -> float:
    """Return ``value`` as a float, or raise ``BadConfigError`` unless it is a real number, not a bool,
    whose float is finite and > 0 if ``positive`` else >= 0. A float keeps its bits."""
    try:
        number = float(value) if isinstance(value, Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int or a fraction beyond float range
        number = math.inf
    if not math.isfinite(number) or not (number > 0 if positive else number >= 0):
        raise BadConfigError(f"{name} must be a finite real number {'>' if positive else '>='} 0, got {shown(value)}")
    return number


def check_finite(values: np.ndarray, message: str) -> None:
    """Raise ``NonFiniteInputError(message)`` if the float array ``values`` holds a NaN or an infinity.

    A NaN or an infinity makes the sum non-finite, and summing needs no
    temporary of the array's size, so the element-wise test runs only when the
    sum is not finite, which finite values whose sum overflows also give.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not np.isfinite(total) and not np.isfinite(values).all():
        raise NonFiniteInputError(message)
