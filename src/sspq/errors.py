"""Exception types shared across the package, which raises only these, and its one seed check."""

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
    """Label coverage is incomplete for the given embeddings."""


class ZeroTargetProbabilityError(SspqError):
    """KL divergence is infinite: target assigns zero mass where the source does not."""


class NonPowerOfTwoKError(SspqError):
    """Centroid count must be a power of two for code-size accounting."""


class StepOutOfRangeError(SspqError):
    """Schedule step index outside [0, total_steps]."""


class BadDimensionError(SspqError):
    """A layer or embedding dimension is invalid."""


class BadConfigError(SspqError):
    """Configuration values violate a precondition."""


class NonFiniteInputError(SspqError):
    """Input points, or values about to be written, hold a NaN or an infinity."""


class FormatError(SspqError):
    """A binary or CSV artifact is malformed."""


class InvariantError(SspqError):
    """A value breaks an invariant its container declares, such as unit-norm rows."""


def check_seed(seed) -> None:
    """Raise ``BadConfigError`` unless ``seed`` is an int or NumPy integer >= 0, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadConfigError(f"seed must be an int >= 0, got {seed!r}")
