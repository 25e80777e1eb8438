"""Exception types shared across the package, and the one check every
layer applies to a whole or finite real number it is given."""

import math
import numbers


class TosdaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(TosdaError, ValueError):
    """An argument is outside its documented domain."""


class GeometryInconsistencyError(TosdaError, ValueError):
    """A requested geometry is self-contradictory (duplicate positions,
    cardinality mismatch, overlapping sub-arrays).

    ``segments`` optionally carries the offending segment description.
    """

    def __init__(self, message, segments=None):
        super().__init__(message)
        self.segments = segments


class UnsupportedSizeError(TosdaError, ValueError):
    """A sensor count below the variant's feasible minimum was requested."""

    def __init__(self, message, minimum=None):
        super().__init__(message)
        self.minimum = minimum


class ArrayFileError(TosdaError, ValueError):
    """An array position file could not be read."""


class ArrayParseError(ArrayFileError):
    """The file is not syntactically valid (bad JSON, missing keys)."""


class ArrayValidationError(ArrayFileError):
    """The file parsed but its content violates array invariants."""


class CapacityExceededError(TosdaError, ValueError):
    """More sources requested than the virtual array can resolve."""


class InternalConsistencyError(TosdaError, RuntimeError):
    """Two views of the same quantity disagree; indicates a bug or a
    corrupted intermediate, never bad user input."""


def whole_number(value, name: str = "value") -> int:
    """``value`` as an int when it is a number with no fractional part.

    Bools, non-numbers (numeric strings too) and non-whole values raise
    instead of truncating; the message names the argument as ``name``.
    """
    if type(value) is int:  # the common case, kept cheap for hot constructors
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InvalidParameterError(f"{name} must be a whole number, got {value!r}")


def real_number(value, name: str = "value") -> float:
    """``value`` as a float when it is a finite real number.

    Bools, non-numbers (numeric strings too) and non-finite values raise
    instead of converting, and so does an int too large for a float; the
    message names the argument as ``name``.
    """
    if type(value) is float and math.isfinite(value):  # the common case, kept cheap
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond float range
            pass
    raise InvalidParameterError(f"{name} must be a finite real number, got {value!r}")
