"""Exception types shared across the package, and the shared checks."""
import math
import numbers


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class LoadError(ValueError):
    """Malformed or inconsistent input file."""


class AccuracyError(RuntimeError):
    """A numerical routine could not meet its requested tolerance.  The
    message carries the achieved error estimate."""


def check_integers(**values):
    """DomainError naming the first value that is not an integer (numpy
    integers count, bools do not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")


def check_tolerance(name: str, value: float):
    """DomainError unless value is a positive finite number."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value}")
