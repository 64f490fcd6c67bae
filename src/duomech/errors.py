"""Exception types shared across the package, each a :class:`DuomechError`
that keeps its ``ValueError`` or ``RuntimeError`` base, and the one check of
a number taken as input."""

import math
import numbers

__all__ = [
    "DuomechError",
    "ConfigError",
    "StabilityError",
    "PhysicalityError",
    "UnsupportedBranchError",
    "BracketError",
]


class DuomechError(Exception):
    """Base of every error the package raises on purpose."""


class ConfigError(DuomechError, ValueError):
    """Invalid parameter set, config file entry, or command-line request."""


class StabilityError(DuomechError, RuntimeError):
    """Drift matrix is not strictly stable where a steady state is required."""


class PhysicalityError(DuomechError, ValueError):
    """Covariance matrix (or derived quantity) violates the uncertainty bound."""


class UnsupportedBranchError(DuomechError, ValueError):
    """Input falls outside the covariance-matrix branch this formula covers."""


class BracketError(DuomechError, ValueError):
    """Root bracket does not enclose a sign change of the target indicator."""


def _check_number(name, value, minimum=None, positive=False, integer=False) -> None:
    """Raise a ConfigError that names ``name`` unless ``value`` is an integer
    if ``integer``, else a real number within float range; not a bool; and
    finite and > 0 if ``positive``, else finite and >= ``minimum`` if given."""
    # the abstract-class check is the slow part, and a float passes it
    if (integer or type(value) is not float) and (isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real)):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a real number'}, "
                          f"got {value!r}")
    if not integer and type(value) is not float:
        try:
            float(value)
        except OverflowError:   # an int or a Fraction beyond 1.8e308
            raise ConfigError(f"{name} must be a real number within float range") from None
    if positive and not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")
    if not positive and minimum is not None and not minimum <= value < math.inf:
        finite = "" if integer else "finite and "
        raise ConfigError(f"{name} must be {finite}>= {minimum:g}, got {value!r}")
