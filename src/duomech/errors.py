"""Exception types shared across the package: each is a :class:`DuomechError`
and keeps its ``ValueError`` or ``RuntimeError`` base."""


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
