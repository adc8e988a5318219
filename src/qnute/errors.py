"""Exception types shared across the package; each derives from UsageError or NumericalError."""


class QnuteError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(QnuteError):
    """The request is malformed or too large for this package; the CLI exits 2."""


class NumericalError(QnuteError):
    """A computation failed on the numbers it met during a run; the CLI exits 3."""


class DimensionMismatchError(UsageError):
    """Operands act on registers of different sizes."""


class CapacityError(UsageError):
    """Requested dense matrix or fit basis exceeds its desk-scale memory guard."""


class DegenerateInputError(NumericalError):
    """Input vector carries no usable signal (e.g. all zeros)."""


class StepSizeError(NumericalError):
    """Scale-factor radicand is non-positive; the time step is too large."""


class SingularSystemError(NumericalError):
    """Every eigenvalue of the fitting system fell below the cutoff."""


class InvalidDomainError(UsageError):
    """Unitary domain size is incompatible with the register."""


class UnsupportedSizeError(UsageError):
    """Construction is undefined at this register size."""


class ProtocolFailureError(NumericalError):
    """Both grid boundaries are degenerate; the rescaling protocol fails."""


class RescaleDegeneracyError(NumericalError):
    """Boundary amplitude of the state is too small to divide by."""


class ConfigError(UsageError):
    """Run configuration is malformed; the message names the offending field."""
