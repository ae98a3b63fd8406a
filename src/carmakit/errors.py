"""Exception types shared across the package."""


class CarmakitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CarmakitError, ValueError):
    """Matrix or model dimensions are inconsistent."""


class ModelFileError(CarmakitError, ValueError):
    """A model file could not be parsed (bad JSON, bad rational literal,
    unknown or missing fields)."""


class OutOfRange(CarmakitError, ValueError):
    """A well-formed input or result out of range; README's "Exit codes"
    section lists the causes (exit 2)."""


class DegenerateTransferFunction(CarmakitError):
    """The requested construction is undefined for this transfer function;
    base of :class:`ZeroTransferFunction` and :class:`NotStrictlyProper`."""


class ZeroTransferFunction(DegenerateTransferFunction):
    """Canonical realizations of the identically-zero transfer function are
    rejected; build a trivial model explicitly instead."""


class NotStrictlyProper(DegenerateTransferFunction):
    """Some entry has numerator degree >= denominator degree, so no
    feedthrough-free realization exists."""


class UnstableModel(CarmakitError):
    """Unstable drift: the drift matrix has an eigenvalue with nonnegative
    real part (``simulate.stability_check`` is False) where the operation
    requires asymptotic stability (stationary initialization), or where a
    one-step covariance or a simulated path overflows; the same overflow on
    a stable drift is :class:`OutOfRange`."""


class PoleOnEvaluationAxis(CarmakitError):
    """Spectral density requested at a frequency where the transfer function
    has a pole on the imaginary axis, or so near one that the density
    overflows even with the covariance scaled to largest entry 1."""
