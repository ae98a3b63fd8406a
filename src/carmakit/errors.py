"""Exception types shared across the package."""


class CarmakitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CarmakitError, ValueError):
    """Matrix or model dimensions are inconsistent."""


class ModelFileError(CarmakitError, ValueError):
    """A model file could not be parsed (bad JSON, bad rational literal,
    unknown or missing fields)."""


class OutOfRange(CarmakitError, ValueError):
    """A well-formed input or result out of range: a model entry,
    transfer-function coefficient or noise covariance beyond the double
    range (a model entry is refused before any random draw), a grid whose
    last time overflows, a driver covariance whose spectral density
    overflows on a model with no pole there, a one-step covariance or a
    simulated path that overflows on a drift that
    ``simulate.stability_check`` calls stable (the path only through its
    step), a stable drift whose stationary covariance's Lyapunov solve
    misses its residual tolerance, a non-finite output handed to
    ``simulate.SamplePath``, an exact result with more digits than the
    interpreter converts to a string, or a run whose largest array (a
    model's steps x max(N, d) states or outputs, the increments, the jump
    sizes), or a spectrum whose densities (2 d^2 floats a frequency), would
    hold more than ``simulate.MAX_PATH_VALUES`` floats."""


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
