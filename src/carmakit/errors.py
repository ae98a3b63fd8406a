"""Exception types shared across the package."""


class CarmakitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CarmakitError, ValueError):
    """Matrix or model dimensions are inconsistent."""


class ModelFileError(CarmakitError, ValueError):
    """A model file could not be parsed (bad JSON, bad rational literal,
    unknown or missing fields)."""


class OutOfRange(CarmakitError, ValueError):
    """A well-formed input beyond the double range (a grid whose last time
    overflows included, and a driver covariance whose spectral density or
    one-step covariance overflows on a model with no pole there or a stable
    drift), an exact result with more digits than the interpreter converts
    to a string, a compound Poisson path expecting more than
    ``simulate.MAX_EXPECTED_JUMPS`` jumps, or a path whose largest array
    would hold more than ``simulate.MAX_PATH_VALUES`` floats."""


class DegenerateTransferFunction(CarmakitError):
    """The requested construction is undefined for this transfer function;
    base of :class:`ZeroTransferFunction`, the case carmakit raises."""


class ZeroTransferFunction(DegenerateTransferFunction):
    """Canonical realizations of the identically-zero transfer function are
    rejected; build a trivial model explicitly instead."""


class NotStrictlyProper(CarmakitError):
    """Some entry has numerator degree >= denominator degree, so no
    feedthrough-free realization exists."""


class UnstableModel(CarmakitError):
    """Unstable drift: the drift matrix has an eigenvalue with nonnegative
    real part where the operation requires asymptotic stability (stationary
    initialization), the drift is so ill-conditioned that the stationary
    covariance's Lyapunov solve misses its residual tolerance, or a simulated
    path overflows."""


class PoleOnEvaluationAxis(CarmakitError):
    """Spectral density requested at a frequency where the transfer function
    has a pole on the imaginary axis, or so near one that the density
    overflows even with the covariance scaled to largest entry 1."""
