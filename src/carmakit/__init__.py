"""Exact realization theory and simulation for Levy-driven linear state
space models.

The package splits into four layers:

* :mod:`carmakit.exactalg` -- rational scalars, polynomials, polynomial and
  rational-function matrices, the fraction-free resolvent computation
  everything else is built on, and exact Markov parameters.
* :mod:`carmakit.realization` -- transfer functions, observer and controller
  canonical forms, matrix fraction descriptions, and exact equivalence.
* :mod:`carmakit.simulate` -- seeded path simulation (exact Gaussian step,
  shared-increment Euler, compound Poisson), stationary second-order
  statistics and spectral densities.
* :mod:`carmakit.cli` -- the ``carmakit`` command-line tool and its JSON/CSV
  file formats.
"""

import importlib

from .errors import (
    CarmakitError,
    DegenerateTransferFunction,
    DimensionMismatch,
    ModelFileError,
    NotStrictlyProper,
    OutOfRange,
    PoleOnEvaluationAxis,
    UnstableModel,
    ZeroTransferFunction,
)
from .exactalg import (
    Poly,
    PolyMatrix,
    RationalFunction,
    RationalMatrix,
    TransferFunction,
    format_rational,
    parse_rational,
    poly_gcd,
    ratmat_equal,
    ratmat_reduce,
    resolvent_numerator,
)
from .realization import (
    CanonicalRealization,
    McarmaSpec,
    MfdPair,
    StateSpaceModel,
    assemble_observer_ss,
    controller_realization,
    observer_realization,
    tf_equivalent,
    tf_match,
    transfer_function,
)

# Names of carmakit.simulate, which imports numpy and scipy.  They load on
# first access, so the exact layers and CLI commands start without either.
_SIMULATE_NAMES = (
    "FixedAtomJumps",
    "GaussianJumps",
    "LevyDriverSpec",
    "SamplePath",
    "SimulationConfig",
    "draw_compound_poisson_jumps",
    "empirical_autocov",
    "gaussian_step_params",
    "simulate_brownian",
    "simulate_compound_poisson",
    "simulate_compound_poisson_pair",
    "simulate_shared_brownian_pair",
    "spectral_density",
    "stability_check",
    "stationary_covariance",
    "theoretical_autocov",
)

__all__ = [
    "CarmakitError",
    "DegenerateTransferFunction",
    "DimensionMismatch",
    "ModelFileError",
    "NotStrictlyProper",
    "OutOfRange",
    "PoleOnEvaluationAxis",
    "UnstableModel",
    "ZeroTransferFunction",
    "Poly",
    "PolyMatrix",
    "RationalFunction",
    "RationalMatrix",
    "TransferFunction",
    "format_rational",
    "parse_rational",
    "poly_gcd",
    "ratmat_equal",
    "ratmat_reduce",
    "resolvent_numerator",
    "CanonicalRealization",
    "McarmaSpec",
    "MfdPair",
    "StateSpaceModel",
    "assemble_observer_ss",
    "controller_realization",
    "observer_realization",
    "tf_equivalent",
    "tf_match",
    "transfer_function",
    *_SIMULATE_NAMES,
]

__version__ = "0.1.0"


def __getattr__(name):
    """Import ``carmakit.simulate`` when one of its names is first used."""
    if name != "simulate" and name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    simulate = importlib.import_module(".simulate", __name__)
    globals().update((n, getattr(simulate, n)) for n in _SIMULATE_NAMES)
    return globals()[name]
