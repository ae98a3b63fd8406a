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

The package top level re-exports the exact layer only: ``import carmakit``
and ``from carmakit import *`` need neither numpy nor scipy.  Simulation is
imported from :mod:`carmakit.simulate`, which loads numpy, and scipy when a
simulation first runs.
"""

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
]

__version__ = "0.1.0"

