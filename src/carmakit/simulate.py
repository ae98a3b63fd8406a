"""Simulation of Levy-driven linear state space models.

The model is dX = A X dt + B dL, Y = C X.  Exact rational model entries are
converted to double precision once, on entry to this module; everything
downstream is floating point.

Grid convention: a path with n steps of size h is reported at t_k = k*h for
k = 0..n-1, so the first row is the initial state's output.  Every path
starts from the zero state, except a Brownian run with ``init="stationary"``,
whose start is drawn from the stationary law.  A path stops at the first
chunk of ``PATH_CHUNK`` rows with a non-finite output, and a run needing
over ``MAX_PATH_VALUES`` floats in one array, a model's steps x max(N, d)
states or outputs and the jump sizes included, is refused: a one-state run
at that cap peaked at 0.42-1.46 GB (tracemalloc).

Randomness is drawn from numpy's PCG64 generator through a fixed
stream-splitting rule: the run seed spawns four independent child streams,

    0: initial state draw (a stationary Brownian start),
    1: Gaussian increments (Brownian drivers),
    2: jump times (compound Poisson),
    3: jump sizes (compound Poisson),

so any simulation consumes an identical random layout regardless of which
streams it actually uses.  Identical (model, driver, config) therefore gives
bit-identical paths.

Two drivers are implemented.  Brownian motion admits an exact one-step
Gaussian discretization (state transition e^{Ah} plus an increment whose
covariance is the integrated noise response).  A compound Poisson path can
be simulated exactly jump by jump, which makes it the sharp instrument for
checking that two realizations of the same transfer function generate the
same output pathwise.

numpy is imported with the module; scipy only when a computation first
needs its matrix exponential or Lyapunov solver, so spectral densities, the
shared-increment Euler pair and CSV writing run on numpy alone.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (DimensionMismatch, OutOfRange, PoleOnEvaluationAxis,
                     UnstableModel)
from .exactalg import TransferFunction
from .realization import StateSpaceModel

STABILITY_MARGIN = -1e-10
PSD_FLOOR = -1e-12
LYAPUNOV_RTOL = 1e-10
MAX_PATH_VALUES = 10**7        # floats in one state, output or jump
                               # array; a one-state run at the cap peaks
                               # at 0.4-1.5 GB
PATH_CHUNK = 1024              # rows per recorded chunk and CSV block, flow
                               # intervals per stacked expm window, jumps
                               # per stack of their B dL, and slices per
                               # Pade work array


def _as_float(matrix) -> np.ndarray:
    try:
        return np.array([[float(x) for x in row] for row in matrix], dtype=float)
    except OverflowError as exc:
        raise OutOfRange(f"model entry: {exc}") from exc


def ss_to_float(ss: StateSpaceModel):
    """The (A, B, C) triple as float arrays; the single exact-to-float boundary."""
    return _as_float(ss.a), _as_float(ss.b), _as_float(ss.c)


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of one matrix or of a stack of them, each slice
    with the bits of a separate ``scipy.linalg.expm`` call; scipy is imported
    on the first call.

    ``scipy.linalg.expm`` loops over the slices in Python and checks each
    one's bandwidth through its batch wrapper.  Here the generic float
    slices, those with a nonzero entry both below and above the diagonal,
    run straight through scipy's own Pade kernels, as ``scipy.linalg.expm``
    runs them, once a one-time probe (:func:`_pade_kernels`) has found that
    they reproduce it: ``PATH_CHUNK`` slices at a time on one stacked work
    array (:func:`_pade_exponentials`).  All other slices (diagonal,
    triangular or zero) go to ``scipy.linalg.expm`` in one stacked call.
    Without the kernels, the whole array does."""
    from scipy.linalg import expm as scipy_expm
    kernels = _pade_kernels()
    a = np.asarray(a)
    if (kernels is None or a.dtype != np.float64 or a.ndim < 2 or a.size == 0
            or a.shape[-1] != a.shape[-2]):
        return scipy_expm(a)
    stack = a.reshape(-1, *a.shape[-2:])
    generic = (np.tril(stack, -1).any(axis=(1, 2))
               & np.triu(stack, 1).any(axis=(1, 2)))
    if not generic.any():
        return scipy_expm(a)
    out = np.empty(stack.shape)
    if not generic.all():
        out[~generic] = scipy_expm(stack[~generic])
    slices = np.flatnonzero(generic)
    for lo in range(0, slices.size, PATH_CHUNK):
        chunk = slices[lo:lo + PATH_CHUNK]
        out[chunk], failed = _pade_exponentials(kernels, stack[chunk])
        for i in chunk[failed]:
            out[i] = scipy_expm(stack[i])   # raises scipy's own error
    return out.reshape(a.shape)


# A generic matrix whose exponential takes six squarings after the Pade step.
_PADE_PROBE = ((-50.0, 400.0, 3.0), (1.0, -20.0, 900.0), (2.0, 0.5, -5.0))


@functools.cache
def _pade_kernels():
    """scipy's Pade kernels ``(pick_pade_structure, pade_UV_calc)`` if they
    reproduce ``scipy.linalg.expm`` bit for bit on ``_PADE_PROBE``, else None;
    decided once per process.

    They live in the private module ``scipy.linalg._matfuncs_expm``.  A
    release without them, with other signatures, or that scales the matrix
    outside ``pick_pade_structure`` fails the probe, and :func:`expm` then
    leaves every slice to ``scipy.linalg.expm``."""
    from scipy.linalg import expm as scipy_expm
    try:
        from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure
        kernels = (pick_pade_structure, pade_UV_calc)
        probe = np.array([_PADE_PROBE])
        exps, failed = _pade_exponentials(kernels, probe)
        if not failed and exps[0].tobytes() == scipy_expm(probe[0]).tobytes():
            return kernels
    except (ImportError, TypeError):
        pass
    return None


def _pade_exponentials(kernels, stack: np.ndarray):
    """(exps, failed): exps[i] = e^{stack[i]} the way scipy 1.17's ``expm``
    treats a generic slice, and the indices at which a kernel reports an
    error (their exps rows are garbage).

    The stack is copied in one assignment into slot 0 of a (k, 5, n, n)
    work array.  Each slice's (5, n, n) block takes the Pade approximant of
    the scaled matrix in place, then s squarings ``e @ e`` written back over
    slot 0, and exps is the view of slot 0."""
    pick_pade_structure, pade_uv_calc = kernels
    work = np.empty((len(stack), 5, *stack.shape[1:]))
    work[:, 0] = stack
    failed = []
    for i, block in enumerate(work):
        m, s = pick_pade_structure(block)
        if m < 0 or pade_uv_calc(block, m) != 0:
            failed.append(i)
        elif s:
            e = block[0]
            for _ in range(s):
                np.matmul(e, e, out=e)
    return work[:, 0], failed


def _is_count(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Driver and run configuration
# ---------------------------------------------------------------------------

@dataclass
class GaussianJumps:
    """Jump sizes drawn i.i.d. from N(mean, cov)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("jump mean must be finite")
        self.cov = _require_psd(self.cov, "jump covariance")
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise DimensionMismatch("jump mean and covariance sizes disagree")

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        z = rng.standard_normal((count, self.dim))
        return self.mean + z @ _psd_factor(self.cov).T


@dataclass
class FixedAtomJumps:
    """Jump sizes drawn from a finite list of vectors with given probabilities."""

    atoms: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=float)
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.atoms.ndim != 2 or not len(self.atoms) or self.probabilities.ndim != 1:
            raise ValueError("atoms must be a non-empty 2-D array, probabilities 1-D")
        if len(self.atoms) != self.probabilities.size:
            raise DimensionMismatch("one probability per atom required")
        if not (np.all(np.isfinite(self.atoms))
                and np.all(np.isfinite(self.probabilities))):
            raise ValueError("atoms and their probabilities must be finite")
        if np.any(self.probabilities < 0):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1 within 1e-12")

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        idx = rng.choice(len(self.atoms), size=count, p=self.probabilities)
        return self.atoms[idx]


JumpDistribution = Union[GaussianJumps, FixedAtomJumps]


@dataclass
class LevyDriverSpec:
    """Compound Poisson driver: jump rate per unit time and jump-size law.
    (A Brownian driver is given by its covariance matrix alone.)"""

    rate: float
    jumps: JumpDistribution

    def __post_init__(self):
        self.rate = float(self.rate)
        if not self.rate > 0:
            raise ValueError("jump rate must be positive")

    @classmethod
    def compound_poisson(cls, rate, jumps: JumpDistribution) -> "LevyDriverSpec":
        return cls(rate=rate, jumps=jumps)


@dataclass(frozen=True)
class SimulationConfig:
    """Grid, seed and initialization for one simulation run.

    ``init`` is "zero" or "stationary"; only the Brownian path takes a
    stationary start.  ``euler_substeps`` only matters for the
    shared-increment Euler runs.
    """

    step_size: float
    steps: int
    seed: int
    init: str = "zero"
    euler_substeps: int = 1

    def __post_init__(self):
        if (isinstance(self.step_size, bool)
                or not isinstance(self.step_size, numbers.Real)):
            raise ValueError(
                f"step_size must be a real number, got {self.step_size!r}")
        if not self.step_size > 0:
            raise ValueError("step size must be positive")
        if not _is_count(self.steps):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("need at least one step")
        try:
            last = (self.steps - 1) * self.step_size
        except OverflowError:       # more steps than a double can count
            last = math.inf
        if not math.isfinite(last):
            raise OutOfRange(f"the grid of {self.steps} steps of "
                             f"{self.step_size!r} ends past the double range")
        if self.init not in ("zero", "stationary"):
            raise ValueError("init must be 'zero' or 'stationary'")
        if not _is_count(self.euler_substeps):
            raise ValueError("euler_substeps must be an integer, "
                             f"got {self.euler_substeps!r}")
        if self.euler_substeps < 1:
            raise ValueError("euler_substeps must be at least 1")
        if not _is_count(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def streams(self):
        """The four child generators in the documented order."""
        children = np.random.SeedSequence(self.seed).spawn(4)
        return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


@dataclass
class SamplePath:
    """Output trajectory on the sampling grid.  Non-finite outputs are
    refused with ``OutOfRange``: the container has no drift, so only
    ``_record_path`` classifies a simulated path's overflow by its drift."""

    times: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
        if self.outputs.ndim == 1:
            self.outputs = self.outputs[:, None]
        if self.outputs.shape[0] != self.times.size:
            raise DimensionMismatch("one output row per grid time required")
        message = _overflow_message(self.times, self.outputs)
        if message is not None:
            raise OutOfRange(message)

    @property
    def d(self) -> int:
        return self.outputs.shape[1]

    def to_csv(self, path) -> None:
        """Write `t,y1,...,yd` rows with 17-significant-digit floats."""
        write_csv(path, ["t", *(f"y{i + 1}" for i in range(self.d))],
                  self.times, self.outputs)


def write_csv(path, header: Sequence[str], *columns) -> None:
    """Write a header line, then one row per entry of the equally long
    float columns (1-D arrays, or 2-D arrays of several columns), every cell
    as ``%.17g``.  Rows are formatted and written ``PATH_CHUNK`` at a time,
    so no more than one block of text is held; each block is one ``%`` of
    the row template, repeated once per row, on the block's values."""
    rows = len(columns[0])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        row = ",".join(["%.17g"] * len(header)) + "\n"
        for lo in range(0, rows, PATH_CHUNK):
            block = np.column_stack([col[lo:lo + PATH_CHUNK] for col in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# PSD utilities
# ---------------------------------------------------------------------------

def _require_psd(mat, label: str) -> np.ndarray:
    """mat as a float array; ValueError unless it is finite, symmetric, PSD."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{label} must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{label} must be finite")
    unit = mat / _magnitude(mat)    # checked at unit scale, where no sum overflows
    if np.max(np.abs(unit - unit.T)) > 1e-12:
        raise ValueError(f"{label} must be symmetric")
    eigmin = float(np.linalg.eigvalsh((unit + unit.T) / 2).min()) if mat.size else 0.0
    if eigmin < PSD_FLOOR:
        raise ValueError(f"{label} must be positive semidefinite")
    return mat


def _magnitude(mat: np.ndarray) -> float:
    """max(1, largest |entry|) of a finite array."""
    return max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)


def _sym_eigh(mat: np.ndarray):
    """(sym, w, v): the symmetric part of mat and its eigendecomposition."""
    sym = (mat + mat.T) / 2
    w, v = np.linalg.eigh(sym)
    return sym, w, v


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """A factor L = V sqrt(max(W, 0)) with L L^T = mat (eigenvalues clamped at
    zero), from the eigendecomposition V W V^T of mat's symmetric part; L is
    not symmetric.  Seeded Gaussian draws go through this exact factor."""
    _, w, v = _sym_eigh(mat)
    return v * np.sqrt(np.clip(w, 0.0, None))


def _clamp_psd(mat: np.ndarray) -> np.ndarray:
    sym, w, v = _sym_eigh(mat)
    if w.min() >= 0:
        return sym
    return (v * np.clip(w, 0.0, None)) @ v.T


# ---------------------------------------------------------------------------
# Stability and second-order structure
# ---------------------------------------------------------------------------

def _driver_covariance(sigma_l, m: int) -> np.ndarray:
    """sigma_l as a float array; ``DimensionMismatch`` unless it is m x m,
    then ``ValueError`` unless it is finite, symmetric and PSD."""
    sigma_l = np.asarray(sigma_l, dtype=float)
    if sigma_l.shape != (m, m):
        raise DimensionMismatch(
            f"driver covariance must be {m}x{m} to match the model input")
    return _require_psd(sigma_l, "driver covariance")


def _gaussian_model(ss: StateSpaceModel, sigma_l):
    """(A, B, C, Q): the model as floats and Q = B Sigma B^T, once Sigma has
    passed :func:`_driver_covariance`; ``OutOfRange`` if Q overflows.  The
    one entry to the kernels :func:`_lyapunov` and :func:`_one_step`."""
    sigma_l = _driver_covariance(sigma_l, ss.m)
    a, b, c = ss_to_float(ss)
    with _overflow_quiet():
        q = b @ sigma_l @ b.T
    if not np.all(np.isfinite(q)):
        raise OutOfRange("noise covariance B Sigma B^T beyond the double range")
    return a, b, c, q


def stability_check(ss: StateSpaceModel) -> bool:
    """True iff every eigenvalue of A has real part below -1e-10."""
    return _is_stable(_as_float(ss.a))


def _is_stable(a: np.ndarray) -> bool:
    """:func:`stability_check` on a float drift."""
    return bool(np.all(np.linalg.eigvals(a).real < STABILITY_MARGIN))


def _overflow(a: np.ndarray, message: str) -> Exception:
    """The error for a float result that overflows on the float drift ``a``:
    ``OutOfRange`` if the drift is stable, so that only the step or the
    range of doubles is at fault, and ``UnstableModel`` otherwise."""
    return (OutOfRange if _is_stable(a) else UnstableModel)(message)


def stationary_covariance(ss: StateSpaceModel, sigma_l) -> np.ndarray:
    """Stationary state covariance: the solution of A S + S A^T = -B Sigma B^T.

    Raises ``UnstableModel`` for a drift that :func:`stability_check` calls
    unstable, and ``OutOfRange`` when B Sigma B^T overflows or the float
    Lyapunov solve of a stable drift misses the residual tolerance."""
    a, _, _, q = _gaussian_model(ss, sigma_l)
    return _lyapunov(a, q)


def _lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`stationary_covariance` on a float drift and noise covariance."""
    if not _is_stable(a):
        raise UnstableModel("stationary covariance requires a stable drift")
    from scipy.linalg import solve_continuous_lyapunov

    with warnings.catch_warnings():  # the residual check below is the guard
        warnings.simplefilter("ignore", RuntimeWarning)
        s = solve_continuous_lyapunov(a, -q)
    s = (s + s.T) / 2
    scale = _magnitude(q)           # residual and tolerance both divided by it
    with _overflow_quiet():
        residual = np.linalg.norm((a @ s + s @ a.T + q) / scale, "fro")
    if not residual <= LYAPUNOV_RTOL * (1 / scale + np.linalg.norm(q / scale, "fro")):
        raise OutOfRange(
            f"Lyapunov solve residual {residual * scale:.3e} exceeds tolerance")
    return s


def gaussian_step_params(ss: StateSpaceModel, sigma_l, h: float):
    """Exact one-step discretization at a step h > 0: (Phi, Sigma_h).

    Phi = e^{Ah} and Sigma_h = integral_0^h e^{Au} B Sigma B^T e^{A^T u} du,
    both read off one matrix exponential of the doubled block matrix
    [[A, B Sigma B^T], [0, -A^T]] * h: with E = expm(...), the top-left block
    is Phi and Sigma_h = E_topright @ Phi^T.

    The -A^T block grows like e^{|Re lambda| h}, so for large ||A h|| the
    block exponential is evaluated at h / 2^s instead and the result doubled
    s times through the exact semigroup relations

        Phi_{2t} = Phi_t Phi_t,    Sigma_{2t} = Phi_t Sigma_t Phi_t^T + Sigma_t,

    which keeps every intermediate bounded.  Sigma_h is symmetrized and its
    spectrum clamped at zero before use as a covariance; if it overflows all
    the same, ``OutOfRange`` is raised for a drift that :func:`stability_check`
    calls stable, and ``UnstableModel`` otherwise.
    """
    a, _, _, q = _gaussian_model(ss, sigma_l)
    if not h > 0:
        raise ValueError("step size must be positive")
    return _one_step(a, q, h)


def _one_step(a: np.ndarray, q: np.ndarray, h: float):
    """:func:`gaussian_step_params` on a float drift and noise covariance."""
    n = a.shape[0]
    scaled = float(np.linalg.norm(a, 2)) * h
    if not math.isfinite(scaled):
        raise OutOfRange(f"drift norm times step size {h:.6g} overflows")
    squarings = max(0, math.ceil(math.log2(scaled / 4.0))) if scaled > 4.0 else 0
    dt = h / (1 << squarings)

    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = q
    block[n:, n:] = -a.T
    with _overflow_quiet():
        e = expm(block * dt)
        phi = e[:n, :n]
        sigma = e[:n, n:] @ phi.T
        for _ in range(squarings):
            sigma = phi @ sigma @ phi.T + sigma
            sigma = (sigma + sigma.T) / 2
            phi = phi @ phi
    if not np.all(np.isfinite(sigma)):
        raise _overflow(a, f"one-step covariance overflows at step size {h:.6g}")
    return phi, _clamp_psd(sigma)


def theoretical_autocov(ss: StateSpaceModel, sigma_l, lags: Sequence[float]):
    """Stationary output autocovariances C e^{A tau} Sigma_inf C^T at the
    requested finite, nonnegative time lags.  Raises ``OutOfRange`` for a lag
    whose autocovariance is not finite in double precision."""
    a, _, c, q = _gaussian_model(ss, sigma_l)
    s_inf = _lyapunov(a, q)
    taus = []
    for tau in lags:
        if not 0 <= tau < math.inf:
            raise ValueError("time lags must be nonnegative and finite")
        taus.append(float(tau))
    with _overflow_quiet():
        gammas = [c @ e @ s_inf @ c.T for e in expm(a * np.array(taus)[:, None, None])]
    for tau, gamma in zip(taus, gammas):
        if not np.all(np.isfinite(gamma)):
            raise OutOfRange(f"autocovariance at lag {tau:.6g} beyond the double range")
    return gammas


def empirical_autocov(path: SamplePath, maxlag: int):
    """Biased (divide by n) mean-centered autocovariance estimates.

    Entry ell of the result estimates Cov(Y_{t+ell*h}, Y_t); the lag -ell
    value is its transpose and is not reported separately.
    """
    y = path.outputs
    n = y.shape[0]
    if not _is_count(maxlag) or not 0 <= maxlag < n:
        raise ValueError("maximum lag must be an integer, nonnegative and below "
                         "the number of samples")
    centered = y - y.mean(axis=0)
    return [centered[ell:].T @ centered[:n - ell] / n for ell in range(maxlag + 1)]


def spectral_density(h_tf: TransferFunction, sigma_l, omega: float) -> np.ndarray:
    """f(omega) = H(i omega) Sigma H(i omega)^* / (2 pi), from exact
    coefficients.  Raises ``ValueError`` for an infinite or nan ``omega``."""
    return _spectral_density(h_tf, _driver_covariance(sigma_l, h_tf.cols), omega)


def _spectral_density(h_tf: TransferFunction, sigma_l: np.ndarray,
                      omega: float) -> np.ndarray:
    """:func:`spectral_density` at a Sigma that has already passed
    :func:`_driver_covariance`, so a caller tabulating many frequencies
    checks it once."""
    if not math.isfinite(float(omega)):
        raise ValueError(f"frequency must be finite, got {omega}")
    z = 1j * float(omega)
    try:
        if h_tf.common_den.evaluate(z) == 0:
            raise PoleOnEvaluationAxis(
                f"transfer function has a pole at i*{omega}")
        h = np.array(h_tf.evaluate(z), dtype=complex)
    except OverflowError as exc:
        raise OutOfRange(f"transfer function: {exc}") from exc
    with _overflow_quiet():
        f = h @ sigma_l @ h.conj().T / (2 * math.pi)
        if np.all(np.isfinite(f.view(float))):
            return f
        unit = h @ (sigma_l / _magnitude(sigma_l)) @ h.conj().T
    if np.all(np.isfinite(unit.view(float))):
        raise OutOfRange(f"spectral density at i*{omega} beyond the double range")
    raise PoleOnEvaluationAxis(f"spectral density overflows at i*{omega}")


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------

def _overflow_quiet():
    """Silence numpy's overflow and invalid warnings around a checked result."""
    return np.errstate(over="ignore", invalid="ignore")


def _matvec(rows: int):
    """The product (M, v) -> M @ v, bit for bit, for matrices M of ``rows``
    rows; (M, v, out) writes it into ``out``, a contiguous vector.
    ``ndarray.dot`` reaches the same BLAS routine as ``@`` without its
    gufunc dispatch, at about half the cost per call; only a 1x1 matrix it
    multiplies as a scalar, which gives -0.0 where ``@`` gives +0.0, so a
    one-row matrix keeps ``np.matmul``."""
    return np.matmul if rows == 1 else np.ndarray.dot


def _stacked_products(mat: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The rows mat @ vectors[i], as one stack of matrix-vector products with
    the bits of separate calls (``vectors @ mat.T`` is one matrix product,
    which rounds differently)."""
    return np.matmul(mat, vectors[:, :, None])[:, :, 0]


def _overflow_message(times: np.ndarray, outputs: np.ndarray):
    """The message naming the first time with a non-finite output, or None
    if every output is finite."""
    finite = np.isfinite(outputs).all(axis=1)
    if finite.all():
        return None
    return ("sample path overflows: first non-finite output at "
            f"t={times[np.argmin(finite)]:.17g}")


def _require_path_values(count) -> None:
    if not count <= MAX_PATH_VALUES:    # an int, or a float expectation
        shown = count if _is_count(count) else f"{count:.0f}"
        raise OutOfRange(f"path needs {shown} values in one array, more than "
                         f"MAX_PATH_VALUES = {MAX_PATH_VALUES}")


def _record_path(x0s, cfg: SimulationConfig, advance, models) -> tuple:
    """The one path recorder: one ``SamplePath`` per float model (A, B, C)
    in ``models``, the path of the model whose initial state is the same
    entry of ``x0s``.

    Each model's states go into its own contiguous array, one row per grid
    time, whose row 0 is its initial state.  The rows are filled one chunk
    of ``PATH_CHUNK`` at a time by ``advance(lo, hi, states)``, which writes
    rows lo..hi - 1 of every model's array, stepping from row lo - 1
    (lo >= 1; the range is empty for a one-point grid).  After each chunk,
    each model's outputs C x on it are checked.  The run stops at the end
    of the first chunk in which the first model has a non-finite output.  A
    later model's first such chunk is noted and the run goes on, and at the
    end the first noted error in model order is raised, so each model fails
    as a run of it alone would, and the first model's failure wins.  The
    error is ``UnstableModel`` for an unstable drift A, and ``OutOfRange``
    for a stable one, whose path overflows only through the step: a
    divergent Euler step, or a flow e^{A gap} too long to evaluate.
    """
    n = cfg.steps
    times = np.arange(n) * cfg.step_size
    cs = [c for _, _, c in models]
    states = [np.empty((n, c.shape[1])) for c in cs]
    for rows, x0 in zip(states, x0s):
        rows[0] = x0
    messages = [None] * len(cs)
    with _overflow_quiet():
        for lo in range(0, n, PATH_CHUNK):
            hi = min(lo + PATH_CHUNK, n)
            advance(max(lo, 1), hi, states)
            messages = [_overflow_message(times[lo:hi], s[lo:hi] @ c.T)
                        if m is None else m
                        for m, s, c in zip(messages, states, cs)]
            if messages[0] is not None:
                break
        for message, (a, _, _) in zip(messages, models):
            if message is not None:
                raise _overflow(a, message)
        outputs = [s @ c.T for s, c in zip(states, cs)]
    return tuple(SamplePath(times=times.copy(), outputs=y) for y in outputs)


def simulate_brownian(ss: StateSpaceModel, sigma_l,
                      cfg: SimulationConfig) -> SamplePath:
    """Exact-discretization Gaussian simulation on the sampling grid.

    X_{k+1} = Phi X_k + xi_k with xi_k i.i.d. N(0, Sigma_h); no
    time-discretization bias at the grid points.  X_0 is zero, or for
    ``init == "stationary"`` a draw from stream 0 of the stationary law.

    Each chunk's increments are copied into its rows at once; then each
    row in turn gets Phi X_k, written into a scratch vector by ``_matvec``'s
    out form, added onto it in place, and is the next step's X_k.  A step
    makes one row view, one product and one add.
    """
    a, b, c, q = _gaussian_model(ss, sigma_l)
    _require_path_values(cfg.steps * max(ss.n, ss.d))
    rng_init, rng_gauss, _, _ = cfg.streams()
    phi, sigma_h = _one_step(a, q, cfg.step_size)
    x0 = np.zeros(ss.n)
    if cfg.init == "stationary":
        x0 = _psd_factor(_lyapunov(a, q)) @ rng_init.standard_normal(ss.n)
    with _overflow_quiet():
        increments = (rng_gauss.standard_normal((cfg.steps - 1, ss.n))
                      @ _psd_factor(sigma_h).T)
    product, add = _matvec(ss.n), np.add
    t = np.empty(ss.n)

    def advance(lo, hi, states):
        rows, = states
        rows[lo:hi] = increments[lo - 1:hi - 1]
        prev = rows[lo - 1]
        for row in rows[lo:hi]:
            product(phi, prev, t)
            add(t, row, row)
            prev = row

    path, = _record_path([x0], cfg, advance, [(a, b, c)])
    return path


def _run_models(models, m: int, cfg: SimulationConfig, values: int = 0) -> list:
    """The float (A, B, C) of every model of a run from the zero state on
    one m-input driver, checked before anything is drawn, so whatever the
    seed: every model takes m inputs, the start is zero, neither a model's
    states or outputs (steps x max(N, d)) nor the run's other largest array
    (``values``) is over the size cap, and every model converts."""
    if any(ss.m != m for ss in models):
        raise DimensionMismatch(
            f"every model must have the driver's input dimension m = {m}")
    if cfg.init != "zero":
        raise ValueError("only simulate_brownian takes a stationary start")
    _require_path_values(max(values, *(cfg.steps * max(ss.n, ss.d)
                                       for ss in models)))
    return [ss_to_float(ss) for ss in models]


def simulate_shared_brownian_pair(ss1: StateSpaceModel, ss2: StateSpaceModel,
                                  sigma_l, cfg: SimulationConfig):
    """Euler-Maruyama on a fine grid with one shared increment stream.

    The exact Gaussian step cannot be shared between realizations (its
    increment distribution depends on B), so the pairwise comparison feeds
    the same fine-grid Brownian increments dL_i to both models, from the zero
    state.  The Euler output is then a function of the Markov parameters
    C A^k B alone, so equivalent models give equal paths in exact arithmetic
    at every ``euler_substeps``, and a float gap at rounding level.

    Each fine step is x = x + dt (A x) + B dL_i, and the two models take it
    in lockstep on one state x = [x_1; x_2] (see ``_euler_paths``), with the
    IEEE operations of a separate run of each, so each path has the bits of
    that run.  Both models are checked by :func:`_run_models` before the
    draw.  If both paths overflow, model 1's error is raised.
    """
    sigma_l = _driver_covariance(sigma_l, ss1.m)
    sub = cfg.euler_substeps
    fine_steps = (cfg.steps - 1) * sub
    # the increments, and one chunk's B dL_i rows of both models
    scratch = max(fine_steps * ss1.m,
                  min(fine_steps, PATH_CHUNK * sub) * (ss1.n + ss2.n))
    first, second = _run_models((ss1, ss2), ss1.m, cfg, scratch)
    _, rng_gauss, _, _ = cfg.streams()
    dl = (rng_gauss.standard_normal((fine_steps, ss1.m))
          @ _psd_factor(sigma_l).T)
    dl *= math.sqrt(cfg.step_size / sub)
    return _euler_paths(first, second, dl, cfg)


def _euler_paths(first, second, dl: np.ndarray, cfg: SimulationConfig) -> tuple:
    """The Euler paths of two float models (A, B, C), stepped in lockstep on
    one state x = [x_1; x_2] with one scratch vector t = [t_1; t_2].

    Each fine step writes A_1 x_1 into t_1 and A_2 x_2 into t_2 by
    ``_matvec``'s out form, then runs three in-place ufuncs over both
    models at once: t *= dt, x += t and x += [B_1 dL_i; B_2 dL_i].  Every
    entry goes through the operations of x + dt * (A x) + B dL_i, in that
    order, so each model's path has the bits of a run of it alone.  For
    each chunk of grid rows that ``_record_path`` asks for, the rows [B_1
    dL_i; B_2 dL_i] of the chunk's fine steps are formed at once, by one
    ``_stacked_products`` call per model, and after each coarse step each
    model's half of x is copied into its row."""
    sub = cfg.euler_substeps
    dt = np.array(cfg.step_size / sub)  # a 0-d array multiplies faster than a float
    (a1, b1, c1), (a2, b2, c2) = first, second
    n1, n2 = a1.shape[0], a2.shape[0]
    x = np.zeros(n1 + n2)
    t = np.empty_like(x)
    x1, x2, t1, t2 = x[:n1], x[n1:], t[:n1], t[n1:]
    product1, product2 = _matvec(n1), _matvec(n2)
    multiply, add = np.multiply, np.add

    def advance(lo, hi, states):
        rows1, rows2 = states
        window = dl[(lo - 1) * sub:(hi - 1) * sub]
        inputs = np.concatenate([_stacked_products(b1, window),
                                 _stacked_products(b2, window)], axis=1)
        for out1, out2, step_inputs in zip(rows1[lo:hi], rows2[lo:hi],
                                           inputs.reshape(hi - lo, sub, n1 + n2)):
            for b_dl_i in step_inputs:
                product1(a1, x1, t1)
                product2(a2, x2, t2)
                multiply(t, dt, t)
                add(x, t, x)
                add(x, b_dl_i, x)
            out1[...] = x1
            out2[...] = x2

    return _record_path((x1, x2), cfg, advance, (first, second))


def draw_compound_poisson_jumps(driver: LevyDriverSpec, horizon: float,
                                cfg: SimulationConfig):
    """Jump times and sizes on [0, horizon], from the documented streams.

    The jump count is Poisson(rate * horizon); given the count, times are
    order statistics of uniforms.  Returns (times, sizes) with sizes shaped
    (count, m).  Raises ``OutOfRange`` before any draw if the size array's
    expected rate * horizon * m floats are over ``MAX_PATH_VALUES``.
    """
    expected = driver.rate * horizon
    _require_path_values(expected * driver.jumps.dim)
    _, _, rng_times, rng_sizes = cfg.streams()
    count = int(rng_times.poisson(expected))
    times = np.sort(rng_times.uniform(0.0, horizon, size=count))
    return times, driver.jumps.sample(rng_sizes, count)


def simulate_compound_poisson(ss: StateSpaceModel, jump_times, jump_sizes,
                              cfg: SimulationConfig) -> SamplePath:
    """Exact pathwise simulation against a fixed jump path.

    Between events the state follows X(t + dt) = e^{A dt} X(t); at a jump of
    size dL the state moves by B dL.  The only floating error is that of the
    matrix exponential: there is no time-discretization error.  The path is
    one run of the compound-Poisson engine, :func:`_compound_poisson_paths`,
    on this model alone.  Jump times must be sorted, nonnegative and finite,
    and jump sizes finite and shaped (count, m), a 1-D list read as one
    column, so a jump-free path of an m-input model takes
    ``np.empty((0, m))``.  Step k applies the jumps in (t_{k-1}, t_k], and
    step 1 also those at t = 0.  The path starts from the zero state.
    """
    jump_times = np.asarray(jump_times, dtype=float)
    jump_sizes = np.asarray(jump_sizes, dtype=float)
    if jump_sizes.ndim == 1:
        jump_sizes = jump_sizes[:, None]
    if jump_sizes.ndim != 2 or jump_sizes.shape[0] != jump_times.size:
        raise DimensionMismatch("one jump size vector per jump time required")
    if not (np.all(np.isfinite(jump_times)) and np.all(np.isfinite(jump_sizes))):
        raise ValueError("jump times and sizes must be finite")
    if np.any(np.diff(jump_times) < 0):
        raise ValueError("jump times must be sorted")
    if np.any(jump_times < 0):
        raise ValueError("jump times must be nonnegative")
    floats = _run_models((ss,), jump_sizes.shape[1], cfg)
    path, = _compound_poisson_paths(floats, jump_times, jump_sizes, cfg)
    return path


def simulate_compound_poisson_pair(ss1: StateSpaceModel, ss2: StateSpaceModel,
                                   driver: LevyDriverSpec,
                                   cfg: SimulationConfig):
    """One shared jump path driven through two models.

    If the models have the same transfer function, the two outputs agree up
    to matrix-exponential rounding; the observed sup-norm gap is the
    pathwise equivalence witness.  The jumps are drawn once, and both models
    step through them in lockstep, in one run of
    :func:`_compound_poisson_paths`; each path has the bits of a
    :func:`simulate_compound_poisson` run of its model on the same draw.
    Both models are checked by :func:`_run_models` before the draw; if both
    paths overflow, model 1's error is raised.
    """
    return _compound_poisson_run((ss1, ss2), driver, cfg)


def _compound_poisson_run(models, driver: LevyDriverSpec,
                          cfg: SimulationConfig) -> tuple:
    """One jump path, drawn once, driven through every model by one engine
    run, after :func:`_run_models` has checked every model."""
    floats = _run_models(models, driver.jumps.dim, cfg)
    horizon = (cfg.steps - 1) * cfg.step_size
    times, sizes = draw_compound_poisson_jumps(driver, horizon, cfg)
    return _compound_poisson_paths(floats, times, sizes, cfg)


def _compound_poisson_paths(models, jump_times: np.ndarray,
                            jump_sizes: np.ndarray,
                            cfg: SimulationConfig) -> tuple:
    """The compound-Poisson engine: the paths of float models (A, B, C) from
    the zero state on one checked jump path, all in one ``_record_path`` run.

    The flow intervals (t_0, the jumps of step 1, t_1, the jumps of step 2,
    ...) are laid out once and taken in windows of ``PATH_CHUNK``.  A window
    takes one ``np.unique`` of its gaps for every model; each model
    exponentiates the distinct gaps in one stacked :func:`expm` call,
    gathers them by the inverse index, and forms the B dL of the window's
    jumps in one ``_stacked_products`` call.  Every model then steps through
    the window by plain indexing, keeping its state between windows, which
    may end inside a step: x = e^{A gap} x (skipped for a zero gap), then
    x + B dL at a jump, or x written into its grid row.  These are the
    operations of a run of each model alone, so each path has its bits."""
    chunk = PATH_CHUNK
    steps = cfg.steps
    grid = np.arange(steps) * cfg.step_size
    bounds = [0, *np.searchsorted(jump_times, grid[1:], side="right").tolist()]
    step_of_jump = np.repeat(np.arange(1, steps), np.diff(bounds))
    points = np.insert(grid, step_of_jump, jump_times[:bounds[-1]])
    gaps = np.diff(points)
    # the interval that ends at grid row r is the (r - 1 + bounds[r])-th
    row_ends = np.arange(steps - 1) + np.array(bounds[1:], dtype=np.intp)
    products = [_matvec(a.shape[0]) for a, _, _ in models]
    states = [np.zeros(a.shape[0]) for a, _, _ in models]
    window = (None,)

    def load(w0):
        """The window from interval w0: (w0, per interval the window index
        of its jump or ~row, per model the flows (None for a zero gap), per
        model the B dL rows)."""
        w1 = min(w0 + chunk, gaps.size)
        ra, rb = np.searchsorted(row_ends, [w0, w1]).tolist()
        local = row_ends[ra:rb] - w0
        ends = np.arange(w1 - w0)
        ends -= np.searchsorted(local, ends)
        ends[local] = ~np.arange(ra + 1, rb + 1)
        distinct, inverse = np.unique(gaps[w0:w1], return_inverse=True)
        inverse = inverse.tolist()
        sizes = jump_sizes[w0 - ra:w1 - rb]
        flows, kicks = [], []
        for a, b, _ in models:
            exps = list(expm(a * distinct[:, None, None]))
            if distinct[0] == 0.0:
                exps[0] = None
            flows.append(list(map(exps.__getitem__, inverse)))
            kicks.append(list(_stacked_products(b, sizes)))
        return w0, ends.tolist(), flows, kicks

    def advance(lo, hi, rows_of):
        nonlocal window
        i, stop = lo - 1 + bounds[lo - 1], hi - 1 + bounds[hi - 1]
        while i < stop:
            w0 = i - i % chunk
            if window[0] != w0:
                window = load(w0)
            _, ends, flows_of, kicks_of = window
            p0, p1 = i - w0, min(stop - w0, chunk)
            for k, (product, rows, flows, kicks) in enumerate(
                    zip(products, rows_of, flows_of, kicks_of)):
                x = states[k]
                for e, end in zip(flows[p0:p1], ends[p0:p1]):
                    if end >= 0:
                        x = (x if e is None else product(e, x)) + kicks[end]
                    elif e is None:
                        rows[~end] = x
                    else:
                        out = rows[~end]
                        product(e, x, out)
                        x = out
                states[k] = x
            i = w0 + p1

    return _record_path(states, cfg, advance, models)
