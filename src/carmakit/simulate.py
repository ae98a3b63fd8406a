"""Simulation of Levy-driven linear state space models.

The model is dX = A X dt + B dL, Y = C X.  Exact rational model entries are
converted to double precision once, on entry to this module; everything
downstream is floating point.

Grid convention: a path with n steps of size h is reported at t_k = k*h for
k = 0..n-1, so the first row is the initial state's output.  A path stops at
the first chunk of ``PATH_CHUNK`` rows with a non-finite output, and a run
needing over ``MAX_PATH_VALUES`` floats in one array is refused.

Randomness is drawn from numpy's PCG64 generator through a fixed
stream-splitting rule: the run seed spawns four independent child streams,

    0: initial state draw,
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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .errors import (DimensionMismatch, OutOfRange, PoleOnEvaluationAxis,
                     UnstableModel)
from .exactalg import TransferFunction
from .realization import StateSpaceModel

STABILITY_MARGIN = -1e-10
PSD_FLOOR = -1e-12
LYAPUNOV_RTOL = 1e-10
MAX_EXPECTED_JUMPS = 10**7     # jumps are drawn all at once, before the path
MAX_PATH_VALUES = 10**8        # floats in any one path array, about 0.8 GB
PATH_CHUNK = 1024              # rows per finiteness check and CSV block, and
                               # flow intervals per stacked expm window


def _as_float(matrix) -> np.ndarray:
    try:
        return np.array([[float(x) for x in row] for row in matrix], dtype=float)
    except OverflowError as exc:
        raise OutOfRange(f"model entry: {exc}") from exc


def ss_to_float(ss: StateSpaceModel):
    """The (A, B, C) triple as float arrays; the single exact-to-float boundary."""
    return _as_float(ss.a), _as_float(ss.b), _as_float(ss.c)


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
        self.atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        self.probabilities = np.asarray(self.probabilities, dtype=float).reshape(-1)
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

    ``init`` is "zero" or "stationary"; ``x0`` overrides both with an
    explicit initial state (useful for deterministic decay checks).
    ``euler_substeps`` only matters for the shared-increment Euler runs.
    """

    step_size: float
    steps: int
    seed: int
    init: str = "zero"
    euler_substeps: int = 1
    x0: Optional[tuple] = None

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError("step size must be positive")
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
        if self.euler_substeps < 1:
            raise ValueError("euler_substeps must be at least 1")
        if self.x0 is not None:
            object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))

    def streams(self):
        """The four child generators in the documented order."""
        children = np.random.SeedSequence(self.seed).spawn(4)
        return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


@dataclass
class SamplePath:
    """Output (and optionally state) trajectory on the sampling grid."""

    times: np.ndarray
    outputs: np.ndarray
    states: Optional[np.ndarray] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
        if self.outputs.ndim == 1:
            self.outputs = self.outputs[:, None]
        if self.outputs.shape[0] != self.times.size:
            raise DimensionMismatch("one output row per grid time required")
        _require_finite_outputs(self.times, self.outputs)

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
    so no more than one block of text is held."""
    rows = len(columns[0])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        row = ",".join(["%.17g"] * len(header)) + "\n"
        for lo in range(0, rows, PATH_CHUNK):
            block = np.column_stack([col[lo:lo + PATH_CHUNK] for col in columns])
            fh.write("".join([row % tuple(r) for r in block.tolist()]))


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
    """Symmetric factor L with L L^T = mat (eigenvalues clamped at zero)."""
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

def _noise_covariance(b: np.ndarray, sigma_l) -> np.ndarray:
    """B Sigma B^T; raises ``OutOfRange`` if it overflows."""
    with _overflow_quiet():
        q = b @ np.asarray(sigma_l, dtype=float) @ b.T
    if not np.all(np.isfinite(q)):
        raise OutOfRange("noise covariance B Sigma B^T beyond the double range")
    return q


def stability_check(ss: StateSpaceModel) -> bool:
    """True iff every eigenvalue of A has real part below -1e-10."""
    a = _as_float(ss.a)
    return bool(np.all(np.linalg.eigvals(a).real < STABILITY_MARGIN))


def stationary_covariance(ss: StateSpaceModel, sigma_l) -> np.ndarray:
    """Stationary state covariance: the solution of A S + S A^T = -B Sigma B^T."""
    if not stability_check(ss):
        raise UnstableModel("stationary covariance requires a stable drift")
    a, b, _ = ss_to_float(ss)
    q = _noise_covariance(b, sigma_l)
    with warnings.catch_warnings():  # the residual check below is the guard
        warnings.simplefilter("ignore", RuntimeWarning)
        s = solve_continuous_lyapunov(a, -q)
    s = (s + s.T) / 2
    scale = _magnitude(q)           # residual and tolerance both divided by it
    with _overflow_quiet():
        residual = np.linalg.norm((a @ s + s @ a.T + q) / scale, "fro")
    if not residual <= LYAPUNOV_RTOL * (1 / scale + np.linalg.norm(q / scale, "fro")):
        raise UnstableModel(
            f"Lyapunov solve residual {residual * scale:.3e} exceeds tolerance")
    return s


def gaussian_step_params(ss: StateSpaceModel, sigma_l, h: float):
    """Exact one-step discretization: (Phi, Sigma_h).

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
    a, b, _ = ss_to_float(ss)
    n = a.shape[0]
    q = _noise_covariance(b, sigma_l)

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
        message = f"one-step covariance overflows at step size {h:.6g}"
        raise (OutOfRange if stability_check(ss) else UnstableModel)(message)
    return phi, _clamp_psd(sigma)


def theoretical_autocov(ss: StateSpaceModel, sigma_l, lags: Sequence[float]):
    """Stationary output autocovariances C e^{A tau} Sigma_inf C^T at the
    requested nonnegative time lags."""
    s_inf = stationary_covariance(ss, sigma_l)
    a, _, c = ss_to_float(ss)
    out = []
    for tau in lags:
        if tau < 0:
            raise ValueError("time lags must be nonnegative")
        out.append(c @ expm(a * float(tau)) @ s_inf @ c.T)
    return out


def empirical_autocov(path: SamplePath, maxlag: int):
    """Biased (divide by n) mean-centered autocovariance estimates.

    Entry ell of the result estimates Cov(Y_{t+ell*h}, Y_t); the lag -ell
    value is its transpose and is not reported separately.
    """
    y = path.outputs
    n = y.shape[0]
    if maxlag >= n:
        raise ValueError("maximum lag must be below the number of samples")
    centered = y - y.mean(axis=0)
    return [centered[ell:].T @ centered[:n - ell] / n for ell in range(maxlag + 1)]


def spectral_density(h_tf: TransferFunction, sigma_l, omega: float) -> np.ndarray:
    """f(omega) = H(i omega) Sigma H(i omega)^* / (2 pi), from exact coefficients."""
    sigma_l = np.asarray(sigma_l, dtype=float)
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


def _require_finite_outputs(times: np.ndarray, outputs: np.ndarray) -> None:
    finite = np.isfinite(outputs).all(axis=1)
    if not finite.all():
        raise UnstableModel(
            "sample path overflows: first non-finite output at "
            f"t={times[np.argmin(finite)]:.17g}")


def _require_path_values(count: int) -> None:
    if count > MAX_PATH_VALUES:
        raise OutOfRange(f"path needs {count} values in one array, more than "
                         f"MAX_PATH_VALUES = {MAX_PATH_VALUES}")


def _record_path(x0, cfg: SimulationConfig, advance, c) -> SamplePath:
    """The one step loop: states[0] = x0, states[k] = advance(k, states[k-1]).
    The outputs C x are checked every ``PATH_CHUNK`` rows, and the path stops
    at the end of the first chunk with a non-finite output."""
    n = cfg.steps
    times = np.arange(n) * cfg.step_size
    states = np.empty((n, x0.size))
    states[0] = x = x0
    with _overflow_quiet():
        for lo in range(0, n, PATH_CHUNK):
            hi = min(lo + PATH_CHUNK, n)
            for k in range(max(lo, 1), hi):
                x = advance(k, x)
                states[k] = x
            _require_finite_outputs(times[lo:hi], states[lo:hi] @ c.T)
        outputs = states @ c.T
    return SamplePath(times=times, outputs=outputs, states=states)


def _initial_state(ss: StateSpaceModel, sigma_l, cfg: SimulationConfig,
                   rng: np.random.Generator) -> np.ndarray:
    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float)
        if x0.size != ss.n:
            raise DimensionMismatch("initial state length must match state dimension")
        return x0
    if cfg.init == "stationary":
        s_inf = stationary_covariance(ss, sigma_l)
        return _psd_factor(s_inf) @ rng.standard_normal(ss.n)
    return np.zeros(ss.n)


def simulate_brownian(ss: StateSpaceModel, sigma_l,
                      cfg: SimulationConfig) -> SamplePath:
    """Exact-discretization Gaussian simulation on the sampling grid.

    X_{k+1} = Phi X_k + xi_k with xi_k i.i.d. N(0, Sigma_h); no
    time-discretization bias at the grid points.
    """
    _require_psd(sigma_l, "driver covariance")
    _require_path_values(cfg.steps * ss.n)
    rng_init, rng_gauss, _, _ = cfg.streams()
    phi, sigma_h = gaussian_step_params(ss, sigma_l, cfg.step_size)
    x0 = _initial_state(ss, sigma_l, cfg, rng_init)
    with _overflow_quiet():
        increments = (rng_gauss.standard_normal((cfg.steps - 1, ss.n))
                      @ _psd_factor(sigma_h).T)
    return _record_path(x0, cfg, lambda k, x: phi @ x + increments[k - 1],
                        ss_to_float(ss)[2])


def _require_pair_input_dims(ss1: StateSpaceModel, ss2: StateSpaceModel) -> None:
    if ss1.m != ss2.m:
        raise DimensionMismatch(
            "both models must accept the same driving process dimension")


def simulate_shared_brownian_pair(ss1: StateSpaceModel, ss2: StateSpaceModel,
                                  sigma_l, cfg: SimulationConfig):
    """Euler-Maruyama on a fine grid with one shared increment stream.

    The exact Gaussian step cannot be shared between realizations (its
    increment distribution depends on B), so the pairwise comparison uses the
    same fine-grid Brownian increments for both models and relies on
    refinement: the output gap between equivalent models shrinks as
    ``euler_substeps`` grows.  Both runs start from the zero state.
    """
    _require_pair_input_dims(ss1, ss2)
    if cfg.init != "zero" or cfg.x0 is not None:
        raise ValueError("shared-path comparisons start from the zero state")
    sigma_l = _require_psd(sigma_l, "driver covariance")
    sub = cfg.euler_substeps
    fine_steps = (cfg.steps - 1) * sub
    _require_path_values(max(cfg.steps * max(ss1.n, ss2.n), fine_steps * ss1.m))
    _, rng_gauss, _, _ = cfg.streams()
    dt = cfg.step_size / sub
    dl = rng_gauss.standard_normal((fine_steps, ss1.m)) @ _psd_factor(sigma_l).T
    dl *= math.sqrt(dt)

    paths = []
    for ss in (ss1, ss2):
        a, b, c = ss_to_float(ss)

        def advance(k, x):
            for i in range((k - 1) * sub, k * sub):
                x = x + dt * (a @ x) + b @ dl[i]
            return x

        paths.append(_record_path(np.zeros(ss.n), cfg, advance, c))
    return tuple(paths)


def draw_compound_poisson_jumps(driver: LevyDriverSpec, horizon: float,
                                cfg: SimulationConfig):
    """Jump times and sizes on [0, horizon], from the documented streams.

    The jump count is Poisson(rate * horizon); given the count, times are
    order statistics of uniforms.  Returns (times, sizes) with sizes shaped
    (count, m).  Raises ``OutOfRange`` first if rate * horizon is too large.
    """
    expected = driver.rate * horizon
    if not expected <= MAX_EXPECTED_JUMPS:
        raise OutOfRange(f"expected jump count {expected:.6g} exceeds "
                         f"{MAX_EXPECTED_JUMPS}")
    _, _, rng_times, rng_sizes = cfg.streams()
    count = int(rng_times.poisson(expected))
    times = np.sort(rng_times.uniform(0.0, horizon, size=count))
    return times, driver.jumps.sample(rng_sizes, count)


def _flow_exponentials(a: np.ndarray, gaps: np.ndarray):
    """Yield e^{A gap} for each gap in order, or None for a zero gap.

    The gaps are taken ``PATH_CHUNK`` at a time; the distinct gaps of each
    window are exponentiated in one stacked ``expm`` call, whose slices
    equal separate calls bit for bit."""
    for lo in range(0, gaps.size, PATH_CHUNK):
        window = gaps[lo:lo + PATH_CHUNK]
        distinct, index = np.unique(window, return_inverse=True)
        exps = expm(a * distinct[:, None, None])
        for gap, i in zip(window.tolist(), index.tolist()):
            yield None if gap == 0.0 else exps[i]


def simulate_compound_poisson(ss: StateSpaceModel, jump_times, jump_sizes,
                              cfg: SimulationConfig) -> SamplePath:
    """Exact pathwise simulation against a fixed jump path.

    Between events the state follows X(t + dt) = e^{A dt} X(t); at a jump of
    size dL the state moves by B dL.  The only floating error is that of the
    matrix exponential: there is no time-discretization error.  The flow
    intervals (grid point or jump to the next jump or grid point) are laid
    out in path order, and their exponentials are evaluated in stacked
    windows of ``PATH_CHUNK`` intervals, one per distinct gap of a window,
    so a regular grid segment costs a few exponentials per window.  Jump
    times must be sorted and jump times and sizes finite; step k applies the
    jumps in (t_{k-1}, t_k], and step 1 also those at t <= 0.
    """
    if cfg.init == "stationary" and cfg.x0 is None:
        raise ValueError(
            "stationary initialization is not defined for compound Poisson runs")
    jump_times = np.asarray(jump_times, dtype=float)
    jump_sizes = np.asarray(jump_sizes, dtype=float)
    if jump_sizes.ndim == 1:
        jump_sizes = jump_sizes[:, None]
    if jump_sizes.shape[0] != jump_times.size:
        raise DimensionMismatch("one jump size per jump time required")
    if jump_times.size and jump_sizes.shape[1] != ss.m:
        raise DimensionMismatch("jump size dimension must match the model input")
    if not (np.all(np.isfinite(jump_times)) and np.all(np.isfinite(jump_sizes))):
        raise ValueError("jump times and sizes must be finite")
    if np.any(np.diff(jump_times) < 0):
        raise ValueError("jump times must be sorted")
    _require_path_values(cfg.steps * ss.n)
    a, b, c = ss_to_float(ss)
    rng_init, _, _, _ = cfg.streams()
    x0 = _initial_state(ss, None, cfg, rng_init)

    # Path order: t_0, the jumps of step 1, t_1, the jumps of step 2, ...
    grid = np.arange(cfg.steps) * cfg.step_size
    bounds = [0, *np.searchsorted(jump_times, grid[1:], side="right").tolist()]
    step_of_jump = np.repeat(np.arange(1, cfg.steps), np.diff(bounds))
    points = np.insert(grid, step_of_jump, jump_times[:bounds[-1]])
    flows = _flow_exponentials(a, np.diff(points))

    def advance(k, x):
        for j in range(bounds[k - 1], bounds[k]):
            e = next(flows)
            x = (x if e is None else e @ x) + b @ jump_sizes[j]
        e = next(flows)
        return x if e is None else e @ x

    return _record_path(x0, cfg, advance, c)


def simulate_compound_poisson_pair(ss1: StateSpaceModel, ss2: StateSpaceModel,
                                   driver: LevyDriverSpec,
                                   cfg: SimulationConfig):
    """One shared jump path driven through two models.

    If the models have the same transfer function, the two outputs agree up
    to matrix-exponential rounding; the observed sup-norm gap is the
    pathwise equivalence witness.
    """
    _require_pair_input_dims(ss1, ss2)
    if cfg.x0 is not None:
        raise ValueError("shared-path comparisons start from the zero state")
    _require_path_values(cfg.steps * max(ss1.n, ss2.n))
    horizon = (cfg.steps - 1) * cfg.step_size
    times, sizes = draw_compound_poisson_jumps(driver, horizon, cfg)
    if sizes.shape[1] != ss1.m:
        raise DimensionMismatch("jump size dimension must match the model input")
    return (simulate_compound_poisson(ss1, times, sizes, cfg),
            simulate_compound_poisson(ss2, times, sizes, cfg))
