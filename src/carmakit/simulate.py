"""Simulation of Levy-driven linear state space models.

The model is dX = A X dt + B dL, Y = C X.  Exact rational model entries are
converted to double precision once, on entry to this module; everything
downstream is floating point.

Grid convention: a path with n steps of size h is reported at t_k = k*h for
k = 0..n-1, so the first row is the initial state's output.

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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .errors import DimensionMismatch, PoleOnEvaluationAxis, UnstableModel
from .exactalg import TransferFunction
from .realization import StateSpaceModel

STABILITY_MARGIN = -1e-10
PSD_FLOOR = -1e-12
LYAPUNOV_RTOL = 1e-10


def _as_float(matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in matrix], dtype=float)


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
        self.cov = np.asarray(self.cov, dtype=float)
        _require_psd(self.cov, "jump covariance")
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
    """Driving process: Brownian with covariance sigma, or compound Poisson
    with jump rate per unit time and a jump-size distribution."""

    kind: str
    sigma: Optional[np.ndarray] = None
    rate: Optional[float] = None
    jumps: Optional[JumpDistribution] = None

    def __post_init__(self):
        if self.kind == "brownian":
            if self.sigma is None:
                raise ValueError("brownian driver requires a covariance matrix")
            self.sigma = np.asarray(self.sigma, dtype=float)
            _require_psd(self.sigma, "driver covariance")
        elif self.kind == "compound_poisson":
            if self.rate is None or self.jumps is None:
                raise ValueError(
                    "compound Poisson driver requires a rate and a jump distribution")
            self.rate = float(self.rate)
            if not self.rate > 0:
                raise ValueError("jump rate must be positive")
        else:
            raise ValueError(f"unknown driver kind: {self.kind!r}")

    @classmethod
    def brownian(cls, sigma) -> "LevyDriverSpec":
        return cls(kind="brownian", sigma=sigma)

    @classmethod
    def compound_poisson(cls, rate, jumps: JumpDistribution) -> "LevyDriverSpec":
        return cls(kind="compound_poisson", rate=rate, jumps=jumps)


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
        finite = np.isfinite(self.outputs).all(axis=1)
        if not finite.all():
            raise UnstableModel(
                "sample path overflows: first non-finite output at "
                f"t={self.times[np.argmin(finite)]:.17g}")

    @property
    def d(self) -> int:
        return self.outputs.shape[1]

    def to_csv(self, path) -> None:
        """Write `t,y1,...,yd` rows with 17-significant-digit floats."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("t," + ",".join(f"y{i + 1}" for i in range(self.d)) + "\n")
            for t, row in zip(self.times, self.outputs):
                fh.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")


# ---------------------------------------------------------------------------
# PSD utilities
# ---------------------------------------------------------------------------

def _require_psd(mat: np.ndarray, label: str) -> None:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{label} must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{label} must be finite")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)
    if np.max(np.abs(mat - mat.T)) > 1e-12 * scale:
        raise ValueError(f"{label} must be symmetric")
    eigmin = float(np.linalg.eigvalsh((mat + mat.T) / 2).min()) if mat.size else 0.0
    if eigmin < PSD_FLOOR * scale:
        raise ValueError(f"{label} must be positive semidefinite")


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """Symmetric factor L with L L^T = mat (eigenvalues clamped at zero)."""
    sym = (mat + mat.T) / 2
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def _clamp_psd(mat: np.ndarray) -> np.ndarray:
    sym = (mat + mat.T) / 2
    w, v = np.linalg.eigh(sym)
    if w.min() >= 0:
        return sym
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.T


# ---------------------------------------------------------------------------
# Stability and second-order structure
# ---------------------------------------------------------------------------

def stability_check(ss: StateSpaceModel) -> bool:
    """True iff every eigenvalue of A has real part below -1e-10."""
    a = _as_float(ss.a)
    return bool(np.all(np.linalg.eigvals(a).real < STABILITY_MARGIN))


def stationary_covariance(ss: StateSpaceModel, sigma_l) -> np.ndarray:
    """Stationary state covariance: the solution of A S + S A^T = -B Sigma B^T."""
    if not stability_check(ss):
        raise UnstableModel("stationary covariance requires a stable drift")
    a, b, _ = ss_to_float(ss)
    sigma_l = np.asarray(sigma_l, dtype=float)
    q = b @ sigma_l @ b.T
    s = solve_continuous_lyapunov(a, -q)
    s = (s + s.T) / 2
    residual = np.linalg.norm(a @ s + s @ a.T + q, "fro")
    if residual > LYAPUNOV_RTOL * (1 + np.linalg.norm(q, "fro")):
        raise UnstableModel(
            f"Lyapunov solve residual {residual:.3e} exceeds tolerance")
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
    spectrum clamped at zero before use as a covariance.
    """
    a, b, _ = ss_to_float(ss)
    sigma_l = np.asarray(sigma_l, dtype=float)
    n = a.shape[0]
    q = b @ sigma_l @ b.T

    scaled = float(np.linalg.norm(a, 2)) * h
    squarings = max(0, math.ceil(math.log2(scaled / 4.0))) if scaled > 4.0 else 0
    dt = h / (1 << squarings)

    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = q
    block[n:, n:] = -a.T
    e = expm(block * dt)
    phi = e[:n, :n]
    sigma = e[:n, n:] @ phi.T
    for _ in range(squarings):
        sigma = phi @ sigma @ phi.T + sigma
        sigma = (sigma + sigma.T) / 2
        phi = phi @ phi
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
    den = h_tf.common_den.evaluate(z)
    if den == 0:
        raise PoleOnEvaluationAxis(
            f"transfer function has a pole at i*{omega}")
    h = np.array(h_tf.evaluate(z), dtype=complex)
    if not np.all(np.isfinite(h.view(float))):
        raise PoleOnEvaluationAxis(
            f"transfer function overflows at i*{omega}")
    return h @ sigma_l @ h.conj().T / (2 * math.pi)


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------

def _overflow_quiet():
    """Silence numpy's overflow and invalid-value warnings in a step loop:
    an unstable path may run into ``inf`` or ``nan``, and :class:`SamplePath`
    is the one place that reports a non-finite path (as ``UnstableModel``)."""
    return np.errstate(over="ignore", invalid="ignore")


def _initial_state(ss: StateSpaceModel, sigma_l, cfg: SimulationConfig,
                   rng: np.random.Generator) -> np.ndarray:
    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float)
        if x0.size != ss.n:
            raise DimensionMismatch("initial state length must match state dimension")
        return x0
    if cfg.init == "stationary":
        if sigma_l is None:
            raise ValueError("stationary initialization needs a Brownian covariance")
        s_inf = stationary_covariance(ss, sigma_l)
        return _psd_factor(s_inf) @ rng.standard_normal(ss.n)
    return np.zeros(ss.n)


def simulate_brownian(ss: StateSpaceModel, sigma_l,
                      cfg: SimulationConfig) -> SamplePath:
    """Exact-discretization Gaussian simulation on the sampling grid.

    X_{k+1} = Phi X_k + xi_k with xi_k i.i.d. N(0, Sigma_h); no
    time-discretization bias at the grid points.
    """
    rng_init, rng_gauss, _, _ = cfg.streams()
    phi, sigma_h = gaussian_step_params(ss, sigma_l, cfg.step_size)
    x = _initial_state(ss, sigma_l, cfg, rng_init)
    factor = _psd_factor(sigma_h)
    n = cfg.steps
    increments = rng_gauss.standard_normal((n - 1, ss.n)) @ factor.T
    _, _, c = ss_to_float(ss)
    states = np.empty((n, ss.n))
    states[0] = x
    with _overflow_quiet():
        for k in range(n - 1):
            x = phi @ x + increments[k]
            states[k + 1] = x
        outputs = states @ c.T
    times = np.arange(n) * cfg.step_size
    return SamplePath(times=times, outputs=outputs, states=states)


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
    _, rng_gauss, _, _ = cfg.streams()
    sigma_l = np.asarray(sigma_l, dtype=float)
    sub = cfg.euler_substeps
    dt = cfg.step_size / sub
    fine_steps = (cfg.steps - 1) * sub
    m = ss1.m
    dl = rng_gauss.standard_normal((fine_steps, m)) @ _psd_factor(sigma_l).T
    dl *= math.sqrt(dt)

    times = np.arange(cfg.steps) * cfg.step_size
    paths = []
    for ss in (ss1, ss2):
        a, b, c = ss_to_float(ss)
        x = np.zeros(ss.n)
        states = np.empty((cfg.steps, ss.n))
        states[0] = x
        with _overflow_quiet():
            for k in range(fine_steps):
                x = x + dt * (a @ x) + b @ dl[k]
                if (k + 1) % sub == 0:
                    states[(k + 1) // sub] = x
            outputs = states @ c.T
        paths.append(SamplePath(times=times, outputs=outputs, states=states))
    return tuple(paths)


def draw_compound_poisson_jumps(driver: LevyDriverSpec, horizon: float,
                                cfg: SimulationConfig):
    """Jump times and sizes on [0, horizon], from the documented streams.

    The jump count is Poisson(rate * horizon); given the count, times are
    order statistics of uniforms.  Returns (times, sizes) with sizes shaped
    (count, m).
    """
    if driver.kind != "compound_poisson":
        raise ValueError("jump drawing requires a compound Poisson driver")
    _, _, rng_times, rng_sizes = cfg.streams()
    count = int(rng_times.poisson(driver.rate * horizon))
    times = np.sort(rng_times.uniform(0.0, horizon, size=count))
    sizes = driver.jumps.sample(rng_sizes, count)
    if count == 0:
        sizes = np.zeros((0, driver.jumps.dim))
    return times, sizes


def simulate_compound_poisson(ss: StateSpaceModel, jump_times, jump_sizes,
                              cfg: SimulationConfig) -> SamplePath:
    """Exact pathwise simulation against a fixed jump path.

    Between events the state follows X(t + dt) = e^{A dt} X(t); at a jump of
    size dL the state moves by B dL.  The only floating error is that of the
    matrix exponential: there is no time-discretization error.  Matrix
    exponentials are cached per distinct time increment, so regular grid
    segments cost one decomposition total.
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
    a, b, c = ss_to_float(ss)
    rng_init, _, _, _ = cfg.streams()
    x = _initial_state(ss, None, cfg, rng_init)

    cache = {}

    def propagate(state, dt):
        if dt == 0.0:
            return state
        if dt not in cache:
            cache[dt] = expm(a * dt)
        return cache[dt] @ state

    n = cfg.steps
    h = cfg.step_size
    states = np.empty((n, ss.n))
    states[0] = x
    t = 0.0
    next_jump = 0
    with _overflow_quiet():
        for k in range(1, n):
            t_target = k * h
            while next_jump < jump_times.size and jump_times[next_jump] <= t_target:
                tau = jump_times[next_jump]
                x = propagate(x, tau - t)
                x = x + b @ jump_sizes[next_jump]
                t = tau
                next_jump += 1
            x = propagate(x, t_target - t)
            t = t_target
            states[k] = x
        outputs = states @ c.T
    times = np.arange(n) * h
    return SamplePath(times=times, outputs=outputs, states=states)


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
    horizon = (cfg.steps - 1) * cfg.step_size
    times, sizes = draw_compound_poisson_jumps(driver, horizon, cfg)
    if sizes.shape[1] != ss1.m:
        raise DimensionMismatch("jump size dimension must match the model input")
    return (simulate_compound_poisson(ss1, times, sizes, cfg),
            simulate_compound_poisson(ss2, times, sizes, cfg))
