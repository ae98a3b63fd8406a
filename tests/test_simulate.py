"""Tests for the stochastic simulation layer.

Closed-form scalar Ornstein-Uhlenbeck quantities and a numerical-quadrature
integral serve as oracles for the matrix-exponential and Lyapunov machinery;
pathwise checks pin determinism and the shared-driver equivalence property.
"""

import functools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad_vec
from scipy.linalg import expm

from carmakit import simulate
from carmakit.errors import (DimensionMismatch, OutOfRange, PoleOnEvaluationAxis,
                             UnstableModel)
from carmakit.realization import (
    StateSpaceModel,
    observer_realization,
    controller_realization,
    transfer_function,
)
from carmakit.simulate import (
    FixedAtomJumps,
    GaussianJumps,
    LevyDriverSpec,
    SamplePath,
    SimulationConfig,
    draw_compound_poisson_jumps,
    empirical_autocov,
    gaussian_step_params,
    simulate_brownian,
    simulate_compound_poisson,
    simulate_compound_poisson_pair,
    simulate_shared_brownian_pair,
    spectral_density,
    ss_to_float,
    stability_check,
    stationary_covariance,
    theoretical_autocov,
)


def rand_frac(rng, lo=-9, hi=9, den=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_mat(rng, r, c, lo=-9, hi=9, den=9):
    return tuple(tuple(rand_frac(rng, lo, hi, den) for _ in range(c))
                 for _ in range(r))


def random_stable_model(rng, nmax=3, iomax=2, margin=1):
    """Random exact-rational model, spectrum shifted into the left half plane."""
    while True:
        n = rng.randint(1, nmax)
        m = rng.randint(1, iomax)
        d = rng.randint(1, iomax)
        a = [list(row) for row in rand_mat(rng, n, n, -3, 3, 3)]
        eigs = np.linalg.eigvals(np.array([[float(x) for x in r] for r in a]))
        shift = int(math.ceil(eigs.real.max())) + margin
        for i in range(n):
            a[i][i] -= shift
        ss = StateSpaceModel(a=a, b=rand_mat(rng, n, m, -3, 3, 3),
                             c=rand_mat(rng, d, n, -3, 3, 3))
        if not transfer_function(ss).is_zero:
            return ss


def scalar_model(a, c=1.0):
    return StateSpaceModel(a=[[Fraction(a).limit_denominator(10**6) * -1]],
                           b=[[1]], c=[[Fraction(c).limit_denominator(10**6)]])


def stream(cfg, k):
    """Child stream k of the run seed, in the documented order."""
    child = np.random.SeedSequence(cfg.seed).spawn(4)[k]
    return np.random.Generator(np.random.PCG64(child))


def factor(mat):
    """The documented Gaussian factor V sqrt(max(W, 0)) of a symmetric mat."""
    w, v = np.linalg.eigh((mat + mat.T) / 2)
    return v * np.sqrt(np.clip(w, 0.0, None))


# Models for the bit-for-bit replays: one state, zero entries in B and C, two
# inputs, a stiff drift whose one-step parameters are doubled from h/2^s, and
# three states on one input, to pair with the one-state model.
REPLAY_MODELS = {
    "scalar": StateSpaceModel(a=[[-2]], b=[[-1]], c=[["1/2"]]),
    "companion": StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[0], [1]],
                                 c=[[1, 0]]),
    "two-inputs": StateSpaceModel(
        a=[[-1, "1/3", 0], [0, -2, 1], ["1/2", 0, -3]],
        b=[[1, 0], [0, -1], [1, 1]], c=[[1, 0, 1], [0, 1, 0]]),
    "stiff": StateSpaceModel(a=[[-90, 1], [0, -40]], b=[[1], [2]],
                             c=[[1, 1]]),
    "three-states": StateSpaceModel(
        a=[[-1, "1/3", 0], [0, -2, 1], ["1/2", 0, -3]],
        b=[[1], [0], [-1]], c=[[1, 0, "1/2"]]),
    # outputs C x that round with the order of their sums: the product of a
    # one-row chunk does not have the bits of the whole path's product
    "dense-outputs": StateSpaceModel(
        a=[[-2, "1/3", "-1/5"], ["1/7", -3, "1/2"], ["-1/3", "2/9", -1]],
        b=[["1/3", 1], [-1, "2/5"], ["3/7", "-1/2"]],
        c=[["1/3", "-2/7", "5/11"], ["3/2", "1/9", "-4/5"]]),
}


# a grid for the bit-for-bit reference loops whose last chunk, at
# PATH_CHUNK and at 4 rows a chunk alike, is a single row, where numpy's
# products take their matrix-vector route
ONE_ROW_TAIL = 2 * simulate.PATH_CHUNK + 1


def replay_model(name):
    """REPLAY_MODELS[name], or for "<name> observer" that model's observer
    form."""
    base, _, form = name.partition(" ")
    ss = REPLAY_MODELS[base]
    return observer_realization(transfer_function(ss))[0].statespace if form else ss


# ---------------------------------------------------------------------------
# Stability and stationary covariance
# ---------------------------------------------------------------------------

class TestStability:
    def test_scalar_cases(self):
        assert stability_check(StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]]))
        assert not stability_check(StateSpaceModel(a=[[1]], b=[[1]], c=[[1]]))
        assert not stability_check(StateSpaceModel(a=[[0]], b=[[1]], c=[[1]]))

    def test_companion_with_negative_roots(self):
        ss = StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[0], [1]], c=[[1, 0]])
        assert stability_check(ss)


class TestStationaryCovariance:
    def test_scalar_closed_form(self):
        ss = scalar_model(2.0)
        s = stationary_covariance(ss, [[9.0]])
        assert_allclose(s, [[9.0 / 4.0]], rtol=1e-12)

    def test_decoupled_diagonal(self):
        ss = StateSpaceModel(a=[[-1, 0], [0, -2]], b=[[1, 0], [0, 1]],
                             c=[[1, 0], [0, 1]])
        s = stationary_covariance(ss, np.eye(2))
        assert_allclose(s, np.diag([0.5, 0.25]), atol=1e-14)

    def test_against_quadrature_oracle(self):
        rng = random.Random(31)
        ss = random_stable_model(rng, nmax=4)
        a, b, _ = ss_to_float(ss)
        sigma = np.eye(ss.m)
        q = b @ sigma @ b.T
        oracle, _ = quad_vec(lambda u: expm(a * u) @ q @ expm(a.T * u), 0.0, 50.0,
                             epsabs=1e-12, epsrel=1e-12)
        s = stationary_covariance(ss, sigma)
        assert_allclose(s, oracle, rtol=1e-6, atol=1e-9)

    def test_lyapunov_residual_small(self):
        rng = random.Random(32)
        for _ in range(10):
            ss = random_stable_model(rng, nmax=4)
            a, b, _ = ss_to_float(ss)
            q = b @ b.T
            s = stationary_covariance(ss, np.eye(ss.m))
            residual = np.linalg.norm(a @ s + s @ a.T + q, "fro")
            assert residual <= 1e-10 * (1 + np.linalg.norm(q, "fro"))

    def test_unstable_rejected(self):
        ss = StateSpaceModel(a=[[1]], b=[[1]], c=[[1]])
        with pytest.raises(UnstableModel):
            stationary_covariance(ss, [[1.0]])

    def test_ill_conditioned_drift_rejected(self):
        # Stable, but the Lyapunov solve misses its residual tolerance: out
        # of range for the float solve, not unstable.
        ss = StateSpaceModel(a=[["-1/100000", 100000000], [0, "-1/100000"]],
                             b=[[0], [1]], c=[[1, 0]])
        assert stability_check(ss)
        with pytest.raises(OutOfRange, match="Lyapunov solve residual"):
            stationary_covariance(ss, [[1.0]])

    def test_perturbed_solve_reports_only_the_residual(self):
        # scipy perturbs this problem and warns; the residual check decides.
        ss = StateSpaceModel(a=[[-1, 10**300], [0, -1]], b=[[1], [0]],
                             c=[[1, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="Lyapunov solve residual"):
                stationary_covariance(ss, [[1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_guard_holds_for_huge_covariance(self):
        # ||q|| and the residual both overflow unscaled; the guard still bites
        ss = StateSpaceModel(a=[["-1/100000", 100000000], [0, "-1/100000"]],
                             b=[[0], [1]], c=[[1, 0]])
        with pytest.raises(OutOfRange, match="Lyapunov solve residual"):
            stationary_covariance(ss, [[1e200]])


# ---------------------------------------------------------------------------
# Exact one-step discretization
# ---------------------------------------------------------------------------

class TestGaussianStepParams:
    def test_pure_brownian_state(self):
        ss = StateSpaceModel(a=[[0]], b=[[1]], c=[[1]])
        phi, sigma_h = gaussian_step_params(ss, [[4.0]], 0.7)
        assert_allclose(phi, [[1.0]], rtol=1e-15)
        assert_allclose(sigma_h, [[4.0 * 0.7]], rtol=1e-12)

    def test_scalar_ou_closed_form(self):
        a, sig2, h = 1.5, 2.0, 0.3
        ss = scalar_model(a)
        phi, sigma_h = gaussian_step_params(ss, [[sig2]], h)
        assert_allclose(phi, [[math.exp(-a * h)]], rtol=1e-12)
        assert_allclose(sigma_h, [[sig2 * (1 - math.exp(-2 * a * h)) / (2 * a)]],
                        rtol=1e-12)

    def test_semigroup_identity(self):
        rng = random.Random(33)
        for _ in range(10):
            ss = random_stable_model(rng, nmax=4)
            h = 0.2
            sigma = np.eye(ss.m)
            phi_h, sig_h = gaussian_step_params(ss, sigma, h)
            _, sig_2h = gaussian_step_params(ss, sigma, 2 * h)
            combined = phi_h @ sig_h @ phi_h.T + sig_h
            scale = max(1e-300, np.linalg.norm(sig_2h, "fro"))
            assert np.linalg.norm(combined - sig_2h, "fro") <= 1e-10 * scale

    def test_long_horizon_approaches_stationary(self):
        rng = random.Random(34)
        ss = random_stable_model(rng, nmax=3)
        a, _, _ = ss_to_float(ss)
        sigma = np.eye(ss.m)
        h = 50.0 / abs(np.linalg.eigvals(a).real.max())
        _, sigma_h = gaussian_step_params(ss, sigma, h)
        s_inf = stationary_covariance(ss, sigma)
        assert_allclose(sigma_h, s_inf, rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("h, error, message", [
        (0.0, ValueError, "step size must be positive"),
        (-1.0, ValueError, "step size must be positive"),
        (math.nan, ValueError, "step size must be positive"),
        (-math.inf, ValueError, "step size must be positive"),
        (math.inf, OutOfRange, "drift norm times step size inf overflows"),
    ], ids=["zero", "negative", "nan", "minus-inf", "inf"])
    def test_step_must_be_positive_and_finite(self, h, error, message):
        ss = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])
        with pytest.raises(error, match=message):
            gaussian_step_params(ss, [[1.0]], h)

    def test_overflowing_covariance_rejected(self):
        # e^{10^4} overflows while the covariance is doubled up to h
        a = [[10**6, 0, 0], [0, 0, 0], [0, 0, 0]]
        ss = StateSpaceModel(a=a, b=[[0], [0], [0]], c=[[0, 0, 0]])
        with pytest.raises(UnstableModel, match="one-step covariance"):
            gaussian_step_params(ss, [[1.0]], 0.01)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_covariance_overflow_on_stable_drift_out_of_range(self):
        ss = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])
        with pytest.raises(OutOfRange, match="one-step covariance"):
            gaussian_step_params(ss, [[1.7e308]], 1.0)


# ---------------------------------------------------------------------------
# Brownian paths
# ---------------------------------------------------------------------------

class TestSimulateBrownian:
    @staticmethod
    def reference_path(ss, sigma_l, cfg):
        """The outputs, step by step: x_k = Phi x_(k-1) + xi_k with xi_k the
        normals of child stream 1 scaled by the factor of Sigma_h, from zero
        or, for a stationary start, from the factor of the stationary
        covariance times the normals of child stream 0."""
        phi, sigma_h = gaussian_step_params(ss, sigma_l, cfg.step_size)
        xi = stream(cfg, 1).standard_normal((cfg.steps - 1, ss.n)) @ factor(sigma_h).T
        x = np.zeros(ss.n)
        if cfg.init == "stationary":
            x = (factor(stationary_covariance(ss, sigma_l))
                 @ stream(cfg, 0).standard_normal(ss.n))
        states = [x]
        for k in range(1, cfg.steps):
            x = phi @ x + xi[k - 1]
            states.append(x)
        return np.array(states) @ ss_to_float(ss)[2].T

    def test_replays_the_increment_stream(self):
        # the recursion propagates non-zero states, and the draws follow the
        # stream layout
        ss = REPLAY_MODELS["companion"]
        cfg = SimulationConfig(step_size=0.25, steps=30, seed=5)
        path = simulate_brownian(ss, [[2.0]], cfg)
        assert_array_equal(path.outputs, self.reference_path(ss, [[2.0]], cfg))
        assert path.times[0] == 0.0
        assert_allclose(path.times[-1], 0.25 * 29)

    @pytest.mark.parametrize("init", ["zero", "stationary"])
    @pytest.mark.parametrize("name", list(REPLAY_MODELS))
    def test_matches_reference_loop_bit_for_bit(self, name, init, monkeypatch):
        ss = REPLAY_MODELS[name]
        sigma_l = np.eye(ss.m) + 0.5 * (1 - np.eye(ss.m))
        cfgs = [SimulationConfig(step_size=0.2, steps=steps, seed=13, init=init)
                for steps in (3 * simulate.PATH_CHUNK // 2, ONE_ROW_TAIL)]
        references = [self.reference_path(ss, sigma_l, cfg).tobytes()
                      for cfg in cfgs]
        # and at chunks of 4 rows, so that a step lost or repeated at a
        # chunk edge shows many times over
        for chunk in (simulate.PATH_CHUNK, 4):
            monkeypatch.setattr(simulate, "PATH_CHUNK", chunk)
            for cfg, reference in zip(cfgs, references):
                path = simulate_brownian(ss, sigma_l, cfg)
                assert path.outputs.tobytes() == reference

    def test_determinism_and_seed_sensitivity(self):
        ss = random_stable_model(random.Random(35))
        cfg = SimulationConfig(step_size=0.1, steps=100, seed=42)
        p1 = simulate_brownian(ss, np.eye(ss.m), cfg)
        p2 = simulate_brownian(ss, np.eye(ss.m), cfg)
        assert_array_equal(p1.outputs, p2.outputs)
        p3 = simulate_brownian(ss, np.eye(ss.m),
                               SimulationConfig(step_size=0.1, steps=100, seed=43))
        assert not np.array_equal(p1.outputs, p3.outputs)

    def test_scalar_ou_variance(self):
        a, sig2 = 1.0, 2.0
        ss = scalar_model(a)
        cfg = SimulationConfig(step_size=0.1, steps=30000, seed=7, init="stationary")
        path = simulate_brownian(ss, [[sig2]], cfg)
        target = sig2 / (2 * a)
        sample_var = path.outputs[:, 0].var()
        assert abs(sample_var - target) <= 0.10 * target

    def test_stationary_init_requires_stability(self):
        ss = StateSpaceModel(a=[[1]], b=[[1]], c=[[1]])
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1, init="stationary")
        with pytest.raises(UnstableModel):
            simulate_brownian(ss, [[1.0]], cfg)


class TestSharedBrownianPair:
    @staticmethod
    def reference_path(ss, sigma_l, cfg):
        """The outputs, substep by substep from the zero state: x = x +
        dt (A x) + B dL_i, with dL_i the normals of child stream 1 scaled by
        the factor of Sigma and by sqrt(dt)."""
        a, b, c = ss_to_float(ss)
        sub = cfg.euler_substeps
        dt = cfg.step_size / sub
        dl = (stream(cfg, 1).standard_normal(((cfg.steps - 1) * sub, ss.m))
              @ factor(np.asarray(sigma_l, dtype=float)).T)
        dl *= math.sqrt(dt)
        x = np.zeros(ss.n)
        states = [x]
        for k in range(1, cfg.steps):
            for i in range((k - 1) * sub, k * sub):
                x = x + dt * (a @ x) + b @ dl[i]
            states.append(x)
        return np.array(states) @ c.T

    # each model with its observer form, then pairs of unequal dimension in
    # both orders: the two models step in lockstep on one state vector
    @pytest.mark.parametrize("sub", [1, 3, 10])
    @pytest.mark.parametrize("first, second", [
        *(pytest.param(name, f"{name} observer", id=name)
          for name in REPLAY_MODELS),
        pytest.param("two-inputs observer", "two-inputs", id="observer-first"),
        pytest.param("scalar", "three-states", id="one-then-three-states"),
        pytest.param("three-states", "scalar", id="three-then-one-state"),
    ])
    def test_matches_reference_loop_bit_for_bit(self, first, second, sub,
                                                monkeypatch):
        models = replay_model(first), replay_model(second)
        m = models[0].m
        sigma_l = np.eye(m) + 0.5 * (1 - np.eye(m))
        cfgs = [SimulationConfig(step_size=0.01, steps=steps, seed=14,
                                 euler_substeps=sub)
                for steps in (simulate.PATH_CHUNK + 50, ONE_ROW_TAIL)]
        references = [[self.reference_path(model, sigma_l, cfg).tobytes()
                       for model in models] for cfg in cfgs]
        # and at chunks of 4 rows, each forming its own B dL_i rows
        for chunk in (simulate.PATH_CHUNK, 4):
            monkeypatch.setattr(simulate, "PATH_CHUNK", chunk)
            for cfg, expected in zip(cfgs, references):
                paths = simulate_shared_brownian_pair(*models, sigma_l, cfg)
                assert [p.outputs.tobytes() for p in paths] == expected

    def test_same_model_gives_identical_paths(self):
        ss = random_stable_model(random.Random(36))
        cfg = SimulationConfig(step_size=0.1, steps=50, seed=9, euler_substeps=10)
        p1, p2 = simulate_shared_brownian_pair(ss, ss, np.eye(ss.m), cfg)
        assert_array_equal(p1.outputs, p2.outputs)

    def test_equivalent_models_agree_at_every_refinement(self):
        # With shared increments and zero start, the Euler output is a
        # function of the Markov parameters C A^k B alone, and equal transfer
        # functions force equal Markov parameters.  The two Euler paths are
        # therefore identical in exact arithmetic at EVERY substep count; in
        # floats the gap sits at accumulated-rounding level, orders of
        # magnitude below the path scale, refined or not.
        rng = random.Random(37)
        ss = random_stable_model(rng)
        obs, _ = observer_realization(transfer_function(ss))
        for sub in (10, 100, 1000):
            cfg = SimulationConfig(step_size=0.05, steps=120, seed=11,
                                   euler_substeps=sub)
            p1, p2 = simulate_shared_brownian_pair(ss, obs.statespace,
                                                   np.eye(ss.m), cfg)
            gap = float(np.max(np.abs(p1.outputs - p2.outputs)))
            scale = max(1e-12, float(np.max(np.abs(p1.outputs))))
            assert gap <= 1e-10 * scale

    def test_distinct_models_keep_a_gap(self):
        rng = random.Random(38)
        ss = random_stable_model(rng)
        scaled = StateSpaceModel(
            a=ss.a, b=ss.b,
            c=tuple(tuple(2 * x for x in row) for row in ss.c))
        cfg = SimulationConfig(step_size=0.05, steps=120, seed=12,
                               euler_substeps=1000)
        p1, p2 = simulate_shared_brownian_pair(ss, scaled, np.eye(ss.m), cfg)
        gap = np.max(np.abs(p1.outputs - p2.outputs))
        signal = np.max(np.abs(p1.outputs))
        assert gap > 0.5 * signal

    def test_zero_start_enforced(self):
        ss = random_stable_model(random.Random(39))
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1, init="stationary")
        with pytest.raises(ValueError):
            simulate_shared_brownian_pair(ss, ss, np.eye(ss.m), cfg)


# ---------------------------------------------------------------------------
# Compound Poisson paths
# ---------------------------------------------------------------------------

class TestCompoundPoisson:
    def test_single_jump_closed_form(self):
        a, c, size, tau = 1.3, 2.0, 0.75, 0.52
        ss = scalar_model(a, c)
        cfg = SimulationConfig(step_size=0.1, steps=40, seed=3)
        path = simulate_compound_poisson(ss, [tau], [[size]], cfg)
        for t, y in zip(path.times, path.outputs[:, 0]):
            expected = c * size * math.exp(-a * (t - tau)) if t >= tau else 0.0
            assert_allclose(y, expected, rtol=1e-12, atol=1e-14)

    def test_jump_at_zero_gives_the_impulse_response(self):
        # one jump of size s at t = 0 moves the zero start to B s, from where
        # the state decays deterministically: y(t) = C e^{At} B s (C B = 0
        # here, so row 0, recorded before the jump, fits as well)
        ss = StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[0], [1]], c=[[1, 0]])
        cfg = SimulationConfig(step_size=0.2, steps=25, seed=3)
        s = np.array([1.5])
        path = simulate_compound_poisson(ss, [0.0], [s], cfg)
        a, b, c = ss_to_float(ss)
        for t, y in zip(path.times, path.outputs):
            assert_allclose(y, c @ expm(a * t) @ b @ s, rtol=1e-11, atol=1e-14)

    def test_jump_draw_determinism(self):
        driver = LevyDriverSpec.compound_poisson(
            2.0, GaussianJumps(mean=np.zeros(2), cov=np.eye(2)))
        cfg = SimulationConfig(step_size=0.05, steps=100, seed=21)
        t1, s1 = draw_compound_poisson_jumps(driver, 5.0, cfg)
        t2, s2 = draw_compound_poisson_jumps(driver, 5.0, cfg)
        assert_array_equal(t1, t2)
        assert_array_equal(s1, s2)
        assert np.all(np.diff(t1) >= 0)

    def test_pair_matches_across_realizations(self):
        rng = random.Random(40)
        for _ in range(3):
            ss = random_stable_model(rng)
            h = transfer_function(ss)
            obs, _ = observer_realization(h)
            ctrl, _ = controller_realization(h)
            driver = LevyDriverSpec.compound_poisson(
                2.0, GaussianJumps(mean=np.zeros(ss.m), cov=np.eye(ss.m)))
            cfg = SimulationConfig(step_size=0.05, steps=500, seed=17)
            for other in (obs.statespace, ctrl.statespace):
                p1, p2 = simulate_compound_poisson_pair(ss, other, driver, cfg)
                scale = max(1e-12, float(np.max(np.abs(p1.outputs))))
                gap = float(np.max(np.abs(p1.outputs - p2.outputs)))
                assert gap <= 1e-8 * scale

    def test_atom_jumps_land_in_atom_set(self):
        atoms = [[1.0, 0.0], [0.0, -1.0]]
        driver = LevyDriverSpec.compound_poisson(
            3.0, FixedAtomJumps(atoms=atoms, probabilities=[0.25, 0.75]))
        cfg = SimulationConfig(step_size=0.1, steps=50, seed=23)
        _, sizes = draw_compound_poisson_jumps(driver, 4.9, cfg)
        assert sizes.shape[1] == 2
        for s in sizes:
            assert any(np.array_equal(s, np.asarray(a)) for a in atoms)

    def test_jump_dimension_mismatch_rejected(self):
        ss = scalar_model(1.0)
        driver = LevyDriverSpec.compound_poisson(
            1.0, GaussianJumps(mean=np.zeros(2), cov=np.eye(2)))
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1)
        with pytest.raises(DimensionMismatch):
            simulate_compound_poisson_pair(ss, ss, driver, cfg)

    def test_jump_width_checked_whatever_the_seed(self):
        ss = scalar_model(1.0)
        driver = LevyDriverSpec(0.3, GaussianJumps(mean=np.zeros(2),
                                                   cov=np.eye(2)))
        counts = []
        for seed in range(8):
            cfg = SimulationConfig(step_size=0.1, steps=20, seed=seed)
            times, sizes = draw_compound_poisson_jumps(driver, 1.9, cfg)
            counts.append(times.size)
            with pytest.raises(DimensionMismatch,
                               match="driver's input dimension m = 2"):
                simulate_compound_poisson(ss, times, sizes, cfg)
        assert 0 in counts and max(counts) > 0
        # a jump-free path of an m-input model takes sizes shaped (0, m)
        two = StateSpaceModel(a=[[-1]], b=[[1, 1]], c=[[1]])
        with pytest.raises(DimensionMismatch, match="driver's input dimension m = 1"):
            simulate_compound_poisson(two, [], [], cfg)
        path = simulate_compound_poisson(two, [], np.empty((0, 2)), cfg)
        assert_array_equal(path.outputs, np.zeros((20, 1)))

    def test_jump_sizes_must_be_vectors(self):
        cfg = SimulationConfig(step_size=0.1, steps=5, seed=1)
        with pytest.raises(DimensionMismatch, match="one jump size vector"):
            simulate_compound_poisson(scalar_model(1.0), [0.05, 0.2],
                                      [[[1.0]], [[2.0]]], cfg)

    def test_unsorted_jump_times_rejected(self):
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1)
        with pytest.raises(ValueError, match="sorted"):
            simulate_compound_poisson(scalar_model(1.0), [0.5, 0.2],
                                      [[1.0], [1.0]], cfg)

    @pytest.mark.parametrize("a", [-3000, -1])
    def test_negative_jump_times_rejected(self, a):
        ss = StateSpaceModel(a=[[a]], b=[[1]], c=[[1]])
        cfg = SimulationConfig(step_size=0.1, steps=3, seed=1)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_compound_poisson(ss, [-0.3], [[1.0]], cfg)

    @pytest.mark.parametrize("times, sizes", [
        ([math.nan], [[1.0]]),
        ([0.05, math.inf], [[1.0], [1.0]]),
        ([-math.inf, 0.05], [[1.0], [1.0]]),
        ([0.05], [[math.nan]]),
    ], ids=["nan-time", "inf-time", "minus-inf-time", "nan-size"])
    def test_non_finite_jumps_rejected(self, times, sizes):
        cfg = SimulationConfig(step_size=0.1, steps=5, seed=1)
        with pytest.raises(ValueError, match="must be finite"):
            simulate_compound_poisson(scalar_model(1.0), times, sizes, cfg)

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        """The stack sizes of the program's ``expm`` calls, each checked to
        hold at most ``PATH_CHUNK`` matrices, as is each stack of B dL rows
        and each Pade work array."""
        sizes = []
        real_expm = simulate.expm
        real_products = simulate._stacked_products
        real_pade = simulate._pade_exponentials

        def counted(stack):
            assert stack.ndim == 3 and len(stack) <= simulate.PATH_CHUNK
            sizes.append(len(stack))
            return real_expm(stack)

        def products(mat, vectors):
            assert len(vectors) <= simulate.PATH_CHUNK
            return real_products(mat, vectors)

        def pade(kernels, stack):
            assert len(stack) <= simulate.PATH_CHUNK
            return real_pade(kernels, stack)

        monkeypatch.setattr(simulate, "expm", counted)
        monkeypatch.setattr(simulate, "_stacked_products", products)
        monkeypatch.setattr(simulate, "_pade_exponentials", pade)
        return sizes

    @staticmethod
    def reference_path(ss, jump_times, jump_sizes, cfg):
        """The outputs, jump by jump from the zero state: flow to each jump
        time in order, add B dL, then flow to the grid time; jumps at t = 0
        fall in the first step."""
        a, b, c = ss_to_float(ss)
        h = cfg.step_size
        states = [np.zeros(ss.n)]
        x, t, j = states[0], 0.0, 0
        for k in range(1, cfg.steps):
            while j < len(jump_times) and jump_times[j] <= k * h:
                if jump_times[j] != t:
                    x = expm(a * (jump_times[j] - t)) @ x
                x = x + b @ jump_sizes[j]
                t = jump_times[j]
                j += 1
            if k * h != t:
                x = expm(a * (k * h - t)) @ x
            t = k * h
            states.append(x)
        return np.array(states) @ c.T

    H = 0.05

    @pytest.mark.parametrize("times", [
        [],                                       # no jumps
        [0.0],                                    # a jump at t = 0
        [0.0, 0.0, 5 * H, 5 * H, 6 * H, 14 * H],  # on k*h, several per step
        [0.05, 0.12, 0.13, 0.14, 0.95, 1.1],      # off grid, and past the end
        # step 2 holds more flow intervals than a window of 4
        [0.06, 0.065, 0.07, 0.07, 0.08, 0.09, 2 * H],
        # at t = 0 with both signs, on k*h, and windows of 4 split inside steps
        [-0.0, 0.0, 0.01, H, 0.07, 0.08, 3 * H, 3 * H, 0.16, 0.17,
         0.18, 10 * H, 0.51, 20 * H, 1.2],
    ], ids=["none", "at-zero", "on-grid", "off-grid", "crowded-step",
            "split-windows"])
    def test_matches_reference_per_jump_loop(self, times, monkeypatch,
                                             expm_calls):
        ss = StateSpaceModel(a=[[-1, "1/3", 0], [0, -2, 1], ["1/2", 0, -3]],
                             b=[[1, 0], [0, 1], [1, 1]], c=[[1, 0, 1], [0, 1, 0]])
        times = np.array(times)
        sizes = np.random.default_rng(5).standard_normal((times.size, 2))
        for chunk in (simulate.PATH_CHUNK, 4):
            monkeypatch.setattr(simulate, "PATH_CHUNK", chunk)
            cfg = SimulationConfig(step_size=self.H, steps=21, seed=3)
            path = simulate_compound_poisson(ss, times, sizes, cfg)
            assert (path.outputs.tobytes()
                    == self.reference_path(ss, times, sizes, cfg).tobytes())

    @pytest.mark.parametrize("name", list(REPLAY_MODELS))
    def test_drawn_path_matches_reference_bit_for_bit(self, name, monkeypatch):
        # Gaussian jump sizes and atoms with zero entries, on each model
        ss = REPLAY_MODELS[name]
        atoms = np.vstack([np.zeros(ss.m), -np.ones(ss.m), np.eye(ss.m)])
        runs = []
        for steps in (simulate.PATH_CHUNK + 50, ONE_ROW_TAIL):
            cfg = SimulationConfig(step_size=0.1, steps=steps, seed=15)
            for jumps in (GaussianJumps(mean=np.zeros(ss.m), cov=np.eye(ss.m)),
                          FixedAtomJumps(atoms,
                                         np.full(len(atoms), 1 / len(atoms)))):
                times, sizes = draw_compound_poisson_jumps(
                    LevyDriverSpec(3.0, jumps), (steps - 1) * cfg.step_size, cfg)
                runs.append((times, sizes, cfg, self.reference_path(
                    ss, times, sizes, cfg).tobytes()))
        # and at windows and chunks of 4
        for chunk in (simulate.PATH_CHUNK, 4):
            monkeypatch.setattr(simulate, "PATH_CHUNK", chunk)
            for times, sizes, cfg, reference in runs:
                path = simulate_compound_poisson(ss, times, sizes, cfg)
                assert path.outputs.tobytes() == reference

    def test_pair_equals_two_separate_runs(self, monkeypatch, expm_calls):
        # the model against its observer form on a crowded draw, about four
        # jumps a step, so windows of 4 intervals, and some of 1024, end
        # inside a step
        ss = REPLAY_MODELS["two-inputs"]
        obs = replay_model("two-inputs observer")
        driver = LevyDriverSpec(40.0, GaussianJumps(mean=np.zeros(ss.m),
                                                    cov=np.eye(ss.m)))
        cfg = SimulationConfig(step_size=0.1, steps=simulate.PATH_CHUNK + 50,
                               seed=19)
        times, sizes = draw_compound_poisson_jumps(
            driver, (cfg.steps - 1) * cfg.step_size, cfg)
        grid = np.arange(1, cfg.steps) * cfg.step_size
        bounds = np.searchsorted(times, grid, side="right")
        # interval index at which each step's flow intervals begin
        step_starts = set((np.arange(cfg.steps - 1)
                           + np.concatenate([[0], bounds[:-1]])).tolist())
        intervals = cfg.steps - 1 + int(bounds[-1])
        for chunk in (simulate.PATH_CHUNK, 4):
            monkeypatch.setattr(simulate, "PATH_CHUNK", chunk)
            assert set(range(chunk, intervals, chunk)) - step_starts
            p1, p2 = simulate_compound_poisson_pair(ss, obs, driver, cfg)
            for model, path in ((ss, p1), (obs, p2)):
                alone = simulate_compound_poisson(model, times, sizes, cfg)
                assert path.outputs.tobytes() == alone.outputs.tobytes()
                assert path.times.tobytes() == alone.times.tobytes()
        assert expm_calls

    def test_jump_free_path_takes_one_small_stack_per_window(self, expm_calls):
        ss = StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[0], [1]], c=[[1, 0]])
        cfg = SimulationConfig(step_size=0.05, steps=10 * simulate.PATH_CHUNK,
                               seed=3)
        simulate_compound_poisson(ss, [], [], cfg)
        # k*h - (k-1)*h rounds to about a dozen distinct gaps per window
        assert len(expm_calls) == 10
        assert max(expm_calls) <= 16


class TestStackedExpm:
    """The simulators rely on ``simulate.expm`` giving each slice of a stack
    the bits of a separate ``scipy.linalg.expm`` call, whether the slice runs
    through scipy's Pade kernels directly (generic slices, once the probe has
    passed) or through ``scipy.linalg.expm`` itself (all other slices, or
    every slice without the kernels); a scipy that breaks that fails here
    rather than in the seeded paths."""

    MATRICES = [
        [[-1.3]],
        [[-0.5, 2.0], [-1.0, -0.25]],
        np.diag([-1.0, -2.5, 0.75]),
        [[-1.0, 1 / 3, 0.0], [0.2, -2.0, 1.0], [0.5, -0.7, -3.0]],
        np.random.default_rng(6).standard_normal((6, 6)),
        [[-50.0, 400.0, 3.0], [0.0, -20.0, 900.0], [0.0, 0.0, -5.0]],
    ]
    IDS = ["1x1", "2x2", "diagonal", "dense-3x3", "dense-6x6",
           "triangular-squaring"]
    GAPS = np.array([0.05, 0.05 + 2 ** -40, 1.7, 0.0, -0.0, -0.3, -1e-9])

    @staticmethod
    def assert_slices_equal_scipy(stack):
        result = simulate.expm(stack)
        assert result.shape == stack.shape
        for a, e in zip(stack, result):
            assert e.tobytes() == expm(a).tobytes()

    @pytest.mark.parametrize("a", MATRICES, ids=IDS)
    def test_slices_equal_separate_calls(self, a):
        a = np.asarray(a, dtype=float)
        self.assert_slices_equal_scipy(a * self.GAPS[:, None, None])

    def test_mixed_stack(self):
        # generic, lower and upper triangular, diagonal and zero-gap slices,
        # interleaved, with large gaps that take squarings on every kind
        dense = np.array([[-1.0, 1 / 3, 0.0], [0.2, -2.0, 1.0], [0.5, -0.7, -3.0]])
        kinds = [dense, np.tril(dense), np.triu(dense), np.diag(np.diag(dense))]
        stack = np.array([k * g for g in (0.05, 0.0, 40.0, 1e3) for k in kinds])
        self.assert_slices_equal_scipy(stack)
        self.assert_slices_equal_scipy(stack[::-1])

    def test_generic_slice_with_squarings(self):
        probe = np.array(simulate._PADE_PROBE)
        if simulate._pade_kernels() is not None:
            work = np.zeros((5, 3, 3))
            work[0] = probe
            pick_pade_structure, _ = simulate._pade_kernels()
            assert pick_pade_structure(work)[1] > 0
        self.assert_slices_equal_scipy(probe[None] * np.array([1.0, 0.5, 3.0])
                                       [:, None, None])
        self.assert_slices_equal_scipy(np.random.default_rng(8).standard_normal(
            (5, 4, 4)) * 50)

    def test_single_matrix(self):
        # the doubled block matrix that gaussian_step_params exponentiates
        a = np.array([[-1.0, 1 / 3, 0.0], [0.2, -2.0, 1.0], [0.5, -0.7, -3.0]])
        block = np.zeros((6, 6))
        block[:3, :3] = a
        block[:3, 3:] = np.eye(3) + 0.5
        block[3:, 3:] = -a.T
        for h in (0.1, 25.0):
            e = simulate.expm(block * h)
            assert e.shape == (6, 6)
            assert e.tobytes() == expm(block * h).tobytes()

    def test_work_array_holds_at_most_path_chunk_slices(self, monkeypatch):
        # generic and triangular slices interleaved: the 7 generic ones go
        # through the kernels 3, 3 and 1 at a time
        if simulate._pade_kernels() is None:
            pytest.skip("the Pade kernel route is not active")
        real_pade = simulate._pade_exponentials
        calls = []

        def pade(kernels, stack):
            calls.append(len(stack))
            return real_pade(kernels, stack)

        monkeypatch.setattr(simulate, "PATH_CHUNK", 3)
        monkeypatch.setattr(simulate, "_pade_exponentials", pade)
        dense = np.asarray(self.MATRICES[3])
        gaps = np.array([0.05, 40.0, 1e3, 0.3, 1.7, -0.3, 2.5])
        stack = np.array([k * g for g in gaps for k in (dense, np.triu(dense))])
        self.assert_slices_equal_scipy(stack)
        assert calls == [3, 3, 1]

    def test_kernel_error_reruns_the_slice_through_scipy(self, monkeypatch):
        def failing_pade(work, m):
            return -12

        if simulate._pade_kernels() is None:
            pytest.skip("the Pade kernel route is not active")
        pick_pade_structure, _ = simulate._pade_kernels()
        monkeypatch.setattr(simulate, "_pade_kernels",
                            lambda: (pick_pade_structure, failing_pade))
        self.assert_slices_equal_scipy(np.asarray(self.MATRICES[3])
                                       * self.GAPS[:, None, None])

    def test_without_kernels_scipy_takes_the_whole_array(self, monkeypatch):
        import scipy.linalg

        calls = []

        def spy(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(simulate, "_pade_kernels", lambda: None)
        monkeypatch.setattr(scipy.linalg, "expm", spy)
        for a in self.MATRICES:
            stack = np.asarray(a, dtype=float) * self.GAPS[:, None, None]
            self.assert_slices_equal_scipy(stack)
            assert len(calls) == 1 and calls.pop() is stack

    def test_kernel_route_is_active_on_scipy_1_17(self):
        # the route copies scipy 1.17's treatment of a generic slice, so on
        # that release a probe failure means the copy has drifted
        import scipy

        if scipy.__version__.split(".")[:2] != ["1", "17"]:
            pytest.skip(f"the route was written against scipy 1.17, "
                        f"not {scipy.__version__}")
        assert simulate._pade_kernels() is not None

    @pytest.mark.parametrize("kernels", ["missing", "wrong-signature",
                                         "wrong-bits"])
    def test_probe_rejects_unusable_kernels(self, kernels, monkeypatch):
        import sys
        import types
        from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

        module = None
        if kernels != "missing":
            module = types.ModuleType("scipy.linalg._matfuncs_expm")
            module.pick_pade_structure = pick_pade_structure
            if kernels == "wrong-signature":
                module.pade_UV_calc = lambda work: 0
            else:
                def perturbed(work, m):
                    info = pade_UV_calc(work, m)
                    work[0] *= 1 + 2 ** -20
                    return info
                module.pade_UV_calc = perturbed
        monkeypatch.setitem(sys.modules, "scipy.linalg._matfuncs_expm", module)
        assert simulate._pade_kernels.__wrapped__() is None


class TestMatrixVectorBits:
    """The step loops form M @ v through ``simulate._matvec`` (``ndarray.dot``
    for two or more rows) and the Euler pair's B dL_i through
    ``simulate._stacked_products``, each relying on the bits of plain ``@``;
    a numpy build that breaks that fails here rather than in the seeded
    paths."""

    @staticmethod
    def operands(rng, rows, cols):
        """Matrices of rows x cols at scales 1e-8..1e8, with zeros and a
        negative zero, and vectors of length cols, some of them zero."""
        for scale in (1e-8, 1.0, 1e8):
            mat = rng.standard_normal((rows, cols)) * scale
            mat[0, 0], mat[-1, -1] = 0.0, -0.0
            for vec in (rng.standard_normal(cols), np.zeros(cols),
                        -np.zeros(cols)):
                yield mat, vec

    @pytest.mark.parametrize("n", range(1, 9))
    def test_square_products_equal_matmul(self, n):
        rng = np.random.default_rng(n)
        product = simulate._matvec(n)
        for mat, vec in self.operands(rng, n, n):
            # and the strided top-left block that gaussian_step_params
            # returns when it does no squaring
            block = np.zeros((2 * n, 2 * n))
            block[:n, :n] = mat
            for m in (mat, block[:n, :n]):
                assert product(m, vec).tobytes() == (m @ vec).tobytes()
                # the out form, on contiguous views at offsets 0..8 of one
                # state buffer and one scratch buffer, as the Euler pair
                # steps each model on its part of both
                state, scratch = np.zeros(n + 16), np.full(n + 16, np.nan)
                for offset in range(9):
                    v = state[offset:offset + n]
                    v[:] = vec
                    out = scratch[offset:offset + n]
                    product(m, v, out)
                    assert out.tobytes() == (m @ vec).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_input_products_equal_matmul(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        product = simulate._matvec(n)
        for b, vec in self.operands(rng, n, m):
            assert product(b, vec).tobytes() == (b @ vec).tobytes()
            rows = np.vstack([rng.standard_normal((40, m)), np.zeros(m),
                              -np.zeros(m), vec])
            stacked = simulate._stacked_products(b, rows)
            assert stacked.tobytes() == np.array([b @ r for r in rows]).tobytes()


# ---------------------------------------------------------------------------
# Second-order structure
# ---------------------------------------------------------------------------

class TestAutocovariance:
    def test_scalar_ou_closed_form(self):
        a, sig2 = 2.0, 4.0
        ss = scalar_model(a)
        lags = [0.0, 0.1, 0.5, 1.0]
        gammas = theoretical_autocov(ss, [[sig2]], lags)
        for tau, g in zip(lags, gammas):
            assert_allclose(g, [[sig2 * math.exp(-a * tau) / (2 * a)]], rtol=1e-12)

    def test_lag_zero_is_psd(self):
        ss = random_stable_model(random.Random(41))
        g0 = theoretical_autocov(ss, np.eye(ss.m), [0.0])[0]
        assert np.linalg.eigvalsh((g0 + g0.T) / 2).min() >= -1e-12

    def test_lags_equal_separate_exponentials(self):
        ss = REPLAY_MODELS["three-states"]
        s_inf = stationary_covariance(ss, [[1.0]])
        a, _, c = ss_to_float(ss)
        lags = [0.0, 0.1, 0.1, 2.5, 40.0, Fraction(1, 3)]
        gammas = theoretical_autocov(ss, [[1.0]], lags)
        assert ([g.tobytes() for g in gammas]
                == [(c @ expm(a * float(tau)) @ s_inf @ c.T).tobytes()
                    for tau in lags])
        assert theoretical_autocov(ss, [[1.0]], []) == []

    def test_lags_checked_after_the_stationary_covariance(self):
        for lags in ([0.1, -1.0], [math.nan], [0.1, math.inf]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="lags must be nonnegative"):
                    theoretical_autocov(scalar_model(1.0), [[1.0]], lags)
        for lags in ([-1.0], [math.inf]):
            with pytest.raises(UnstableModel):
                theoretical_autocov(scalar_model(-1.0), [[1.0]], lags)

    def test_autocovariance_beyond_double_range(self):
        # A tau overflows at tau = 1e308; every lag is checked before that
        ss = REPLAY_MODELS["companion"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="lag 1e\\+308"):
                theoretical_autocov(ss, [[1.0]], [0.5, 1e308])
            with pytest.raises(ValueError, match="lags must be nonnegative"):
                theoretical_autocov(ss, [[1.0]], [1e308, -1.0])

    def test_empirical_constant_path_vanishes(self):
        path = SamplePath(times=np.arange(5) * 0.1, outputs=np.full((5, 2), 3.0))
        for g in empirical_autocov(path, 3):
            assert_allclose(g, np.zeros((2, 2)), atol=1e-15)

    def test_empirical_white_noise_decorrelates(self):
        rng = np.random.default_rng(99)
        y = rng.standard_normal((20000, 2))
        path = SamplePath(times=np.arange(20000) * 1.0, outputs=y)
        gammas = empirical_autocov(path, 2)
        assert_allclose(gammas[0], np.eye(2), atol=0.05)
        for g in gammas[1:]:
            assert np.max(np.abs(g)) < 0.05

    def test_maxlag_bounds_checked(self):
        path = SamplePath(times=np.arange(4) * 1.0, outputs=np.zeros((4, 1)))
        for maxlag in (4, -1, 1.5, True):
            with pytest.raises(ValueError, match="maximum lag"):
                empirical_autocov(path, maxlag)
        for maxlag in (3, np.int64(3)):
            assert len(empirical_autocov(path, maxlag)) == 4

    def test_empirical_tracks_theoretical(self):
        ss = scalar_model(1.0)
        cfg = SimulationConfig(step_size=0.1, steps=60000, seed=29,
                               init="stationary")
        path = simulate_brownian(ss, [[2.0]], cfg)
        emp = empirical_autocov(path, 3)
        theo = theoretical_autocov(ss, [[2.0]], [0.0, 0.1, 0.2, 0.3])
        for e, t in zip(emp, theo):
            assert abs(e[0, 0] - t[0, 0]) <= 0.12 * max(t[0, 0], 1e-12)


class TestSpectralDensity:
    def test_scalar_ou_closed_form(self):
        a, sig2 = 1.5, 3.0
        h = transfer_function(scalar_model(a))
        for omega in (0.0, 0.5, 2.0):
            f = spectral_density(h, [[sig2]], omega)
            assert_allclose(f, [[sig2 / (2 * math.pi * (a * a + omega * omega))]],
                            rtol=1e-12)

    def test_hermitian_and_psd(self):
        ss = random_stable_model(random.Random(43))
        h = transfer_function(ss)
        for omega in (0.1, 1.0, 3.7):
            f = spectral_density(h, np.eye(ss.m), omega)
            assert_allclose(f, f.conj().T, atol=1e-14)
            assert np.linalg.eigvalsh((f + f.conj().T) / 2).min() >= -1e-12

    def test_pole_on_axis_rejected(self):
        h = transfer_function(StateSpaceModel(a=[[0]], b=[[1]], c=[[1]]))
        # |H|^2 = 1/omega^2 overflows a double at omega = 1e-166
        for omega in (0.0, 1e-166):
            with pytest.raises(PoleOnEvaluationAxis):
                spectral_density(h, [[1.0]], omega)

    def test_non_finite_frequency_rejected(self):
        h = transfer_function(scalar_model(1.5))
        for omega in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="frequency must be finite"):
                spectral_density(h, [[1.0]], omega)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_covariance_out_of_range_not_pole(self):
        h = transfer_function(StateSpaceModel(a=[[-1]], b=[[5]], c=[[1]]))
        with pytest.raises(OutOfRange, match="beyond the double range"):
            spectral_density(h, [[1.7e308]], 0.0)
        # next to a pole, H alone overflows: still a pole verdict
        near = transfer_function(StateSpaceModel(
            a=[[0, 1], [-1, 0]], b=[[0], [1]], c=[[10**300, 0]]))
        with pytest.raises(PoleOnEvaluationAxis):
            spectral_density(near, [[1.7e308]], 1 + 2.0 ** -52)

    def test_invariant_under_realization_change(self):
        ss = random_stable_model(random.Random(44))
        h = transfer_function(ss)
        obs, _ = observer_realization(h)
        h2 = transfer_function(obs.statespace)
        for omega in np.linspace(0.05, 5.0, 20):
            f1 = spectral_density(h, np.eye(ss.m), omega)
            f2 = spectral_density(h2, np.eye(ss.m), omega)
            assert_allclose(f1, f2, rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------------------
# Driver validation and CSV output
# ---------------------------------------------------------------------------

TWO_INPUTS = StateSpaceModel(a=[[-1]], b=[[1, 1]], c=[[1]])


class TestDriverValidation:
    def test_brownian_needs_psd_covariance(self):
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            simulate_brownian(TWO_INPUTS, [[1.0, 2.0], [2.0, 1.0]], cfg)  # eig -1

    def test_asymmetric_covariance_rejected(self):
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1)
        with pytest.raises(ValueError, match="symmetric"):
            simulate_brownian(TWO_INPUTS, [[1.0, 0.5], [0.0, 1.0]], cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_indefinite_covariance_rejected(self):
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            simulate_brownian(TWO_INPUTS, [[1.7e308, 0.0], [0.0, -1.7e308]], cfg)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            LevyDriverSpec.compound_poisson(
                0.0, GaussianJumps(mean=[0.0], cov=[[1.0]]))

    def test_atom_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FixedAtomJumps(atoms=[[1.0]], probabilities=[0.5])

    @pytest.mark.parametrize("atoms, probabilities", [
        ([], []),
        ([1.0, 2.0], [0.5, 0.5]),
        ([[[1.0]], [[2.0]]], [0.5, 0.5]),
        ([[1.0], [2.0]], [[0.5, 0.5]]),
    ], ids=["empty", "flat", "rank-3", "nested-probabilities"])
    def test_atoms_must_be_a_list_of_vectors(self, atoms, probabilities):
        with pytest.raises(ValueError, match="non-empty 2-D array"):
            FixedAtomJumps(atoms=atoms, probabilities=probabilities)

    def test_jump_laws_must_be_finite(self):
        with pytest.raises(ValueError, match="mean must be finite"):
            GaussianJumps(mean=[math.nan], cov=[[1.0]])
        for atoms, probabilities in (([[math.inf]], [1.0]),
                                     ([[1.0]], [math.nan])):
            with pytest.raises(ValueError, match="must be finite"):
                FixedAtomJumps(atoms=atoms, probabilities=probabilities)

    def test_euler_pair_needs_psd_covariance(self):
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            simulate_shared_brownian_pair(TWO_INPUTS, TWO_INPUTS,
                                          [[1.0, 2.0], [2.0, 1.0]], cfg)


# ---------------------------------------------------------------------------
# The path recorder: early overflow stop and the path-size cap
# ---------------------------------------------------------------------------

class TestRecordPath:
    def test_stops_one_chunk_past_first_overflow(self):
        steps = []

        def advance(lo, hi, states):
            rows, = states
            for k in range(lo, hi):
                steps.append(k)
                np.multiply(rows[k - 1], 10.0, rows[k])

        cfg = SimulationConfig(step_size=1.0, steps=50 * simulate.PATH_CHUNK,
                               seed=0)
        with pytest.raises(UnstableModel, match="output at t=309$"):
            # one model (A, B, C) = (1, 1, 1): an unstable drift
            simulate._record_path([np.ones(1)], cfg, advance,
                                  [(np.ones((1, 1)),) * 3])
        assert steps == list(range(1, len(steps) + 1))
        assert 309 <= len(steps) < 309 + simulate.PATH_CHUNK

    def test_simulators_report_first_overflow(self):
        # y(t) = e^{3 (t - 1/2)} after a unit jump at 1/2 first overflows at 238.
        ss = StateSpaceModel(a=[[3]], b=[[1]], c=[[1]])
        cfg = SimulationConfig(step_size=1.0, steps=3000, seed=1)
        with pytest.raises(UnstableModel, match="output at t=238$"):
            simulate_compound_poisson(ss, [0.5], [[1.0]], cfg)
        with pytest.raises(UnstableModel, match="output at t=237$"):
            simulate_brownian(ss, [[1.0]], cfg)
        with pytest.raises(UnstableModel, match="output at t=513$"):  # ~4^t
            simulate_shared_brownian_pair(ss, ss, [[1.0]], cfg)

    # The Euler pair steps its models in lockstep, so a pair reports what
    # its models report run one after the other: model 1's first overflow
    # if it has one, otherwise model 2's.
    SLOW = StateSpaceModel(a=[["1/2"]], b=[[1]], c=[[1]])      # ~1.5^t
    FAST = StateSpaceModel(a=[[3]], b=[[1]], c=[[1]])          # ~4^t
    STABLE = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])
    HUGE = StateSpaceModel(a=[[-1]], b=[[10**400]], c=[[1]])   # no float B

    def test_pair_reports_model_1_over_an_earlier_model_2(self):
        cfg = SimulationConfig(step_size=1.0, steps=3000, seed=1)
        assert 1750 // simulate.PATH_CHUNK > 513 // simulate.PATH_CHUNK
        for second in (self.FAST, self.SLOW, self.STABLE):
            with pytest.raises(UnstableModel, match="output at t=1750$"):
                simulate_shared_brownian_pair(self.SLOW, second, [[1.0]], cfg)

    def test_pair_refuses_model_2_entries_before_model_1_runs(self, no_draw):
        # every model is converted before the draw, so model 1's overflow
        # never gets to run, whatever the seed
        cfg = SimulationConfig(step_size=1.0, steps=3000, seed=1)
        with pytest.raises(OutOfRange, match="model entry"):
            simulate_shared_brownian_pair(self.SLOW, self.HUGE, [[1.0]], cfg)

    def test_pair_reports_model_2_when_only_it_overflows(self):
        cfg = SimulationConfig(step_size=1.0, steps=3000, seed=1)
        with pytest.raises(UnstableModel, match="output at t=513$"):
            simulate_shared_brownian_pair(self.STABLE, self.FAST, [[1.0]], cfg)
        with pytest.raises(OutOfRange, match="model entry"):
            simulate_shared_brownian_pair(self.STABLE, self.HUGE, [[1.0]], cfg)

    def test_pair_divergent_step_on_stable_drift_is_out_of_range(self):
        # dt = 5/2 on A = -1: each Euler step multiplies x by 1 - 5/2 = -3/2,
        # so the path overflows on a stable drift, which is OutOfRange;
        # FAST's path (x17/2 a step) overflows in an earlier chunk, but
        # model 1's error wins in either order
        cfg = SimulationConfig(step_size=2.5, steps=3000, seed=1,
                               euler_substeps=1)
        with pytest.raises(OutOfRange, match="sample path overflows") as alone:
            simulate_shared_brownian_pair(self.STABLE, self.STABLE, [[1.0]], cfg)
        slow = float(str(alone.value).rpartition("t=")[2])
        with pytest.raises(UnstableModel) as fast:
            simulate_shared_brownian_pair(self.FAST, self.FAST, [[1.0]], cfg)
        fast = float(str(fast.value).rpartition("t=")[2])
        assert slow // 2.5 // simulate.PATH_CHUNK > fast // 2.5 // simulate.PATH_CHUNK
        with pytest.raises(OutOfRange, match=f"output at t={slow:.17g}$"):
            simulate_shared_brownian_pair(self.STABLE, self.FAST, [[1.0]], cfg)
        with pytest.raises(UnstableModel, match=f"output at t={fast:.17g}$"):
            simulate_shared_brownian_pair(self.FAST, self.STABLE, [[1.0]], cfg)

    # The compound-Poisson pair steps its models in lockstep too, and
    # reports what a run of each on the same draw reports, in model order.
    JUMPS = LevyDriverSpec(1.0, GaussianJumps(mean=[0.0], cov=[[1.0]]))

    def cp_overflow_time(self, ss, cfg):
        """The time of a lone run's first non-finite output on the pair's
        draw."""
        times, sizes = draw_compound_poisson_jumps(
            self.JUMPS, (cfg.steps - 1) * cfg.step_size, cfg)
        with pytest.raises(UnstableModel) as error:
            simulate_compound_poisson(ss, times, sizes, cfg)
        return float(str(error.value).rpartition("t=")[2])

    def test_cp_pair_reports_model_1_over_an_earlier_model_2(self):
        cfg = SimulationConfig(step_size=1.0, steps=3000, seed=1)
        slow = self.cp_overflow_time(self.SLOW, cfg)
        fast = self.cp_overflow_time(self.FAST, cfg)
        assert slow // simulate.PATH_CHUNK > fast // simulate.PATH_CHUNK
        for second in (self.FAST, self.SLOW, self.STABLE):
            with pytest.raises(UnstableModel, match=f"output at t={slow:.17g}$"):
                simulate_compound_poisson_pair(self.SLOW, second, self.JUMPS, cfg)

    def test_cp_pair_refuses_model_2_entries_before_model_1_runs(self, no_draw):
        cfg = SimulationConfig(step_size=1.0, steps=3000, seed=1)
        with pytest.raises(OutOfRange, match="model entry"):
            simulate_compound_poisson_pair(self.SLOW, self.HUGE, self.JUMPS, cfg)

    def test_cp_pair_reports_model_2_when_only_it_overflows(self):
        cfg = SimulationConfig(step_size=1.0, steps=3000, seed=1)
        fast = self.cp_overflow_time(self.FAST, cfg)
        with pytest.raises(UnstableModel, match=f"output at t={fast:.17g}$"):
            simulate_compound_poisson_pair(self.STABLE, self.FAST, self.JUMPS, cfg)
        with pytest.raises(OutOfRange, match="model entry"):
            simulate_compound_poisson_pair(self.STABLE, self.HUGE, self.JUMPS, cfg)


@pytest.fixture
def no_draw(monkeypatch):
    """Fail any run that reaches its random streams."""
    def streams(self):
        raise AssertionError("drew random numbers before refusing the run")

    monkeypatch.setattr(SimulationConfig, "streams", streams)


class TestPathSizeCap:
    @pytest.fixture
    def small_cap(self, monkeypatch, no_draw):
        monkeypatch.setattr(simulate, "MAX_PATH_VALUES", 1000)

    def test_all_simulators_reject_before_drawing(self, small_cap):
        ss = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])
        over = SimulationConfig(step_size=0.1, steps=1001, seed=1)
        # the Euler pair's largest array is one chunk's B dL_i rows of both
        # models: 500 fine steps of 1 + 1 states
        fine = SimulationConfig(step_size=0.1, steps=51, seed=1,
                                euler_substeps=10)
        runs = [
            lambda: simulate_brownian(ss, [[1.0]], over),
            lambda: simulate_compound_poisson(ss, [], [], over),
            lambda: simulate_shared_brownian_pair(ss, ss, [[1.0]], over),
            lambda: simulate_compound_poisson_pair(ss, ss, LevyDriverSpec(
                1.0, GaussianJumps(mean=[0.0], cov=[[1.0]])), over),
        ]
        for run in runs:
            with pytest.raises(OutOfRange, match="MAX_PATH_VALUES = 1000"):
                run()
        with pytest.raises(AssertionError, match="before refusing the run"):
            simulate_shared_brownian_pair(ss, ss, [[1.0]], fine)
        with pytest.raises(OutOfRange, match="1020 values"):
            simulate_shared_brownian_pair(
                ss, ss, [[1.0]], SimulationConfig(step_size=0.1, steps=52,
                                                  seed=1, euler_substeps=10))

    @pytest.mark.parametrize("init, width, error", [
        ("stationary", 1, ValueError),
        ("zero", 2, DimensionMismatch),
    ], ids=["stationary-start", "jump-width"])
    def test_pair_refuses_before_drawing(self, no_draw, init, width, error):
        # about 4.9 million jumps would be drawn before the refusal
        ss = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])
        driver = LevyDriverSpec(1e5, GaussianJumps(mean=np.zeros(width),
                                                   cov=np.eye(width)))
        cfg = SimulationConfig(step_size=0.1, steps=491, seed=1, init=init)
        with pytest.raises(error):
            simulate_compound_poisson_pair(ss, ss, driver, cfg)

    def test_out_of_range_model_refused_before_drawing(self, no_draw):
        # in either position of a pair, and alone as `simulate --driver cp`
        # runs it
        huge, driver = TestRecordPath.HUGE, TestRecordPath.JUMPS
        runs = [
            lambda: simulate._compound_poisson_run((huge,), driver, GRID),
            lambda: simulate_shared_brownian_pair(OU, huge, [[1.0]], GRID),
            lambda: simulate_shared_brownian_pair(huge, OU, [[1.0]], GRID),
            lambda: simulate_compound_poisson_pair(OU, huge, driver, GRID),
            lambda: simulate_compound_poisson_pair(huge, OU, driver, GRID),
        ]
        for run in runs:
            with pytest.raises(OutOfRange, match="model entry"):
                run()

    def test_cap_counts_the_state_dimension(self, small_cap, monkeypatch):
        ss = StateSpaceModel(a=[[-1, 0], [0, -1]], b=[[1], [1]], c=[[1, 1]])
        cfg = SimulationConfig(step_size=0.1, steps=501, seed=1)
        with pytest.raises(OutOfRange, match="1002 values"):
            simulate_brownian(ss, [[1.0]], cfg)
        # the Euler pair forms B dL_i for each fine step of a chunk, 2 + 2
        # values a step for the pair: 600 steps hold 2400 values, and 400
        # hold 1600, though the fine increments (600 or 400 values) and each
        # model's states (202) fit
        fine = [SimulationConfig(step_size=0.1, steps=101, seed=1,
                                 euler_substeps=sub) for sub in (6, 4)]
        for cfg, count in zip(fine, (2400, 1600)):
            with pytest.raises(OutOfRange, match=f"{count} values"):
                simulate_shared_brownian_pair(ss, ss, [[1.0]], cfg)
        # at chunks of 4 rows, the rows of 4 coarse steps of 6 fine steps
        # (96 values) are formed at a time, and the run is not refused
        monkeypatch.setattr(simulate, "PATH_CHUNK", 4)
        with pytest.raises(AssertionError, match="before refusing the run"):
            simulate_shared_brownian_pair(ss, ss, [[1.0]], fine[0])

    def test_cap_counts_jump_sizes(self, small_cap):
        # 600 expected jumps of two inputs: a size array of 1200 values
        jumps = GaussianJumps(mean=np.zeros(2), cov=np.eye(2))
        for rate, horizon, shown in [(6.0, 100.0, "1200"),
                                     (math.inf, 100.0, "inf"),
                                     (math.inf, 0.0, "nan")]:
            with pytest.raises(OutOfRange, match=f"needs {shown} values"):
                draw_compound_poisson_jumps(LevyDriverSpec(rate, jumps),
                                            horizon, GRID)

    @staticmethod
    def largest_runs(cap: int) -> dict:
        """Per engine, the largest one-state run that a cap of ``cap``
        values admits: ``cap`` grid rows, and for the crowded compound
        Poisson run about 0.99 * cap jumps as well."""
        cfg = SimulationConfig(step_size=0.01, steps=cap, seed=1)
        jumps = GaussianJumps(mean=[0.0], cov=[[1.0]])
        crowded = 0.99 * cap / ((cap - 1) * cfg.step_size)
        return {
            "brownian": lambda: simulate_brownian(OU, [[1.0]], cfg),
            "cp-few-jumps": lambda: simulate._compound_poisson_run(
                (OU,), LevyDriverSpec(1e-3, jumps), cfg),
            "cp-jumps-at-cap": lambda: simulate._compound_poisson_run(
                (OU,), LevyDriverSpec(crowded, jumps), cfg),
            "euler-pair": lambda: simulate_shared_brownian_pair(
                OU, OU, [[1.0]], cfg),
        }

    @pytest.mark.parametrize("engine", ["brownian", "cp-few-jumps",
                                        "cp-jumps-at-cap", "euler-pair"])
    def test_admitted_run_memory_bound(self, monkeypatch, engine):
        # Peak traced memory scales with the run's size, so a run at a cap
        # of 10^5 values, scaled up to MAX_PATH_VALUES, bounds the peak of
        # the largest run the real cap admits.
        cap, real = 10**5, simulate.MAX_PATH_VALUES
        self.largest_runs(2000)[engine]()    # scipy and numpy set up first
        monkeypatch.setattr(simulate, "MAX_PATH_VALUES", cap)
        run = self.largest_runs(cap)[engine]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cap * real <= 2e9


class TestCsvOutput:
    SPECIALS = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e17, 1 / 3]

    @staticmethod
    def reference_csv(path) -> bytes:
        """Every value formatted on its own, as `t,y1,...,yd` rows."""
        lines = ["t," + ",".join(f"y{i + 1}" for i in range(path.d))]
        for t, row in zip(path.times, path.outputs):
            lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
        return ("\n".join(lines) + "\n").encode("ascii")

    @pytest.mark.parametrize("d", [1, 3])
    def test_bytes_match_per_value_writer(self, tmp_path, d):
        rng = np.random.default_rng(9)
        rows = 2 * simulate.PATH_CHUNK + 5  # crosses two block boundaries
        long = (rng.standard_normal((rows, d + 1))
                * 10.0 ** rng.integers(-300, 300, (rows, d + 1)))
        long[::97] = np.resize(self.SPECIALS, long[::97].shape)
        tables = [np.full((1, d + 1), v) for v in self.SPECIALS]
        tables += [np.resize(self.SPECIALS, (7, d + 1)), long]
        target = tmp_path / "path.csv"
        for table in tables:
            path = SamplePath(times=table[:, 0], outputs=table[:, 1:])
            path.to_csv(target)
            assert target.read_bytes() == self.reference_csv(path)

    def test_round_trip_and_header(self, tmp_path):
        times = np.array([0.0, 0.1, 0.2])
        outputs = np.array([[1.0, -2.0], [1 / 3, math.pi], [1e-17, 123456.789]])
        path = SamplePath(times=times, outputs=outputs)
        target = tmp_path / "path.csv"
        path.to_csv(target)
        lines = target.read_text().splitlines()
        assert lines[0] == "t,y1,y2"
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in lines[1:]])
        assert_array_equal(parsed[:, 0], times)
        assert_array_equal(parsed[:, 1:], outputs)


# ---------------------------------------------------------------------------
# Refusals the tests above do not reach
# ---------------------------------------------------------------------------

OU = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])
GRID = SimulationConfig(step_size=0.1, steps=10, seed=1)
REFUSALS = {
    "jump-mean-cov-sizes": (
        lambda: GaussianJumps(mean=[0.0, 0.0], cov=[[1.0]]),
        DimensionMismatch, "sizes disagree"),
    "jump-cov-not-square": (
        lambda: GaussianJumps(mean=[0.0], cov=[[1.0, 0.0]]),
        DimensionMismatch, "jump covariance must be square"),
    "atom-probability-count": (
        lambda: FixedAtomJumps(atoms=[[1.0], [2.0]], probabilities=[1.0]),
        DimensionMismatch, "one probability per atom"),
    "atom-probability-negative": (
        lambda: FixedAtomJumps(atoms=[[1.0], [2.0]], probabilities=[1.5, -0.5]),
        ValueError, "nonnegative"),
    "step-size-zero": (
        lambda: SimulationConfig(step_size=0.0, steps=10, seed=1),
        ValueError, "step size must be positive"),
    "step-size-bool": (  # not a step of 1
        lambda: SimulationConfig(step_size=True, steps=10, seed=1),
        ValueError, "step_size must be a real number, got True"),
    "step-size-string": (
        lambda: SimulationConfig(step_size="0.1", steps=10, seed=1),
        ValueError, "step_size must be a real number, got '0.1'"),
    "step-size-complex": (
        lambda: SimulationConfig(step_size=0.1j, steps=10, seed=1),
        ValueError, "step_size must be a real number, got 0.1j"),
    "steps-zero": (
        lambda: SimulationConfig(step_size=0.1, steps=0, seed=1),
        ValueError, "at least one step"),
    "steps-past-double-range": (  # the step count itself overflows a double
        lambda: SimulationConfig(step_size=0.1, steps=10**400, seed=1),
        OutOfRange, "ends past the double range"),
    "init-unknown": (
        lambda: SimulationConfig(step_size=0.1, steps=10, seed=1, init="warm"),
        ValueError, "init must be"),
    "euler-substeps-zero": (
        lambda: SimulationConfig(step_size=0.1, steps=10, seed=1,
                                 euler_substeps=0),
        ValueError, "euler_substeps must be at least 1"),
    "steps-float": (
        lambda: SimulationConfig(step_size=0.1, steps=10.5, seed=1),
        ValueError, "steps must be an integer, got 10.5"),
    "steps-bool": (
        lambda: SimulationConfig(step_size=0.1, steps=True, seed=1),
        ValueError, "steps must be an integer, got True"),
    "euler-substeps-float": (
        lambda: SimulationConfig(step_size=0.1, steps=10, seed=1,
                                 euler_substeps=2.5),
        ValueError, "euler_substeps must be an integer, got 2.5"),
    "path-rows": (  # a 1-D output is one column
        lambda: SamplePath(times=[0.0, 0.1], outputs=[1.0, 2.0, 3.0]),
        DimensionMismatch, "one output row per grid time"),
    "path-non-finite": (  # a bare container has no drift to call unstable
        lambda: SamplePath(times=[0.0], outputs=[[math.nan]]),
        OutOfRange, "first non-finite output at t=0$"),
    "pair-input-dims": (
        lambda: simulate_shared_brownian_pair(OU, TWO_INPUTS, [[1.0]], GRID),
        DimensionMismatch, "driver's input dimension m = 1"),
    "cp-stationary-start": (
        lambda: simulate_compound_poisson(
            OU, [], [], SimulationConfig(step_size=0.1, steps=10, seed=1,
                                         init="stationary")),
        ValueError, "only simulate_brownian takes a stationary start"),
    "autocov-lag-nan": (
        lambda: theoretical_autocov(OU, [[1.0]], [0.0, math.nan]),
        ValueError, "time lags must be nonnegative"),
    "autocov-lag-negative": (
        lambda: theoretical_autocov(OU, [[1.0]], [-0.1]),
        ValueError, "time lags must be nonnegative"),
    "seed-negative": (
        lambda: SimulationConfig(step_size=0.1, steps=10, seed=-1),
        ValueError, "seed must be a nonnegative integer"),
    "seed-fraction": (
        lambda: SimulationConfig(step_size=0.1, steps=10, seed=1.5),
        ValueError, "seed must be a nonnegative integer"),
    "seed-bool": (  # True would otherwise run as seed 1
        lambda: SimulationConfig(step_size=0.1, steps=10, seed=True),
        ValueError, "seed must be a nonnegative integer"),
    # a 2x2 driver covariance for the one-input OU model
    "brownian-sigma-size": (
        lambda: simulate_brownian(OU, np.eye(2), GRID),
        DimensionMismatch, "driver covariance must be 1x1"),
    "euler-pair-sigma-size": (
        lambda: simulate_shared_brownian_pair(OU, OU, np.eye(2), GRID),
        DimensionMismatch, "driver covariance must be 1x1"),
    "stationary-covariance-sigma-size": (
        lambda: stationary_covariance(OU, np.eye(2)),
        DimensionMismatch, "driver covariance must be 1x1"),
    "step-params-sigma-size": (
        lambda: gaussian_step_params(OU, np.eye(2), 0.1),
        DimensionMismatch, "driver covariance must be 1x1"),
    "spectral-density-sigma-size": (
        lambda: spectral_density(transfer_function(OU), np.eye(2), 1.0),
        DimensionMismatch, "driver covariance must be 1x1"),
    "autocov-sigma-size": (
        lambda: theoretical_autocov(OU, np.eye(2), [0.0]),
        DimensionMismatch, "driver covariance must be 1x1"),
}
# B Sigma B^T overflows on an unstable drift: out of range before the
# stability check, at every function that forms it
NOISE_BEYOND_RANGE = StateSpaceModel(a=[[1]], b=[[10**200]], c=[[1]])
REFUSALS.update({
    f"{target}-noise-beyond-range": (call, OutOfRange, "noise covariance")
    for target, call in {
        "stationary-covariance": lambda: stationary_covariance(
            NOISE_BEYOND_RANGE, [[1.0]]),
        "autocov": lambda: theoretical_autocov(NOISE_BEYOND_RANGE, [[1.0]], [0.0]),
        "brownian-stationary": lambda: simulate_brownian(
            NOISE_BEYOND_RANGE, [[1.0]], SimulationConfig(
                step_size=0.1, steps=10, seed=1, init="stationary")),
    }.items()})
# one state and 1000 outputs: 20000 steps build 2e7 output values, over the
# cap, though the states fit
WIDE = StateSpaceModel(a=[[-1]], b=[[1]], c=[[k] for k in range(1, 1001)])
LONG = SimulationConfig(step_size=0.01, steps=20000, seed=1)
REFUSALS.update({
    f"{target}-outputs-over-cap": (call, OutOfRange, "path needs 20000000 values")
    for target, call in {
        "brownian": lambda: simulate_brownian(WIDE, [[1.0]], LONG),
        "euler-pair": lambda: simulate_shared_brownian_pair(
            WIDE, WIDE, [[1.0]], LONG),
        "cp": lambda: simulate_compound_poisson(WIDE, [], [], LONG),
        "cp-pair": lambda: simulate_compound_poisson_pair(
            WIDE, WIDE, TestRecordPath.JUMPS, LONG),
    }.items()})
# a driver covariance of the right size but not PSD, not symmetric or not
# finite, at every function that takes one
REFUSALS.update({
    f"{target}-sigma-{bad}": (functools.partial(call, ss, sigma), ValueError,
                              "driver covariance must be")
    for bad, (ss, sigma) in {
        "not-psd": (OU, [[-1.0]]),
        "asymmetric": (TWO_INPUTS, [[1.0, 0.5], [0.0, 1.0]]),
        "nan": (OU, [[math.nan]])}.items()
    for target, call in {
        "stationary-covariance": stationary_covariance,
        "step-params": lambda ss, sigma: gaussian_step_params(ss, sigma, 0.1),
        "autocov": lambda ss, sigma: theoretical_autocov(ss, sigma, [0.0]),
        "spectral-density": lambda ss, sigma: spectral_density(
            transfer_function(ss), sigma, 1.0)}.items()})


@pytest.mark.parametrize("call, error, match", REFUSALS.values(),
                         ids=list(REFUSALS))
def test_refusals(call, error, match, no_draw):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call", [
    lambda: simulate_brownian(OU, [[1.0]], SimulationConfig(
        step_size=0.1, steps=10, seed=1, init="stationary")),
    lambda: theoretical_autocov(OU, [[1.0]], [0.0, 0.5]),
], ids=["brownian-stationary", "autocov"])
def test_sigma_checked_and_model_converted_once(monkeypatch, call):
    calls = {}
    for name in ("_driver_covariance", "ss_to_float"):
        def counted(*args, name=name, inner=getattr(simulate, name)):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args)
        monkeypatch.setattr(simulate, name, counted)
    call()
    assert calls == {"_driver_covariance": 1, "ss_to_float": 1}


def test_clamp_psd_zeroes_negative_eigenvalues():
    # a covariance rounded slightly indefinite is projected onto the PSD cone
    assert_array_equal(simulate._clamp_psd(np.diag([2.0, -1e-17])),
                       np.diag([2.0, 0.0]))
