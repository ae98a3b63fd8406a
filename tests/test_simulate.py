"""Tests for the stochastic simulation layer.

Closed-form scalar Ornstein-Uhlenbeck quantities and a numerical-quadrature
integral serve as oracles for the matrix-exponential and Lyapunov machinery;
pathwise checks pin determinism and the shared-driver equivalence property.
"""

import math
import random
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
        # Stable, but the Lyapunov solve misses its residual tolerance.
        ss = StateSpaceModel(a=[["-1/100000", 100000000], [0, "-1/100000"]],
                             b=[[0], [1]], c=[[1, 0]])
        with pytest.raises(UnstableModel, match="Lyapunov solve residual"):
            stationary_covariance(ss, [[1.0]])

    def test_perturbed_solve_reports_only_the_residual(self):
        # scipy perturbs this problem and warns; the residual check decides.
        ss = StateSpaceModel(a=[[-1, 10**300], [0, -1]], b=[[1], [0]],
                             c=[[1, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableModel, match="Lyapunov solve residual"):
                stationary_covariance(ss, [[1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_guard_holds_for_huge_covariance(self):
        # ||q|| and the residual both overflow unscaled; the guard still bites
        ss = StateSpaceModel(a=[["-1/100000", 100000000], [0, "-1/100000"]],
                             b=[[0], [1]], c=[[1, 0]])
        with pytest.raises(UnstableModel, match="Lyapunov solve residual"):
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
    def test_noiseless_decay(self):
        ss = StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[0], [1]], c=[[1, 0]])
        cfg = SimulationConfig(step_size=0.25, steps=30, seed=5, x0=(1.0, -0.5))
        path = simulate_brownian(ss, [[0.0]], cfg)
        a, _, c = ss_to_float(ss)
        phi = expm(a * cfg.step_size)
        x = np.array([1.0, -0.5])
        for k in range(cfg.steps):
            assert_allclose(path.outputs[k], c @ x, rtol=1e-10, atol=1e-14)
            x = phi @ x
        assert path.times[0] == 0.0
        assert_allclose(path.times[-1], 0.25 * 29)

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

    def test_initial_state_dimension_checked(self):
        ss = scalar_model(1.0)
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1, x0=(1.0, 2.0))
        with pytest.raises(DimensionMismatch):
            simulate_brownian(ss, [[1.0]], cfg)


class TestSharedBrownianPair:
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

    def test_no_jumps_is_deterministic_decay(self):
        ss = StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[0], [1]], c=[[1, 0]])
        cfg = SimulationConfig(step_size=0.2, steps=25, seed=3, x0=(1.0, 1.0))
        path = simulate_compound_poisson(ss, [], [], cfg)
        a, _, c = ss_to_float(ss)
        for t, y in zip(path.times, path.outputs):
            assert_allclose(y, c @ expm(a * t) @ np.array([1.0, 1.0]),
                            rtol=1e-11, atol=1e-14)

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

    def test_unsorted_jump_times_rejected(self):
        cfg = SimulationConfig(step_size=0.1, steps=10, seed=1)
        with pytest.raises(ValueError, match="sorted"):
            simulate_compound_poisson(scalar_model(1.0), [0.5, 0.2],
                                      [[1.0], [1.0]], cfg)

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
        hold at most ``PATH_CHUNK`` matrices."""
        sizes = []

        def counted(stack):
            assert stack.ndim == 3 and len(stack) <= simulate.PATH_CHUNK
            sizes.append(len(stack))
            return expm(stack)

        monkeypatch.setattr(simulate, "expm", counted)
        return sizes

    @staticmethod
    def reference_path(ss, jump_times, jump_sizes, cfg, x0):
        """Jump by jump: flow to each jump time in order, add B dL, then flow
        to the grid time; jumps at t <= 0 fall in the first step."""
        a, b, c = ss_to_float(ss)
        h = cfg.step_size
        states = [np.asarray(x0, dtype=float)]
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
        states = np.array(states)
        return states, states @ c.T

    H = 0.05

    @pytest.mark.parametrize("times", [
        [],                                       # no jumps
        [0.0],                                    # a jump at t = 0
        [0.0, 0.0, 5 * H, 5 * H, 6 * H, 14 * H],  # on k*h, several per step
        [-0.01, 0.05, 0.12, 0.13, 0.14, 0.95, 1.1],  # off grid, before and past
        # step 2 holds more flow intervals than a window of 4
        [0.06, 0.065, 0.07, 0.07, 0.08, 0.09, 2 * H],
        # at and before t = 0, on k*h, and windows of 4 split inside steps
        [-0.3, -0.0, 0.0, 0.01, H, 0.07, 0.08, 3 * H, 3 * H, 0.16, 0.17,
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
            for x0 in (None, (1.0, -0.5, 0.25)):
                cfg = SimulationConfig(step_size=self.H, steps=21, seed=3, x0=x0)
                path = simulate_compound_poisson(ss, times, sizes, cfg)
                states, outputs = self.reference_path(
                    ss, times, sizes, cfg, np.zeros(3) if x0 is None else x0)
                assert_array_equal(path.states, states)
                assert_array_equal(path.outputs, outputs)

    def test_jump_free_path_takes_one_small_stack_per_window(self, expm_calls):
        ss = StateSpaceModel(a=[[0, 1], [-2, -3]], b=[[0], [1]], c=[[1, 0]])
        cfg = SimulationConfig(step_size=0.05, steps=10 * simulate.PATH_CHUNK,
                               seed=3, x0=(1.0, 1.0))
        simulate_compound_poisson(ss, [], [], cfg)
        # k*h - (k-1)*h rounds to about a dozen distinct gaps per window
        assert len(expm_calls) == 10
        assert max(expm_calls) <= 16


class TestStackedExpm:
    """The compound Poisson simulator relies on scipy's stacked ``expm``
    giving each slice the bits of a separate call; a scipy whose batch path
    breaks that fails here rather than in the seeded paths."""

    @pytest.mark.parametrize("a", [
        [[-1.3]],
        [[-0.5, 2.0], [-1.0, -0.25]],
        np.diag([-1.0, -2.5, 0.75]),
        [[-1.0, 1 / 3, 0.0], [0.2, -2.0, 1.0], [0.5, -0.7, -3.0]],
        np.random.default_rng(6).standard_normal((6, 6)),
        [[-50.0, 400.0, 3.0], [0.0, -20.0, 900.0], [0.0, 0.0, -5.0]],
    ], ids=["1x1", "2x2", "diagonal", "dense-3x3", "dense-6x6",
            "triangular-squaring"])
    def test_slices_equal_separate_calls(self, a):
        a = np.asarray(a, dtype=float)
        gaps = np.array([0.05, 0.05 + 2 ** -40, 1.7, 0.0, -0.0, -0.3, -1e-9])
        stack = expm(a * gaps[:, None, None])
        for gap, e in zip(gaps, stack):
            assert e.tobytes() == expm(a * gap).tobytes()


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
        with pytest.raises(ValueError):
            empirical_autocov(path, 4)

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
        calls = []

        def advance(k, x):
            calls.append(k)
            return 10.0 * x

        cfg = SimulationConfig(step_size=1.0, steps=50 * simulate.PATH_CHUNK,
                               seed=0)
        with pytest.raises(UnstableModel, match="output at t=309$"):
            simulate._record_path(np.ones(1), cfg, advance, np.ones((1, 1)))
        assert calls == list(range(1, len(calls) + 1))
        assert 309 <= len(calls) < 309 + simulate.PATH_CHUNK

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


class TestPathSizeCap:
    @pytest.fixture
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_PATH_VALUES", 1000)

        def no_draw(self):
            raise AssertionError("drew random numbers past the path cap")

        monkeypatch.setattr(SimulationConfig, "streams", no_draw)

    def test_all_simulators_reject_before_drawing(self, small_cap):
        ss = StateSpaceModel(a=[[-1]], b=[[1]], c=[[1]])
        over = SimulationConfig(step_size=0.1, steps=1001, seed=1)
        fine = SimulationConfig(step_size=0.1, steps=101, seed=1,
                                euler_substeps=10)  # 1000 fine increments
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
        with pytest.raises(AssertionError, match="past the path cap"):
            simulate_shared_brownian_pair(ss, ss, [[1.0]], fine)
        with pytest.raises(OutOfRange, match="1010 values"):
            simulate_shared_brownian_pair(
                ss, ss, [[1.0]], SimulationConfig(step_size=0.1, steps=102,
                                                  seed=1, euler_substeps=10))

    def test_cap_counts_the_state_dimension(self, small_cap):
        ss = StateSpaceModel(a=[[-1, 0], [0, -1]], b=[[1], [1]], c=[[1, 1]])
        cfg = SimulationConfig(step_size=0.1, steps=501, seed=1)
        with pytest.raises(OutOfRange, match="1002 values"):
            simulate_brownian(ss, [[1.0]], cfg)


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
