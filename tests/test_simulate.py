"""Tests for the stochastic simulation layer.

Closed-form scalar Ornstein-Uhlenbeck quantities and a numerical-quadrature
integral serve as oracles for the matrix-exponential and Lyapunov machinery;
pathwise checks pin determinism and the shared-driver equivalence property.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad_vec
from scipy.linalg import expm

from carmakit.errors import DimensionMismatch, PoleOnEvaluationAxis, UnstableModel
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

class TestDriverValidation:
    def test_brownian_needs_psd_covariance(self):
        with pytest.raises(ValueError):
            LevyDriverSpec.brownian([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            LevyDriverSpec.brownian([[1.0, 0.5], [0.0, 1.0]])

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            LevyDriverSpec.compound_poisson(
                0.0, GaussianJumps(mean=[0.0], cov=[[1.0]]))

    def test_atom_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FixedAtomJumps(atoms=[[1.0]], probabilities=[0.5])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LevyDriverSpec(kind="gamma")


class TestCsvOutput:
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
