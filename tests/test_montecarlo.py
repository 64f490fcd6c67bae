import math
import tracemalloc

import numpy as np
import pytest

from conftest import reference_params
from duomech import (
    ConfigError,
    McEstimate,
    PhysicalityError,
    SdeConfig,
    StabilityError,
    SystemMatrices,
    UnsupportedBranchError,
    check_stability,
    compare_to_lyapunov,
    derive,
    figure_preset,
    integrate_steady_covariance,
    solve_lyapunov,
    system_matrices,
    write_comparison_csv,
)
from duomech import dynamics, montecarlo

TWO_PI = 2 * math.pi
KAPPA = TWO_PI * 14000.0


# fast-relaxing configuration for statistical tests (gamma/kappa = 0.05)
def fast_params(**overrides):
    return reference_params(gamma=0.05 * KAPPA, **overrides)


FAST_CONFIG = SdeConfig(dt=0.005, burn_in=220.0, sample_duration=450.0,
                        n_trajectories=32, seed=101)


class TestSdeConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0), dict(dt=-0.1), dict(n_trajectories=0),
        dict(burn_in=-1.0), dict(sample_duration=0.0),
        dict(seed=-1), dict(n_trajectories=1),
        dict(n_trajectories=2.5), dict(seed=1.5), dict(seed=True),
        dict(n_trajectories=True), dict(seed="3"),
        dict(dt="0.1"), dict(burn_in="5"), dict(sample_duration=[1]),
        dict(dt=True), dict(burn_in=True), dict(sample_duration=True),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SdeConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        config = SdeConfig(n_trajectories=np.int64(4), seed=np.uint32(3))
        assert config.n_trajectories == 4 and config.seed == 3
        # any real, numpy floats and integers included, is a valid duration
        config = SdeConfig(dt=np.float32(0.01), burn_in=300)
        assert config.dt == np.float32(0.01) and config.burn_in == 300

    def test_too_coarse_dt_rejected_at_integration(self):
        matrices = system_matrices(derive(fast_params()))
        with pytest.raises(ConfigError, match="too coarse"):
            integrate_steady_covariance(matrices, SdeConfig(dt=0.05))

    def test_too_short_burn_in_rejected(self):
        matrices = system_matrices(derive(fast_params()))
        with pytest.raises(ConfigError, match="burn_in"):
            integrate_steady_covariance(
                matrices, SdeConfig(burn_in=50.0, sample_duration=100.0)
            )


class TestNoiseIncrements:
    # each Euler-Maruyama step draws factor @ N(0, dt I), so the increment
    # covariance is L L^T dt with L = _noise_factor(R)

    @staticmethod
    def assert_factors(noise):
        factor = montecarlo._noise_factor(noise)
        assert np.max(np.abs(factor @ factor.T - noise)) <= 1e-12 * np.max(np.abs(noise))

    def test_vacuum_variances(self):
        # r = 0, T = 0: independent increments, variances gamma dt / 2 and kappa dt / 2
        d = derive(reference_params(squeezing_r=0.0, temperature=0.0))
        noise = system_matrices(d).noise
        assert np.array_equal(noise, np.diag([d.gamma / 2] * 4 + [d.kappa / 2] * 4))
        self.assert_factors(noise)

    def test_squeezed_cross_correlation(self):
        # q_c1/q_c2 increments correlate by +M kappa dt, Y_c1/Y_c2 by -M kappa dt
        for r_sq in (1.0, 3.0):
            d = derive(reference_params(squeezing_r=r_sq, temperature=0.0))
            noise = system_matrices(d).noise
            assert noise[4, 6] == d.m_sq * d.kappa and noise[5, 7] == -d.m_sq * d.kappa
            self.assert_factors(noise)

    def test_singular_psd_noise_falls_back_to_eigh(self):
        # exact zero pivots: Cholesky refuses, the eigendecomposition factors it
        noise = np.kron(np.ones((2, 2)), np.diag([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(noise)
        self.assert_factors(noise)

    def test_non_psd_noise_refused(self):
        drift = system_matrices(derive(fast_params())).drift
        bad = SystemMatrices(drift=drift, noise=-np.eye(8))
        with pytest.raises(PhysicalityError, match="positive semidefinite"):
            integrate_steady_covariance(bad, FAST_CONFIG)


class TestIntegration:
    def test_vacuum_limit(self):
        d = derive(fast_params(cooperativity=0.0, hopping_lambda=0.0,
                               squeezing_r=0.0, temperature=0.0))
        est = integrate_steady_covariance(system_matrices(d), FAST_CONFIG)
        dev = np.abs(est.cov_estimate - 0.5 * np.eye(8))
        assert np.all(dev <= 4.0 * est.std_error + 1e-12)

    def test_thermal_limit(self):
        d = derive(fast_params(cooperativity=0.0, hopping_lambda=0.0,
                               squeezing_r=0.0))
        est = integrate_steady_covariance(system_matrices(d), FAST_CONFIG)
        expected = np.diag([d.n_th + 0.5] * 4 + [0.5] * 4)
        assert np.all(np.abs(est.cov_estimate - expected) <= 4.0 * est.std_error + 1e-12)

    def test_without_a_config_integrates_the_default_one(self):
        # gamma = kappa: the default durations 20/gamma and 200/gamma are
        # 4000 burn-in and 40 000 sampled steps of dt = 0.005
        matrices = system_matrices(derive(reference_params(gamma=KAPPA, cooperativity=1.0)))
        est = integrate_steady_covariance(matrices)
        assert est.config == SdeConfig()
        assert est.n_samples == 128 * 40_000
        assert compare_to_lyapunov(est, solve_lyapunov(matrices)).passed

    def test_seed_determinism(self):
        matrices = system_matrices(derive(fast_params()))
        config = SdeConfig(burn_in=220.0, sample_duration=230.0,
                           n_trajectories=8, seed=5)
        a = integrate_steady_covariance(matrices, config)
        b = integrate_steady_covariance(matrices, config)
        assert np.array_equal(a.cov_estimate, b.cov_estimate)
        assert np.array_equal(a.std_error, b.std_error)
        assert a.n_samples == b.n_samples

    def test_block_boundary_does_not_matter(self, monkeypatch):
        # the random stream is the same however the steps are blocked: one
        # block for the whole run is the reference, 997 does not divide the
        # 8000 burn-in steps so one block spans the end of burn-in, and
        # 1-step blocks catch a carried state aliasing a reused path row
        # (4 trajectories keep the one-block buffers at 3.6 MB each)
        matrices = system_matrices(derive(reference_params(gamma=0.3 * KAPPA)))
        config = SdeConfig(burn_in=40.0, sample_duration=30.0,
                           n_trajectories=4, seed=13)
        n_burn = round(config.burn_in / config.dt)
        n_total = n_burn + round(config.sample_duration / config.dt)
        step_bytes = 8 * config.n_trajectories * 8
        assert n_burn % 997 != 0

        def run(block_steps):
            monkeypatch.setattr(montecarlo, "_BUFFER_BYTES", block_steps * step_bytes)
            return integrate_steady_covariance(matrices, config)

        whole = run(2 * n_total)
        scale = np.max(np.abs(whole.cov_estimate))
        for block_steps in (997, 1):
            blocked = run(block_steps)
            assert np.max(np.abs(blocked.cov_estimate - whole.cov_estimate)) <= 1e-12 * scale
            assert np.max(np.abs(blocked.std_error - whole.std_error)) <= 1e-12 * scale
            assert blocked.n_samples == whole.n_samples

    @pytest.mark.parametrize("block_steps", [1, 997, 256])
    def test_block_scan_matches_a_step_by_step_loop(self, monkeypatch, block_steps):
        # 1-step blocks leave one chunk of one step; 997 = 32 chunks of 31
        # steps and 5 left over; 8001 burn-in steps are a multiple of neither
        # 31 nor 16 (the chunk length of 256-step blocks)
        matrices = system_matrices(derive(reference_params(gamma=0.3 * KAPPA)))
        config = SdeConfig(burn_in=40.005, sample_duration=30.0,
                           n_trajectories=4, seed=17)
        n_burn = round(config.burn_in / config.dt)
        n_sample = round(config.sample_duration / config.dt)
        assert n_burn % 31 != 0 and n_burn % 16 != 0

        # the Euler-Maruyama recursion written out, one draw per step
        kappa = check_stability(matrices.drift).rates[1]
        stepper = np.eye(8) + matrices.drift / kappa * config.dt
        factor = montecarlo._noise_factor(matrices.noise / kappa) * math.sqrt(config.dt)
        rng = np.random.Generator(np.random.PCG64(config.seed))
        u = np.zeros((config.n_trajectories, 8))
        acc = np.zeros((config.n_trajectories, 8, 8))
        for k in range(n_burn + n_sample):
            u = u @ stepper.T + rng.standard_normal(u.shape) @ factor.T
            if k >= n_burn:
                acc += u[:, :, None] * u[:, None, :]
        per_traj = acc / n_sample
        cov = per_traj.mean(axis=0)
        std_error = per_traj.std(axis=0, ddof=1) / math.sqrt(config.n_trajectories)

        monkeypatch.setattr(montecarlo, "_BUFFER_BYTES", block_steps * 8 * 4 * 8)
        scanned = integrate_steady_covariance(matrices, config)
        scale = np.max(np.abs(cov))
        assert np.max(np.abs(scanned.cov_estimate - cov)) <= 1e-12 * scale
        assert np.max(np.abs(scanned.std_error - std_error)) <= 1e-12 * scale
        assert scanned.n_samples == config.n_trajectories * n_sample

    def test_working_set_does_not_grow_with_the_run(self):
        # 14 000 steps of 128 trajectories: two block buffers of about 2 MiB
        # each, where whole-run buffers would take 115 MB apiece
        matrices = system_matrices(derive(reference_params(gamma=0.3 * KAPPA)))
        config = SdeConfig(burn_in=40.0, sample_duration=30.0,
                           n_trajectories=128, seed=3)
        tracemalloc.start()
        try:
            integrate_steady_covariance(matrices, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_refuses_unstable_drift(self):
        bad = SystemMatrices(drift=np.eye(8), noise=np.eye(8))
        with pytest.raises(StabilityError):
            integrate_steady_covariance(bad, FAST_CONFIG)

    @pytest.mark.parametrize("at,rate", [(4, "kappa"), (0, "gamma")])
    def test_damping_off_the_read_diagonal_is_refused(self, at, rate):
        # strictly stable, but the damping of the quadratures at, at + 1 of
        # the mode whose rate is ``rate`` sits off the diagonal: not a drift
        # build_drift writes, so the stability check refuses it
        drift = -0.5 * np.eye(8)
        drift[at:at + 2, at:at + 2] = [[0.0, 1.0], [-1.0, -1.0]]
        assert np.linalg.eigvals(drift).real.max() < 0.0
        matrices = SystemMatrices(drift=drift, noise=np.eye(8))
        with pytest.raises(UnsupportedBranchError, match="build_drift"):
            integrate_steady_covariance(matrices, FAST_CONFIG)

    def test_undamped_mirrors_are_a_config_error(self):
        # gamma = 0 with coupling: a strictly stable drift build_drift writes,
        # but the oracle's durations scale with 1/gamma
        drift = dynamics._drift(0.0, KAPPA, 0.1 * KAPPA, 0.0)
        assert check_stability(drift).is_stable
        with pytest.raises(ConfigError, match="finite positive gamma"):
            integrate_steady_covariance(SystemMatrices(drift=drift, noise=np.eye(8)),
                                        FAST_CONFIG)

    def test_stable_drift_the_builders_do_not_write_is_refused(self):
        # fig3's held point at gamma = 0.05 kappa with a mirror-mirror
        # coupling 0.1 gamma I added: still strictly stable, but not a drift
        # build_drift writes, so its rates cannot be read back
        held = figure_preset("fig3").held
        d = derive(held.with_updates(gamma=0.05 * held.kappa))
        matrices = system_matrices(d)
        drift = matrices.drift.copy()
        drift[0:2, 2:4] = drift[2:4, 0:2] = 0.1 * d.gamma * np.eye(2)
        assert np.linalg.eigvals(drift).real.max() < 0.0
        config = SdeConfig(burn_in=220, sample_duration=1, n_trajectories=2, seed=1)
        with pytest.raises(UnsupportedBranchError, match="build_drift"):
            integrate_steady_covariance(
                SystemMatrices(drift=drift, noise=matrices.noise), config
            )

    def test_one_drift_rebuild_per_solve_and_per_integration(self, monkeypatch):
        # the stability check decodes W once; the solve and the oracle take
        # the rates from its report
        held = figure_preset("fig3").held
        matrices = system_matrices(derive(held.with_updates(gamma=0.05 * held.kappa)))
        calls = []
        rebuild = dynamics._drift

        def counted(*rates):
            calls.append(rates)
            return rebuild(*rates)

        monkeypatch.setattr(dynamics, "_drift", counted)
        solve_lyapunov(matrices)
        assert len(calls) == 1
        config = SdeConfig(burn_in=220, sample_duration=1, n_trajectories=2, seed=1)
        integrate_steady_covariance(matrices, config)
        assert len(calls) == 2

    def test_divergence_detector(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_DIVERGENCE_FACTOR", 1e-6)
        matrices = system_matrices(derive(fast_params()))
        with pytest.raises(PhysicalityError, match="diverged"):
            integrate_steady_covariance(matrices, FAST_CONFIG)

    def test_standard_error_shrinks_with_duration(self):
        matrices = system_matrices(derive(fast_params()))
        short = SdeConfig(burn_in=220.0, sample_duration=400.0,
                          n_trajectories=24, seed=19)
        long = SdeConfig(burn_in=220.0, sample_duration=800.0,
                         n_trajectories=24, seed=19)
        se_short = integrate_steady_covariance(matrices, short).std_error.mean()
        se_long = integrate_steady_covariance(matrices, long).std_error.mean()
        assert 1.2 <= se_short / se_long <= 1.7

    def test_step_size_robustness(self):
        # halving dt moves the converged entries by less than the noise
        matrices = system_matrices(derive(fast_params()))
        coarse = integrate_steady_covariance(
            matrices, SdeConfig(dt=0.005, burn_in=220.0, sample_duration=500.0,
                                n_trajectories=32, seed=23)
        )
        fine = integrate_steady_covariance(
            matrices, SdeConfig(dt=0.0025, burn_in=220.0, sample_duration=500.0,
                                n_trajectories=32, seed=29)
        )
        combined = np.sqrt(coarse.std_error**2 + fine.std_error**2)
        dev = np.abs(coarse.cov_estimate - fine.cov_estimate)
        assert np.all(dev <= 4.0 * combined + 1e-12)


class TestComparison:
    def test_exact_against_itself_is_all_zero(self):
        state = solve_lyapunov(system_matrices(derive(fast_params())))
        mc = McEstimate(cov_estimate=state.full.copy(),
                        std_error=np.zeros((8, 8)), n_samples=1,
                        config=SdeConfig())
        cmp = compare_to_lyapunov(mc, state)
        assert cmp.max_abs_z == 0.0
        assert cmp.passed

    def test_perturbation_is_flagged(self):
        state = solve_lyapunov(system_matrices(derive(fast_params())))
        bad = state.full.copy()
        bad[0, 0] *= 1.10
        mc = McEstimate(cov_estimate=bad,
                        std_error=np.full((8, 8), 1e-4), n_samples=1,
                        config=SdeConfig())
        cmp = compare_to_lyapunov(mc, state)
        assert not cmp.passed
        assert cmp.max_abs_z > 4.0

    def test_midpoint_of_squeezing_sweep_passes(self):
        # reduced sampling relative to the defaults, judged at the 4 SE level
        params = reference_params(squeezing_r=1.5)
        matrices = system_matrices(derive(params))
        state = solve_lyapunov(matrices)
        config = SdeConfig(dt=0.01, burn_in=2000.0, sample_duration=3000.0,
                           n_trajectories=24, seed=31)
        est = integrate_steady_covariance(matrices, config)
        cmp = compare_to_lyapunov(est, state)
        assert cmp.passed, (cmp.max_abs_z, cmp.n_unique_above_3se)

    def test_csv_artifact(self, tmp_path):
        state = solve_lyapunov(system_matrices(derive(fast_params())))
        mc = McEstimate(cov_estimate=state.full.copy(),
                        std_error=np.zeros((8, 8)), n_samples=10,
                        config=SdeConfig(seed=3))
        cmp = compare_to_lyapunov(mc, state)
        path = tmp_path / "mc.csv"
        write_comparison_csv(cmp, mc, state, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# rng=PCG64 seed=3")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "i,j,exact,estimate,std_error,z,rel_dev"
        assert len(lines) - header_idx - 1 == 36

    def test_csv_leaves_rel_dev_empty_at_exact_zeros(self, tmp_path):
        # sigma has exact zeros (q1 with p2, among others): no relative scale
        state = solve_lyapunov(system_matrices(derive(fast_params())))
        mc = McEstimate(cov_estimate=state.full + 1e-3,
                        std_error=np.full((8, 8), 1e-2), n_samples=10,
                        config=SdeConfig(seed=3))
        path = tmp_path / "mc.csv"
        write_comparison_csv(compare_to_lyapunov(mc, state), mc, state, path)
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")][1:]
        zeros = [row for row in rows if float(row[2]) == 0.0]
        assert zeros and all(row[6] == "" for row in zeros)
        assert all(row[6] != "" for row in rows if abs(float(row[2])) > 1e-3)
