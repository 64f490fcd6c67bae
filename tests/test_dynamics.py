import math

import numpy as np
import pytest
import scipy.linalg

from conftest import reference_params
from duomech import dynamics
from duomech import (
    PhysicalityError,
    StabilityError,
    SystemMatrices,
    TwoModeCovariance,
    UnsupportedBranchError,
    build_drift,
    build_noise,
    check_stability,
    derive,
    solve_lyapunov,
    symplectic_spectrum,
    system_matrices,
    write_matrix,
)
from duomech.params import DerivedParams

TWO_PI = 2 * math.pi
KAPPA = TWO_PI * 14000.0
GAMMA = TWO_PI * 140.0

# frozen with an independent Schur-based solve (scipy) at the reference point
FIG3_SIGMA1 = 1.8969207660395373
FIG3_SIGMA12 = 0.6141997172192335
FIG3_SIGMA13 = 1.497746351754473


def hand_built_drift(coupling, gamma, kappa, lam):
    """Entry-by-entry reference, written out independently of build_drift."""
    g2, k2 = gamma / 2.0, kappa / 2.0
    G, L = coupling, lam
    return np.array([
        [-g2, 0.0, 0.0, 0.0, G, 0.0, 0.0, 0.0],
        [0.0, -g2, 0.0, 0.0, 0.0, G, 0.0, 0.0],
        [0.0, 0.0, -g2, 0.0, 0.0, 0.0, G, 0.0],
        [0.0, 0.0, 0.0, -g2, 0.0, 0.0, 0.0, G],
        [-G, 0.0, 0.0, 0.0, -k2, 0.0, 0.0, -L],
        [0.0, -G, 0.0, 0.0, 0.0, -k2, L, 0.0],
        [0.0, 0.0, -G, 0.0, 0.0, -L, -k2, 0.0],
        [0.0, 0.0, 0.0, -G, L, 0.0, 0.0, -k2],
    ])


class TestBuildDrift:
    def test_decoupled_damping(self):
        d = derive(reference_params(cooperativity=0.0, hopping_lambda=0.0))
        w = build_drift(d)
        expected = np.diag([-GAMMA / 2] * 4 + [-KAPPA / 2] * 4)
        assert np.array_equal(w, expected)

    def test_beam_splitter_antisymmetry(self):
        w = build_drift(derive(reference_params()))
        g = math.sqrt(32.11 * GAMMA * KAPPA / 4.0)
        assert w[0, 4] == pytest.approx(g, rel=1e-12)
        assert w[4, 0] == pytest.approx(-g, rel=1e-12)

    def test_matches_hand_built_reference(self):
        d = derive(reference_params())
        expected = hand_built_drift(d.coupling, GAMMA, KAPPA, 0.2 * KAPPA)
        assert np.array_equal(build_drift(d), expected)
        assert d.coupling == pytest.approx(2.49e4, rel=2e-3)


class TestBuildNoise:
    def test_vacuum_inputs(self):
        d = derive(reference_params(squeezing_r=0.0, temperature=0.0))
        r = build_noise(d)
        assert np.array_equal(r, np.diag([GAMMA / 2] * 4 + [KAPPA / 2] * 4))

    def test_squeezed_cross_entries(self):
        r = build_noise(derive(reference_params(squeezing_r=1.0)))
        m = 1.8134302039235093  # sinh(1) cosh(1)
        assert r[4, 6] == pytest.approx(m * KAPPA, rel=1e-12)
        assert r[5, 7] == pytest.approx(-m * KAPPA, rel=1e-12)
        assert np.array_equal(r, r.T)

    @pytest.mark.parametrize("r_sq,temp", [(0.0, 0.0), (1.0, 1e-4), (3.0, 1e-3),
                                           (5.0, 0.0)])
    def test_positive_semidefinite(self, r_sq, temp):
        noise = build_noise(derive(reference_params(squeezing_r=r_sq, temperature=temp)))
        assert np.linalg.eigvalsh(noise).min() >= 0.0


def cascaded_opo_mirror_block(derived, opo_over_kappa):
    """The mirror block with the squeezed input made, not assumed: a
    nondegenerate OPO below threshold, decay rate kappa_o, whose output
    field drives both cavities (Gardiner & Collett, PRA 31, 3761 (1985)).
    Its quadratures (q1, p1, q2, p2) feed (q_c1, Y_c1, q_c2, Y_c2); vacuum
    enters the OPO with sqrt(kappa_o) and, reflected, the cavities with
    -sqrt(kappa).  With eps = kappa_o tanh(r/2) / 2 the output quadrature
    (q1 +- q2)/sqrt2 has variance e^(+-2r) / 2 at zero frequency."""
    kappa, opo = derived.kappa, opo_over_kappa * derived.kappa
    eps = opo * math.tanh(math.asinh(math.sqrt(derived.n_sq)) / 2) / 2
    w = np.zeros((12, 12))
    w[:8, :8] = build_drift(derived)
    w[4:8, 8:] = math.sqrt(kappa * opo) * np.eye(4)
    w[8:, 8:] = -opo / 2 * np.eye(4)
    w[8, 10] = w[10, 8] = eps
    w[9, 11] = w[11, 9] = -eps
    vacuum = np.zeros((12, 4))
    vacuum[4:8] = -math.sqrt(kappa) * np.eye(4)
    vacuum[8:] = math.sqrt(opo) * np.eye(4)
    q = 0.5 * vacuum @ vacuum.T
    q[:4, :4] += build_noise(derived)[:4, :4]
    return scipy.linalg.solve_continuous_lyapunov(w / kappa, -q / kappa)[:4, :4]


def mirror_block_of_noise(derived):
    return solve_lyapunov(SystemMatrices(build_drift(derived), build_noise(derived))).mechanical_block


def deviation(block, reference):
    return abs(block - reference).max() / np.diag(reference).max()


class TestSqueezedInputFromCascadedOpo:
    # R's squeezed entries kappa' = kappa (N + 1/2) and +-M kappa are the
    # broadband limit kappa_o >> kappa of the cascaded OPO: the mirror
    # block converges to the solve's, its error falling as kappa / kappa_o

    @pytest.mark.parametrize("r_sq,xi,bound", [(1.0, 0.2, 1e-7), (1.0, 0.0, 1e-7),
                                               (2.0, 0.1, 1e-7), (0.0, 0.2, 1e-12)])
    def test_broadband_limit_is_the_squeezed_noise(self, r_sq, xi, bound):
        derived = derive(reference_params(squeezing_r=r_sq, hopping_lambda=xi * KAPPA))
        reference = mirror_block_of_noise(derived)
        errors = [deviation(cascaded_opo_mirror_block(derived, ratio), reference)
                  for ratio in (1e2, 1e3, 1e4)]
        assert errors[-1] <= bound, errors
        if r_sq:
            # each tenfold kappa_o / kappa divides the error by about 100
            assert 80.0 <= errors[0] / errors[1] <= 120.0, errors
            assert 80.0 <= errors[1] / errors[2] <= 120.0, errors
        else:
            # vacuum input: no squeezing to resolve at any kappa_o
            assert max(errors) <= bound, errors

    @pytest.mark.parametrize("mutation", [lambda d: d._replace(m_sq=-d.m_sq),
                                          lambda d: d._replace(kappa_prime=d.kappa * d.n_sq)],
                             ids=["cross-entry-sign", "no-vacuum-half"])
    def test_the_check_sees_a_wrong_squeezed_noise(self, mutation):
        derived = derive(reference_params(squeezing_r=1.0, hopping_lambda=0.2 * KAPPA))
        wrong = mirror_block_of_noise(mutation(derived))
        assert deviation(cascaded_opo_mirror_block(derived, 1e4), wrong) >= 0.1


class TestCheckStability:
    def test_damped_decoupled_system(self):
        d = derive(reference_params(cooperativity=0.0, hopping_lambda=0.0))
        report = check_stability(build_drift(d))
        assert report.verdict == "stable"
        assert report.max_real == pytest.approx(-GAMMA / 2, rel=1e-9)
        assert report.rates == (d.gamma, d.kappa, d.coupling, d.hopping_lambda)

    def test_driven_system_is_stable(self):
        d = derive(reference_params())
        report = check_stability(build_drift(d))
        assert report.is_stable
        assert report.rates == (d.gamma, d.kappa, d.coupling, d.hopping_lambda)

    def test_no_dissipation_is_marginal(self):
        # pure beam-splitter rotation, no damping
        d = DerivedParams(n_th=0.0, n_sq=0.0, m_sq=0.0, coupling=1e3,
                          cooperativity=1.0, xi=0.0, gamma_prime=0.0,
                          kappa_prime=0.0, gamma=0.0, kappa=0.0, hopping_lambda=0.0)
        assert check_stability(build_drift(d)).verdict == "marginal"
        # no dynamics at all: both sector eigenvalues are exactly zero
        assert check_stability(np.zeros((8, 8))).verdict == "marginal"

    def test_growth_is_unstable(self):
        # anti-damped, uncoupled mirrors: the mechanical modes grow at -gamma/2
        d = DerivedParams(n_th=0.0, n_sq=0.0, m_sq=0.0, coupling=0.0,
                          cooperativity=0.0, xi=0.0, gamma_prime=0.0,
                          kappa_prime=0.0, gamma=-GAMMA, kappa=KAPPA, hopping_lambda=0.0)
        report = check_stability(build_drift(d))
        assert report.verdict == "unstable"
        assert report.max_real == pytest.approx(GAMMA / 2, rel=1e-9)
        assert report.rates == (-GAMMA, KAPPA, 0.0, 0.0)

    def test_refuses_drift_the_builders_do_not_write(self):
        # 8x8 without the sector structure, or not 8x8: no second route
        drift = build_drift(derive(reference_params()))
        drift[0, 0] *= 1.5      # mirror 1 only
        with pytest.raises(UnsupportedBranchError, match="drift matrix .* build_drift"):
            check_stability(drift)
        with pytest.raises(ValueError, match="must be 8x8"):
            check_stability(np.eye(3))

    @pytest.mark.parametrize("rates", [
        (math.inf, KAPPA, 0.0, 0.0),
        (GAMMA, KAPPA, 1e300, 1e300),   # finite rates, overflowing spectrum
    ])
    def test_non_finite_spectrum_is_a_stability_error(self, rates):
        with pytest.raises(StabilityError, match="not finite"):
            check_stability(dynamics._drift(*rates))

    def test_sector_route_matches_eigvals_across_parameter_space(self):
        # log-uniform C, xi, gamma/kappa down to 1e-5, strong coupling included
        rng = np.random.default_rng(20261019)
        log_uniform = lambda lo, hi: 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        corners = [(c, x, g) for c in (1e-3, 1e5) for x in (1e-4, 10.0) for g in (1e-5, 1.0)]
        draws = [(log_uniform(1e-3, 1e5), log_uniform(1e-4, 10.0), log_uniform(1e-5, 1.0))
                 for _ in range(500)]
        for cooperativity, xi, gamma_over_kappa in corners + draws:
            params = reference_params(
                cooperativity=cooperativity,
                hopping_lambda=xi * KAPPA,
                gamma=gamma_over_kappa * KAPPA,
            )
            drift = build_drift(derive(params))
            report = check_stability(drift)
            expected = float(np.linalg.eigvals(drift).real.max())
            assert abs(report.max_real - expected) <= 1e-12 * np.abs(drift).max(), params
            assert (expected < -report.threshold) == report.is_stable, params

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            check_stability(np.zeros((2, 3)))

    def test_structural_bound_across_parameter_space(self):
        # coupling and hopping enter W antisymmetrically, so W + W^T is the
        # damping alone and Re eig(W) <= -min(gamma, kappa)/2 at every point
        rng = np.random.default_rng(20261018)
        log_uniform = lambda lo, hi: 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        for _ in range(200):
            gamma = log_uniform(1e-5, 1.0) * KAPPA
            params = reference_params(
                cooperativity=log_uniform(1e-3, 1e5),
                hopping_lambda=log_uniform(1e-4, 10.0) * KAPPA,
                gamma=gamma,
            )
            drift = build_drift(derive(params))
            damping = np.diag([gamma] * 4 + [KAPPA] * 4)
            assert np.array_equal(drift + drift.T, -damping), params
            max_real = check_stability(drift).max_real
            bound = -min(gamma, KAPPA) / 2.0
            assert max_real <= bound + 1e-12 * np.abs(drift).max(), params


class TestSolveLyapunov:
    def test_undriven_mechanical_block_is_thermal(self):
        d = derive(reference_params(cooperativity=0.0))
        state = solve_lyapunov(system_matrices(d))
        expected = (d.n_th + 0.5) * np.eye(4)
        assert np.max(np.abs(state.mechanical_block - expected)) < 1e-10

    def test_decoupled_optical_block(self):
        # G = 0, lambda = 0: -kappa sigma + R = 0 so sigma_opt = R_opt / kappa
        d = derive(reference_params(cooperativity=0.0, hopping_lambda=0.0))
        state = solve_lyapunov(system_matrices(d))
        opt = state.full[4:, 4:]
        n, m = d.n_sq, d.m_sq
        expected = np.diag([n + 0.5] * 4)
        expected[0, 2] = expected[2, 0] = m
        expected[1, 3] = expected[3, 1] = -m
        assert np.max(np.abs(opt - expected)) < 1e-12 * (n + 0.5)

    def test_reference_point_regression(self):
        state = solve_lyapunov(system_matrices(derive(reference_params(gamma=0.01 * KAPPA))))
        mech = state.mechanical_block
        assert mech[0, 0] == pytest.approx(FIG3_SIGMA1, rel=1e-9)
        assert mech[0, 1] == pytest.approx(FIG3_SIGMA12, rel=1e-9)
        assert mech[0, 2] == pytest.approx(FIG3_SIGMA13, rel=1e-9)
        assert state.residual < 1e-10

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(squeezing_r=0.0),
        dict(hopping_lambda=0.0),
        dict(gamma=0.001 * KAPPA, squeezing_r=2.5),
        dict(temperature=2e-3, hopping_lambda=0.7 * KAPPA),
        dict(cooperativity=150.0, squeezing_r=3.0),
        dict(gamma=1e-4 * KAPPA),       # damping-ratio extremes the rescaled
        dict(gamma=1.0 * KAPPA),        # solve must stay well conditioned at
    ])
    def test_agrees_with_schur_oracle(self, overrides):
        matrices = system_matrices(derive(reference_params(**overrides)))
        state = solve_lyapunov(matrices)
        wk = matrices.drift / KAPPA
        rk = matrices.noise / KAPPA
        oracle = scipy.linalg.solve_continuous_lyapunov(wk, -rk)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(state.full - oracle)) < 1e-11 * scale

    def test_one_sector_solve_and_one_spectrum_per_solve(self, monkeypatch):
        # the (mode1 - mode2) sector is the (mode1 + mode2) one with q and Y
        # swapped, and its drift conj(M) has the conjugate spectrum of M
        calls = []
        for name in ("_sector_covariance", "_eigenvalues"):
            def counted(*args, name=name, original=getattr(dynamics, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(dynamics, name, counted)
        solve_lyapunov(system_matrices(derive(reference_params())))
        assert sorted(calls) == ["_eigenvalues", "_sector_covariance"]

    def test_residual_gate_bites(self, monkeypatch):
        # sigma stays symmetric whatever the sector covariance, and the
        # residual gate refuses a perturbed entry of it
        original = dynamics._sector_covariance

        def perturbed(*args):
            entries = original(*args)
            entries[0] *= 1.0 + 1e-8
            return entries

        monkeypatch.setattr(dynamics, "_sector_covariance", perturbed)
        with pytest.raises(PhysicalityError, match="residual"):
            solve_lyapunov(system_matrices(derive(reference_params())))

    def test_sigma_is_the_take_assembly_bit_for_bit(self, monkeypatch):
        # the reference: sigma = 1/2 [[S+ + S-, S+ - S-], [S+ - S-, S+ + S-]]
        # in mode order (b1, c1, b2, c2), S- = P S+ P with P the q <-> Y swap
        # in each mode, permuted to quadrature order
        swap = [1, 0, 3, 2]
        mode_order = [0, 1, 4, 5, 2, 3, 6, 7]
        sectors = []
        original = dynamics._sector_covariance

        def recorded(*args):
            sectors.append(original(*args))
            return sectors[-1]

        monkeypatch.setattr(dynamics, "_sector_covariance", recorded)
        rng = np.random.default_rng(20261020)
        log_uniform = lambda lo, hi: 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        for _ in range(500):
            params = reference_params(
                cooperativity=log_uniform(1e-3, 1e5),
                hopping_lambda=log_uniform(1e-4, 10.0) * KAPPA,
                gamma=log_uniform(1e-5, 1.0) * KAPPA,
                temperature=log_uniform(1e-6, 1e-1),
                squeezing_r=rng.uniform(0.0, 3.0),
            )
            state = solve_lyapunov(system_matrices(derive(params)))
            plus = np.zeros((4, 4))
            plus[np.triu_indices(4)] = sectors.pop()
            plus[np.tril_indices(4, -1)] = plus.T[np.tril_indices(4, -1)]
            minus = plus[np.ix_(swap, swap)]
            expected = np.block([[plus + minus, plus - minus],
                                 [plus - minus, plus + minus]]) * 0.5
            expected = expected[np.ix_(mode_order, mode_order)]
            assert state.full.tobytes() == expected.tobytes(), params
            assert (state.full == state.full.T).all(), params

    def test_refuses_unstable_drift(self):
        bad = SystemMatrices(drift=np.eye(8), noise=np.eye(8))
        with pytest.raises(StabilityError, match="unstable"):
            solve_lyapunov(bad)

    def test_sector_solve_agrees_with_schur_oracle_across_parameter_space(self):
        # log-uniform C, xi, gamma/kappa and uniform r, strong coupling included
        rng = np.random.default_rng(20231106)
        log_uniform = lambda lo, hi: 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        for _ in range(300):
            params = reference_params(
                cooperativity=log_uniform(1e-3, 1e5),
                hopping_lambda=log_uniform(1e-4, 10.0) * KAPPA,
                gamma=log_uniform(1e-4, 1.0) * KAPPA,
                squeezing_r=rng.uniform(0.0, 3.0),
            )
            matrices = system_matrices(derive(params))
            state = solve_lyapunov(matrices)
            oracle = scipy.linalg.solve_continuous_lyapunov(
                matrices.drift / KAPPA, -matrices.noise / KAPPA
            )
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(state.full - oracle)) < 1e-11 * scale, params

    @pytest.mark.parametrize("r_sq", [352.0])
    def test_overflowing_noise_fails_the_residual_gate(self, r_sq):
        # the whole solution is NaN
        matrices = system_matrices(derive(reference_params(squeezing_r=r_sq)))
        with np.errstate(all="ignore"), pytest.raises(PhysicalityError, match="residual"):
            solve_lyapunov(matrices)

    def test_residual_is_measured_where_the_squared_excess_overflows(self):
        # at r = 300 sigma (entries near 1e260) is right to rounding, but the
        # excess's squared norm overflows and its norm does not: the solve
        # passes, and the mirror block is refused by the gate that applies to it
        matrices = system_matrices(derive(reference_params(squeezing_r=300.0)))
        state = solve_lyapunov(matrices)
        assert 0.0 < state.residual <= 1e-10
        with pytest.raises(PhysicalityError, match="covariance too large"):
            TwoModeCovariance.from_matrix(state.mechanical_block)

    def test_residual_is_measured_where_the_squared_noise_norm_overflows(self):
        # at r = 185, ||R||^2 over the fastest rate is beyond 1e308 but the
        # excess's is not, so the residual is a rounding-sized number, not 0
        matrices = system_matrices(derive(reference_params(squeezing_r=185.0)))
        assert 0.0 < solve_lyapunov(matrices).residual <= 1e-10

    def test_zero_noise_fails_the_residual_gate(self):
        # sigma = 0 leaves the residual 0/0
        matrices = system_matrices(derive(reference_params()))
        zero_noise = SystemMatrices(drift=matrices.drift, noise=np.zeros((8, 8)))
        with np.errstate(all="ignore"), pytest.raises(PhysicalityError, match="residual"):
            solve_lyapunov(zero_noise)

    @pytest.mark.parametrize("which", ["drift", "noise"])
    def test_refuses_system_without_exchange_symmetry(self, which):
        matrices = system_matrices(derive(reference_params()))
        broken = {"drift": matrices.drift.copy(), "noise": matrices.noise.copy()}
        broken[which][0, 0] *= 1.5   # mirror 1 only: damped or heated more
        with pytest.raises(UnsupportedBranchError, match=f"{which} matrix is not exchange"):
            solve_lyapunov(SystemMatrices(**broken))

    def test_refuses_drift_without_phase_covariance(self):
        # exchange symmetric, but the q quadratures of both mirrors are damped
        # more than the Y ones, so the blocks are no longer alpha I + beta J
        matrices = system_matrices(derive(reference_params()))
        drift = matrices.drift.copy()
        drift[0, 0] *= 1.5
        drift[2, 2] *= 1.5
        with pytest.raises(UnsupportedBranchError, match="drift matrix"):
            solve_lyapunov(SystemMatrices(drift=drift, noise=matrices.noise))

    def test_refuses_symmetric_covariant_drift_of_another_form(self):
        # a mirror-mirror coupling mu I between b1 and b2 keeps W exchange
        # symmetric and phase covariant, but build_drift never writes it
        matrices = system_matrices(derive(reference_params()))
        drift = matrices.drift.copy()
        mu = 0.1 * GAMMA
        drift[0:2, 2:4] = drift[2:4, 0:2] = mu * np.eye(2)
        with pytest.raises(UnsupportedBranchError, match="drift matrix"):
            solve_lyapunov(SystemMatrices(drift=drift, noise=matrices.noise))

    @pytest.mark.parametrize("drift, noise", [
        (np.eye(3), np.eye(3)),
        (np.eye(8), np.eye(3)),     # unstable drift, wrong noise shape
    ])
    def test_checks_shape_before_stability(self, drift, noise):
        with pytest.raises(ValueError, match="must be 8x8"):
            solve_lyapunov(SystemMatrices(drift=drift, noise=noise))


@pytest.fixture(scope="module")
def states():
    cases = [
        reference_params(),
        reference_params(gamma=0.001 * KAPPA, squeezing_r=2.0),
        reference_params(hopping_lambda=0.6 * KAPPA, temperature=8e-4),
        reference_params(squeezing_r=0.0, temperature=0.0),
    ]
    return [(p, solve_lyapunov(system_matrices(derive(p)))) for p in cases]


class TestCovarianceInvariants:

    def test_exchange_symmetry(self, states):
        # swapping cavity labels 1 <-> 2 permutes indices (0,1)<->(2,3), (4,5)<->(6,7)
        perm = [2, 3, 0, 1, 6, 7, 4, 5]
        for _, state in states:
            swapped = state.full[np.ix_(perm, perm)]
            assert np.max(np.abs(swapped - state.full)) < 1e-12 * np.max(np.abs(state.full))

    def test_physicality(self, states):
        for _, state in states:
            assert symplectic_spectrum(state.full).min() >= 0.5 - 1e-9

    def test_mechanical_block_pattern(self, states):
        for _, state in states:
            mech = state.mechanical_block
            assert abs(mech[0, 0] - mech[2, 2]) < 1e-10 * abs(mech[0, 0])
            assert abs(mech[0, 2] + mech[1, 3]) < 1e-10 * abs(mech[0, 0])

    def test_continuity_under_small_perturbation(self):
        base = reference_params(gamma=0.01 * KAPPA)
        ref = solve_lyapunov(system_matrices(derive(base))).full
        scale = np.max(np.abs(ref))
        for field in ("squeezing_r", "hopping_lambda", "temperature", "gamma",
                      "cooperativity"):
            bumped = base.with_updates(**{field: getattr(base, field) * 1.001})
            new = solve_lyapunov(system_matrices(derive(bumped))).full
            assert np.max(np.abs(new - ref)) < 0.01 * scale


def test_write_matrix_format(tmp_path):
    m = np.array([[1.0 / 3.0, 2.0], [-1e-17, 4.0]])
    path = tmp_path / "m.txt"
    write_matrix(m, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split()[0] == "0.33333333333333331"
    back = np.loadtxt(path)
    assert np.array_equal(back, m)
