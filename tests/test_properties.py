"""Property tests of the pipeline over the physical parameter space: every
sampled point solves to a physical, exchange-symmetric mirror state whose
residual is the one its definition gives, whose symplectic eigenvalues agree
with the i Omega sigma route, whose measures obey their ordering and whose
variance matches the closed form; and the abstract's claims on
temperature (everywhere), squeezing (everywhere without hopping) and strong
coupling (not everywhere)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_theta_matches_spectrum
from duomech import (
    build_drift,
    build_noise,
    closed_sigma_corrected,
    evaluate_point,
    figure_preset,
    symplectic_spectrum,
)


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


HELD = figure_preset("fig3").held


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    cooperativity=log_uniform(-3, 5),
    xi=log_uniform(-4, 1),
    gamma_over_kappa=log_uniform(-5, 0),
    temperature=log_uniform(-6, -1),
    squeezing_r=st.floats(0.0, 3.0),
)
def test_pipeline_invariants(cooperativity, xi, gamma_over_kappa, temperature, squeezing_r):
    kappa = HELD.kappa
    params = HELD.with_updates(
        cooperativity=cooperativity, hopping_lambda=xi * kappa,
        gamma=gamma_over_kappa * kappa, temperature=temperature,
        squeezing_r=squeezing_r,
    )
    result = evaluate_point(params)
    assert result.stable
    state, report, derived = result.state, result.report, result.derived

    assert state.residual <= 1e-10
    # the residual as ||W sigma + sigma W^T + R||_F / ||R||_F
    w, r = build_drift(derived), build_noise(derived)
    sigma = state.full
    expected = np.linalg.norm(w @ sigma + sigma @ w.T + r) / np.linalg.norm(r)
    assert abs(state.residual - expected) <= 1e-13
    assert symplectic_spectrum(state.full)[0] >= 0.5 - 1e-9

    mech = state.mechanical_block
    assert_theta_matches_spectrum(report, mech)
    x, z, b = mech[:2, :2], mech[:2, 2:], mech[2:, 2:]
    assert (b == x).all()
    assert z[0, 1] == 0.0 and z[1, 0] == 0.0 and z[1, 1] == -z[0, 0]

    assert report.steering_ab <= report.log_negativity + 1e-12
    assert report.discord >= 0.0

    closed = closed_sigma_corrected(derived.cooperativity, squeezing_r, derived.xi,
                                    derived.gamma, derived.kappa, derived.n_th)
    assert closed.sigma1 == pytest.approx(float(mech[0, 0]), rel=1e-8)


# 1 uK to 0.1 K, the property test's temperature range, log spaced
TEMPERATURES = np.geomspace(1e-6, 0.1, 25).tolist()


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    cooperativity=log_uniform(-3, 5),
    xi=log_uniform(-4, 1),
    gamma_over_kappa=log_uniform(-5, 0),
    squeezing_r=st.floats(0.0, 3.0),
)
def test_correlations_fall_with_temperature(cooperativity, xi, gamma_over_kappa, squeezing_r):
    # the abstract's thermal claim along a T curve from each base point: no
    # measure rises by more than a relative 1e-9 plus the measures' snap
    # scale 1e-12, and an entangled point always has discord
    kappa = HELD.kappa
    base = HELD.with_updates(
        cooperativity=cooperativity, hopping_lambda=xi * kappa,
        gamma=gamma_over_kappa * kappa, squeezing_r=squeezing_r,
    )
    previous = None
    for temperature in TEMPERATURES:
        result = evaluate_point(base.with_updates(temperature=temperature))
        assert result.stable
        report = result.report
        current = (report.log_negativity, report.steering_ab, report.steering_ba,
                   report.discord)
        if previous is not None:
            for before, after in zip(previous, current):
                assert after <= before + 1e-9 * abs(before) + 1e-12, (temperature, previous, current)
        assert report.log_negativity <= 0.0 or report.discord > 0.0, temperature
        previous = current


# 0 to 3, the property test's squeezing range
SQUEEZINGS = np.linspace(0.0, 3.0, 25).tolist()


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    cooperativity=log_uniform(-3, 5),
    gamma_over_kappa=log_uniform(-5, 0),
    temperature=log_uniform(-6, -1),
)
def test_correlations_grow_with_squeezing_without_hopping(cooperativity, gamma_over_kappa,
                                                         temperature):
    # the abstract's squeezing claim along an r curve from each base point with
    # xi = 0: no measure falls by more than a relative 1e-9 plus the measures'
    # snap scale 1e-12 (with hopping the claim fails, see the README)
    kappa = HELD.kappa
    base = HELD.with_updates(
        cooperativity=cooperativity, hopping_lambda=0.0,
        gamma=gamma_over_kappa * kappa, temperature=temperature,
    )
    previous = None
    for squeezing_r in SQUEEZINGS:
        result = evaluate_point(base.with_updates(squeezing_r=squeezing_r))
        assert result.stable
        report = result.report
        current = (report.log_negativity, report.steering_ab, report.steering_ba,
                   report.discord)
        if previous is not None:
            for before, after in zip(previous, current):
                assert after >= before - 1e-9 * abs(before) - 1e-12, (squeezing_r, previous, current)
        previous = current


def test_entanglement_can_die_at_strong_coupling():
    # the abstract's "optimal at strong coupling" holds only in part of the
    # space: at this fig3-device point E_N peaks below C = 1 and is exactly
    # zero from C = 3 on
    kappa = HELD.kappa
    base = HELD.with_updates(hopping_lambda=0.18 * kappa, gamma=1.4e-3 * kappa,
                             temperature=4e-6, squeezing_r=2.2)
    en = lambda c: evaluate_point(base.with_updates(cooperativity=c)).report.log_negativity
    assert en(0.7) == pytest.approx(0.110, abs=5e-4)
    assert en(1.0) == pytest.approx(0.081, abs=5e-4)
    assert all(en(c) == 0.0 for c in np.geomspace(3.0, 1e4, 8))
