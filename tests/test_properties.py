"""Property tests of the pipeline over the physical parameter space: every
sampled point solves to a physical, exchange-symmetric mirror state whose
residual is the one its definition gives, whose measures obey their ordering
and whose variance matches the closed form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # the residual as ||Wn sigma + sigma Wn^T + Rn||_F / ||Rn||_F, Wn and Rn
    # normalized by max(gamma, kappa) as in the solve
    scale = max(derived.gamma, derived.kappa)
    wn = build_drift(derived) / scale
    rn = build_noise(derived) / scale
    sigma = state.full
    expected = np.linalg.norm(wn @ sigma + sigma @ wn.T + rn) / np.linalg.norm(rn)
    assert abs(state.residual - expected) <= 1e-13
    assert symplectic_spectrum(state.full)[0] >= 0.5 - 1e-9

    mech = state.mechanical_block
    x, z, b = mech[:2, :2], mech[:2, 2:], mech[2:, 2:]
    assert (b == x).all()
    assert z[0, 1] == 0.0 and z[1, 0] == 0.0 and z[1, 1] == -z[0, 0]

    assert report.steering_ab <= report.log_negativity + 1e-12
    assert report.discord >= 0.0

    closed = closed_sigma_corrected(derived.cooperativity, squeezing_r, derived.xi,
                                    derived.gamma, derived.kappa, derived.n_th)
    assert closed.sigma1 == pytest.approx(float(mech[0, 0]), rel=1e-8)
