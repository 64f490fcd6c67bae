import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import reference_params
from duomech import (
    ConfigError,
    PhysicalParams,
    SweepSpec,
    derive,
    effective_coupling,
    power_from_cooperativity,
    run_sweep,
    squeezed_moments,
    thermal_occupancy,
)

TWO_PI = 2 * math.pi
OMEGA_M = TWO_PI * 947e3


class TestThermalOccupancy:
    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupancy(OMEGA_M, 0.0) == 0.0

    def test_reference_point(self):
        # direct Bose factor evaluation with CODATA hbar, k_B
        assert thermal_occupancy(OMEGA_M, 1e-4) == pytest.approx(
            1.7380208490312972, rel=1e-12
        )

    def test_unit_occupancy_at_log2_ratio(self):
        # hbar omega / (k_B T) = ln 2  ->  n_th = 1 exactly
        t_log2 = 6.556880436304422e-05
        assert thermal_occupancy(OMEGA_M, t_log2) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_temperature(self):
        temps = np.linspace(1e-6, 5e-3, 40)
        values = [thermal_occupancy(OMEGA_M, t) for t in temps]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_deep_cryogenic_underflows_to_zero(self):
        # hbar*omega/(k_B T) far beyond exp overflow must not raise
        assert thermal_occupancy(OMEGA_M, 1e-9) == 0.0
        assert 0.0 < thermal_occupancy(OMEGA_M, 1e-7) < 1e-190

    def test_rejects_negative_temperature(self):
        with pytest.raises(ConfigError):
            thermal_occupancy(OMEGA_M, -1e-6)


class TestSqueezedMoments:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1.0, 1.7, 2.5, 3.4, 4.2, 5.0])
    def test_hyperbolic_identity(self, r):
        n, m = squeezed_moments(r)
        assert m * m == pytest.approx(n * (n + 1.0), rel=1e-12, abs=1e-15)

    def test_noise_block_psd_condition(self):
        # N + 1/2 >= M guarantees the optical noise block stays PSD
        for r in np.linspace(0.0, 5.0, 21):
            n, m = squeezed_moments(r)
            assert n + 0.5 >= m

    @pytest.mark.parametrize("r", [400.0, 800.0])
    def test_overflow_is_a_config_error(self, r):
        with pytest.raises(ConfigError, match="too large"):
            squeezed_moments(r)


class TestEffectiveCoupling:
    def test_from_cooperativity_reference(self):
        assert effective_coupling(reference_params()) == pytest.approx(
            24922.870515757197, rel=1e-12
        )

    def test_zero_power_gives_zero_coupling(self):
        p = reference_params(cooperativity=None, pump_power=0.0)
        assert effective_coupling(p) == 0.0

    def test_power_cooperativity_round_trip(self):
        p_power = reference_params(cooperativity=None, pump_power=1.1e-5)
        c = derive(p_power).cooperativity
        p_coop = reference_params(cooperativity=c)
        assert power_from_cooperativity(p_coop) == pytest.approx(1.1e-5, rel=1e-12)

    def test_pump_power_drives_at_the_red_sideband(self):
        # the detuning is -omega_m: the drive denominator is (lambda - omega_m)^2
        # + kappa^2/4
        p = reference_params(cooperativity=None, pump_power=1.1e-5)
        denominator = (p.hopping_lambda - p.omega_m) ** 2 + p.kappa**2 / 4.0
        expected = (p.omega_c / p.cavity_length) * math.sqrt(
            2.0 * p.kappa * p.pump_power
            / (p.mass * p.omega_m * p.omega_l * denominator)
        )
        assert effective_coupling(p) == pytest.approx(expected, rel=1e-14)

    def test_scales_as_sqrt_power(self):
        p1 = reference_params(cooperativity=None, pump_power=3e-6)
        p4 = reference_params(cooperativity=None, pump_power=12e-6)
        assert effective_coupling(p4) == pytest.approx(
            2.0 * effective_coupling(p1), rel=1e-12
        )

    def test_drive_must_be_specified_exactly_once(self):
        with pytest.raises(ConfigError):
            reference_params(cooperativity=32.11, pump_power=1e-5)
        with pytest.raises(ConfigError):
            reference_params(cooperativity=None, pump_power=None)

    def test_conversion_helpers_check_drive_kind(self):
        with pytest.raises(ConfigError, match="cooperativity"):
            power_from_cooperativity(reference_params(cooperativity=None, pump_power=1e-5))


class TestDerive:
    def test_cooperativity_coupling_consistency(self):
        d = derive(reference_params())
        assert d.cooperativity * d.gamma * d.kappa / 4.0 == pytest.approx(
            d.coupling**2, rel=1e-12
        )

    def test_noise_weights(self):
        d = derive(reference_params())
        assert d.gamma_prime == pytest.approx(d.gamma * (d.n_th + 0.5), rel=1e-12)
        assert d.kappa_prime == pytest.approx(d.kappa * (d.n_sq + 0.5), rel=1e-12)
        assert d.xi == pytest.approx(0.2, rel=1e-12)

    def test_cooperativity_from_power_route(self):
        p = reference_params(cooperativity=None, pump_power=1.0870397854047336e-05)
        d = derive(p)
        assert d.cooperativity == pytest.approx(32.11, rel=1e-10)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("kappa", -1.0), ("kappa", 0.0), ("gamma", 0.0), ("mass", -1e-12),
        ("temperature", -1e-9), ("squeezing_r", -0.1), ("hopping_lambda", -1.0),
        ("omega_m", float("nan")), ("cooperativity", float("nan")),
        ("cooperativity", float("inf")),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigError):
            reference_params(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_rejects_pump_power_out_of_range(self, value):
        with pytest.raises(ConfigError, match="pump_power must be finite and >= 0"):
            reference_params(cooperativity=None, pump_power=value)

    def test_warns_outside_rwa_regime(self):
        with pytest.warns(UserWarning, match="rotating-wave"):
            reference_params(kappa=OMEGA_M / 2.0, hopping_lambda=0.0)


class TestWithUpdates:
    def test_equals_dataclasses_replace(self):
        base = reference_params()
        changes = dict(temperature=2e-4, squeezing_r=0.5, gamma=TWO_PI * 70.0)
        updated = base.with_updates(**changes)
        expected = dataclasses.replace(base, **changes)
        assert type(updated) is PhysicalParams
        for field in dataclasses.fields(PhysicalParams):
            assert getattr(updated, field.name) == getattr(expected, field.name), field.name
        assert base.temperature == 1e-4     # the original is left as it was

    def test_switches_the_drive_kind(self):
        updated = reference_params().with_updates(cooperativity=None, pump_power=1e-5)
        assert (updated.cooperativity, updated.pump_power) == (None, 1e-5)

    def test_revalidates(self):
        with pytest.raises(ConfigError, match="temperature"):
            reference_params().with_updates(temperature=-1e-9)

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            reference_params().with_updates(temprature=1e-3)

    def test_warns_outside_rwa_regime(self):
        base = reference_params(hopping_lambda=0.0)
        with pytest.warns(UserWarning, match="rotating-wave"):
            base.with_updates(kappa=OMEGA_M / 2.0)


class TestIncrementalWithUpdates:
    """with_updates checks only the fields it changes, by the constructor's
    check, and then the two conditions across fields."""

    @pytest.mark.parametrize("value", [-1.0, float("nan"), True], ids=["negative", "nan", "bool"])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PhysicalParams)])
    def test_bad_value_is_a_config_error_naming_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            reference_params().with_updates(**{field: value})

    def test_dropping_the_only_drive_is_refused(self):
        with pytest.raises(ConfigError, match="exactly one of pump_power and cooperativity"):
            reference_params().with_updates(cooperativity=None)

    @pytest.mark.parametrize("field,value", [("gamma", OMEGA_M / 5.0), ("kappa", OMEGA_M / 2.0)])
    def test_rwa_warning_has_the_constructors_message(self, field, value):
        base = reference_params(hopping_lambda=0.0)
        with pytest.warns(UserWarning, match="rotating-wave") as updated:
            base.with_updates(**{field: value})
        with pytest.warns(UserWarning, match="rotating-wave") as built:
            PhysicalParams(**{**dataclasses.asdict(base), field: value})
        assert [str(w.message) for w in updated] == [str(w.message) for w in built]

    def test_default_filter_shows_the_rwa_warning_once_per_sweep(self):
        with pytest.warns(UserWarning, match="rotating-wave"):
            held = reference_params(hopping_lambda=0.0, kappa=OMEGA_M / 2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            rows = run_sweep(SweepSpec("T", 1e-4, 2e-4, 5, held))
        assert len(rows) == 5 and all(row.stable for row in rows)
        assert sum("rotating-wave" in str(w.message) for w in caught) == 1
