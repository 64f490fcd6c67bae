import math

import pytest

from duomech import (
    EXAMPLE_CONFIG,
    ConfigError,
    default_validation_grid,
    load_config,
    parse_config,
    thermal_occupancy,
    validate_closed_forms,
    write_report_csv,
)

TWO_PI = 2 * math.pi


def test_example_config_parses(tmp_path):
    p = parse_config(EXAMPLE_CONFIG)
    assert p.omega_m == pytest.approx(TWO_PI * 947e3, rel=1e-15)
    assert p.kappa == pytest.approx(TWO_PI * 14000.0, rel=1e-15)
    assert p.hopping_lambda / p.kappa == pytest.approx(0.2, rel=1e-12)
    assert p.cooperativity == 32.11
    assert p.pump_power is None
    # also via file
    path = tmp_path / "system.cfg"
    path.write_text(EXAMPLE_CONFIG)
    assert load_config(path) == p


def test_example_bath_occupancy(tmp_path):
    # the closed-form report's grid sits at this occupancy
    p = parse_config(EXAMPLE_CONFIG)
    assert thermal_occupancy(p.omega_m, p.temperature) == 1.7380208490312972
    path = tmp_path / "report.csv"
    write_report_csv(validate_closed_forms(default_validation_grid()), path)
    body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    column = body[0].split(",").index("n_th")
    assert {line.split(",")[column] for line in body[1:]} == {"1.7380208490312972"}


def test_rads_keys_taken_verbatim():
    cfg = EXAMPLE_CONFIG.replace("omega_m_hz        = 947e3",
                                 "omega_m_rads = 5950177.84")
    p = parse_config(cfg)
    assert p.omega_m == 5950177.84


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="omega_q_hz"):
        parse_config(EXAMPLE_CONFIG + "\nomega_q_hz = 1\n")


@pytest.mark.parametrize("key", ["detuning_hz", "detuning_rads"])
def test_detuning_is_not_a_key(key):
    # the drive is fixed at the red sideband, -omega_m
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(EXAMPLE_CONFIG + f"\n{key} = -947e3\n")


def test_duplicate_unit_variants_conflict():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config(EXAMPLE_CONFIG + "\nkappa_rads = 1.0\n")


def test_missing_keys_listed():
    cfg = "\n".join(line for line in EXAMPLE_CONFIG.splitlines()
                    if not line.startswith("mass_kg"))
    with pytest.raises(ConfigError, match="mass"):
        parse_config(cfg)


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="squeezing_r"):
        parse_config(EXAMPLE_CONFIG.replace("squeezing_r       = 1.0",
                                            "squeezing_r = one"))


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("kappa_hz 14000\n")


def test_both_drive_keys_rejected():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(EXAMPLE_CONFIG + "\npump_power_w = 1e-5\n")


def test_comments_and_blank_lines_ignored():
    p = parse_config("# leading comment\n\n" + EXAMPLE_CONFIG + "\n   \n# trailing\n")
    assert p.squeezing_r == 1.0
