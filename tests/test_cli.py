import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duomech
from duomech import (
    EXAMPLE_CONFIG,
    build_drift,
    cli,
    derive,
    errors,
    load_config,
    measures,
    montecarlo,
    sweep,
)
from duomech.cli import main
from duomech.sweep import CSV_COLUMNS


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(EXAMPLE_CONFIG)
    return path


def test_config_sweep_writes_csv(tmp_path, config_file, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["--config", str(config_file), "--sweep", "r=0:1:3",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == ",".join(CSV_COLUMNS)
    assert sum(1 for l in lines if not l.startswith("#")) == 4


def test_failed_points_leave_empty_fields_and_sweep_goes_on(tmp_path, config_file,
                                                            capsys):
    # r = 400 and 800 overflow sinh^2 r while deriving the point
    out = tmp_path / "sweep.csv"
    code = main(["--config", str(config_file), "--sweep", "r=0:800:3",
                 "--output", str(out)])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in body[1:]]
    assert [row["r"] for row in rows] == ["0", "400", "800"]
    assert rows[0]["stable"] == "true" and rows[0]["log_negativity"] != ""
    derived_and_measures = ("xi", "C", "n_th", "sigma1", "sigma12", "sigma13",
                            "steering", "log_negativity", "discord", "nu_minus")
    for row in rows[1:]:
        assert row["stable"] == "false"
        assert row["T_K"] != "" and row["kappa_rads"] != ""
        assert all(row[name] == "" for name in derived_and_measures)
    assert capsys.readouterr().err.count("sinh^2 r overflows") == 2


def test_overflowing_points_leave_empty_fields(tmp_path, config_file, capsys):
    # from r ~ 90 the mirror block's determinants overflow: no made-up measures
    out = tmp_path / "sweep.csv"
    with np.errstate(all="ignore"):
        code = main(["--config", str(config_file), "--sweep", "r=170:185:4",
                     "--output", str(out)])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in body[1:]]
    assert [row["r"] for row in rows] == ["170", "175", "180", "185"]
    measures = ("sigma1", "sigma12", "sigma13", "steering", "log_negativity",
                "discord", "nu_minus")
    for row in rows:
        assert row["stable"] == "false"
        assert all(row[name] == "" for name in measures)
    assert capsys.readouterr().err.count("block determinants overflow") == 4


def test_sweep_to_stdout(config_file, capsys):
    code = main(["--config", str(config_file), "--sweep", "r=0:1:2"])
    assert code == 0
    captured = capsys.readouterr().out
    assert ",".join(CSV_COLUMNS) in captured


def test_curves_flag(tmp_path, config_file):
    out = tmp_path / "curves.csv"
    code = main(["--config", str(config_file), "--sweep", "r=0:1:2",
                 "--curves", "xi=0,0.2", "--output", str(out)])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 5


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(EXAMPLE_CONFIG + "\nbogus_key = 3\n")
    code = main(["--config", str(path), "--sweep", "r=0:1:2"])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_figure_conflicts_with_sweep(capsys):
    code = main(["--figure", "fig2", "--sweep", "r=0:1:2"])
    assert code == 2
    assert "cannot be combined" in capsys.readouterr().err


@pytest.mark.parametrize("first, second", [
    (["--sweep", "r=0:1:3"], ["--find-critical-xi", "0:1"]),
    (["--sweep", "r=0:1:3"], ["--mc-validate"]),
    (["--find-critical-xi", "0:1"], ["--mc-validate"]),
])
def test_two_actions_cannot_be_combined(tmp_path, config_file, capsys, monkeypatch,
                                        first, second):
    def no_work(*args, **kwargs):
        pytest.fail("an action ran although two were requested")

    for name in ("run_sweep", "find_critical_xi", "integrate_steady_covariance"):
        monkeypatch.setattr(cli, name, no_work)
    code = main(["--config", str(config_file), "--output", str(tmp_path / "out")]
                + first + second)
    assert code == 2
    assert "cannot be combined" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config_file]


def test_curves_requires_sweep(config_file, capsys):
    code = main(["--config", str(config_file), "--curves", "xi=0,0.1"])
    assert code == 2
    assert "requires --sweep" in capsys.readouterr().err


def test_sweep_arg_format_errors(config_file, capsys):
    code = main(["--config", str(config_file), "--sweep", "r=0:1"])
    assert code == 2
    assert "START:STOP:N" in capsys.readouterr().err


def test_curves_arg_format_errors(config_file, capsys):
    code = main(["--config", str(config_file), "--sweep", "r=0:1:2",
                 "--curves", "xi=a,b"])
    assert code == 2
    assert "--curves expects" in capsys.readouterr().err


def test_bracket_arg_format_errors(config_file, capsys):
    code = main(["--config", str(config_file), "--find-critical-xi", "0-1"])
    assert code == 2
    assert "LO:HI" in capsys.readouterr().err


@pytest.mark.parametrize("mode, message", [
    (["--sweep", "r=0:inf:3"], "sweep range [0.0, inf] over 3 points"),
    (["--find-critical-xi", "0:inf"], "got (0.0, inf)"),
    (["--find-critical-xi=-1:1"], "got (-1.0, 1.0)"),
], ids=["sweep-to-inf", "bracket-to-inf", "negative-bracket"])
def test_non_finite_or_negative_range_names_itself(config_file, capsys, mode, message):
    # refused as typed, not as a NaN point or a hopping the user never gave
    assert main(["--config", str(config_file), *mode]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mode, message", [
    (["--sweep", "r=0:3:301", "--curves", "gamma_over_kappa=1e-3,0"],
     "gamma_over_kappa=0 is refused: gamma must be finite and positive"),
    (["--sweep", "gamma_over_kappa=0:0.1:3"],
     "gamma_over_kappa=0 is refused: gamma must be finite and positive"),
    (["--sweep", "r=0:3:301", "--curves", "xi=1e308"],
     "xi=1e+308 is refused: hopping_lambda must be finite"),
], ids=["curve-gamma-zero", "sweep-gamma-zero", "curve-hopping-overflows"])
def test_refused_sweep_value_evaluates_no_point(tmp_path, config_file, capsys, monkeypatch,
                                                mode, message):
    # refused as typed before the first point, not after a curve of them
    calls = []
    evaluate = sweep.evaluate_point
    monkeypatch.setattr(sweep, "evaluate_point",
                        lambda params: calls.append(params) or evaluate(params))
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(config_file), *mode, "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_nothing_to_do(config_file, capsys):
    code = main(["--config", str(config_file)])
    assert code == 2
    assert "nothing to do" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--mc-seed", "-1"),
                                         ("--mc-trajectories", "1")])
def test_mc_settings_without_a_verdict_refused(flag, value, capsys):
    code = main(["--figure", "fig3", "--mc-validate", flag, value])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, flags", [
    (["--figure", "fig2", "--mc-seed", "3", "--mc-trajectories", "4"],
     "--mc-seed, --mc-trajectories"),
    (["--figure", "fig4", "--find-critical-xi", "0:1", "--mc-dt", "0.5"], "--mc-dt"),
], ids=["sweep", "find-critical-xi"])
def test_mc_settings_without_mc_validate_refused(argv, flags, capsys, monkeypatch):
    monkeypatch.setattr(cli, "figure_preset", lambda name: pytest.fail("work was done"))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flags} given without --mc-validate\n"


def test_find_critical_xi_writes_no_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "figure_preset", lambda name: pytest.fail("work was done"))
    out = tmp_path / "never.csv"
    assert main(["--figure", "fig4", "--find-critical-xi", "0:1",
                 "--output", str(out)]) == 2
    assert "--output is only the stem for --dump-matrices" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_figure_choice(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--figure", "fig9"])
    assert excinfo.value.code == 2


def test_find_critical_xi_output(config_file, capsys):
    code = main(["--config", str(config_file), "--find-critical-xi", "0:1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "critical_xi = " in out
    assert "bracket = [" in out


def test_dump_matrices(tmp_path, config_file, capsys):
    stem = tmp_path / "point"
    code = main(["--config", str(config_file), "--dump-matrices",
                 "--output", str(stem)])
    assert code == 0
    drift = np.loadtxt(stem.with_suffix(".drift.txt"))
    noise = np.loadtxt(stem.with_suffix(".noise.txt"))
    cov = np.loadtxt(stem.with_suffix(".covariance.txt"))
    params = load_config(config_file)
    assert np.array_equal(drift, build_drift(derive(params)))
    assert noise.shape == (8, 8)
    assert np.max(np.abs(cov - cov.T)) == 0.0


def test_dump_matrices_needs_output(config_file, capsys):
    code = main(["--config", str(config_file), "--dump-matrices"])
    assert code == 2
    assert "requires --output" in capsys.readouterr().err


def test_mc_validate(tmp_path, capsys, monkeypatch):
    # fast-relaxing configuration so the ensemble converges in ~a second
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(EXAMPLE_CONFIG.replace("gamma_hz          = 140",
                                          "gamma_hz = 700"))
    solves = []
    solve = cli.solve_lyapunov

    def counted(matrices):
        solves.append(matrices)
        return solve(matrices)

    monkeypatch.setattr(cli, "solve_lyapunov", counted)
    out = tmp_path / "val"
    code = main(["--config", str(cfg), "--mc-validate", "--dump-matrices",
                 "--output", str(out),
                 "--mc-burn-in", "250", "--mc-duration", "1200",
                 "--mc-trajectories", "32", "--mc-seed", "11"])
    captured = capsys.readouterr().out
    assert code == 0, captured
    assert "mc-validate: PASS" in captured
    assert out.with_suffix(".mc.csv").exists()
    assert out.with_suffix(".covariance.txt").exists()
    # the dump and the validation share one solve of the held point
    assert len(solves) == 1


def test_mc_validate_too_coarse_dt_integrates_nothing(config_file, capsys,
                                                      monkeypatch):
    def no_integration(noise):
        pytest.fail("the ensemble was set up despite a too coarse dt")

    monkeypatch.setattr(montecarlo, "_noise_factor", no_integration)
    code = main(["--config", str(config_file), "--mc-validate", "--mc-dt", "0.05"])
    assert code == 2
    assert "too coarse" in capsys.readouterr().err


def test_pump_power_config_records_the_drive(tmp_path, capsys):
    cfg = tmp_path / "power.cfg"
    cfg.write_text(EXAMPLE_CONFIG.replace("cooperativity     = 32.11",
                                          "pump_power_w = 1e-5"))
    code = main(["--config", str(cfg), "--sweep", "r=0:1:2"])
    assert code == 0
    assert "# drive_cooperativity=power_w=1e-05\n" in capsys.readouterr().out


def test_unsupported_branch_in_find_critical_xi_exits_2(capsys, monkeypatch):
    def off_branch(*args):
        raise errors.UnsupportedBranchError("off the discord's branch")

    monkeypatch.setattr(measures, "gaussian_discord", off_branch)
    code = main(["--figure", "fig4", "--find-critical-xi", "0:1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: off the discord's branch\n"


ERROR_CLASSES = [value for value in vars(errors).values()
                 if isinstance(value, type) and issubclass(value, Exception)
                 and value.__module__ == errors.__name__]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_duomech_error_exits_2(capsys, monkeypatch, error):
    def failing(args):
        raise error("some failure")

    monkeypatch.setattr(cli, "_run", failing)
    assert main(["--figure", "fig2"]) == 2
    assert capsys.readouterr().err == "error: some failure\n"


def test_module_entry_point_exit_code(tmp_path):
    package_root = str(Path(duomech.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "duomech", "--config", str(tmp_path / "missing.cfg"),
         "--sweep", "r=0:1:2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("mode", [["--sweep", "r=0:1:3"], ["--find-critical-xi", "0:1"]])
def test_non_finite_cooperativity_refused(tmp_path, capsys, value, mode):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(EXAMPLE_CONFIG.replace("= 32.11", f"= {value}"))
    code = main(["--config", str(cfg)] + mode)
    assert code == 2
    assert "cooperativity must be finite" in capsys.readouterr().err
