import dataclasses
import io
import math
import re

import numpy as np
import pytest

from duomech import (
    EXAMPLE_CONFIG,
    BracketError,
    ConfigError,
    PhysicalParams,
    PhysicalityError,
    SweepRow,
    SweepSpec,
    emit_csv,
    evaluate_point,
    figure_preset,
    find_critical_xi,
    parse_config,
    run_sweep,
    sweep,
)
from duomech.sweep import CSV_COLUMNS, _apply

TWO_PI = 2 * math.pi
KAPPA = TWO_PI * 14000.0

# bisection fixture frozen from an independent run at xi resolution 1e-7
CRITICAL_XI_FIG4 = 0.3250238597393036


class TestReferencePoint:
    """Pipeline regression at the standard operating point
    (C = 32.11, xi = 0.2, r = 1, T = 0.1 mK, gamma/kappa = 0.01);
    values frozen from the independent Schur-based solve."""

    def test_measures(self):
        result = evaluate_point(figure_preset("fig3").held)
        rep = result.report
        assert rep.steering_ab == 0.0          # raw value is -0.0859, clamped
        assert rep.steering_ba == 0.0
        assert rep.nu_minus == pytest.approx(0.2969868038984328, rel=1e-9)
        assert rep.log_negativity == pytest.approx(0.5209203919250005, rel=1e-9)
        assert rep.discord == pytest.approx(0.41380789454449873, rel=1e-9)
        assert rep.theta_plus == rep.theta_minus  # exactly degenerate spectrum
        assert rep.theta_plus == pytest.approx(0.9888493140494736, rel=1e-9)

    def test_no_eigvals_on_the_point_path(self, monkeypatch):
        shapes = []
        eigvals = np.linalg.eigvals

        def counted(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        evaluate_point(figure_preset("fig3").held)
        # the drift's stability check takes its 2x2 sector route, and the
        # mirror block's symplectic eigenvalues come from its determinants
        assert shapes == []

    @pytest.mark.parametrize("r_sq", [100.0, 180.0])
    def test_overflowing_mirror_block_is_a_physicality_error(self, r_sq):
        # the mirror block passes 1e77, so its 4x4 determinant overflows
        held = figure_preset("fig3").held.with_updates(squeezing_r=r_sq)
        with np.errstate(all="ignore"), pytest.raises(PhysicalityError, match="overflow"):
            evaluate_point(held)


class TestSweepSpec:
    def test_requires_known_variable(self):
        held = figure_preset("fig2").held
        with pytest.raises(ConfigError, match="unknown sweep variable"):
            SweepSpec("mass", 0.0, 1.0, 5, held)

    def test_requires_increasing_range(self):
        held = figure_preset("fig2").held
        with pytest.raises(ConfigError, match="start < stop"):
            SweepSpec("r", 1.0, 1.0, 5, held)

    @pytest.mark.parametrize("start, stop", [
        (0.0, math.inf),
        (-math.inf, 0.0),
        (-1e308, 1e308),    # finite ends, overflowing step
    ])
    def test_requires_finite_range_and_step(self, start, stop):
        held = figure_preset("fig2").held
        with pytest.raises(ConfigError, match=r"sweep range \[.*\] over 3 points"):
            SweepSpec("r", start, stop, 3, held)

    def test_requires_two_points(self):
        held = figure_preset("fig2").held
        with pytest.raises(ConfigError, match="at least 2"):
            SweepSpec("r", 0.0, 1.0, 1, held)

    def test_curve_variable_must_differ(self):
        held = figure_preset("fig2").held
        with pytest.raises(ConfigError, match="differ"):
            SweepSpec("r", 0.0, 1.0, 5, held, curve_variable="r",
                      curve_values=(0.1,))

    def test_curve_values_required(self):
        held = figure_preset("fig2").held
        with pytest.raises(ConfigError, match="non-empty"):
            SweepSpec("r", 0.0, 1.0, 5, held, curve_variable="xi")

    def test_curve_values_need_a_curve_variable(self, monkeypatch):
        # refused before any point runs, not swept as a single curve
        calls = []
        monkeypatch.setattr(sweep, "evaluate_point", calls.append)
        held = figure_preset("fig2").held
        with pytest.raises(ConfigError, match="curve_variable"):
            run_sweep(SweepSpec("r", 0.0, 1.0, 2, held, curve_values=(0.1, 0.2)))
        assert calls == []

    @pytest.mark.parametrize("changes, name, value", [
        (dict(num=3.0), "num", 3.0),
        (dict(num="3"), "num", "3"),
        (dict(stop="1"), "stop", "1"),
        (dict(curve_values=0.1), "curve_values", 0.1),
        (dict(curve_values="0.1"), "curve_values", "0.1"),
    ])
    def test_wrongly_typed_field_is_a_config_error(self, changes, name, value):
        fields = dict(variable="r", start=0.0, stop=1.0, num=3,
                      held=figure_preset("fig2").held, curve_variable="xi",
                      curve_values=(0.1,))
        with pytest.raises(ConfigError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            SweepSpec(**{**fields, **changes})

    def test_grid_endpoints(self):
        held = figure_preset("fig2").held
        spec = SweepSpec("r", 0.0, 3.0, 4, held)
        assert spec.grid() == pytest.approx([0.0, 1.0, 2.0, 3.0])


class TestFigurePresets:
    def test_fig2(self):
        spec = figure_preset("fig2")
        assert spec.variable == "r"
        assert (spec.start, spec.stop, spec.num) == (0.0, 3.0, 301)
        assert spec.curve_variable == "xi"
        assert spec.curve_values == (0.0, 0.1, 0.2, 0.3)
        assert spec.held.temperature == pytest.approx(1e-4)
        assert spec.held.kappa == pytest.approx(TWO_PI * 14000.0)

    def test_fig3(self):
        spec = figure_preset("fig3")
        assert spec.variable == "T"
        assert spec.curve_variable == "gamma_over_kappa"
        assert spec.held.hopping_lambda / spec.held.kappa == pytest.approx(0.2)
        assert spec.held.squeezing_r == 1.0
        assert spec.held.cooperativity == 32.11

    def test_fig4(self):
        spec = figure_preset("fig4")
        assert spec.variable == "xi"
        assert spec.held.squeezing_r == 1.0
        assert spec.curve_values == (1e-4, 4e-4, 8e-4, 1.6e-3)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            figure_preset("fig9")

    @pytest.mark.parametrize("name, overrides", [
        ("fig2", dict(squeezing_r=0.0, hopping_lambda=0.0)),
        ("fig3", {}),
        ("fig4", dict(hopping_lambda=0.0)),
    ])
    def test_held_point_is_the_example_device(self, name, overrides):
        device = parse_config(EXAMPLE_CONFIG)
        held = figure_preset(name).held
        for field in dataclasses.fields(PhysicalParams):
            expected = overrides.get(field.name, getattr(device, field.name))
            assert getattr(held, field.name) == expected, field.name


class TestRunSweep:
    def test_single_variable_rows(self):
        held = figure_preset("fig2").held.with_updates(hopping_lambda=0.0)
        spec = SweepSpec("r", 0.0, 2.0, 5, held)
        rows = run_sweep(spec)
        assert [row.swept_value for row in rows] == pytest.approx(
            [0.0, 0.5, 1.0, 1.5, 2.0]
        )
        assert all(row.stable for row in rows)
        assert all(row.curve_value is None for row in rows)
        en = [row.log_negativity for row in rows]
        assert all(b >= a - 1e-9 for a, b in zip(en, en[1:]))
        assert rows[0].sigma12 == pytest.approx(0.0, abs=1e-12)

    def test_curve_ordering_is_outer_loop(self):
        held = figure_preset("fig2").held
        spec = SweepSpec("r", 0.0, 1.0, 3, held,
                         curve_variable="xi", curve_values=(0.0, 0.2))
        rows = run_sweep(spec)
        assert [row.curve_value for row in rows] == [0.0] * 3 + [0.2] * 3
        assert [row.swept_value for row in rows] == pytest.approx(
            [0.0, 0.5, 1.0] * 2
        )
        assert [row.xi for row in rows] == pytest.approx([0.0] * 3 + [0.2] * 3)

    def test_a_defect_propagates(self, monkeypatch):
        def broken(params):
            raise TypeError("a defect, not a failed point")

        monkeypatch.setattr(sweep, "evaluate_point", broken)
        with pytest.raises(TypeError, match="a defect"):
            run_sweep(SweepSpec("r", 0.0, 1.0, 2, figure_preset("fig3").held))

    def test_a_duomech_error_empties_the_row(self, monkeypatch, capsys):
        def unphysical(params):
            raise PhysicalityError("unphysical point")

        monkeypatch.setattr(sweep, "evaluate_point", unphysical)
        rows = run_sweep(SweepSpec("r", 0.0, 1.0, 2, figure_preset("fig3").held))
        assert [(row.stable, row.n_th, row.log_negativity) for row in rows] == [
            (False, None, None)] * 2
        assert capsys.readouterr().err.count("failed: unphysical point") == 2

    def test_gamma_over_kappa_keeps_cooperativity(self):
        held = figure_preset("fig3").held
        spec = SweepSpec("gamma_over_kappa", 0.001, 0.05, 3, held)
        for row in run_sweep(spec):
            assert row.cooperativity == pytest.approx(32.11, rel=1e-12)
            assert row.kappa == pytest.approx(KAPPA, rel=1e-12)

    def test_hierarchy_on_small_grid(self):
        spec = SweepSpec("r", 0.0, 3.0, 7, figure_preset("fig2").held,
                         curve_variable="xi", curve_values=(0.0, 0.3))
        for row in run_sweep(spec):
            assert row.steering <= row.log_negativity + 1e-12
            assert row.discord >= 0.0


class TestEmitCsv:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_single_row_file(self, tmp_path):
        held = figure_preset("fig2").held
        rows = run_sweep(SweepSpec("r", 0.9, 1.0, 2, held))[:1]
        path = tmp_path / "one.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(CSV_COLUMNS)

    def test_deterministic_bytes(self, tmp_path):
        held = figure_preset("fig4").held
        rows = run_sweep(SweepSpec("xi", 0.0, 0.5, 4, held))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, a, metadata={"preset": "demo"})
        emit_csv(rows, b, metadata={"preset": "demo"})
        assert a.read_bytes() == b.read_bytes()

    def test_unstable_rows_have_empty_measures(self, tmp_path):
        row = SweepRow(
            swept_value=0.5, curve_value=None, r=1.0, xi=0.5, temperature=1e-4,
            gamma=1.0, kappa=2.0, cooperativity=3.0, n_th=0.1,
            sigma1=None, sigma12=None, sigma13=None, steering=None,
            log_negativity=None, discord=None, nu_minus=None, stable=False,
        )
        path = tmp_path / "unstable.csv"
        emit_csv([row], path)
        fields = path.read_text().splitlines()[1].split(",")
        by_name = dict(zip(CSV_COLUMNS, fields))
        for name in ("sigma1", "sigma12", "sigma13", "steering",
                     "log_negativity", "discord", "nu_minus"):
            assert by_name[name] == ""
        assert by_name["stable"] == "false"

    def test_golden_bytes_of_every_row_kind(self):
        # a stable row (with -0.0 and exponent-form values), an unstable row
        # (measures empty) and a failed row (xi, C and n_th empty too, and no
        # curve value); the expected text is the per-field formatter's output
        rows = [
            SweepRow(swept_value=0.0, curve_value=0.1, r=1.0, xi=0.1, temperature=1e-4,
                     gamma=879.64594300514212, kappa=87964.594300514207,
                     cooperativity=32.11, n_th=20.523, sigma1=1.8969207660395373,
                     sigma12=-0.0, sigma13=1.497746351754473e-17, steering=0.0,
                     log_negativity=0.5209203919250005, discord=2.5e-300,
                     nu_minus=0.2969868038984328, stable=True),
            SweepRow(swept_value=1e-6, curve_value=0.001, r=1.0, xi=0.2,
                     temperature=1e-6, gamma=1.7e-7, kappa=87964.594300514207,
                     cooperativity=32.11, n_th=0.0, sigma1=None, sigma12=None,
                     sigma13=None, steering=None, log_negativity=None, discord=None,
                     nu_minus=None, stable=False),
            SweepRow(swept_value=400.0, curve_value=None, r=400.0, xi=None,
                     temperature=1e-4, gamma=879.64594300514212,
                     kappa=87964.594300514207, cooperativity=None, n_th=None,
                     sigma1=None, sigma12=None, sigma13=None, steering=None,
                     log_negativity=None, discord=None, nu_minus=None, stable=False),
        ]
        out = io.StringIO()
        emit_csv(rows, out, metadata={"preset": "golden", "points": 3})
        assert out.getvalue() == (
            "# points=3\n"
            "# preset=golden\n"
            "swept_variable,curve_variable,r,xi,T_K,gamma_rads,kappa_rads,C,n_th,"
            "sigma1,sigma12,sigma13,steering,log_negativity,discord,nu_minus,stable\n"
            "0,0.10000000000000001,1,0.10000000000000001,0.0001,879.64594300514216,"
            "87964.594300514203,32.109999999999999,20.523,1.8969207660395373,-0,"
            "1.4977463517544729e-17,0,0.5209203919250005,2.5e-300,0.29698680389843279,"
            "true\n"
            "9.9999999999999995e-07,0.001,1,0.20000000000000001,9.9999999999999995e-07,"
            "1.6999999999999999e-07,87964.594300514203,32.109999999999999,0,,,,,,,,"
            "false\n"
            "400,,400,,0.0001,879.64594300514216,87964.594300514203,,,,,,,,,,false\n"
        )

    def test_metadata_lines_sorted(self, tmp_path):
        path = tmp_path / "meta.csv"
        emit_csv([], path, metadata={"zeta": 1, "alpha": 2})
        lines = path.read_text().splitlines()
        assert lines[0] == "# alpha=2"
        assert lines[1] == "# zeta=1"


@pytest.fixture(scope="module")
def held():
    return figure_preset("fig4").held  # T = 0.1 mK, r = 1, C = 32.11


class TestFindCriticalXi:

    def test_all_entangled_bracket_rejected(self, held):
        with pytest.raises(BracketError, match="invalid bracket"):
            find_critical_xi(held, (0.0, 0.1))

    def test_all_separable_bracket_rejected(self, held):
        with pytest.raises(BracketError, match="invalid bracket"):
            find_critical_xi(held, (0.5, 0.9))

    def test_reversed_bracket_rejected(self, held):
        with pytest.raises(BracketError, match="lo < hi"):
            find_critical_xi(held, (1.0, 0.0))

    @pytest.mark.parametrize("bracket", [(0.0, math.inf), (-1.0, 1.0), (math.nan, 1.0)],
                             ids=["to-inf", "negative", "nan"])
    def test_non_finite_or_negative_bracket_rejected_before_evaluating(
            self, held, bracket, monkeypatch):
        monkeypatch.setattr(sweep, "_en_at_xi", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(BracketError, match=r"0 <= lo < hi < inf, got \("):
            find_critical_xi(held, bracket)

    def test_locates_entanglement_death(self, held):
        result = find_critical_xi(held, (0.0, 1.0))
        assert result.xi_l == pytest.approx(CRITICAL_XI_FIG4, abs=2e-6)
        assert result.bracket_hi - result.bracket_lo <= 1e-6
        assert result.en_lo > 0.0
        assert result.en_hi == 0.0
        edge = lambda xi: evaluate_point(_apply(held, "xi", xi)).report.log_negativity
        assert result.en_lo == edge(result.bracket_lo)
        assert result.en_hi == edge(result.bracket_hi)


class TestMarginalDrift:
    """At C = 0 the slowest drift eigenvalue is exactly -gamma/2, which the
    stability check's 1e-9 max(gamma, kappa) band calls marginal once
    gamma/kappa <= 2e-9: a valid input that reads stable=false without
    having failed."""

    @staticmethod
    def undriven(gamma_over_kappa):
        held = figure_preset("fig3").held
        return held.with_updates(cooperativity=0.0, gamma=gamma_over_kappa * held.kappa)

    @pytest.mark.parametrize("gamma_over_kappa,stable", [(1e-9, False), (3e-9, True)])
    def test_verdict_boundary(self, gamma_over_kappa, stable):
        result = evaluate_point(self.undriven(gamma_over_kappa))
        assert result.stable is stable
        assert (result.report is not None) is stable

    def test_marginal_row_keeps_derived_fields(self, tmp_path):
        spec = SweepSpec("T", 1e-6, 5e-3, 2, self.undriven(1e-10),
                         curve_variable="gamma_over_kappa", curve_values=(1e-10,))
        path = tmp_path / "marginal.csv"
        emit_csv(run_sweep(spec), path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 2
        for line in lines:
            row = dict(zip(CSV_COLUMNS, line.split(",")))
            assert row["stable"] == "false"
            for name in ("xi", "C", "n_th"):
                assert row[name] != ""
            for name in ("sigma1", "sigma12", "sigma13", "steering",
                         "log_negativity", "discord", "nu_minus"):
                assert row[name] == ""

    def test_bisection_refuses_marginal_point(self):
        with pytest.raises(BracketError, match="xi=0.0 is unstable"):
            find_critical_xi(self.undriven(1e-10), (0.0, 1.0))
