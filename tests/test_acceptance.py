"""Acceptance suite.

One test per numbered criterion; each records a pass/fail line that the
terminal summary prints (see conftest).  Criteria 6 and 7 are checked on the
CSV files emitted through the command-line front end, end to end.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import record_criterion
from duomech import (
    SdeConfig,
    compare_to_lyapunov,
    correlation_report,
    default_validation_grid,
    derive,
    evaluate_point,
    figure_preset,
    find_critical_xi,
    integrate_steady_covariance,
    solve_lyapunov,
    symplectic_eigenvalues,
    symplectic_spectrum,
    system_matrices,
    thermal_state,
    two_mode_squeezed_state,
    validate_closed_forms,
    write_report_csv,
)
from duomech.cli import main as cli_main
from duomech.sweep import _apply  # sweep's own variable mapping

from test_measures import _random_physical

PRESETS = ("fig2", "fig3", "fig4")


@contextmanager
def criterion(number: int, detail_holder: dict):
    """Record the outcome even when the assertion (or a crash) aborts."""
    try:
        yield
    except BaseException as exc:
        record_criterion(number, False, detail_holder.get("detail", f"error: {exc}"))
        raise
    record_criterion(number, True, detail_holder.get("detail", "ok"))


@pytest.fixture(scope="session")
def preset_states():
    """Full pipeline at every grid point of every preset, with timings."""
    data = {}
    for name in PRESETS:
        spec = figure_preset(name)
        points = []
        start = time.perf_counter()
        for curve_value in spec.curve_values:
            base = _apply(spec.held, spec.curve_variable, curve_value)
            for value in spec.grid():
                result = evaluate_point(_apply(base, spec.variable, value))
                points.append((curve_value, value, result))
        elapsed = time.perf_counter() - start
        data[name] = {"spec": spec, "points": points, "elapsed": elapsed}
    return data


@pytest.fixture(scope="session")
def preset_csvs(tmp_path_factory):
    """Figure CSVs produced through the CLI."""
    outdir = tmp_path_factory.mktemp("figures")
    paths = {}
    for name in PRESETS:
        path = outdir / f"{name}.csv"
        code = cli_main(["--figure", name, "--output", str(path)])
        assert code == 0
        paths[name] = path
    return paths


def read_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


def column(rows, key):
    return [float(r[key]) if r[key] != "" else None for r in rows]


def curves_of(rows):
    seen = []
    for r in rows:
        v = float(r["curve_variable"])
        if v not in seen:
            seen.append(v)
    return seen


def curve_rows(rows, value):
    return [r for r in rows if float(r["curve_variable"]) == value]


def test_criterion_1_lyapunov_correctness(preset_states):
    holder = {}
    with criterion(1, holder):
        worst_resid = 0.0
        worst_nu = math.inf
        n_points = 0
        for name in PRESETS:
            for _, _, result in preset_states[name]["points"]:
                assert result.stable, "unexpected unstable preset point"
                worst_resid = max(worst_resid, result.state.residual)
                worst_nu = min(worst_nu, symplectic_spectrum(result.state.full).min())
                n_points += 1
        times = {n: preset_states[n]["elapsed"] for n in PRESETS}
        holder["detail"] = (
            f"{n_points} points, max residual {worst_resid:.2e}, "
            f"min symplectic eigenvalue {worst_nu:.9f}, "
            f"sweep times {', '.join(f'{n}={t:.1f}s' for n, t in times.items())}"
        )
        assert n_points == 3 * 301 * 4
        assert worst_resid < 1e-10
        assert worst_nu >= 0.5 - 1e-9
        assert all(t < 10.0 for t in times.values())


def test_criterion_2_trivial_limits():
    holder = {}
    with criterion(2, holder):
        held = figure_preset("fig3").held.with_updates(gamma=0.01 * figure_preset("fig3").held.kappa)
        # C = 0: thermal mechanical block, no correlations
        undriven = evaluate_point(held.with_updates(cooperativity=0.0))
        n_th = undriven.derived.n_th
        mech = undriven.state.mechanical_block
        dev_c0 = float(np.max(np.abs(mech - (n_th + 0.5) * np.eye(4))))
        rep = undriven.report
        meas_c0 = max(rep.steering_ab, rep.log_negativity, rep.discord)
        # r = 0: no transferred correlations
        unsqueezed = evaluate_point(held.with_updates(squeezing_r=0.0))
        mech0 = unsqueezed.state.mechanical_block
        corr_r0 = max(abs(mech0[0, 1]), abs(mech0[0, 2]))
        rep0 = unsqueezed.report
        meas_r0 = max(rep0.steering_ab, rep0.log_negativity, rep0.discord)
        holder["detail"] = (
            f"C=0 block deviation {dev_c0:.2e}, measures {meas_c0:.2e}; "
            f"r=0 correlations {corr_r0:.2e}, measures {meas_r0:.2e}"
        )
        assert dev_c0 < 1e-10
        assert meas_c0 <= 1e-10
        assert corr_r0 < 1e-10
        assert meas_r0 <= 1e-10


def test_criterion_3_analytic_states():
    holder = {}
    with criterion(3, holder):
        worst = 0.0
        for n in (0.0, 1.5):
            rep = correlation_report(thermal_state(n))
            assert rep.steering_ab == 0.0
            assert rep.log_negativity == 0.0
            assert rep.discord == 0.0
        for s in (0.5, 1.0, 2.0):
            rep = correlation_report(two_mode_squeezed_state(s))
            dev_en = abs(rep.log_negativity - 2.0 * s)
            dev_s = abs(rep.steering_ab - math.log(math.cosh(2.0 * s)))
            worst = max(worst, dev_en, dev_s)
        holder["detail"] = f"thermal exact zeros; TMSV worst deviation {worst:.2e}"
        assert worst <= 1e-9


def test_criterion_4_symplectic_cross_check():
    holder = {}
    with criterion(4, holder):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            cov = _random_physical(rng)
            tp, tm = symplectic_eigenvalues(cov)
            ref = symplectic_spectrum(cov)
            worst = max(worst, abs(tm - ref[0]), abs(tp - ref[1]))
        holder["detail"] = f"1000 randomized covariances, worst disagreement {worst:.2e}"
        assert worst <= 1e-9


@pytest.mark.slow
def test_criterion_5_monte_carlo_oracle():
    holder = {}
    with criterion(5, holder):
        held = figure_preset("fig3").held  # gamma/kappa = 0.01 curve is the base gamma
        matrices = system_matrices(derive(held))
        exact = solve_lyapunov(matrices)
        start = time.perf_counter()
        estimate = integrate_steady_covariance(matrices, SdeConfig())
        elapsed = time.perf_counter() - start
        comparison = compare_to_lyapunov(estimate, exact)

        mech = slice(0, 4)
        dev = np.abs(estimate.cov_estimate[mech, mech] - exact.mechanical_block)
        se = estimate.std_error[mech, mech]
        z_ok = bool(np.all(dev <= 4.0 * se))
        exact_mech = exact.mechanical_block
        usable = np.abs(exact_mech) > 1e-6 * np.max(np.diag(exact_mech))
        rel = dev[usable] / np.abs(exact_mech[usable])
        # note: at this sampling depth the ensemble error is tight enough to
        # resolve the O(dt) Euler-Maruyama stationary bias on the fast
        # optical entries (~0.25% of their scale, a few SE); the criterion
        # (and this test) is scoped to the slow mechanical block, where the
        # bias is ~30x smaller.
        z_elsewhere = np.abs(comparison.z_scores).copy()
        z_elsewhere[mech, mech] = 0.0
        holder["detail"] = (
            f"runtime {elapsed:.0f}s, mech block max |z| "
            f"{np.max(dev / se):.2f}, max relative deviation {rel.max():.3%} "
            f"(max |z| {float(z_elsewhere.max()):.1f} on optical/cross entries, "
            f"from the documented Euler step bias)"
        )
        assert elapsed < 300.0
        assert z_ok
        assert rel.max() <= 0.02


def _nondecreasing(values, slack=1e-9):
    return all(b >= a - slack for a, b in zip(values, values[1:]))


def _nonincreasing(values, slack=1e-9):
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def test_criterion_6_fig2_shape(preset_csvs):
    holder = {}
    with criterion(6, holder):
        rows = read_rows(preset_csvs["fig2"])
        xis = curves_of(rows)
        r_mins = []
        peaks = {}
        for xi in xis:
            sub = curve_rows(rows, xi)
            en = column(sub, "log_negativity")
            rs = column(sub, "swept_variable")
            if xi == 0.0:
                for key in ("steering", "log_negativity", "discord"):
                    assert _nondecreasing(column(sub, key)), f"{key} not monotone at xi=0"
            else:
                imax = max(range(len(en)), key=en.__getitem__)
                assert 0 < imax < len(en) - 1, f"no interior maximum at xi={xi}"
                assert _nonincreasing(en[imax:]), f"no decay after maximum at xi={xi}"
                assert en[-1] < en[imax] - 1e-6, f"no decrease after maximum at xi={xi}"
                peaks[xi] = rs[imax]
            entangled = [r for r, e in zip(rs, en) if e > 1e-10]
            assert entangled, f"curve xi={xi} never entangled"
            r_mins.append(entangled[0])
        assert _nondecreasing(r_mins, slack=0.0), f"r_min not monotone: {r_mins}"
        holder["detail"] = (
            f"r_min per xi curve {r_mins}, interior peaks at r="
            f"{[round(v, 2) for v in peaks.values()]}"
        )


def test_criterion_7_fig3_shape(preset_csvs):
    holder = {}
    with criterion(7, holder):
        rows = read_rows(preset_csvs["fig3"])
        goks = curves_of(rows)
        assert goks == sorted(goks)
        columns = {}
        death_info = []
        for gok in goks:
            sub = curve_rows(rows, gok)
            for key in ("steering", "log_negativity", "discord"):
                values = column(sub, key)
                assert _nonincreasing(values), f"{key} not non-increasing at g/k={gok}"
                columns[(gok, key)] = values
            en = column(sub, "log_negativity")
            disc = column(sub, "discord")
            steer = column(sub, "steering")
            dead = [i for i, e in enumerate(en) if e <= 1e-12]
            assert dead, f"entanglement never dies on curve g/k={gok}"
            i0 = dead[0]
            assert disc[i0] > 0.0, "discord vanished together with entanglement"
            death_info.append((gok, column(sub, "swept_variable")[i0], disc[i0], steer[i0]))
        # at fixed T the measures do not grow with gamma/kappa
        for a, b in zip(goks, goks[1:]):
            for key in ("steering", "log_negativity", "discord"):
                va, vb = columns[(a, key)], columns[(b, key)]
                assert all(y <= x + 1e-9 for x, y in zip(va, vb)), (
                    f"{key} increased from g/k={a} to {b}"
                )
        # steering at the entanglement-death point: observed zero; logged,
        # not asserted (a nonzero value there would contradict S <= E_N).
        steer_at_death = max(info[3] for info in death_info)
        holder["detail"] = (
            "death points (g/k, T, D, S): "
            + "; ".join(f"({g:g}, {t:.1e}, {d:.3f}, {s:.3f})"
                        for g, t, d, s in death_info)
            + f" — max steering at death {steer_at_death:g} (logged, not asserted)"
        )


def test_criterion_8_hierarchy(preset_csvs):
    holder = {}
    with criterion(8, holder):
        n_rows = 0
        for name in PRESETS:
            for row in read_rows(preset_csvs[name]):
                assert row["stable"] == "true"
                steering = float(row["steering"])
                en = float(row["log_negativity"])
                disc = float(row["discord"])
                assert steering <= en + 1e-12, f"S > E_N in {name}: {row}"
                if steering > 0.0:
                    assert en > 0.0
                if disc > 1.0:
                    assert en > 0.0, f"D > 1 with E_N = 0 in {name}: {row}"
                assert disc >= 0.0
                n_rows += 1
        holder["detail"] = f"hierarchy held on {n_rows} emitted rows"
        assert n_rows == 3 * 4 * 301


def test_criterion_9_closed_form_report(tmp_path):
    holder = {}
    with criterion(9, holder):
        report = validate_closed_forms(default_validation_grid())
        path = tmp_path / "closedform_report.csv"
        write_report_csv(report, path)
        assert path.exists() and len(report.rows) > 20
        # exact agreement on the C = 0 line (all three entries)
        assert report.max_rel_dev_at_c0 < 1e-10
        # exact agreement of the quantities pinned on the r = 0 line (the
        # correlation entries; the variance formula carries the inconsistent
        # linewidth power and deviates for any C > 0, r = 0 included)
        assert report.max_rel_dev_12_13_at_r0 < 1e-10
        # the deviation profile elsewhere is documented, not hidden
        assert report.max_rel_dev_1 > 1e-8
        assert report.max_rel_dev_12 < 1e-10
        assert report.max_rel_dev_13 < 1e-10
        assert report.max_rel_dev_1_normalized < 1e-10
        holder["detail"] = (
            f"report at {path.name}: C=0 line {report.max_rel_dev_at_c0:.1e}, "
            f"r=0 correlations {report.max_rel_dev_12_13_at_r0:.1e}, "
            f"sigma12/13 exact ({report.max_rel_dev_12:.1e}/"
            f"{report.max_rel_dev_13:.1e}), sigma1 deviation documented "
            f"(max {report.max_rel_dev_1:.1e}; vanishes in linewidth units: "
            f"{report.max_rel_dev_1_normalized:.1e})"
        )


def test_criterion_10_critical_hopping(preset_csvs):
    holder = {}
    with criterion(10, holder):
        held = figure_preset("fig4").held  # T = 0.1 mK curve
        result = find_critical_xi(held, (0.0, 1.0))
        assert 0.0 < result.xi_l < 1.0
        assert result.bracket_hi - result.bracket_lo <= 1e-6
        # consistent with the emitted fig4 sweep: the E_N column crosses zero
        # inside the same grid interval
        rows = curve_rows(read_rows(preset_csvs["fig4"]), 1e-4)
        xs = column(rows, "swept_variable")
        en = column(rows, "log_negativity")
        last_entangled = max(x for x, e in zip(xs, en) if e > 1e-10)
        first_dead = min(x for x, e in zip(xs, en) if x > last_entangled and e <= 1e-12)
        assert last_entangled - 1e-9 <= result.xi_l <= first_dead + 1e-9
        # regression against an independent bisection at resolution 1e-7
        assert abs(result.xi_l - 0.3250238597393036) < 2e-6
        holder["detail"] = (
            f"xi_l = {result.xi_l:.6f} in ({last_entangled:.4f}, {first_dead:.4f}) "
            f"from the sweep grid; bracket width {result.bracket_hi - result.bracket_lo:.1e}"
        )
