"""Shared test plumbing: the reference device, the check of a report's
symplectic eigenvalues against the i Omega sigma route, and the acceptance
criteria's pass/fail lines, printed in the terminal summary."""

from __future__ import annotations

import math

from duomech import (
    EXAMPLE_CONFIG,
    CorrelationReport,
    PhysicalParams,
    TwoModeCovariance,
    measures,
    parse_config,
    symplectic_spectrum,
)


def reference_params(**overrides) -> PhysicalParams:
    """The EXAMPLE_CONFIG device (C = 32.11, xi = 0.2, r = 1, T = 0.1 mK,
    gamma/kappa = 0.01), with the given fields replaced."""
    return parse_config(EXAMPLE_CONFIG).with_updates(**overrides)


def assert_theta_matches_spectrum(report: CorrelationReport, block) -> None:
    """The report's symplectic eigenvalues, from the block determinants,
    against the independent i Omega sigma route of ``symplectic_spectrum``:
    within 1e-9 max(1, theta_plus), plus the split sqrt(band) /
    (4 max(theta_minus, 1/4)) that the discriminant's roundoff band hides."""
    c = TwoModeCovariance.from_matrix(block)
    band = measures._disc_band(c.det_x + c.det_b + 2.0 * c.det_z, c.det_full, c.det_scale)
    tol = (1e-9 * max(1.0, report.theta_plus)
           + math.sqrt(band) / (4.0 * max(report.theta_minus, 0.25)))
    ref_minus, ref_plus = symplectic_spectrum(block).tolist()
    assert abs(report.theta_minus - ref_minus) <= tol, (report.theta_minus, ref_minus, tol)
    assert abs(report.theta_plus - ref_plus) <= tol, (report.theta_plus, ref_plus, tol)


_RESULTS: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        passed, detail = _RESULTS[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} — {detail}")
