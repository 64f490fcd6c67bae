"""Shared test plumbing: the reference device, the check of a report's
symplectic eigenvalues against the i Omega sigma route, and the acceptance
criteria's pass/fail lines, printed in the terminal summary."""

from __future__ import annotations

from duomech import (
    EXAMPLE_CONFIG,
    CorrelationReport,
    PhysicalParams,
    parse_config,
    symplectic_spectrum,
)


def reference_params(**overrides) -> PhysicalParams:
    """The EXAMPLE_CONFIG device (C = 32.11, xi = 0.2, r = 1, T = 0.1 mK,
    gamma/kappa = 0.01), with the given fields replaced."""
    return parse_config(EXAMPLE_CONFIG).with_updates(**overrides)


def assert_theta_matches_spectrum(report: CorrelationReport, block,
                                  reference=symplectic_spectrum) -> None:
    """The report's symplectic eigenvalues, from the blocks, against an
    independent route, by default the i Omega sigma one of
    ``symplectic_spectrum`` (``reference`` maps the block to both values,
    ascending): within 1e-9 max(1, theta_plus)."""
    tol = 1e-9 * max(1.0, report.theta_plus)
    ref_minus, ref_plus = list(reference(block))
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
