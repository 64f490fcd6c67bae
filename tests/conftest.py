"""Shared test plumbing: the reference device, and the acceptance criteria's
pass/fail lines, printed in the terminal summary."""

from __future__ import annotations

from duomech import EXAMPLE_CONFIG, PhysicalParams, parse_config


def reference_params(**overrides) -> PhysicalParams:
    """The EXAMPLE_CONFIG device (C = 32.11, xi = 0.2, r = 1, T = 0.1 mK,
    gamma/kappa = 0.01), with the given fields replaced."""
    return parse_config(EXAMPLE_CONFIG).with_updates(**overrides)

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
