"""Closed-form expressions for the mechanical covariance entries and their
systematic comparison against the exact Lyapunov solution.

Two closed-form routes are provided:

``closed_sigma``
    The reference expressions reproduced verbatim.  Note that the variance
    numerator carries a ``kappa^2 cosh(2r)`` term that is dimensionally
    inconsistent (a rate squared added to a rate); the expressions are exact
    only when all rates are expressed in units of the cavity linewidth
    (kappa = 1).  They are kept verbatim so the comparison report can
    quantify the consequences; nothing downstream consumes them.

``closed_sigma_corrected``
    Derived here by solving the steady-state covariance equations exactly in
    the +/- collective-mode basis (the two sectors decouple and are 4x4 each).
    The result differs from the verbatim form only in that single power:
    ``kappa cosh(2r)`` instead of ``kappa^2 cosh(2r)``.  The correlation
    entries sigma12 and sigma13 come out identical to the verbatim
    expressions, which are exact as printed.

The Lyapunov route is authoritative: every physics result in this package is
computed from the exact solve, never from either closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EXAMPLE_CONFIG, parse_config
from .dynamics import solve_lyapunov, system_matrices
from .errors import ConfigError, StabilityError, _check_number
from .params import PhysicalParams, derive, squeezed_moments
from .sweep import _write_table

__all__ = [
    "MechanicalCovarianceClosed",
    "GridPoint",
    "ClosedFormRow",
    "ClosedFormReport",
    "closed_sigma",
    "closed_sigma_corrected",
    "validate_closed_forms",
    "default_validation_grid",
    "write_report_csv",
]

# the report's device is EXAMPLE_CONFIG's: its cavity linewidth, and the
# thermal occupancy of its 0.1 mK bath
_DEVICE = parse_config(EXAMPLE_CONFIG)


@dataclass(frozen=True)
class MechanicalCovarianceClosed:
    """Closed-form (sigma1, sigma12, sigma13)."""

    sigma1: float
    sigma12: float
    sigma13: float


def _closed_form(c: float, r: float, xi: float, g: float, k: float, n_th: float,
                 kappa_power: int) -> MechanicalCovarianceClosed:
    """The closed form with ``kappa**kappa_power cosh(2r)`` in the variance
    numerator; cosh 2r = 1 + 2N and sinh 2r = 2M from the squeezed moments."""
    for name, value, positive in (("cooperativity", c, False), ("squeezing_r", r, False),
                                  ("xi", xi, False), ("n_th", n_th, False),
                                  ("gamma", g, True), ("kappa", k, True)):
        _check_number(name, value, minimum=0.0, positive=positive)
    n_sq, m_sq = squeezed_moments(r)
    ch, sh = 1.0 + 2.0 * n_sq, 2.0 * m_sq
    two_n1 = 1.0 + 2.0 * n_th
    gpk2 = (g + k) ** 2
    sigma1 = (
        c * (g + k) * (g * two_n1 + k**kappa_power * ch)
        + two_n1 * (gpk2 + 4.0 * k * k * xi * xi)
    ) / (2.0 * (gpk2 * (c + 1.0) + 4.0 * k * k * xi * xi))
    den = (gpk2 + 4.0 * k * k * xi * xi) * ((c + 1.0) ** 2 + 4.0 * xi * xi)
    sigma12 = k * c * sh * (k * c + g + 2.0 * k) * xi / den
    sigma13 = k * c * sh * ((g + k) * (c + 1.0) - 4.0 * k * xi * xi) / (2.0 * den)
    return MechanicalCovarianceClosed(sigma1=sigma1, sigma12=sigma12, sigma13=sigma13)


def closed_sigma(
    cooperativity: float,
    squeezing_r: float,
    xi: float,
    gamma: float,
    kappa: float,
    n_th: float,
) -> MechanicalCovarianceClosed:
    """Verbatim reference closed form (see module docstring for its caveat);
    each input is a finite real number >= 0 (gamma, kappa > 0) or a ConfigError."""
    return _closed_form(cooperativity, squeezing_r, xi, gamma, kappa, n_th, 2)


def closed_sigma_corrected(
    cooperativity: float,
    squeezing_r: float,
    xi: float,
    gamma: float,
    kappa: float,
    n_th: float,
) -> MechanicalCovarianceClosed:
    """Exact closed form, derived from the collective-mode steady state.

    In the (q1 +/- q2)/sqrt(2) basis the drift decouples into two 4x4
    sectors whose steady-state covariances are obtained in closed form; the
    mirror entries follow as sums/differences of the sector solutions.
    Agrees with the Lyapunov solve to rounding for all physical inputs.
    """
    return _closed_form(cooperativity, squeezing_r, xi, gamma, kappa, n_th, 1)


@dataclass(frozen=True)
class GridPoint:
    """One comparison point at the device's kappa and bath: the
    :data:`~duomech.config.EXAMPLE_CONFIG` device with this drive strength,
    squeezing, hopping xi = lambda/kappa and damping ratio gamma/kappa."""

    cooperativity: float
    squeezing_r: float
    xi: float
    gamma_over_kappa: float


@dataclass(frozen=True)
class ClosedFormRow:
    point: GridPoint
    sigma1_closed: float
    sigma1_lyap: float
    rel_dev_1: float
    sigma12_closed: float
    sigma12_lyap: float
    rel_dev_12: float
    sigma13_closed: float
    sigma13_lyap: float
    rel_dev_13: float


@dataclass(frozen=True)
class ClosedFormReport:
    rows: tuple[ClosedFormRow, ...]
    skipped_unstable: tuple[GridPoint, ...]
    max_rel_dev_1: float
    max_rel_dev_12: float
    max_rel_dev_13: float
    max_rel_dev_at_c0: float           # all three entries, C = 0 rows
    max_rel_dev_12_13_at_r0: float     # correlation entries, r = 0 rows
    max_rel_dev_1_normalized: float    # sigma1 verbatim re-evaluated at kappa = 1

    @property
    def agrees_within_1e8(self) -> bool:
        return max(self.max_rel_dev_1, self.max_rel_dev_12, self.max_rel_dev_13) < 1e-8


def _rel_dev(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _device_at(point: GridPoint) -> PhysicalParams:
    """The device at ``point``, whose numbers are checked before they are
    scaled; a ConfigError names the point."""
    kappa = _DEVICE.kappa
    try:
        for name, value in vars(point).items():
            _check_number(name, value)
        return _DEVICE.with_updates(
            cooperativity=point.cooperativity, squeezing_r=point.squeezing_r,
            hopping_lambda=point.xi * kappa, gamma=point.gamma_over_kappa * kappa)
    except ConfigError as exc:
        raise ConfigError(f"{point!r}: {exc}") from None


def validate_closed_forms(grid) -> ClosedFormReport:
    """Compare the verbatim closed form against the Lyapunov solution on a
    grid of :class:`GridPoint`; each point goes through :func:`derive`
    like any other parameter set, and unstable points are skipped with
    notation.  An invalid point raises :class:`ConfigError`.

    The summary also re-evaluates the verbatim variance formula with rates
    normalized to kappa = 1, which isolates the inconsistent linewidth power
    as the sole source of deviation.
    """
    rows: list[ClosedFormRow] = []
    skipped: list[GridPoint] = []
    dev_c0: list[float] = [0.0]
    dev_r0: list[float] = [0.0]
    dev_norm: list[float] = [0.0]
    for point in grid:
        derived = derive(_device_at(point))
        try:
            mech = solve_lyapunov(system_matrices(derived)).mechanical_block
        except StabilityError:
            skipped.append(point)
            continue
        s1_l, s12_l, s13_l = mech[0, 0], mech[0, 1], mech[0, 2]
        closed = closed_sigma(point.cooperativity, point.squeezing_r, point.xi,
                              derived.gamma, derived.kappa, derived.n_th)
        row = ClosedFormRow(
            point=point,
            sigma1_closed=closed.sigma1, sigma1_lyap=float(s1_l),
            rel_dev_1=_rel_dev(closed.sigma1, float(s1_l)),
            sigma12_closed=closed.sigma12, sigma12_lyap=float(s12_l),
            rel_dev_12=_rel_dev(closed.sigma12, float(s12_l)),
            sigma13_closed=closed.sigma13, sigma13_lyap=float(s13_l),
            rel_dev_13=_rel_dev(closed.sigma13, float(s13_l)),
        )
        rows.append(row)
        if point.cooperativity == 0.0:
            dev_c0.append(max(row.rel_dev_1, row.rel_dev_12, row.rel_dev_13))
        if point.squeezing_r == 0.0:
            dev_r0.append(max(row.rel_dev_12, row.rel_dev_13))
        normalized = closed_sigma(point.cooperativity, point.squeezing_r, point.xi,
                                  point.gamma_over_kappa, 1.0, derived.n_th)
        dev_norm.append(_rel_dev(normalized.sigma1, float(s1_l)))
    return ClosedFormReport(
        rows=tuple(rows),
        skipped_unstable=tuple(skipped),
        max_rel_dev_1=max((r.rel_dev_1 for r in rows), default=0.0),
        max_rel_dev_12=max((r.rel_dev_12 for r in rows), default=0.0),
        max_rel_dev_13=max((r.rel_dev_13 for r in rows), default=0.0),
        max_rel_dev_at_c0=max(dev_c0),
        max_rel_dev_12_13_at_r0=max(dev_r0),
        max_rel_dev_1_normalized=max(dev_norm),
    )


def default_validation_grid() -> list[GridPoint]:
    """Comparison grid: the undriven point, an r-scan without hopping, and an
    r x xi scan at the device's drive strength (C = 32.11)."""
    c = _DEVICE.cooperativity
    grid = [GridPoint(0.0, 1.0, 0.2, 0.01)]
    for r in [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]:
        grid.append(GridPoint(c, r, 0.0, 0.01))
    for xi in [0.0, 0.1, 0.2, 0.3]:
        for r in [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]:
            grid.append(GridPoint(c, r, xi, 0.01))
    for gok in [0.001, 0.005, 0.05]:
        grid.append(GridPoint(c, 1.0, 0.2, gok))
    return grid


_CSV_COLUMNS = (
    "C", "r", "xi", "gamma_over_kappa", "n_th",
    "sigma1_closed", "sigma1_lyap", "rel_dev_1",
    "sigma12_closed", "sigma12_lyap", "rel_dev_12",
    "sigma13_closed", "sigma13_lyap", "rel_dev_13",
)


def write_report_csv(report: ClosedFormReport, path) -> None:
    """Write the discrepancy report; '#' metadata lines carry the summary.
    Every point sits at the device's bath, so every row has its n_th."""
    n_th = derive(_DEVICE).n_th
    _write_table(path, [
        f"kappa_rads={_DEVICE.kappa:.17g}",
        f"skipped_unstable={len(report.skipped_unstable)}",
        f"max_rel_dev_1={report.max_rel_dev_1:.17g}",
        f"max_rel_dev_12={report.max_rel_dev_12:.17g}",
        f"max_rel_dev_13={report.max_rel_dev_13:.17g}",
        f"max_rel_dev_at_c0={report.max_rel_dev_at_c0:.17g}",
        f"max_rel_dev_12_13_at_r0={report.max_rel_dev_12_13_at_r0:.17g}",
        f"max_rel_dev_1_normalized={report.max_rel_dev_1_normalized:.17g}",
        f"agrees_within_1e8={str(report.agrees_within_1e8).lower()}",
        "note=sigma12/sigma13 expressions are exact; the sigma1 deviation "
        "disappears when rates are expressed in units of kappa, isolating "
        "the kappa^2 cosh(2r) bracket term as the sole inconsistency",
    ], _CSV_COLUMNS, [
        (row.point.cooperativity, row.point.squeezing_r, row.point.xi,
         row.point.gamma_over_kappa, n_th,
         row.sigma1_closed, row.sigma1_lyap, row.rel_dev_1,
         row.sigma12_closed, row.sigma12_lyap, row.rel_dev_12,
         row.sigma13_closed, row.sigma13_lyap, row.rel_dev_13)
        for row in report.rows
    ])
