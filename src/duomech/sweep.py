"""1-D parameter sweeps over the steady-state pipeline and deterministic CSV
output, plus the preset grids that reproduce the standard survey figures and
a bisection finder for the hopping strength at which entanglement dies."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .config import EXAMPLE_CONFIG, parse_config
from .dynamics import (CovarianceState, _covariance_state, _noise_weights, _require_stable,
                       system_matrices)
from .errors import BracketError, ConfigError, DuomechError, StabilityError, _check_number
from .measures import CorrelationReport, TwoModeCovariance, correlation_report
from .params import DerivedParams, PhysicalParams, derive

__all__ = [
    "SWEEP_VARIABLES",
    "SweepSpec",
    "SweepRow",
    "PointResult",
    "evaluate_point",
    "run_sweep",
    "figure_preset",
    "find_critical_xi",
    "CriticalHopping",
    "emit_csv",
    "CSV_COLUMNS",
]

# sweep variable -> (the PhysicalParams field it sets, value in units of kappa)
_SWEEP_FIELDS = {
    "r": ("squeezing_r", False),
    "xi": ("hopping_lambda", True),
    "T": ("temperature", False),
    "gamma_over_kappa": ("gamma", True),
}
SWEEP_VARIABLES = tuple(_SWEEP_FIELDS)


@dataclass(frozen=True)
class SweepSpec:
    """A linear grid over one variable, with optional discrete curve values
    of a second variable (outer loop); a ConfigError names a field of the
    wrong type (a bool is no number)."""

    variable: str
    start: float
    stop: float
    num: int
    held: PhysicalParams
    curve_variable: str | None = None
    curve_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.curve_values, (tuple, list)):
            raise ConfigError(
                f"curve_values must be a tuple or a list, got {self.curve_values!r}"
            )
        _check_number("num", self.num, integer=True)
        _check_number("start", self.start)
        _check_number("stop", self.stop)
        for value in self.curve_values:
            _check_number("curve value", value)
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {self.variable!r}; "
                f"expected one of {SWEEP_VARIABLES}"
            )
        if not self.start < self.stop:
            raise ConfigError(
                f"sweep range must have start < stop, got [{self.start}, {self.stop}]"
            )
        if self.num < 2:
            raise ConfigError(f"sweep needs at least 2 points, got {self.num}")
        if not math.isfinite((self.stop - self.start) / (self.num - 1)):
            raise ConfigError(
                f"sweep range [{self.start}, {self.stop}] over {self.num} points "
                "needs finite ends and a finite step"
            )
        grid = self.grid()
        values = [(self.variable, grid[0]), (self.variable, grid[-1])]
        if self.curve_values and self.curve_variable is None:
            raise ConfigError("curve_values are set but curve_variable is not")
        if self.curve_variable is not None:
            if self.curve_variable not in SWEEP_VARIABLES:
                raise ConfigError(f"unknown curve variable {self.curve_variable!r}")
            if self.curve_variable == self.variable:
                raise ConfigError("curve variable must differ from the swept variable")
            if not self.curve_values:
                raise ConfigError("curve_values must be non-empty when curve_variable is set")
            values += [(self.curve_variable, value) for value in self.curve_values]
        # each variable's admissible values form an interval and _apply is
        # monotone in the value, so the grid's ends stand for the whole grid
        for variable, value in values:
            try:
                _apply(self.held, variable, value)
            except ConfigError as exc:
                raise ConfigError(f"{variable}={value:g} is refused: {exc}") from None

    def grid(self) -> list[float]:
        step = (self.stop - self.start) / (self.num - 1)
        return [self.start + i * step for i in range(self.num)]


def _apply(params: PhysicalParams, variable: str, value: float) -> PhysicalParams:
    field, per_kappa = _SWEEP_FIELDS[variable]
    return params.with_updates(**{field: value * params.kappa if per_kappa else value})


class PointResult(NamedTuple):
    """Full pipeline output at one parameter point."""

    derived: DerivedParams
    state: CovarianceState | None
    report: CorrelationReport | None

    @property
    def stable(self) -> bool:
        return self.state is not None


def evaluate_point(params: PhysicalParams) -> PointResult:
    """derive -> matrices -> stability check -> Lyapunov -> mechanical
    measures.  An unstable drift gives a result with ``stable=False`` and no
    state or report.  The state is bit for bit the one
    :func:`~duomech.dynamics.solve_lyapunov` gives for these matrices: the
    solve's kernel takes the rates from the stability report and R's weights
    from ``derived``, as R was built from them, so R is not decoded again."""
    derived = derive(params)
    drift, noise = system_matrices(derived)
    try:
        rates = _require_stable(drift).rates
    except StabilityError:
        return PointResult(derived, None, None)
    state = _covariance_state(drift, noise, rates, _noise_weights(derived))
    cov = TwoModeCovariance.from_matrix(state.mechanical_block)
    return PointResult(derived, state, correlation_report(cov))


class SweepRow(NamedTuple):
    """One grid point; measure fields are None when the point is unstable or
    failed, and the derived fields (xi, cooperativity, n_th) too when it
    failed (emitted as empty CSV fields, never fabricated zeros)."""

    swept_value: float
    curve_value: float | None
    r: float
    xi: float | None
    temperature: float
    gamma: float
    kappa: float
    cooperativity: float | None
    n_th: float | None
    sigma1: float | None
    sigma12: float | None
    sigma13: float | None
    steering: float | None
    log_negativity: float | None
    discord: float | None
    nu_minus: float | None
    stable: bool


def _row_from_point(swept_value: float, curve_value: float | None,
                    params: PhysicalParams, result: PointResult | None) -> SweepRow:
    """``result`` is None when the point failed.  The derived fields are None
    where the point failed, and the measure fields where it failed or is
    unstable.  The row is built positionally, in SweepRow's field order (that
    of CSV_COLUMNS): 0.5 us against 0.8 us with keywords (timeit)."""
    derived = None if result is None else result.derived
    report = None if result is None else result.report
    sigma1 = sigma12 = sigma13 = None
    if report is not None:
        sigma1, sigma12, sigma13 = result.state.mechanical_block[0, :3].tolist()
    return SweepRow(swept_value, curve_value, params.squeezing_r,
                    None if derived is None else derived.xi,
                    params.temperature, params.gamma, params.kappa,
                    None if derived is None else derived.cooperativity,
                    None if derived is None else derived.n_th,
                    sigma1, sigma12, sigma13,
                    None if report is None else report.steering_ab,
                    None if report is None else report.log_negativity,
                    None if report is None else report.discord,
                    None if report is None else report.nu_minus,
                    result is not None and result.stable)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full grid in deterministic order (outer: curve values,
    inner: swept grid ascending).  A point that raises a
    :class:`~duomech.errors.DuomechError` is reported on stderr and yields a
    row with empty derived and measure fields; it never aborts the sweep
    (a value that :class:`PhysicalParams` refuses is refused earlier, by
    :class:`SweepSpec`).  Any other exception is a defect and propagates."""
    curves: list[float | None] = (
        list(spec.curve_values) if spec.curve_variable else [None]
    )
    rows: list[SweepRow] = []
    for curve_value in curves:
        base = spec.held
        if curve_value is not None:
            base = _apply(base, spec.curve_variable, curve_value)
        for value in spec.grid():
            point_params = _apply(base, spec.variable, value)
            try:
                result = evaluate_point(point_params)
            except DuomechError as exc:  # per-point failure: flag, keep sweeping
                print(
                    f"warning: point {spec.variable}={value:g}"
                    + (f", {spec.curve_variable}={curve_value:g}" if curve_value is not None else "")
                    + f" failed: {exc}",
                    file=sys.stderr,
                )
                result = None
            rows.append(_row_from_point(value, curve_value, point_params, result))
    return rows


def figure_preset(name: str) -> SweepSpec:
    """Fully populated sweep specs for the three survey figures.

    fig2: squeezing sweep r in [0, 3], curves over hopping xi
    fig3: temperature sweep T in [1e-6, 5e-3] K, curves over gamma/kappa
          (kappa stays fixed, gamma varies, drive strength held at C = 32.11)
    fig4: hopping sweep xi in [0, 1], curves over bath temperature

    Every held point is the device of :data:`~duomech.config.EXAMPLE_CONFIG`
    (C = 32.11, T = 0.1 mK): fig3 holds it as parsed, fig2 with r = 0 and
    xi = 0, fig4 with xi = 0.  Grids use 301 points.
    """
    device = parse_config(EXAMPLE_CONFIG)
    if name == "fig2":
        return SweepSpec("r", 0.0, 3.0, 301,
                         device.with_updates(squeezing_r=0.0, hopping_lambda=0.0),
                         curve_variable="xi", curve_values=(0.0, 0.1, 0.2, 0.3))
    if name == "fig3":
        return SweepSpec("T", 1e-6, 5e-3, 301, device,
                         curve_variable="gamma_over_kappa",
                         curve_values=(0.001, 0.005, 0.01, 0.05))
    if name == "fig4":
        return SweepSpec("xi", 0.0, 1.0, 301, device.with_updates(hopping_lambda=0.0),
                         curve_variable="T",
                         curve_values=(1e-4, 4e-4, 8e-4, 1.6e-3))
    raise ConfigError(f"unknown figure preset {name!r}; expected fig2, fig3 or fig4")


@dataclass(frozen=True)
class CriticalHopping:
    """Bisection result with the bracketing evidence."""

    xi_l: float
    bracket_lo: float
    bracket_hi: float
    en_lo: float       # log-negativity at the validated lower bracket edge
    en_hi: float
    iterations: int


_XI_TOL = 1e-6    # xi-resolution of the bisection
_EN_TOL = 1e-10   # E_N above this counts as entangled


def _en_at_xi(held: PhysicalParams, xi: float) -> float:
    result = evaluate_point(_apply(held, "xi", xi))
    if result.report is None:
        raise BracketError(f"point xi={xi!r} is unstable; cannot bisect across it")
    return result.report.log_negativity


def find_critical_xi(held: PhysicalParams, bracket: tuple[float, float]) -> CriticalHopping:
    """Locate the hopping strength where the log-negativity reaches zero.

    Bisects the indicator E_N > 1e-10 down to a xi-resolution of 1e-6; the
    bracket's ends must be real numbers (else a ConfigError) with 0 <= lo <
    hi < inf, E_N(lo) > 0 and E_N(hi) = 0.
    """
    lo, hi = bracket
    _check_number("bracket lo", lo)
    _check_number("bracket hi", hi)
    if not (0.0 <= lo < hi and math.isfinite(hi)):
        raise BracketError(f"bracket must satisfy 0 <= lo < hi < inf, got {bracket!r}")
    en_lo = _en_at_xi(held, lo)
    en_hi = _en_at_xi(held, hi)
    if en_lo <= _EN_TOL or en_hi > _EN_TOL:
        raise BracketError(
            "invalid bracket: need E_N(lo) > 0 and E_N(hi) = 0, got "
            f"E_N({lo:g}) = {en_lo!r}, E_N({hi:g}) = {en_hi!r}"
        )
    iterations = 0
    while hi - lo > _XI_TOL:
        mid = 0.5 * (lo + hi)
        en_mid = _en_at_xi(held, mid)
        if en_mid > _EN_TOL:
            lo, en_lo = mid, en_mid
        else:
            hi, en_hi = mid, en_mid
        iterations += 1
    return CriticalHopping(
        xi_l=0.5 * (lo + hi), bracket_lo=lo, bracket_hi=hi,
        en_lo=en_lo, en_hi=en_hi, iterations=iterations,
    )


CSV_COLUMNS = (
    "swept_variable", "curve_variable", "r", "xi", "T_K", "gamma_rads",
    "kappa_rads", "C", "n_th", "sigma1", "sigma12", "sigma13", "steering",
    "log_negativity", "discord", "nu_minus", "stable",
)


def emit_csv(rows, path_or_file, metadata: dict | None = None) -> None:
    """Write sweep rows as CSV: deterministic byte output for identical
    inputs (sorted '#' metadata lines, 17-significant-digit decimal text, an
    empty field for None, no timestamps).  ``path_or_file`` may be a path or
    an open text stream."""
    comments = [f"{key}={metadata[key]}" for key in sorted(metadata or {})]
    # SweepRow is a tuple of its fields in CSV_COLUMNS order, stable last; of
    # a row's 7 us, nearly all is the '%.17g' text
    _write_table(path_or_file, comments, CSV_COLUMNS,
                 ((*numbers, "true" if stable else "false") for *numbers, stable in rows))


_FORMATS = {type(None): "%.0s", str: "%s"}   # any other type is a number


def _write_table(path_or_file, comments, header, rows) -> None:
    """The one table format of every CSV the package writes: a '# ' line per
    comment, the header, then one line per row tuple, with a number written
    '%.17g', a string as it is and None as an empty field.  ``path_or_file``
    may be a path or an open text stream."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            _write_table(fh, comments, header, rows)
        return
    fh = path_or_file
    for comment in comments:
        fh.write(f"# {comment}\n")
    fh.write(",".join(header) + "\n")
    # one template per pattern of field types: "%.0s" writes nothing for None
    templates: dict[tuple[type, ...], str] = {}
    for row in rows:
        # an exact-size tuple: tuple(map(...)) grows one by resizing, and
        # CPython's tuple free list then keeps a copy per row
        kinds = (*map(type, row),)
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                _FORMATS.get(kind, "%.17g") for kind in kinds) + "\n"
        fh.write(template % row)
