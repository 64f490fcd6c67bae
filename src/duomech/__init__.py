"""Steady-state Gaussian quantum correlations between the movable mirrors of
two photon-hopping-coupled, squeezed-light-driven optomechanical cavities.

The pipeline: physical parameters -> linearized drift/noise matrices ->
Lyapunov steady-state covariance -> mechanical two-mode block -> steering,
logarithmic negativity and Gaussian discord.  Vacuum quadrature variance is
1/2 throughout; measures are reported in nats.
"""

from .closedform import (
    closed_sigma,
    closed_sigma_corrected,
    default_validation_grid,
    validate_closed_forms,
    write_report_csv,
)
from .config import EXAMPLE_CONFIG, load_config, parse_config
from .constants import HBAR, KB
from .dynamics import (
    CovarianceState,
    SystemMatrices,
    build_drift,
    build_noise,
    check_stability,
    solve_lyapunov,
    system_matrices,
    write_matrix,
)
from .errors import (
    BracketError,
    ConfigError,
    DuomechError,
    PhysicalityError,
    StabilityError,
    UnsupportedBranchError,
)
from .measures import (
    CorrelationReport,
    TwoModeCovariance,
    correlation_report,
    f_function,
    gaussian_discord,
    gaussian_steering,
    log_negativity,
    symplectic_eigenvalues,
    symplectic_spectrum,
    thermal_state,
    two_mode_squeezed_state,
)
from .montecarlo import (
    McComparison,
    McEstimate,
    SdeConfig,
    compare_to_lyapunov,
    integrate_steady_covariance,
    write_comparison_csv,
)
from .params import (
    DerivedParams,
    PhysicalParams,
    derive,
    effective_coupling,
    power_from_cooperativity,
    squeezed_moments,
    thermal_occupancy,
)
from .sweep import (
    CSV_COLUMNS,
    CriticalHopping,
    PointResult,
    SweepRow,
    SweepSpec,
    emit_csv,
    evaluate_point,
    figure_preset,
    find_critical_xi,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR", "KB",
    "PhysicalParams", "DerivedParams", "thermal_occupancy", "squeezed_moments",
    "effective_coupling", "derive",
    "power_from_cooperativity",
    "parse_config", "load_config", "EXAMPLE_CONFIG",
    "SystemMatrices", "CovarianceState", "build_drift",
    "build_noise", "system_matrices", "check_stability", "solve_lyapunov",
    "write_matrix",
    "TwoModeCovariance", "CorrelationReport", "f_function",
    "symplectic_spectrum", "symplectic_eigenvalues", "gaussian_steering",
    "log_negativity", "gaussian_discord", "correlation_report",
    "thermal_state", "two_mode_squeezed_state",
    "closed_sigma", "closed_sigma_corrected", "validate_closed_forms",
    "default_validation_grid", "write_report_csv",
    "SdeConfig", "McEstimate", "McComparison",
    "integrate_steady_covariance", "compare_to_lyapunov", "write_comparison_csv",
    "SweepSpec", "SweepRow", "PointResult", "evaluate_point", "run_sweep",
    "figure_preset", "find_critical_xi", "CriticalHopping", "emit_csv",
    "CSV_COLUMNS",
    "DuomechError", "ConfigError", "StabilityError", "PhysicalityError",
    "UnsupportedBranchError", "BracketError",
]
