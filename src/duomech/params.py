"""Physical parameters of the double-cavity optomechanical system and every
derived quantity the steady-state dynamics needs.

All frequencies and rates are stored internally as angular frequencies in
rad/s.  Config files may specify values in Hz instead; see
:mod:`duomech.config` for the explicit ``_hz`` / ``_rads`` key convention.

The two cavities are assumed symmetric: a single value per parameter serves
both (equal masses, linewidths, mechanical frequencies, drive strengths).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

from .constants import HBAR, KB
from .errors import ConfigError, _check_number

__all__ = [
    "PhysicalParams",
    "DerivedParams",
    "thermal_occupancy",
    "squeezed_moments",
    "effective_coupling",
    "power_from_cooperativity",
    "derive",
]

RWA_MIN_RATIO = 10.0


@dataclass(frozen=True)
class PhysicalParams:
    """Raw experimental inputs, SI units throughout.

    Parameters
    ----------
    omega_m : float
        Mechanical angular frequency of each movable mirror [rad/s].
    gamma : float
        Mechanical damping rate [rad/s].
    mass : float
        Mirror effective mass [kg].
    cavity_length : float
        Cavity length [m].
    omega_c : float
        Cavity angular frequency [rad/s].
    omega_l : float
        Drive laser angular frequency [rad/s].
    kappa : float
        Cavity amplitude damping rate [rad/s].
    temperature : float
        Mechanical bath temperature [K].
    squeezing_r : float
        Dimensionless squeezing parameter of the two-mode squeezed drive.
    hopping_lambda : float
        Photon hopping rate between the two cavities [rad/s].
    pump_power : float, optional
        Coherent pump power [W].  Exactly one of ``pump_power`` and
        ``cooperativity`` must be supplied.
    cooperativity : float, optional
        Dimensionless optomechanical cooperativity; alternative drive
        specification when the pump power is not known.

    A ConfigError names a field given that is not a finite real number,
    positive for the first seven and >= 0 for the rest (a bool is none).

    The drive is fixed at the red sideband: the effective detuning is
    ``-omega_m``, the regime the linearized rotating-wave model assumes, so
    it is a model constant and not a parameter.
    """

    omega_m: float
    gamma: float
    mass: float
    cavity_length: float
    omega_c: float
    omega_l: float
    kappa: float
    temperature: float
    squeezing_r: float
    hopping_lambda: float
    pump_power: float | None = None
    cooperativity: float | None = None

    def __post_init__(self, changes: dict | None = None) -> None:
        """Check the given fields (``changes``; every field when None), then
        the two conditions across fields: exactly one drive, and the
        rotating-wave regime (a warning)."""
        for name, value in (self.__dict__ if changes is None else changes).items():
            positive, optional = _FIELD_CHECKS[name]
            if value is not None or not optional:    # None: the drive not given
                _check_number(name, value, 0.0, positive)   # keywords cost more
        if (self.pump_power is None) == (self.cooperativity is None):
            raise ConfigError(
                "exactly one of pump_power and cooperativity must be supplied"
            )
        if self.omega_m / self.kappa <= RWA_MIN_RATIO or self.omega_m / self.gamma <= RWA_MIN_RATIO:
            # stacklevel 3 is the caller of the constructor (through
            # __init__) or of with_updates
            warnings.warn(
                "rotating-wave regime questionable: omega_m should exceed both "
                f"kappa and gamma by >{RWA_MIN_RATIO:g}x "
                f"(omega_m/kappa={self.omega_m / self.kappa:.3g}, "
                f"omega_m/gamma={self.omega_m / self.gamma:.3g})",
                stacklevel=3,
            )

    def with_updates(self, **changes) -> "PhysicalParams":
        """Copy with the given fields replaced.

        The copy starts from this instance, whose fields are checked already,
        so only the changed fields are checked again, by the check the
        constructor runs; the two conditions across fields (exactly one
        drive, and the rotating-wave warning, with the constructor's message)
        are checked on the copy.  An unknown field is a TypeError, as for the
        constructor.
        """
        if not changes.keys() <= _FIELD_CHECKS.keys():   # a subset test allocates no set
            unknown = ", ".join(sorted(changes.keys() - _FIELD_CHECKS.keys()))
            raise TypeError(f"PhysicalParams has no field {unknown}")
        updated = object.__new__(PhysicalParams)
        state = updated.__dict__
        state.update(self.__dict__)
        state.update(changes)
        updated.__post_init__(changes)
        return updated


# the rates and sizes that must be positive; every other field must be >= 0
_POSITIVE = ("omega_m", "gamma", "mass", "cavity_length", "omega_c", "omega_l", "kappa")
# field -> (must be positive, may be None: a drive)
_FIELD_CHECKS = {f.name: (f.name in _POSITIVE, f.default is None)
                 for f in fields(PhysicalParams)}


class DerivedParams(NamedTuple):
    """Dimensionless and internal quantities derived from :class:`PhysicalParams`.

    ``gamma``, ``kappa`` and ``hopping_lambda`` are echoed so that matrix
    assembly does not need the raw parameter set.
    """

    n_th: float          # thermal phonon occupancy of each mechanical bath
    n_sq: float          # squeezed-bath photon number sinh^2 r
    m_sq: float          # squeezed-bath cross moment sinh r cosh r
    coupling: float      # many-photon optomechanical coupling [rad/s]
    cooperativity: float  # 4 G^2 / (gamma kappa)
    xi: float            # hopping_lambda / kappa
    gamma_prime: float   # gamma (n_th + 1/2), mechanical noise weight [rad/s]
    kappa_prime: float   # kappa (n_sq + 1/2), optical noise weight [rad/s]
    gamma: float         # [rad/s]
    kappa: float         # [rad/s]
    hopping_lambda: float  # [rad/s]


def thermal_occupancy(omega_m: float, temperature: float) -> float:
    """Mean phonon number of a bath at ``temperature`` for mode ``omega_m``.

    The zero-temperature limit is returned exactly as 0 instead of
    evaluating the exponential.  Both inputs are checked as the fields are.
    """
    _check_number("omega_m", omega_m, positive=True)
    _check_number("temperature", temperature, minimum=0.0)
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega_m / (KB * temperature)
    if x > 350.0:
        # 1/(e^x - 1) = e^-x to double precision; expm1 would overflow
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def squeezed_moments(squeezing_r: float) -> tuple[float, float]:
    """Squeezed-bath moments ``(N, M) = (sinh^2 r, sinh r cosh r)``.

    Raises :class:`ConfigError` for an r that is not a finite real number
    >= 0, and when the moments overflow a float (r above about 355).
    """
    _check_number("squeezing_r", squeezing_r, minimum=0.0)
    try:
        return math.sinh(squeezing_r) ** 2, math.sinh(squeezing_r) * math.cosh(squeezing_r)
    except OverflowError:
        raise ConfigError(
            f"squeezing_r = {squeezing_r!r} is too large: sinh^2 r overflows"
        ) from None


def _drive_denominator(params: PhysicalParams) -> float:
    d = -params.omega_m + params.hopping_lambda
    return d * d + params.kappa**2 / 4.0


def effective_coupling(params: PhysicalParams) -> float:
    """Many-photon optomechanical coupling G [rad/s].

    From a pump power, at the red-sideband detuning -omega_m:

        G = (omega_c / L) sqrt( 2 kappa P /
            (m omega_m omega_l [(lambda - omega_m)^2 + kappa^2/4]) )

    From a cooperativity, the definition C = 4 G^2 / (gamma kappa) is
    inverted instead.
    """
    if params.cooperativity is not None:
        return math.sqrt(params.cooperativity * params.gamma * params.kappa / 4.0)
    return (params.omega_c / params.cavity_length) * math.sqrt(
        2.0
        * params.kappa
        * params.pump_power
        / (params.mass * params.omega_m * params.omega_l * _drive_denominator(params))
    )


def power_from_cooperativity(params: PhysicalParams) -> float:
    """Pump power that realizes the configured cooperativity [W]."""
    if params.cooperativity is None:
        raise ConfigError("power_from_cooperativity needs cooperativity")
    g2 = params.cooperativity * params.gamma * params.kappa / 4.0
    return (
        g2
        * params.mass
        * params.omega_m
        * params.omega_l
        * _drive_denominator(params)
        * params.cavity_length**2
        / (2.0 * params.kappa * params.omega_c**2)
    )


def derive(params: PhysicalParams) -> DerivedParams:
    """Compute every derived quantity the dynamics needs."""
    n_th = thermal_occupancy(params.omega_m, params.temperature)
    coupling = effective_coupling(params)
    if params.cooperativity is not None:
        cooperativity = params.cooperativity
    else:
        cooperativity = 4.0 * coupling**2 / (params.gamma * params.kappa)
    n_sq, m_sq = squeezed_moments(params.squeezing_r)
    return DerivedParams(
        n_th, n_sq, m_sq, coupling, cooperativity, params.hopping_lambda / params.kappa,
        params.gamma * (n_th + 0.5), params.kappa * (n_sq + 0.5), params.gamma, params.kappa,
        params.hopping_lambda,
    )
