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
from dataclasses import dataclass

from .constants import HBAR, KB
from .errors import ConfigError

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
    detuning : float, optional
        Effective cavity detuning [rad/s].  Defaults to ``-omega_m``
        (red-sideband drive), which is the regime the linearized
        rotating-wave model assumes.
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
    detuning: float | None = None

    def __post_init__(self) -> None:
        positive = {
            "omega_m": self.omega_m,
            "gamma": self.gamma,
            "mass": self.mass,
            "cavity_length": self.cavity_length,
            "omega_c": self.omega_c,
            "omega_l": self.omega_l,
            "kappa": self.kappa,
        }
        for name, value in positive.items():
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        nonneg = {
            "temperature": self.temperature,
            "squeezing_r": self.squeezing_r,
            "hopping_lambda": self.hopping_lambda,
            "pump_power": self.pump_power,        # None for the drive not given
            "cooperativity": self.cooperativity,
        }
        for name, value in nonneg.items():
            if value is not None and (not math.isfinite(value) or value < 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if (self.pump_power is None) == (self.cooperativity is None):
            raise ConfigError(
                "exactly one of pump_power and cooperativity must be supplied"
            )
        if self.omega_m / self.kappa <= RWA_MIN_RATIO or self.omega_m / self.gamma <= RWA_MIN_RATIO:
            warnings.warn(
                "rotating-wave regime questionable: omega_m should exceed both "
                f"kappa and gamma by >{RWA_MIN_RATIO:g}x "
                f"(omega_m/kappa={self.omega_m / self.kappa:.3g}, "
                f"omega_m/gamma={self.omega_m / self.gamma:.3g})",
                stacklevel=3,
            )

    @property
    def detuning_effective(self) -> float:
        """Effective detuning [rad/s]; red sideband ``-omega_m`` by default."""
        return -self.omega_m if self.detuning is None else self.detuning

    def with_updates(self, **changes) -> "PhysicalParams":
        """Copy with the given fields replaced (re-validated)."""
        return PhysicalParams(**{**self.__dict__, **changes})


@dataclass(frozen=True)
class DerivedParams:
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
    evaluating the exponential.
    """
    if omega_m <= 0.0:
        raise ConfigError(f"omega_m must be positive, got {omega_m!r}")
    if temperature < 0.0:
        raise ConfigError(f"temperature must be >= 0, got {temperature!r}")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega_m / (KB * temperature)
    if x > 350.0:
        # 1/(e^x - 1) = e^-x to double precision; expm1 would overflow
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def squeezed_moments(squeezing_r: float) -> tuple[float, float]:
    """Squeezed-bath moments ``(N, M) = (sinh^2 r, sinh r cosh r)``.

    Raises :class:`ConfigError` when they overflow a float (r above about 355).
    """
    if squeezing_r < 0.0:
        raise ConfigError(f"squeezing_r must be >= 0, got {squeezing_r!r}")
    try:
        return math.sinh(squeezing_r) ** 2, math.sinh(squeezing_r) * math.cosh(squeezing_r)
    except OverflowError:
        raise ConfigError(
            f"squeezing_r = {squeezing_r!r} is too large: sinh^2 r overflows"
        ) from None


def _drive_denominator(params: PhysicalParams) -> float:
    d = params.detuning_effective + params.hopping_lambda
    return d * d + params.kappa**2 / 4.0


def _coupling_from_cooperativity(cooperativity: float, gamma: float, kappa: float) -> float:
    """G that realizes C = 4 G^2 / (gamma kappa) [rad/s]."""
    return math.sqrt(cooperativity * gamma * kappa / 4.0)


def effective_coupling(params: PhysicalParams) -> float:
    """Many-photon optomechanical coupling G [rad/s].

    From a pump power:

        G = (omega_c / L) sqrt( 2 kappa P /
            (m omega_m omega_l [(Delta' + lambda)^2 + kappa^2/4]) )

    From a cooperativity, the definition C = 4 G^2 / (gamma kappa) is
    inverted instead.
    """
    if params.cooperativity is not None:
        return _coupling_from_cooperativity(params.cooperativity, params.gamma, params.kappa)
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
    return _derived_params(n_th, params.squeezing_r, coupling, cooperativity,
                           params.gamma, params.kappa, params.hopping_lambda)


def _derived_params(n_th: float, squeezing_r: float, coupling: float,
                    cooperativity: float, gamma: float, kappa: float,
                    hopping_lambda: float) -> DerivedParams:
    """:class:`DerivedParams` from the bath occupancy, the squeezing, the
    drive (G and C) and the rates."""
    n_sq, m_sq = squeezed_moments(squeezing_r)
    return DerivedParams(
        n_th=n_th, n_sq=n_sq, m_sq=m_sq, coupling=coupling, cooperativity=cooperativity,
        xi=hopping_lambda / kappa, gamma_prime=gamma * (n_th + 0.5),
        kappa_prime=kappa * (n_sq + 0.5), gamma=gamma, kappa=kappa,
        hopping_lambda=hopping_lambda,
    )
