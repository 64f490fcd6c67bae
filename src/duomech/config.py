"""Flat key-value config files.

One ``key = value`` pair per line, ``#`` starts a comment.  Frequencies and
rates must carry an explicit unit suffix: ``_hz`` values are multiplied by
2*pi on load, ``_rads`` values are taken as angular frequencies directly.

Recognized keys::

    omega_m_hz        | omega_m_rads         mechanical frequency
    gamma_hz          | gamma_rads           mechanical damping rate
    kappa_hz          | kappa_rads           cavity damping rate
    omega_c_hz        | omega_c_rads         cavity frequency
    omega_l_hz        | omega_l_rads         laser frequency
    hopping_lambda_hz | hopping_lambda_rads  photon hopping rate
    mass_kg                                  mirror mass
    cavity_length_m                          cavity length
    temperature_k                            bath temperature
    squeezing_r                              squeezing parameter
    pump_power_w                             drive power (exclusive with
    cooperativity                            cooperativity)

There is no detuning key: the drive sits at the red sideband, -omega_m.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .errors import ConfigError
from .params import PhysicalParams

__all__ = ["parse_config", "load_config", "EXAMPLE_CONFIG"]

_TWO_PI = 2.0 * math.pi

# maps config key -> (PhysicalParams field, scale factor)
_KEY_MAP: dict[str, tuple[str, float]] = {}
for _field in ("omega_m", "gamma", "kappa", "omega_c", "omega_l", "hopping_lambda"):
    _KEY_MAP[f"{_field}_hz"] = (_field, _TWO_PI)
    _KEY_MAP[f"{_field}_rads"] = (_field, 1.0)
_KEY_MAP["mass_kg"] = ("mass", 1.0)
_KEY_MAP["cavity_length_m"] = ("cavity_length", 1.0)
_KEY_MAP["temperature_k"] = ("temperature", 1.0)
_KEY_MAP["squeezing_r"] = ("squeezing_r", 1.0)
_KEY_MAP["pump_power_w"] = ("pump_power", 1.0)
_KEY_MAP["cooperativity"] = ("cooperativity", 1.0)

# every PhysicalParams field without a default, in field order
_REQUIRED = tuple(f.name for f in dataclasses.fields(PhysicalParams)
                  if f.default is dataclasses.MISSING)

EXAMPLE_CONFIG = """\
# double-cavity optomechanical system, symmetric parameters
omega_m_hz        = 947e3
gamma_hz          = 140
kappa_hz          = 14000
omega_c_hz        = 5.26e14
omega_l_hz        = 2.82e14
mass_kg           = 145e-12
cavity_length_m   = 25e-3
temperature_k     = 1e-4
squeezing_r       = 1.0
hopping_lambda_hz = 2800        # xi = lambda/kappa = 0.2
cooperativity     = 32.11       # alternative: pump_power_w
"""


def parse_config(text: str) -> PhysicalParams:
    """Parse config text into a validated :class:`PhysicalParams`."""
    fields: dict[str, float] = {}
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_str = line.partition("=")
        key = key.strip().lower()
        if key not in _KEY_MAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field, scale = _KEY_MAP[key]
        if field in seen:
            raise ConfigError(
                f"line {lineno}: {key!r} conflicts with earlier key {seen[field]!r}"
            )
        try:
            value = float(value_str.strip())
        except ValueError:
            raise ConfigError(
                f"line {lineno}: could not parse value for {key!r}: {value_str.strip()!r}"
            ) from None
        fields[field] = value * scale
        seen[field] = key

    missing = [f for f in _REQUIRED if f not in fields]
    if missing:
        raise ConfigError(f"missing required keys for: {', '.join(missing)}")
    return PhysicalParams(**fields)


def load_config(path: str | Path) -> PhysicalParams:
    """Read and parse a config file."""
    return parse_config(Path(path).read_text(encoding="utf-8"))
