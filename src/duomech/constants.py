"""Physical constants (CODATA 2018 exact values, SI units)."""

__all__ = ["HBAR", "KB"]

HBAR = 1.054571817e-34  # reduced Planck constant, J s
KB = 1.380649e-23       # Boltzmann constant, J/K
