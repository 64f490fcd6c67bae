"""Steady-state Gaussian quantum correlations between the movable mirrors of
two photon-hopping-coupled, squeezed-light-driven optomechanical cavities.

The pipeline: physical parameters -> linearized drift/noise matrices ->
Lyapunov steady-state covariance -> mechanical two-mode block -> steering,
logarithmic negativity and Gaussian discord.  Vacuum quadrature variance is
1/2 throughout; measures are reported in nats.
"""

from . import (
    closedform, config, constants, dynamics, errors, measures, montecarlo, params, sweep,
)
from .closedform import *
from .config import *
from .constants import *
from .dynamics import *
from .errors import *
from .measures import *
from .montecarlo import *
from .params import *
from .sweep import *

__version__ = "0.1.0"

# every module's public names; the command line (duomech.cli) stays out, so
# that importing the package does not load argparse
__all__ = [name for module in (closedform, config, constants, dynamics, errors, measures,
                               montecarlo, params, sweep)
           for name in module.__all__]
