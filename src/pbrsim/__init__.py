"""Simulation workbench for dilution control of a flat-panel photobioreactor.

The package pairs a radiative/energetic plant model with two output
controllers (model-based feedback linearization and a model-free
intelligent-proportional law), steady-state setpoint optimization, and
reproducible closed-loop campaigns with a command-line front end.
"""

from .control import *  # noqa: F401,F403
from .kinetics import *  # noqa: F401,F403
from .plant import *  # noqa: F401,F403
from .radiative import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
from .steady_state import *  # noqa: F401,F403

__version__ = "0.1.0"
