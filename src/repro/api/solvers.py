"""Registers the three paper solvers under their config names.

Each reconstructor class declares its own ``accepted_params``; the
registry checks a config's ``solver_params`` against them.
"""

from repro.api.registry import register_solver
from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.baseline.serial import SerialReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor

register_solver("gd")(GradientDecompositionReconstructor)
register_solver("hve")(HaloExchangeReconstructor)
register_solver("serial")(SerialReconstructor)
