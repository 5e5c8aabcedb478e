"""Finite-volume incompressible flow solver (collocated PISO)."""

from .boundary import (BoundaryConditionSet, FixedPressureBC, InflowBC,
                       NoSlipBC, PressureZeroGradientBC,
                       VelocityZeroGradientBC, WindkesselBC,
                       poiseuille_bcs, pulsatile_waveform)
from .piso import FlowState, FluidProperties, PisoSolver, SolverConfig
