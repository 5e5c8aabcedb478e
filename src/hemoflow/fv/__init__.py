"""Finite-volume incompressible flow solver (collocated PISO)."""

from .boundary import (BoundaryConditionSet, FixedPressureBC, InflowBC,
                       NoSlipBC, PressureZeroGradientBC,
                       VelocityZeroGradientBC, WindkesselBC,
                       poiseuille_bcs, pulsatile_waveform)
from .operators import (boundary_values_from_patches, convective_term,
                        diffusion_term, face_interpolate, gauss_gradient,
                        gradient_term)
from .piso import FlowState, FluidProperties, PisoSolver, SolverConfig
