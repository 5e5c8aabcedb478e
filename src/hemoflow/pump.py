"""Continuous-flow blood pump characteristic.

The pressure head is modeled as a quadratic in rotor speed and flow,

    dP = K_A w^2 + K_B w PF + K_C PF^2

with w in rpm, PF in l/min and dP in mmHg. The module evaluates the
curve and inverts it for speed at a working point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NoSolutionError

#: Reference coefficients for the modeled axial pump (head in mmHg,
#: speed in rpm, flow in l/min).
REFERENCE_COEFFICIENTS = (3.45e-6, -5.9e-5, -1.45)


@dataclass(frozen=True)
class PumpModel:
    """Quadratic head curve coefficients.

    K_A: mmHg/rpm^2, K_B: mmHg/(rpm l/min), K_C: mmHg/(l/min)^2.
    """

    K_A: float
    K_B: float
    K_C: float

    def __post_init__(self):
        if self.K_A <= 0:
            raise InvalidArgumentError("K_A must be positive (head rises with speed)")


def reference_model():
    return PumpModel(*REFERENCE_COEFFICIENTS)


def pump_delta_p(model: PumpModel, omega, PF):
    """Pressure head [mmHg] at speed ``omega`` [rpm] and flow ``PF`` [l/min]."""
    if np.any(np.asarray(omega) < 0) or np.any(np.asarray(PF) < 0):
        raise InvalidArgumentError("omega and PF must be non-negative")
    return model.K_A * omega**2 + model.K_B * omega * PF + model.K_C * PF**2


def pump_speed_for(model: PumpModel, PF, delta_p):
    """Speed [rpm] that produces head ``delta_p`` at flow ``PF``.

    Positive root of K_A w^2 + (K_B PF) w + (K_C PF^2 - dP) = 0.
    """
    if PF < 0:
        raise InvalidArgumentError("PF must be non-negative")
    b = model.K_B * PF
    c = model.K_C * PF**2 - delta_p
    disc = b * b - 4.0 * model.K_A * c
    if disc < 0:
        raise NoSolutionError(
            f"no real pump speed for PF={PF}, dP={delta_p} (discriminant {disc:.3e})")
    w = (-b + np.sqrt(disc)) / (2.0 * model.K_A)
    if w <= 0:
        raise NoSolutionError(f"no positive pump speed for PF={PF}, dP={delta_p}")
    return w
