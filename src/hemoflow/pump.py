"""Continuous-flow blood pump characteristic.

The pressure head is modeled as a quadratic in rotor speed and flow,

    dP = K_A w^2 + K_B w PF + K_C PF^2

with w in rpm, PF in l/min and dP in mmHg. The module evaluates the
curve, inverts it for speed at a working point, and fits the three
coefficients to measured curve points by ordinary least squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitFailure, InvalidArgumentError, NoSolutionError

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
    rms_residual: float = 0.0

    def __post_init__(self):
        if self.K_A <= 0:
            raise InvalidArgumentError("K_A must be positive (head rises with speed)")


@dataclass(frozen=True)
class PumpCurvePoint:
    omega: float    # rpm
    PF: float       # l/min
    delta_p: float  # mmHg

    def __post_init__(self):
        if self.omega < 0 or self.PF < 0 or self.delta_p < 0:
            raise InvalidArgumentError("pump curve points must be non-negative")


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


def fit_pump_coefficients(points):
    """Ordinary least-squares fit of (K_A, K_B, K_C) over (w^2, w PF, PF^2).

    Needs at least three points with at least two distinct speeds; a
    rank-deficient design matrix raises FitFailure. The RMS residual of
    the fit is stored on the returned model.
    """
    points = list(points)
    if len(points) < 3:
        raise FitFailure("need at least 3 pump curve points")
    if len({p.omega for p in points}) < 2:
        raise FitFailure("need at least 2 distinct pump speeds")
    w = np.array([p.omega for p in points])
    q = np.array([p.PF for p in points])
    dp = np.array([p.delta_p for p in points])
    X = np.column_stack([w**2, w * q, q**2])
    if np.linalg.matrix_rank(X) < 3:
        raise FitFailure("rank-deficient pump curve design matrix")
    coef, res, *_ = np.linalg.lstsq(X, dp, rcond=None)
    rms = float(np.sqrt(np.mean((X @ coef - dp) ** 2)))
    if coef[0] <= 0:
        raise FitFailure(f"fitted K_A = {coef[0]:.3e} is not positive")
    return PumpModel(float(coef[0]), float(coef[1]), float(coef[2]), rms)


# -- bundled curve samples -----------------------------------------------------

def sample_curve_points(model=None, speeds=None, flows=None):
    """Synthesize curve points on a speed/flow grid (skipping negative heads).

    Stands in for a digitized manufacturer chart in tests and examples.
    """
    model = model or reference_model()
    speeds = speeds if speeds is not None else np.arange(3000.0, 8001.0, 1000.0)
    flows = flows if flows is not None else np.arange(0.0, 8.1, 1.0)
    pts = []
    for w in speeds:
        for q in flows:
            dp = pump_delta_p(model, w, q)
            if dp >= 0:
                pts.append(PumpCurvePoint(float(w), float(q), float(dp)))
    return pts

