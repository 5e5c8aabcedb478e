"""Boundary conditions and inflow profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError
from ..windkessel import WindkesselOutlet


# -- inflow waveform ---------------------------------------------------------

SYSTOLE_FRACTION = 0.35     # of the period
PLATEAU_RATIO = 0.05        # diastolic plateau over the systolic peak


def pulsatile_waveform(CO_m3s, T):
    """Synthetic cardiac inflow: a half-sine systolic pulse that rises from
    a low diastolic plateau and falls back to it, scaled so the period
    average equals ``CO_m3s``. It is continuous, at the start of each
    period too, so the rate a step sees does not depend on how its time
    rounds about a period boundary.

    Returns a callable Q(t) [m^3/s]. This is a parametric stand-in for a
    measured aortic waveform, not a reproduction of one.
    """
    if CO_m3s <= 0 or T <= 0:
        raise InvalidArgumentError("CO and T must be positive")
    ts = SYSTOLE_FRACTION * T
    # mean = qd + (qs - qd) (2/pi) sf, with qd = plateau * qs
    qs = CO_m3s / (PLATEAU_RATIO + (1.0 - PLATEAU_RATIO) * 2.0 / np.pi
                   * SYSTOLE_FRACTION)
    qd = PLATEAU_RATIO * qs

    def q(t):
        tau = np.mod(t, T)
        return qd + (qs - qd) * np.sin(np.pi * tau / ts) if tau < ts else qd

    return q


# -- velocity conditions -----------------------------------------------------

INFLOW_PROFILES = ("plug", "parabolic")


@dataclass
class InflowBC:
    """Fixed-profile inflow through a patch.

    ``flow_rate`` is the mean volumetric rate [m^3/s]: constant without a
    ``period_s``, else the mean of ``pulsatile_waveform`` over each period
    of ``period_s`` [s]. ``profile`` is "plug" or "parabolic"; the profile
    is rescaled so the discrete influx matches the rate exactly.
    """

    flow_rate: float
    profile: str = "plug"
    period_s: float = None

    def __post_init__(self):
        if self.profile not in INFLOW_PROFILES:
            raise InvalidArgumentError(f"unknown inflow profile {self.profile!r}")
        if not np.isfinite(self.flow_rate):
            raise InvalidArgumentError(f"inflow rate {self.flow_rate} is not finite")
        if self.period_s is not None and not (
                np.isfinite(self.period_s) and self.period_s > 0):
            raise InvalidArgumentError(
                f"inflow period {self.period_s} s is not positive and finite")
        if self.period_s is not None and not self.flow_rate > 0:
            raise InvalidArgumentError(f"pulsatile inflow mean rate "
                                       f"{self.flow_rate} m^3/s is not positive")

    def rate(self, t):
        if self.period_s is None:
            return float(self.flow_rate)
        return pulsatile_waveform(self.flow_rate, self.period_s)(t)

    def shape_velocities(self, mesh, patch):
        """Unscaled inward face velocities and the influx they carry [m^3/s];
        ``u * (rate / influx)`` delivers ``rate``."""
        fids = patch.face_ids
        A = mesh.face_area[fids]            # outward
        xf = mesh.face_centroid[fids]
        n = A / np.linalg.norm(A, axis=1)[:, None]
        if self.profile == "plug":
            shape = np.ones(len(fids))
        else:   # parabolic
            # the patch's half width (2D) or radius (3D) and centre; without
            # a size, centred on the faces' mean and just wider than them
            meta = patch.meta
            size = meta.get("half_width" if mesh.dim == 2 else "radius")
            c = xf.mean(axis=0) if size is None else np.asarray(
                meta.get("center", xf.mean(axis=0)))
            r = np.linalg.norm(xf - c, axis=1)
            if size is None:
                size = r.max() * 1.05
            shape = np.clip(1.0 - (r / size) ** 2, 0.0, None)
        u = -n * shape[:, None]
        influx = -np.einsum("ij,ij->", u, A)
        if influx <= 0:
            raise InvalidArgumentError("degenerate inflow patch")
        return u, influx


@dataclass
class NoSlipBC:
    pass


@dataclass
class VelocityZeroGradientBC:
    pass


# -- pressure conditions -----------------------------------------------------

@dataclass
class PressureZeroGradientBC:
    pass


@dataclass
class FixedPressureBC:
    value: float  # Pa


VELOCITY_BCS = (InflowBC, NoSlipBC, VelocityZeroGradientBC)
# a WindkesselOutlet couples its patch to a three-element RCR model
PRESSURE_BCS = (PressureZeroGradientBC, FixedPressureBC, WindkesselOutlet)


class BoundaryConditionSet:
    """Per-patch velocity + pressure condition, with global sanity checks."""

    def __init__(self, conditions):
        """``conditions``: dict patch name -> (velocity bc, pressure bc)."""
        self.conditions = dict(conditions)
        has_ref = False
        for name, (v, p) in self.conditions.items():
            if not isinstance(v, VELOCITY_BCS):
                raise InvalidArgumentError(f"patch {name}: bad velocity condition")
            if not isinstance(p, PRESSURE_BCS):
                raise InvalidArgumentError(f"patch {name}: bad pressure condition")
            if isinstance(p, (FixedPressureBC, WindkesselOutlet)):
                has_ref = True
        if not has_ref:
            raise InvalidArgumentError(
                "no pressure reference: need a fixed-value or Windkessel outlet")

    def validate_against(self, mesh):
        """InvalidArgumentError naming each patch that only one side has."""
        faults = [f"mesh patch {name!r} has no entry" for name in
                  sorted(set(mesh.patches) - set(self.conditions))]
        faults += [f"patch {name!r} not present in mesh" for name in
                   sorted(set(self.conditions) - set(mesh.patches))]
        if faults:
            raise InvalidArgumentError("; ".join(faults))


def poiseuille_bcs(mesh, flow_rate, profile="parabolic"):
    """Convenience BC set for the pipe/channel test geometries (0 Pa outlet)."""
    conds = {}
    for name, patch in mesh.patches.items():
        if patch.kind == "inlet":
            conds[name] = (InflowBC(flow_rate, profile), PressureZeroGradientBC())
        elif patch.kind == "outlet":
            conds[name] = (VelocityZeroGradientBC(), FixedPressureBC(0.0))
        else:
            conds[name] = (NoSlipBC(), PressureZeroGradientBC())
    return BoundaryConditionSet(conds)
