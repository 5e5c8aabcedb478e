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
    """Synthetic cardiac inflow: a half-sine systolic pulse plus a low
    diastolic plateau, scaled so the period average equals ``CO_m3s``.

    Returns a callable Q(t) [m^3/s]. This is a parametric stand-in for a
    measured aortic waveform, not a reproduction of one.
    """
    if CO_m3s <= 0 or T <= 0:
        raise InvalidArgumentError("CO and T must be positive")
    ts = SYSTOLE_FRACTION * T
    # mean = Qs*(2/pi)*sf + Qs*plateau*(1-sf)
    qs = CO_m3s / (2.0 / np.pi * SYSTOLE_FRACTION + PLATEAU_RATIO * (1.0 - SYSTOLE_FRACTION))
    qd = PLATEAU_RATIO * qs

    def q(t):
        tau = np.mod(t, T)
        return qs * np.sin(np.pi * tau / ts) if tau < ts else qd

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
            size = meta.get("half_width" if meta.get("kind2d")
                            or mesh.dim == 2 else "radius")
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


@dataclass
class WindkesselBC:
    """Couples a patch to a three-element RCR outlet model."""

    outlet: WindkesselOutlet


VELOCITY_BCS = (InflowBC, NoSlipBC, VelocityZeroGradientBC)
PRESSURE_BCS = (PressureZeroGradientBC, FixedPressureBC, WindkesselBC)


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
            if isinstance(p, (FixedPressureBC, WindkesselBC)):
                has_ref = True
        if not has_ref:
            raise InvalidArgumentError(
                "no pressure reference: need a fixed-value or Windkessel outlet")

    def validate_against(self, mesh):
        if set(self.conditions) != set(mesh.patches):
            raise InvalidArgumentError(
                f"boundary conditions {sorted(self.conditions)} do not match "
                f"mesh patches {sorted(mesh.patches)}")


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
