"""Hemodynamic indicators and error metrics.

The fluid's constant properties (``FluidProperties``, which the solver
takes too), wall shear stress, inlet Reynolds numbers, volume averaged
pressure with systolic/diastolic/mean extraction, and the two comparison
metrics used for validation (weighted absolute percentage error and
relative L2 field error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UndefinedMetricError


@dataclass
class FluidProperties:
    """Constant-property incompressible fluid (defaults: blood)."""

    rho: float = 1060.0   # kg/m^3
    mu: float = 0.004     # Pa s

    @property
    def nu(self):
        return self.mu / self.rho

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.rho, self.mu)):
            raise InvalidArgumentError(
                "rho and mu must be positive and finite")


@dataclass
class BoundaryField:
    """Per-face values on one patch, with the face areas for weighting."""

    patch: str
    values: np.ndarray      # (nfaces,) or (nfaces, dim)
    face_areas: np.ndarray  # (nfaces,) magnitudes

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.face_areas = np.asarray(self.face_areas, dtype=float)
        if self.values.shape[0] != self.face_areas.shape[0]:
            raise InvalidArgumentError("value count must match face count")

    def magnitude(self):
        if self.values.ndim == 1:
            return np.abs(self.values)
        return np.linalg.norm(self.values, axis=1)

    def area_mean(self):
        return float(np.sum(self.magnitude() * self.face_areas)
                     / self.face_areas.sum())


@dataclass
class TimeSeries:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise InvalidArgumentError("times and values must have equal length")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise InvalidArgumentError("times must be strictly increasing")

    def window(self, t0, t1):
        m = (self.times >= t0 - 1e-12) & (self.times <= t1 + 1e-12)
        return TimeSeries(self.times[m], self.values[m])


# -- wall shear stress ---------------------------------------------------------

def wall_shear_stress(state, mesh, props, wall_patch):
    """Tangential viscous traction on a no-slip patch.

    Uses the one-sided near-wall gradient mu*(u_wall - u_cell)/delta with
    the wall at rest, projected onto the wall plane. On faceted curved
    walls this matches the discrete diffusive wall flux, which keeps the
    traction consistent with the solved momentum balance.
    """
    patch = mesh.patches[wall_patch]
    if patch.kind != "wall":
        raise InvalidArgumentError(f"patch {wall_patch!r} is not a wall")
    g = mesh.fv
    rows = g.b_index[patch.face_ids]
    n = g.b_normal[rows]
    delta = g.b_delta[rows]
    u_c = state.u[g.b_owner[rows]]
    # traction from the one-sided gradient; wall velocity is zero
    t = props.mu * (0.0 - u_c) / delta[:, None]
    t_tan = t - np.einsum("ij,ij->i", t, n)[:, None] * n
    return BoundaryField(wall_patch, t_tan,
                         mesh.face_area_mag[patch.face_ids])


# -- scalar indicators ---------------------------------------------------------

def reynolds_inlet(Q, A, props):
    """Re = (Q/A) * sqrt(4A/pi) / nu for a circular section of area A [SI]."""
    if A <= 0:
        raise InvalidArgumentError("area must be positive")
    if Q < 0:
        raise InvalidArgumentError("flow rate must be non-negative")
    d = np.sqrt(4.0 * A / np.pi)
    return (Q / A) * d / props.nu


def volume_avg_pressure(p, mesh):
    """Volume-weighted mean cell pressure."""
    p = np.asarray(p, dtype=float)
    return float(np.dot(p, mesh.cell_volume) / mesh.cell_volume.sum())


def pas_pad_pam(series: TimeSeries, T=None):
    """(systolic, diastolic, mean) of a pressure trace.

    With T given, the last full period of the series is used, and a
    series shorter than T is refused; otherwise the whole series. The
    mean is the trapezoidal time average, clamped into [diastolic,
    systolic]: rounding can put the quadrature of a constant trace one
    ulp outside its own range.
    """
    if series.times.size == 0:
        raise InvalidArgumentError("empty series")
    s = series
    if T is not None:
        t0 = s.times[-1] - T
        s = s.window(t0, s.times[-1])
        if s.times.size < 2 or series.times[0] > t0 + 1e-12:
            raise InvalidArgumentError("series does not span one period")
    pas = float(s.values.max())
    pad = float(s.values.min())
    if s.times.size == 1:
        pam = float(s.values[0])
    else:
        pam = float(np.trapezoid(s.values, s.times) / (s.times[-1] - s.times[0]))
        pam = min(max(pam, pad), pas)
    return pas, pad, pam


# -- comparison metrics --------------------------------------------------------

def wape(X: TimeSeries, X_ref: TimeSeries):
    """Weighted absolute percentage error of X against X_ref [percent].

    (100/n) * sum |X_i - X_ref_i| / mean(X_ref); both series must share
    the sampling grid.
    """
    if X.times.shape != X_ref.times.shape or not np.allclose(X.times, X_ref.times):
        raise InvalidArgumentError("series are on different time grids")
    ref_mean = X_ref.values.mean()
    if ref_mean == 0.0:
        raise UndefinedMetricError("reference series has zero mean")
    n = X.values.size
    return float(100.0 / n * np.sum(np.abs(X.values - X_ref.values))
                 / abs(ref_mean))


def l2_rel_error(X_fom, X_rom, weights=None):
    """100 * ||X_fom - X_rom||_L2 / ||X_fom||_L2.

    ``weights`` are the quadrature weights (cell volumes, or face areas for
    boundary fields); without them the plain vector 2-norm is used.
    """
    a = np.asarray(X_fom, dtype=float)
    b = np.asarray(X_rom, dtype=float)
    if a.shape != b.shape:
        raise InvalidArgumentError("fields have different shapes")
    if weights is None:
        weights = np.ones(a.shape[0])
    w = np.asarray(weights, dtype=float)
    sq = (a - b) ** 2
    ref = a ** 2
    if a.ndim > 1:
        sq = sq.sum(axis=tuple(range(1, a.ndim)))
        ref = ref.sum(axis=tuple(range(1, a.ndim)))
    denom = np.sqrt(np.dot(ref, w))
    if denom == 0.0:
        raise UndefinedMetricError("reference field has zero norm")
    return float(100.0 * np.sqrt(np.dot(sq, w)) / denom)
