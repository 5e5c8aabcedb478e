"""Three-element (RCR) Windkessel outlet models and their estimation
from routine clinical measurements.

Estimation works in clinical/CGS units (mmHg, l/min, dyne.s/cm^5); the
solver coupling converts to SI at the interface. Resistances split as a
parallel circuit over the outlet cross-sectional areas, with a fixed
proximal fraction R_p/R = 0.056. Total compliance is distributed over the
same areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidArgumentError
from .units import LMIN_TO_CM3S, MMHG_TO_DYN_CM2

PROXIMAL_FRACTION = 0.056


@dataclass
class ClinicalRecord:
    """One RHC/ECHO measurement set (pre- or post-surgery)."""

    configuration: str                  # "pre" | "post"
    PAM: float                          # mmHg
    PAS: Optional[float] = None         # mmHg
    PAD: Optional[float] = None         # mmHg
    CO: Optional[float] = None          # l/min  (pre)
    SV: Optional[float] = None          # ml     (pre)
    PF: Optional[float] = None          # l/min  (post)
    omega: Optional[float] = None       # rpm    (post)

    def __post_init__(self):
        if self.configuration not in ("pre", "post"):
            raise InvalidArgumentError("configuration must be 'pre' or 'post'")
        for name in ("PAM", "PAS", "PAD", "CO", "SV", "PF", "omega"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise InvalidArgumentError(
                    f"{name} must be positive and finite")
        if self.PAS is not None and self.PAD is not None:
            if not (self.PAD <= self.PAM <= self.PAS):
                raise InvalidArgumentError("expected PAD <= PAM <= PAS")
        if self.configuration == "pre" and (self.CO is None or self.SV is None):
            raise InvalidArgumentError("pre-surgery record requires CO and SV")
        if self.configuration == "post" and self.PF is None:
            raise InvalidArgumentError("post-surgery record requires PF")


@dataclass
class OutletGeometry:
    name: str
    area: float  # cm^2

    def __post_init__(self):
        if not (math.isfinite(self.area) and self.area > 0):
            raise InvalidArgumentError(
                "outlet area must be positive and finite")


@dataclass
class WindkesselOutlet:
    """RCR outlet: proximal/distal resistance, compliance, and the
    starting value of the proximal-node pressure. Distal pressure is
    pinned to zero. A run keeps the proximal pressure in its
    ``FlowState.p_p``, so the outlet itself never changes.

    Units: resistances dyne.s/cm^5, compliance cm^5/dyne, pressures
    dyn/cm^2, flow cm^3/s.
    """

    name: str
    R_p: float
    R_d: float
    C: float
    p_p: float = 0.0        # starting proximal pressure [dyn/cm^2]

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0
                   for v in (self.R_p, self.R_d, self.C)):
            raise InvalidArgumentError(
                "R_p, R_d, C must be positive and finite")
        if not math.isfinite(self.p_p):
            raise InvalidArgumentError("p_p must be finite")


def cardiac_period(SV, CO):
    """Cardiac period T = SV/CO, with SV in ml and CO in l/min."""
    if SV <= 0 or CO <= 0:
        raise InvalidArgumentError("SV and CO must be positive")
    return SV / (CO * LMIN_TO_CM3S / 1.0)  # ml / (cm^3/s) = s


def systemic_resistance(record: ClinicalRecord):
    """Mean pressure over mean flow, in dyne.s/cm^5."""
    pam = record.PAM * MMHG_TO_DYN_CM2
    if record.configuration == "pre":
        q = record.CO
    else:
        q = record.PF
    if q is None:
        raise InvalidArgumentError("record lacks the flow for its configuration")
    return pam / (q * LMIN_TO_CM3S)


def total_compliance(PAS, PAD, SV):
    """Total arterial compliance SV/(PAS - PAD) in cm^5/dyne.

    The ratio is stroke volume over pulse pressure; the units follow from
    ml / (mmHg -> dyn/cm^2).
    """
    if SV <= 0:
        raise InvalidArgumentError("SV must be positive")
    if PAS <= PAD:
        raise InvalidArgumentError("PAS must exceed PAD")
    return SV / ((PAS - PAD) * MMHG_TO_DYN_CM2)


def estimate_outlet_set(record: ClinicalRecord, outlets, total_C=None):
    """Estimate one RCR triple per outlet from a clinical record.

    R_k = RVS * (sum A)/A_k, split R_p/R = 0.056; C_k = C * A_k/(sum A).
    ``total_C`` defaults to the compliance computed from the record's
    PAS/PAD/SV (pre-surgery); post-surgery records reuse a supplied
    pre-surgery value. Each proximal pressure starts at the record's PAM.
    """
    if not outlets:
        raise InvalidArgumentError("need at least one outlet")
    rvs = systemic_resistance(record)
    if total_C is None:
        if record.PAS is None or record.PAD is None or record.SV is None:
            raise InvalidArgumentError(
                "total_C not given and record lacks PAS/PAD/SV to estimate it")
        total_C = total_compliance(record.PAS, record.PAD, record.SV)
    sum_a = sum(o.area for o in outlets)
    p0 = record.PAM * MMHG_TO_DYN_CM2
    result = []
    for o in outlets:
        r_k = rvs * sum_a / o.area
        r_p = PROXIMAL_FRACTION * r_k
        result.append(WindkesselOutlet(
            name=o.name, R_p=r_p, R_d=r_k - r_p,
            C=total_C * o.area / sum_a, p_p=p0))
    return result


def advance_outlet(outlet: WindkesselOutlet, p_p, Q_n, dt):
    """One implicit first-order step of the RCR model from the proximal
    pressure ``p_p`` [dyn/cm^2], with ``Q_n`` in cm^3/s and ``dt`` in s.

    Returns (p_p^{n+1}, p_b) with p_b = p_p^{n+1} + R_p Q_n, the outlet's
    boundary pressure [dyn/cm^2]. The outlet is not changed.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidArgumentError("dt must be positive and finite")
    c_dt = outlet.C / dt
    p_next = (c_dt * p_p + Q_n) / (c_dt + 1.0 / outlet.R_d)
    return p_next, p_next + outlet.R_p * Q_n
