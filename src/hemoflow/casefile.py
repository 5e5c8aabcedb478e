"""Case (configuration) files: strict JSON schema for a solver run.

A case names a mesh file, the fluid, per-patch boundary conditions, the
solver settings and what to write out. Unknown keys anywhere are
rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

from .errors import InvalidArgumentError, SchemaError
from .fv.boundary import (BoundaryConditionSet, FixedPressureBC, InflowBC,
                          NoSlipBC, PressureZeroGradientBC,
                          VelocityZeroGradientBC, WindkesselBC,
                          pulsatile_waveform)
from .fv.piso import FluidProperties, SolverConfig
from .mesh import read_mesh
from .units import MMHG_TO_DYN_CM2, lmin_to_m3s
from .windkessel import WindkesselOutlet

SCHEMA = "hemoflow-case/1"


def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _check_keys(d, allowed, where):
    _require(isinstance(d, dict), f"{where}: expected an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key {sorted(unknown)[0]!r}")


@dataclass
class Case:
    """A loaded, validated case ready to build solver objects."""

    mesh_path: str
    fluid: FluidProperties
    solver: SolverConfig
    boundary_spec: dict
    output: dict
    initial: dict = field(default_factory=dict)

    def load_mesh(self):
        return read_mesh(self.mesh_path)

    def build_bcs(self, mesh, inflow_override_lmin=None):
        """Instantiate the BC set; an inflow override (l/min) replaces the
        flow rate of every inflow patch (used by parameter sweeps)."""
        conds = {}
        for name, spec in self.boundary_spec.items():
            _require(name in mesh.patches,
                     f"boundary: patch {name!r} not present in mesh")
            conds[name] = (_build_velocity(spec["velocity"], name,
                                           inflow_override_lmin),
                           _build_pressure(spec["pressure"], name))
        return BoundaryConditionSet(conds)


def _build_velocity(spec, patch, override_lmin):
    _check_keys(spec, {"type", "flow_lmin", "profile", "pulsatile",
                       "period_s"}, f"boundary.{patch}.velocity")
    kind = spec.get("type")
    if kind == "no-slip":
        return NoSlipBC()
    if kind == "zero-gradient":
        return VelocityZeroGradientBC()
    if kind == "inflow":
        if override_lmin is not None:
            q = lmin_to_m3s(override_lmin)
        elif "flow_lmin" in spec:
            q = lmin_to_m3s(float(spec["flow_lmin"]))
        else:
            raise SchemaError(f"boundary.{patch}.velocity: inflow needs "
                              "flow_lmin")
        if spec.get("pulsatile"):
            _require("period_s" in spec,
                     f"boundary.{patch}.velocity: pulsatile needs period_s")
            q = pulsatile_waveform(q, float(spec["period_s"]))
        return InflowBC(q, spec.get("profile", "plug"))
    raise SchemaError(f"boundary.{patch}.velocity: unknown type {kind!r}")


def _build_pressure(spec, patch):
    _check_keys(spec, {"type", "value_pa", "R_p", "R_d", "C", "p0_mmhg"},
                f"boundary.{patch}.pressure")
    kind = spec.get("type")
    if kind == "zero-gradient":
        return PressureZeroGradientBC()
    if kind == "fixed":
        _require("value_pa" in spec,
                 f"boundary.{patch}.pressure: fixed needs value_pa")
        return FixedPressureBC(float(spec["value_pa"]))
    if kind == "windkessel":
        for key in ("R_p", "R_d", "C"):
            _require(key in spec,
                     f"boundary.{patch}.pressure: windkessel needs {key}")
        p0 = float(spec.get("p0_mmhg", 0.0)) * MMHG_TO_DYN_CM2
        return WindkesselBC(WindkesselOutlet(patch, float(spec["R_p"]),
                                             float(spec["R_d"]),
                                             float(spec["C"]), p_p=p0))
    raise SchemaError(f"boundary.{patch}.pressure: unknown type {kind!r}")


def load_case(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON ({e})") from None

    _check_keys(raw, {"schema", "mesh", "fluid", "boundary", "solver",
                      "output", "initial"}, "case")
    _require(raw.get("schema") == SCHEMA,
             f"case: schema must be {SCHEMA!r}, got {raw.get('schema')!r}")
    for key in ("mesh", "boundary"):
        _require(key in raw, f"case: missing required key {key!r}")

    fl = raw.get("fluid", {})
    _check_keys(fl, {"rho", "mu"}, "fluid")
    fluid = FluidProperties(rho=float(fl.get("rho", 1060.0)),
                            mu=float(fl.get("mu", 0.004)))

    sv = raw.get("solver", {})
    _check_keys(sv, {f.name for f in fields(SolverConfig)}, "solver")
    try:
        solver = SolverConfig(**sv)
    except InvalidArgumentError as e:
        raise SchemaError(f"solver: {e}") from None

    bnd = raw["boundary"]
    _require(isinstance(bnd, dict) and bnd, "boundary: expected a non-empty object")
    for name, spec in bnd.items():
        _check_keys(spec, {"velocity", "pressure"}, f"boundary.{name}")
        for part in ("velocity", "pressure"):
            _require(part in spec, f"boundary.{name}: missing {part!r}")

    out = raw.get("output", {})
    _check_keys(out, {"dir", "probes"}, "output")

    init = raw.get("initial", {})
    _check_keys(init, {"from_inflow"}, "initial")

    mesh_path = raw["mesh"]
    if not os.path.isabs(mesh_path):
        mesh_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                 mesh_path)
    return Case(mesh_path, fluid, solver, bnd, out, initial=init)
