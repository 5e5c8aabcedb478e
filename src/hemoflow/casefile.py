"""Case (configuration) files: strict JSON schema for a solver run.

A case names a mesh file, the fluid, per-patch boundary conditions, the
solver settings and what to write out. ``load_case`` checks the whole
file and builds its solver inputs once. A ``SchemaError`` names each
unknown key (each condition type takes only its own keys), each number
that is not a finite JSON number, each ``solver`` value of the wrong
type for its ``SolverConfig`` field, each value that a constructor
refuses, and ``initial.from_inflow`` unless exactly one patch has an
inflow. ``Case.load_mesh`` checks what needs the mesh.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .errors import InvalidArgumentError, SchemaError
from .fv.boundary import (BoundaryConditionSet, FixedPressureBC, InflowBC,
                          NoSlipBC, PressureZeroGradientBC,
                          VelocityZeroGradientBC)
from .fv.piso import FluidProperties, SolverConfig
from .mesh import read_mesh
from .units import MMHG_TO_DYN_CM2, lmin_to_m3s
from .windkessel import WindkesselOutlet

SCHEMA = "hemoflow-case/1"

# the keys that each condition type takes besides "type"
VELOCITY_KEYS = {"no-slip": (), "zero-gradient": (),
                 "inflow": ("flow_lmin", "profile", "pulsatile", "period_s")}
PRESSURE_KEYS = {"zero-gradient": (), "fixed": ("value_pa",),
                 "windkessel": ("R_p", "R_d", "C", "p0_mmhg")}

_SOLVER_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}
_SOLVER_TYPES = get_type_hints(SolverConfig)


def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _check_keys(d, allowed, where):
    _require(isinstance(d, dict), f"{where}: expected an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _finite(value, where):
    """``value`` as a float; it must be a finite JSON number."""
    _require(type(value) in (int, float) and abs(value) <= sys.float_info.max,
             f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _number(spec, key, where, default=None, positive=False):
    """``spec[key]`` through ``_finite``; a key without a default is
    required."""
    _require(key in spec or default is not None, f"{where}: missing {key!r}")
    value = _finite(spec.get(key, default), f"{where}.{key}")
    _require(value > 0 or not positive, f"{where}: {key} must be positive")
    return value


def _flag(spec, key, where):
    value = spec.get(key, False)
    _require(isinstance(value, bool),
             f"{where}.{key}: expected true or false, got {value!r}")
    return value


def _setting(name, value):
    """A ``solver`` value checked against the type of its SolverConfig
    field; a field whose default is None also takes null."""
    kind, where = _SOLVER_TYPES[name], f"solver.{name}"
    if value is None and _SOLVER_DEFAULTS[name] is None:
        return None
    if kind is float:
        return _finite(value, where)
    _require(type(value) is kind,
             f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def _build(where, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, its own checks raised as a SchemaError."""
    try:
        return cls(*args, **kwargs)
    except InvalidArgumentError as e:
        raise SchemaError(f"{where}: {e}") from None


def _condition_type(spec, table, where):
    """The type of a velocity or pressure condition, its keys checked
    against that type's row of ``table``."""
    _require(isinstance(spec, dict), f"{where}: expected an object")
    kind = spec.get("type")
    _require(isinstance(kind, str) and kind in table,
             f"{where}: unknown type {kind!r}")
    _check_keys(spec, {"type", *table[kind]}, where)
    return kind


def _velocity(spec, where):
    kind = _condition_type(spec, VELOCITY_KEYS, where)
    if kind == "no-slip":
        return NoSlipBC()
    if kind == "zero-gradient":
        return VelocityZeroGradientBC()
    q = lmin_to_m3s(_number(spec, "flow_lmin", where, positive=True))
    pulsatile = _flag(spec, "pulsatile", where)
    _require(pulsatile or "period_s" not in spec,
             f"{where}: period_s needs pulsatile: true")
    period = _number(spec, "period_s", where, positive=True) if pulsatile \
        else None
    return _build(where, InflowBC, q, spec.get("profile", "plug"), period)


def _pressure(spec, patch, where):
    kind = _condition_type(spec, PRESSURE_KEYS, where)
    if kind == "zero-gradient":
        return PressureZeroGradientBC()
    if kind == "fixed":
        return FixedPressureBC(_number(spec, "value_pa", where))
    R_p, R_d, C = (_number(spec, key, where) for key in ("R_p", "R_d", "C"))
    p0 = _number(spec, "p0_mmhg", where, default=0.0) * MMHG_TO_DYN_CM2
    return _build(where, WindkesselOutlet, patch, R_p, R_d, C, p_p=p0)


@dataclass
class Case:
    """A checked case: the solver inputs that one case file builds."""

    mesh_path: str
    fluid: FluidProperties
    solver: SolverConfig
    bcs: BoundaryConditionSet
    out_dir: str = None
    probes: list = ()               # points, each a tuple of floats
    from_inflow: bool = False

    def load_mesh(self):
        """Read the mesh. Its patches must be the boundary's, and each
        probe must have one coordinate per mesh dimension."""
        mesh = read_mesh(self.mesh_path)
        _build("boundary", self.bcs.validate_against, mesh)
        for i, xy in enumerate(self.probes):
            _require(len(xy) == mesh.dim, f"output.probes[{i}]: expected "
                     f"{mesh.dim} coordinates, got {len(xy)}")
        return mesh


def with_inflow(bcs, flow_lmin):
    """``bcs`` with the mean flow rate of every inflow set to
    ``flow_lmin`` [l/min]: the boundary conditions of one sweep point."""
    q = lmin_to_m3s(flow_lmin)
    return BoundaryConditionSet({
        name: (replace(v, flow_rate=q) if isinstance(v, InflowBC) else v, p)
        for name, (v, p) in bcs.conditions.items()})


def load_case(path):
    """Check the case file at ``path`` and build its solver inputs."""
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
    mesh_path = raw["mesh"]
    _require(isinstance(mesh_path, str),
             f"case: mesh must be a file name, got {mesh_path!r}")

    fl = raw.get("fluid", {})
    _check_keys(fl, {"rho", "mu"}, "fluid")
    fluid = _build("fluid", FluidProperties,
                   **{key: _number(fl, key, "fluid") for key in fl})

    sv = raw.get("solver", {})
    _check_keys(sv, _SOLVER_DEFAULTS, "solver")
    solver = _build("solver", SolverConfig,
                    **{key: _setting(key, v) for key, v in sv.items()})

    bnd = raw["boundary"]
    _require(isinstance(bnd, dict) and bnd, "boundary: expected a non-empty object")
    conds = {}
    for name, spec in bnd.items():
        where = f"boundary.{name}"
        _check_keys(spec, {"velocity", "pressure"}, where)
        for part in ("velocity", "pressure"):
            _require(part in spec, f"{where}: missing {part!r}")
        conds[name] = (_velocity(spec["velocity"], f"{where}.velocity"),
                       _pressure(spec["pressure"], name, f"{where}.pressure"))
    bcs = _build("boundary", BoundaryConditionSet, conds)

    out = raw.get("output", {})
    _check_keys(out, {"dir", "probes"}, "output")
    out_dir = out.get("dir")
    _require(out_dir is None or isinstance(out_dir, str),
             f"output.dir: expected a directory name, got {out_dir!r}")
    probes = out.get("probes", [])
    _require(isinstance(probes, list)
             and all(isinstance(xy, list) for xy in probes),
             "output.probes: expected a list of points")
    probes = [tuple(_finite(c, f"output.probes[{i}]") for c in xy)
              for i, xy in enumerate(probes)]

    init = raw.get("initial", {})
    _check_keys(init, {"from_inflow"}, "initial")
    from_inflow = _flag(init, "from_inflow", "initial")
    n_inflows = sum(isinstance(v, InflowBC) for v, _ in conds.values())
    _require(not from_inflow or n_inflows == 1,
             f"initial.from_inflow: needs exactly one inflow patch, the "
             f"boundary has {n_inflows}")

    if not os.path.isabs(mesh_path):
        mesh_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                 mesh_path)
    return Case(mesh_path, fluid, solver, bcs, out_dir, probes, from_inflow)
