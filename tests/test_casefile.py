"""Case file loading: strict schema with precise error messages."""

import json
from dataclasses import asdict

import pytest

from hemoflow.casefile import load_case, with_inflow
from hemoflow.errors import SchemaError
from hemoflow.fv import FixedPressureBC, InflowBC, NoSlipBC, SolverConfig
from hemoflow.mesh import generate_channel_mesh, write_mesh
from hemoflow.windkessel import WindkesselOutlet


def base_case(mesh_name="channel.hfm"):
    return {
        "schema": "hemoflow-case/1",
        "mesh": mesh_name,
        "fluid": {"rho": 1.0, "mu": 0.01},
        "boundary": {
            "inlet": {"velocity": {"type": "inflow", "flow_lmin": 4.0,
                                   "profile": "parabolic"},
                      "pressure": {"type": "zero-gradient"}},
            "outlet": {"velocity": {"type": "zero-gradient"},
                       "pressure": {"type": "fixed", "value_pa": 0.0}},
            "wall": {"velocity": {"type": "no-slip"},
                     "pressure": {"type": "zero-gradient"}},
        },
        "solver": {"dt": 0.01, "t_end": 1.0, "steady_tol": 1e-4,
                   "convection_scheme": "upwind"},
        "output": {"dir": "out"},
        "initial": {"from_inflow": True},
    }


@pytest.fixture()
def case_dir(tmp_path):
    write_mesh(generate_channel_mesh(0.1, 0.02, 8, 4),
               tmp_path / "channel.hfm")
    return tmp_path


def write_case(case_dir, doc, name="case.json"):
    path = case_dir / name
    path.write_text(json.dumps(doc))
    return path


def test_valid_case_builds_solver_inputs(case_dir):
    case = load_case(write_case(case_dir, base_case()))
    assert case.solver.dt == 0.01
    assert case.fluid.mu == 0.01
    case.load_mesh()  # relative path resolved against the case file
    bcs = case.bcs.conditions
    assert isinstance(bcs["inlet"][0], InflowBC)
    assert isinstance(bcs["wall"][0], NoSlipBC)
    assert isinstance(bcs["outlet"][1], FixedPressureBC)
    assert bcs["inlet"][0].rate(0.0) == pytest.approx(4.0 / 60000.0,
                                                      rel=1e-4)


def test_inflow_override_replaces_flow_rate(case_dir):
    case = load_case(write_case(case_dir, base_case()))
    bcs = with_inflow(case.bcs, 7.5).conditions
    assert bcs["inlet"][0].rate(0.0) == pytest.approx(7.5 / 60000.0,
                                                      rel=1e-4)
    assert case.bcs.conditions["inlet"][0].rate(0.0) == pytest.approx(
        4.0 / 60000.0, rel=1e-4)


def test_inflow_override_keeps_the_pulsatile_period(case_dir):
    doc = base_case()
    doc["boundary"]["inlet"]["velocity"].update(pulsatile=True, period_s=0.8)
    bcs = load_case(write_case(case_dir, doc)).bcs
    inflow = bcs.conditions["inlet"][0]
    swept = with_inflow(bcs, 7.5).conditions["inlet"][0]
    assert (swept.flow_rate, swept.period_s) == (7.5 * 1.6667e-5, 0.8)
    assert swept.profile == inflow.profile == "parabolic"
    # the same waveform, scaled to the new mean
    for t in (0.0, 0.1, 0.5, 1.3):
        assert swept.rate(t) == pytest.approx(inflow.rate(t) * 7.5 / 4.0,
                                              rel=1e-12)


def test_windkessel_pressure_spec(case_dir):
    doc = base_case()
    doc["boundary"]["outlet"]["pressure"] = {
        "type": "windkessel", "R_p": 100.0, "R_d": 1500.0, "C": 1e-4,
        "p0_mmhg": 80.0}
    case = load_case(write_case(case_dir, doc))
    bc = case.bcs.conditions["outlet"][1]
    assert isinstance(bc, WindkesselOutlet)
    assert bc.name == "outlet" and bc.R_d == 1500.0
    assert bc.p_p == pytest.approx(80.0 * 1333.22, rel=1e-9)


@pytest.mark.parametrize("key, value", [("write_interval", 10),
                                        ("fields", ["p"])])
def test_unimplemented_output_keys_are_rejected(case_dir, key, value):
    doc = base_case()
    doc["output"][key] = value
    with pytest.raises(SchemaError, match=key):
        load_case(write_case(case_dir, doc))


def test_unknown_key_is_named_in_the_error(case_dir):
    doc = base_case()
    doc["solver"]["dtt"] = 0.01
    with pytest.raises(SchemaError, match="dtt"):
        load_case(write_case(case_dir, doc))


def test_every_solver_setting_is_a_solver_key(case_dir):
    doc = base_case()
    doc["solver"] = asdict(SolverConfig(dt=0.02, max_steps=7))
    assert load_case(write_case(case_dir, doc)).solver == SolverConfig(
        dt=0.02, max_steps=7)


@pytest.mark.parametrize("key, value", [
    ("dt", "0.01"), ("dt", True), ("dt", float("inf")), ("dt", 10**400),
    ("t_end", None), ("steady_tol", float("nan")), ("n_piso", 2.0),
    ("n_piso", True), ("max_steps", "3"), ("convection_scheme", 1)])
def test_solver_values_must_match_their_field_types(case_dir, key, value):
    doc = base_case()
    doc["solver"][key] = value
    with pytest.raises(SchemaError, match=f"solver.{key}"):
        load_case(write_case(case_dir, doc))


def test_solver_fields_without_a_default_take_null(case_dir):
    doc = base_case()
    doc["solver"].update(dt=1, steady_tol=None, max_steps=None)
    solver = load_case(write_case(case_dir, doc)).solver
    assert (solver.dt, solver.steady_tol, solver.max_steps) == (1.0, None,
                                                               None)
    assert isinstance(solver.dt, float)


def test_unknown_boundary_key_is_named(case_dir):
    doc = base_case()
    doc["boundary"]["inlet"]["velocity"]["speed"] = 1.0
    with pytest.raises(SchemaError, match="speed"):
        load_case(write_case(case_dir, doc))


def test_schema_tag_is_mandatory(case_dir):
    doc = base_case()
    doc["schema"] = "hemoflow-case/999"
    with pytest.raises(SchemaError, match="schema"):
        load_case(write_case(case_dir, doc))


def test_missing_boundary_section_is_rejected(case_dir):
    doc = base_case()
    del doc["boundary"]
    with pytest.raises(SchemaError, match="boundary"):
        load_case(write_case(case_dir, doc))


def test_incomplete_patch_spec_is_rejected(case_dir):
    doc = base_case()
    del doc["boundary"]["wall"]["pressure"]
    with pytest.raises(SchemaError, match="pressure"):
        load_case(write_case(case_dir, doc))


def test_invalid_solver_value_is_a_schema_error(case_dir):
    doc = base_case()
    doc["solver"]["convection_scheme"] = "quick"
    with pytest.raises(SchemaError, match="solver"):
        load_case(write_case(case_dir, doc))


def test_inflow_needs_a_flow_rate(case_dir):
    doc = base_case()
    doc["boundary"]["inlet"]["velocity"] = {"type": "inflow"}
    with pytest.raises(SchemaError, match="flow"):
        load_case(write_case(case_dir, doc))


def test_invalid_json_is_a_schema_error(case_dir):
    path = case_dir / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError, match="JSON"):
        load_case(path)


@pytest.mark.parametrize("inflows", [0, 2])
def test_from_inflow_needs_exactly_one_inflow(case_dir, inflows):
    """``from_inflow`` starts from the velocity of the one inflow. With
    none a run used to start from rest, and with two from the last one's
    velocity, each without a word."""
    doc = base_case()
    bnd = doc["boundary"]
    if inflows == 0:
        bnd["inlet"] = {"velocity": {"type": "zero-gradient"},
                        "pressure": {"type": "fixed", "value_pa": 1.0}}
    else:
        bnd["outlet"]["velocity"] = bnd["inlet"]["velocity"]
    with pytest.raises(SchemaError,
                       match=rf"initial\.from_inflow: .* has {inflows}$"):
        load_case(write_case(case_dir, doc))
    doc["initial"]["from_inflow"] = False
    assert load_case(write_case(case_dir, doc)).from_inflow is False
