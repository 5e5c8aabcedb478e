"""Command-line interface: exit codes and a small end-to-end workflow."""

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import hemoflow.casefile
import hemoflow.cli
import hemoflow.fv
from hemoflow.cli import main
from hemoflow.errors import InvalidArgumentError, SchemaError, SolverFailure
from hemoflow.mesh import generate_bifurcation_mesh, read_mesh, write_mesh
from hemoflow.snapshots import (SnapshotDB, load_models, save_models,
                                write_field)
from hemoflow.units import MMHG_TO_PA
from conftest import BIF_CASE, BIF_MESH


def make_case(tmp_path):
    """Tiny channel case: creeping flow, steady within a few steps."""
    rc = main(["mesh", "channel", "--length", "0.1", "--height", "0.02",
               "--axial", "12", "--radial", "5",
               "--out", str(tmp_path / "channel.hfm")])
    assert rc == 0
    doc = {
        "schema": "hemoflow-case/1",
        "mesh": "channel.hfm",
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
        "solver": {"dt": 0.01, "t_end": 5.0, "steady_tol": 1e-5,
                   "convection_scheme": "upwind", "lin_tol": 1e-8,
                   "continuity_tol": 1e-5},
        "output": {"dir": "out", "probes": [[0.05, 0.01]]},
        "initial": {"from_inflow": True},
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """mesh -> fom-run -> sweep -> rom-train -> rom-eval, all via main()."""
    root = tmp_path_factory.mktemp("cli")
    case = make_case(root)

    assert main(["fom-run", str(case), "--out-dir", str(root / "run")]) == 0

    db = str(root / "db")
    assert main(["sweep", str(case), "--lo", "3", "--hi", "5",
                 "--count", "3", "--out", db]) == 0

    model = str(root / "model.npz")
    assert main(["rom-train", db, "--threshold", "0.9999999",
                 "--out", model]) == 0
    assert main(["report", "--model", model,
                 "--out-dir", str(root / "spectrum")]) == 0
    return {"root": root, "case": case, "db": db, "model": model}


# imports hemoflow.cli, runs its main on the arguments given, if any, and
# prints the exit code and every scipy module then loaded
SCIPY_SPY = """
import sys
import hemoflow.cli
rc = hemoflow.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(rc, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def scipy_loaded(*argv):
    """(exit code, scipy modules loaded) of ``hemoflow argv`` in a fresh
    process; with no arguments, of ``import hemoflow.cli``."""
    src = os.path.dirname(os.path.dirname(hemoflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCIPY_SPY, *map(str, argv)],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    rc, *modules = out.splitlines()[-1].split()
    return int(rc), modules


class TestWorkflow:
    def test_fom_run_outputs(self, workflow):
        run = workflow["root"] / "run"
        assert (run / "fields.vtk").exists()
        assert (run / "p_avg.csv").exists()
        assert (run / "probes.csv").exists()
        report = (run / "report.txt").read_text()
        assert "PAM" in report
        steps = len((run / "p_avg.csv").read_text().splitlines()) - 1
        assert f"steady_tol 1e-05 met after {steps} steps" in report

    def test_sweep_database_contents(self, workflow):
        db = SnapshotDB(workflow["db"])
        assert np.allclose(db.params(), [3.0, 4.0, 5.0])
        assert {"p", "u_x", "u_y", "wss"} <= set(db.field_names())
        for pf in (3.0, 4.0, 5.0):
            meta = db.entry_meta(pf)
            assert meta["omega_rpm"] > 0
            assert meta["fom_seconds"] > 0
        assert db.weights("p") is not None
        assert db.weights("wss") is not None

    def test_sweep_resume_skips_complete_entries(self, workflow, capsys):
        before = SnapshotDB(workflow["db"]).entry_meta(4.0)
        assert main(["sweep", str(workflow["case"]), "--lo", "3",
                     "--hi", "5", "--count", "3",
                     "--out", workflow["db"]]) == 0
        after = SnapshotDB(workflow["db"]).entry_meta(4.0)
        assert after == before  # untouched, not recomputed

    def test_trained_model_round_trip(self, workflow):
        models, meta = load_models(workflow["model"])
        assert meta["threshold"] == 0.9999999
        assert {"p", "u_x", "u_y", "wss"} <= set(models)
        energy = (workflow["root"] / "spectrum"
                  / "energy.csv").read_text().splitlines()
        assert energy[0] == "field,modes,cumulative_energy"
        last = float(energy[-1].split(",")[-1])
        assert last == pytest.approx(1.0, abs=1e-12)

    def test_rom_eval_with_references(self, workflow):
        out = workflow["root"] / "eval"
        # reference solutions exist in the db at the sweep points
        assert main(["rom-eval", workflow["model"], "--params", "3.0,4.0",
                     "--db", workflow["db"], "--out-dir", str(out)]) == 0
        assert (out / "timing.txt").exists()
        rows = (out / "rom_errors.csv").read_text().splitlines()
        assert rows[0] == "parameter,field,E_percent"
        errors = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(e < 5.0 for e in errors)

    def test_rom_eval_without_references(self, workflow):
        out = workflow["root"] / "eval_blind"
        assert main(["rom-eval", workflow["model"], "--params", "4.2",
                     "--out-dir", str(out)]) == 0
        assert (out / "rom_p_4.2.csv").exists()
        assert "per parameter point" in (out / "timing.txt").read_text()

    def test_rom_eval_ignores_hemoflow_outdir(self, workflow, tmp_path,
                                              monkeypatch):
        """Without --out-dir the output goes to the working directory."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HEMOFLOW_OUTDIR", str(tmp_path / "elsewhere"))
        assert main(["rom-eval", workflow["model"], "--params", "4.2"]) == 0
        assert (tmp_path / "timing.txt").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_rom_train_has_no_energy_csv(self, workflow, tmp_path):
        """The spectrum is written by ``report --model`` only."""
        with pytest.raises(SystemExit) as stop:
            main(["rom-train", workflow["db"], "--out",
                  str(tmp_path / "m.npz"), "--energy-csv",
                  str(tmp_path / "energy.csv")])
        assert stop.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_rom_eval_refuses_extrapolation(self, workflow):
        out = workflow["root"] / "eval_bad"
        rc = main(["rom-eval", workflow["model"], "--params", "10.0",
                   "--out-dir", str(out)])
        assert rc == 1

    @pytest.mark.parametrize("params", ["abc", "4,x"])
    def test_rom_eval_params_must_be_numbers(self, workflow, tmp_path,
                                             capsys, params):
        """A --params that is not a list of numbers is a usage error
        (exit 2) from the parser: usage, one error line, no traceback."""
        out = tmp_path / "eval"
        capsys.readouterr()
        with pytest.raises(SystemExit) as stop:
            main(["rom-eval", workflow["model"], "--params", params,
                  "--out-dir", str(out)])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert sum(line.startswith("usage:") for line in err.splitlines()) == 1
        assert err.splitlines()[-1].endswith(
            f"argument --params: {params!r} is not a comma-separated list "
            "of numbers")
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["text", "truncated", "no-schema",
                                       "meta-not-json", "manifest-not-json",
                                       "manifest-no-entries"])
    def test_files_hemoflow_did_not_write_are_usage_errors(
            self, workflow, tmp_path, capsys, fault):
        """A model or manifest file that hemoflow did not write exits 2
        with one error line that names it; each used to end in a
        traceback (ValueError, BadZipFile, KeyError, JSONDecodeError; a
        manifest of the right schema without entries, KeyError)."""
        model = tmp_path / "model.npz"
        argv = ["rom-eval", str(model), "--params", "4",
                "--out-dir", str(tmp_path / "eval")]
        named = model
        if fault == "text":
            model.write_text("p,u_x\n1.0,2.0\n")
        elif fault == "truncated":
            whole = open(workflow["model"], "rb").read()
            model.write_bytes(whole[:len(whole) // 2])
        elif fault == "no-schema":
            np.savez(model, fields=np.array(["p"]))
        elif fault == "meta-not-json":
            with np.load(workflow["model"]) as z:
                arrays = dict(z)
            np.savez(model, **dict(arrays, meta=np.array("{threshold: 1}")))
        else:
            named = tmp_path / "db" / "manifest.json"
            named.parent.mkdir()
            named.write_text("{'schema': 'hemoflow-snapshots/1'}"
                             if fault == "manifest-not-json"
                             else '{"schema": "hemoflow-snapshots/1"}')
            argv = ["report", "--db", str(named.parent),
                    "--out-dir", str(tmp_path / "report")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("fault", ["corrupt-weights",
                                       "oversized-length"])
    def test_damaged_field_files_are_usage_errors(self, workflow, tmp_path,
                                                  capsys, fault):
        """rom-train of a database with a damaged file exits 2 with one
        error line that names the file and writes no model: corrupted
        weights used to be trained on, and a field file whose length
        header claims 2**61 values (checksum updated) ended in an
        OverflowError traceback."""
        db = tmp_path / "db"
        shutil.copytree(workflow["db"], db)
        manifest = json.loads((db / "manifest.json").read_text())
        rec = (manifest["weights"]["p"] if fault == "corrupt-weights"
               else manifest["entries"][0]["fields"]["p"])
        named = db / rec["file"]
        data = bytearray(named.read_bytes())
        if fault == "corrupt-weights":
            data[-1] ^= 0xFF
        else:
            data[7:15] = (2 ** 61).to_bytes(8, "little")
            rec["checksum"] = "sha256:" + hashlib.sha256(data).hexdigest()
            (db / "manifest.json").write_text(json.dumps(manifest))
        named.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["rom-train", str(db), "--out",
                     str(tmp_path / "m.npz")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("command", ["import", "rom-train", "rom-eval",
                                         "report", "validate"])
    def test_rom_commands_load_no_scipy(self, workflow, tmp_path, command):
        """``import hemoflow.cli``, the commands that only read and write
        snapshots and models, and ``validate`` run on numpy alone."""
        argv = {"import": [],
                "rom-train": ["rom-train", workflow["db"],
                              "--out", tmp_path / "m.npz"],
                "rom-eval": ["rom-eval", workflow["model"], "--params",
                             "3,4", "--db", workflow["db"],
                             "--out-dir", tmp_path / "eval"],
                "report": ["report", "--db", workflow["db"], "--model",
                           workflow["model"],
                           "--out-dir", tmp_path / "report"],
                "validate": ["validate"]}[command]
        assert scipy_loaded(*argv) == (0, [])

    def test_fom_run_loads_only_the_scipy_it_calls(self, workflow,
                                                   tmp_path):
        """A narrow-band 2D run factors both systems banded, so it loads
        neither scipy.sparse.linalg nor scipy.sparse.csgraph; a 3D run's
        Krylov solvers are numpy loops that converge or raise, so no solve
        path loads scipy.sparse.linalg."""
        rc, loaded = scipy_loaded("fom-run", workflow["case"],
                                  "--out-dir", tmp_path / "run2d")
        assert rc == 0 and "scipy.sparse" in loaded
        assert [m for m in loaded
                if m.startswith(("scipy.sparse.linalg",
                                 "scipy.sparse.csgraph"))] == []
        assert main(["mesh", "pipe", "--length", "0.02", "--diameter",
                     "0.01", "--axial", "3", "--radial", "2",
                     "--out", str(tmp_path / "pipe.hfm")]) == 0
        doc = json.loads(workflow["case"].read_text())
        doc.update(mesh=str(tmp_path / "pipe.hfm"), output={},
                   solver={"dt": 0.01, "t_end": 0.02, "lin_tol": 1e-8,
                           "convection_scheme": "upwind"})
        case = tmp_path / "pipe.json"
        case.write_text(json.dumps(doc))
        rc, loaded = scipy_loaded("fom-run", case,
                                  "--out-dir", tmp_path / "run3d")
        assert rc == 0 and "scipy.sparse" in loaded
        assert [m for m in loaded
                if m.startswith(("scipy.sparse.linalg",
                                 "scipy.sparse.csgraph"))] == []

    def test_rom_eval_of_an_unusable_model_is_a_usage_error(self, workflow,
                                                            tmp_path):
        models, meta = load_models(workflow["model"])
        models["p"].interpolation_kind = "cubic"
        path = tmp_path / "cubic.npz"
        save_models(path, models, meta)
        rc = main(["rom-eval", str(path), "--params", "4.2",
                   "--out-dir", str(tmp_path / "eval")])
        assert rc == 2

    def test_rom_eval_extrapolation_opt_in(self, workflow):
        out = workflow["root"] / "eval_extrap"
        rc = main(["rom-eval", workflow["model"], "--params", "10.0",
                   "--allow-extrapolation", "--out-dir", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("command", ["rom-train", "rom-eval", "report"])
    def test_reading_a_missing_database_creates_nothing(self, workflow,
                                                        tmp_path, capsys,
                                                        command):
        """Commands that only read a snapshot database refuse a path that
        holds none with one usage error line, and create nothing: they
        used to leave an empty database there."""
        db = str(tmp_path / "nodb")
        argv = {"rom-train": ["rom-train", db, "--out",
                              str(tmp_path / "m.npz")],
                "rom-eval": ["rom-eval", workflow["model"], "--params", "4",
                             "--db", db, "--out-dir", str(tmp_path / "eval")],
                "report": ["report", "--db", db,
                           "--out-dir", str(tmp_path / "report")]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {db}: no snapshot database (no manifest.json)\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_summaries(self, workflow):
        out = workflow["root"] / "report"
        assert main(["report", "--db", workflow["db"],
                     "--model", workflow["model"],
                     "--out-dir", str(out)]) == 0
        assert (out / "sweep_summary.csv").exists()
        assert (out / "energy.csv").exists()


def test_interrupted_sweep_keeps_finished_points(tmp_path, monkeypatch):
    """A failing 2nd point ends the sweep with exit 1; the point solved
    before it stays in the database and a rerun solves only the missing
    ones."""
    case = make_case(tmp_path)
    db = str(tmp_path / "db")
    solve = hemoflow.cli._sweep_point
    solved = []

    def fail_second(case, mesh, pf):
        if pf == 4.0:
            raise SolverFailure("injected failure", [1.0])
        return solve(case, mesh, pf)

    def record(case, mesh, pf):
        solved.append(pf)
        return solve(case, mesh, pf)

    argv = ["sweep", str(case), "--lo", "3", "--hi", "5", "--count", "3",
            "--workers", "1", "--out", db]
    monkeypatch.setattr(hemoflow.cli, "_sweep_point", fail_second)
    assert main(argv) == 1
    assert np.allclose(SnapshotDB(db).params(), [3.0])
    assert SnapshotDB(db).weights("p") is not None

    monkeypatch.setattr(hemoflow.cli, "_sweep_point", record)
    assert main(argv) == 0
    assert np.allclose(sorted(solved), [4.0, 5.0])
    assert np.allclose(SnapshotDB(db).params(), [3.0, 4.0, 5.0])


def test_sweep_refuses_a_point_short_of_steady_tol(tmp_path, capsys):
    """A point that stops at max_steps before meeting steady_tol fails
    the sweep (exit 1) and stores no entry; fom-run reports it."""
    case = make_case(tmp_path)
    doc = json.loads(case.read_text())
    doc["solver"]["max_steps"] = 2
    case.write_text(json.dumps(doc))
    db = tmp_path / "db"
    capsys.readouterr()
    assert main(["sweep", str(case), "--lo", "3", "--hi", "5", "--count",
                 "3", "--out", str(db)]) == 1
    err = capsys.readouterr().err
    assert "PF=3 l/min" in err and "steady_tol" in err and "2 steps" in err
    assert json.loads((db / "manifest.json").read_text())["entries"] == []
    assert main(["fom-run", str(case), "--out-dir", str(tmp_path / "run")]) == 0
    report = (tmp_path / "run" / "report.txt").read_text()
    assert "steady_tol 1e-05 NOT met after 2 steps" in report


@pytest.mark.parametrize("edit", [
    lambda doc: doc["solver"].update(n_nonorth=0),
    lambda doc: doc["solver"].update(convection_scheme="central"),
    lambda doc: doc["boundary"]["inlet"].update(
        velocity={"type": "inflow", "flow_m3s": 6.7e-5}),
    lambda doc: doc["boundary"]["outlet"].update(
        pressure={"type": "fixed", "value_mmhg": 0.0}),
], ids=["n_nonorth=0", "central", "flow_m3s", "value_mmhg"])
def test_removed_case_settings_are_usage_errors(tmp_path, capsys, edit):
    case = make_case(tmp_path)
    doc = json.loads(case.read_text())
    edit(doc)
    case.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["fom-run", str(case), "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("edit", [
    lambda doc: doc["boundary"].pop("wall"),
    lambda doc: doc["boundary"]["inlet"]["velocity"].update(
        pulsatile=True, period_s=0.0),
    lambda doc: doc["boundary"]["inlet"]["velocity"].update(
        pulsatile=True, period_s=-0.5),
    lambda doc: doc["boundary"]["inlet"]["velocity"].update(flow_lmin=-1.0),
], ids=["patch-without-entry", "period_s=0", "period_s<0", "flow_lmin<0"])
def test_case_file_mistakes_are_usage_errors(tmp_path, capsys, edit):
    case = make_case(tmp_path)
    doc = json.loads(case.read_text())
    edit(doc)
    case.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["fom-run", str(case), "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: boundary")


@pytest.mark.parametrize("edit, message", [
    (lambda bnd: bnd.pop("wall"), "mesh patch 'wall' has no entry"),
    (lambda bnd: bnd.update(vein=bnd["wall"]),
     "patch 'vein' not present in mesh"),
    (lambda bnd: bnd.update(vein=bnd.pop("wall")),
     "mesh patch 'wall' has no entry; patch 'vein' not present in mesh"),
], ids=["missing", "extra", "both"])
def test_a_boundary_names_each_patch_it_does_not_share_with_the_mesh(
        tmp_path, capsys, edit, message):
    """``fom-run`` and the solver refuse the same patch mismatch with the
    same message, naming every missing and every extra patch."""
    case = make_case(tmp_path)
    doc = json.loads(case.read_text())
    edit(doc["boundary"])
    case.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["fom-run", str(case), "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: boundary: {message}\n"
    loaded = hemoflow.casefile.load_case(case)
    with pytest.raises(InvalidArgumentError) as refused:
        hemoflow.fv.PisoSolver(read_mesh(loaded.mesh_path), loaded.bcs)
    assert str(refused.value) == message


def edited_run(edit):
    """The argv of ``fom-run`` on the CLI channel case after ``edit(doc)``."""
    def argv(tmp_path):
        case = make_case(tmp_path)
        doc = json.loads(case.read_text())
        edit(doc)
        case.write_text(json.dumps(doc))
        return ["fom-run", str(case), "--out-dir", str(tmp_path / "run")]
    return argv


def inlet(**keys):
    return edited_run(lambda doc: doc["boundary"]["inlet"]["velocity"]
                      .update(keys))


def outlet(**keys):
    return edited_run(lambda doc: doc["boundary"]["outlet"]["pressure"]
                      .update(keys))


def section(name, **keys):
    return edited_run(lambda doc: doc[name].update(keys))


WINDKESSEL = {"type": "windkessel", "R_d": 1000.0, "C": 1e-4}
MALFORMED = {
    "flow_lmin-string": inlet(flow_lmin="abc"),
    "value_pa-string": outlet(value_pa="abc"),
    "rho-string": section("fluid", rho="abc"),
    "dt-string": section("solver", dt="abc"),
    "n_piso-1.5": section("solver", n_piso=1.5),
    "max_steps-string": section("solver", max_steps="3"),
    "mesh-5": edited_run(lambda doc: doc.update(mesh=5)),
    "probe-4-coordinates": section("output", probes=[[0.05, 0.01, 0.0, 0.0]]),
    "missing-case": lambda tmp_path: ["fom-run", str(tmp_path / "none.json")],
    "missing-mesh": edited_run(lambda doc: doc.update(mesh="none.hfm")),
    "missing-model": lambda tmp_path: ["rom-eval", str(tmp_path / "none.npz"),
                                       "--params", "4"],
    "wall-inflow-keys": edited_run(
        lambda doc: doc["boundary"]["wall"]["velocity"].update(
            flow_lmin=4.0, profile="bogus")),
    "value_pa-on-zero-gradient": edited_run(
        lambda doc: doc["boundary"]["wall"]["pressure"].update(value_pa=0.0)),
    "R_p-on-fixed": outlet(R_p=100.0),
    "flow_lmin-true": inlet(flow_lmin=True),
    "from_inflow-no": section("initial", from_inflow="no"),
    "from_inflow-no-inflow": edited_run(
        lambda doc: doc["boundary"]["inlet"].update(
            velocity={"type": "zero-gradient"},
            pressure={"type": "fixed", "value_pa": 1.0})),
    "from_inflow-two-inflows": edited_run(
        lambda doc: doc["boundary"]["outlet"].update(
            velocity=doc["boundary"]["inlet"]["velocity"])),
    "unknown-profile": inlet(profile="bogus"),
    "value_pa-nan": outlet(value_pa=float("nan")),
    "R_p-nan": edited_run(lambda doc: doc["boundary"]["outlet"].update(
        pressure=dict(WINDKESSEL, R_p=float("nan")))),
    "rho-nan": section("fluid", rho=float("nan")),
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_one_usage_error_line(tmp_path, capsys, argv):
    """Every malformed case value, key or missing input file exits 2 with
    one ``error:`` line, before anything runs."""
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("db", ["missing", "empty"])
def test_rom_train_needs_entries(tmp_path, capsys, db):
    """A missing database is a usage error (exit 2), an empty one a
    runtime error (exit 1); neither writes a model."""
    code, message = {"missing": (2, "no snapshot database"),
                     "empty": (1, "empty snapshot database")}[db]
    if db == "empty":
        SnapshotDB(tmp_path / db)
    capsys.readouterr()
    assert main(["rom-train", str(tmp_path / db),
                 "--out", str(tmp_path / "m.npz")]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


# what each BLAS thread variable holds when numpy is first imported, in a
# process that imports the module named by its argument
BLAS_SPY = """
import importlib, os, sys
KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(k) for k in KEYS])
sys.meta_path.insert(0, Spy())
importlib.import_module(sys.argv[1])
print(*seen[0])
"""


def blas_threads_at_numpy_import(module, preset):
    """BLAS_SPY's output for ``import module`` in a fresh process, with
    OPENBLAS_NUM_THREADS set to ``preset`` (unset if None) and the other
    two unset."""
    src = os.path.dirname(os.path.dirname(hemoflow.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    return subprocess.run([sys.executable, "-c", BLAS_SPY, module], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.split()


@pytest.mark.parametrize("preset, expected", [
    (None, "1 1 1"), ("2", "2 1 1")], ids=["unset", "preset"])
def test_cli_runs_blas_on_one_thread_by_default(preset, expected):
    """Importing the CLI sets each BLAS thread count to 1 before numpy
    loads BLAS, unless the environment already sets it: threaded OpenBLAS
    makes wide banded Cholesky factors several times slower."""
    assert blas_threads_at_numpy_import("hemoflow.cli",
                                        preset) == expected.split()


@pytest.mark.parametrize("preset, expected", [
    (None, "1 1 1"), ("2", "2 1 1")], ids=["unset", "preset"])
def test_library_import_runs_blas_on_one_thread_by_default(preset,
                                                           expected):
    """A script that imports the solver, not the CLI, gets the same
    default: the package sets it, before its first numpy import."""
    assert blas_threads_at_numpy_import("hemoflow.fv",
                                        preset) == expected.split()


def pulsatile_case(tmp_path, t_end):
    """The CLI channel with a pulsatile inflow (period 0.5 s) into an RCR
    outlet that starts at 0 mmHg."""
    case = make_case(tmp_path)
    doc = json.loads(case.read_text())
    doc["boundary"]["inlet"]["velocity"] = {
        "type": "inflow", "flow_lmin": 0.05, "profile": "parabolic",
        "pulsatile": True, "period_s": 0.5}
    doc["boundary"]["outlet"]["pressure"] = {
        "type": "windkessel", "R_p": 100.0, "R_d": 1000.0, "C": 1e-4,
        "p0_mmhg": 0.0}
    doc["solver"] = {"dt": 0.005, "t_end": t_end,
                     "convection_scheme": "upwind", "lin_tol": 1e-8,
                     "continuity_tol": 1e-5}
    case.write_text(json.dumps(doc))
    return case


def test_pulsatile_report_covers_the_last_period(tmp_path):
    """PAS/PAD/PAM of a pulsatile run come from its last period, not from
    the start-up transient."""
    case = pulsatile_case(tmp_path, t_end=1.5)
    assert main(["fom-run", str(case), "--out-dir", str(tmp_path / "run")]) == 0
    rows = np.loadtxt(tmp_path / "run" / "p_avg.csv", delimiter=",",
                      skiprows=1)
    last = rows[rows[:, 0] >= rows[-1, 0] - 0.5 - 1e-9, 1] / MMHG_TO_PA
    assert last.min() > 0.1 > rows[:, 1].min() / MMHG_TO_PA
    report = (tmp_path / "run" / "report.txt").read_text()
    for name, value in (("PAS", last.max()), ("PAD", last.min())):
        shown = float(report.split(f"{name} = ")[1].split()[0])
        assert shown == pytest.approx(value, abs=0.005)


def test_pulsatile_run_shorter_than_a_period_fails(tmp_path, capsys):
    case = pulsatile_case(tmp_path, t_end=0.3)
    capsys.readouterr()
    assert main(["fom-run", str(case), "--out-dir", str(tmp_path / "run")]) == 1
    assert "does not span one period" in capsys.readouterr().err


def test_a_diverging_run_stops_within_20_steps(tmp_path, capsys):
    """The benchmark's bifurcation case with one pressure solve per
    corrector diverges at dt 0.01 (max|u| 0.17 after step 1, 472 after
    step 11, 4e14 after step 21). The run stops within 20 steps with a
    SolverFailure that names the growth, where it once ran on to a NaN
    continuity error at step 128; ``fom-run`` exits 1 with that message."""
    assert main(BIF_MESH + ["--out", str(tmp_path / "bif.hfm")]) == 0
    doc = dict(BIF_CASE, solver=dict(BIF_CASE["solver"], n_nonorth=1))
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    case = hemoflow.casefile.load_case(str(path))
    steps = []
    growth = r"run diverges: max\|u\| \S+ grew past 10000 times"
    with pytest.raises(SolverFailure, match=growth) as failed:
        hemoflow.cli._run_case(case, case.load_mesh(), case.bcs,
                               observer=steps.append)
    assert len(steps) < 20 and failed.value.residual_history[0] > 1e4
    capsys.readouterr()
    assert main(["fom-run", str(path), "--out-dir", str(tmp_path / "run")]) == 1
    assert re.search(growth, capsys.readouterr().err)


def test_sweep_finds_every_pump_speed_before_solving(tmp_path, monkeypatch,
                                                     capsys):
    """A head the pump cannot give at some point fails the sweep before
    its first solve (exit 1, nothing stored)."""
    case = make_case(tmp_path)
    runs = []
    run = hemoflow.fv.PisoSolver.run

    def counted(self, *args, **kwargs):
        runs.append(1)
        return run(self, *args, **kwargs)
    monkeypatch.setattr(hemoflow.fv.PisoSolver, "run", counted)
    db = tmp_path / "db"
    capsys.readouterr()
    assert main(["sweep", str(case), "--lo", "0.5", "--hi", "1", "--count",
                 "2", "--delta-p", "-5", "--out", str(db)]) == 1
    assert "no real pump speed" in capsys.readouterr().err
    assert runs == []
    assert json.loads((db / "manifest.json").read_text())["entries"] == []


@pytest.mark.parametrize("workers", ["0", "2"])
def test_sweep_runs_serially_only(tmp_path, workers):
    case = make_case(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(["sweep", str(case), "--lo", "3", "--hi", "5", "--count", "3",
              "--workers", workers, "--out", str(tmp_path / "db")])
    assert stop.value.code == 2
    assert not (tmp_path / "db").exists()


RANGE_ERRORS = {
    "sweep-lo-above-hi": (["sweep", "CASE", "--lo", "5", "--hi", "3",
                           "--count", "3", "--out", "DB"],
                          "sweep: --lo 5 is not below --hi 3"),
    "sweep-lo-equals-hi": (["sweep", "CASE", "--lo", "4", "--hi", "4",
                            "--count", "3", "--out", "DB"],
                           "sweep: --lo 4 is not below --hi 4"),
    "sweep-hi-inf": (["sweep", "CASE", "--lo", "3", "--hi", "inf",
                      "--count", "3", "--out", "DB"],
                     "argument --hi: inf is not a finite number"),
    "sweep-delta-p-nan": (["sweep", "CASE", "--lo", "3", "--hi", "5",
                           "--count", "3", "--delta-p", "nan", "--out", "DB"],
                          "argument --delta-p: nan is not a finite number"),
    "sweep-count-1": (["sweep", "CASE", "--lo", "3", "--hi", "5",
                       "--count", "1", "--out", "DB"],
                      "argument --count: 1 is not at least 2"),
    "rom-train-threshold-1.5": (["rom-train", "DB", "--threshold", "1.5",
                                 "--out", "OUT"],
                                "argument --threshold: 1.5 is not in (0, 1]"),
    "rom-train-threshold-0": (["rom-train", "DB", "--threshold", "0",
                               "--out", "OUT"],
                              "argument --threshold: 0 is not in (0, 1]"),
    "validate-tolerance-negative": (["validate", "--tolerance", "-1"],
                                    "argument --tolerance: -1 is not at "
                                    "least 0"),
    "mesh-length-nan": (["mesh", "pipe", "--length", "nan", "--out", "DB"],
                        "argument --length: nan is not a finite number"),
    "mesh-diameter-inf": (["mesh", "pipe", "--diameter", "inf",
                           "--out", "DB"],
                          "argument --diameter: inf is not a finite number"),
    "mesh-height-nan": (["mesh", "channel", "--height", "nan", "--out", "DB"],
                        "argument --height: nan is not a finite number"),
    "mesh-branch-diameter-inf": (["mesh", "bifurcation", "--branch-diameter",
                                  "inf", "--out", "DB"],
                                 "argument --branch-diameter: inf is not a "
                                 "finite number"),
    "mesh-branch-angle-nan": (["mesh", "bifurcation", "--branch-angle", "nan",
                               "--out", "DB"],
                              "argument --branch-angle: nan is not a finite "
                              "number"),
    "mesh-length-negative": (["mesh", "pipe", "--length", "-1", "--out", "DB"],
                             "argument --length: -1 is not positive"),
    "mesh-pipe-axial-1": (["mesh", "pipe", "--axial", "1", "--out", "DB"],
                          "mesh pipe: --axial 1 is not at least 2"),
    "mesh-resolution-2": (["mesh", "bifurcation", "--resolution", "2",
                           "--out", "DB"],
                          "argument --resolution: 2 is not at least 3"),
    "mesh-resolution-huge": (["mesh", "bifurcation", "--resolution", "huge",
                              "--out", "DB"],
                             "argument --resolution: huge is not a cell count "
                             "or one of coarse, medium, fine"),
    "mesh-branch-angle-200": (["mesh", "bifurcation", "--branch-angle", "200",
                               "--out", "DB"],
                              "argument --branch-angle: 200 is not in "
                              "(0, 180)"),
    "mesh-channel-radial-0": (["mesh", "channel", "--radial", "0",
                               "--out", "DB"],
                              "argument --radial: 0 is not at least 1"),
}


@pytest.mark.parametrize("argv, message", RANGE_ERRORS.values(),
                         ids=RANGE_ERRORS.keys())
def test_argument_range_errors_are_usage_errors(tmp_path, capsys, argv,
                                                message):
    """An option value out of its range exits 2 from the parser, as
    README's exit-code table says: usage, one error line, no traceback,
    and no database or model written. A sweep's range used to exit 1
    (an infinite --hi after creating the database), a threshold too;
    a NaN pump head stored NaN pump speeds, and a negative tolerance ran,
    both with exit 0, as did a NaN mesh length, which wrote NaN points."""
    paths = {"CASE": str(make_case(tmp_path)), "DB": str(tmp_path / "db"),
             "OUT": str(tmp_path / "m.npz")}
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        main([paths.get(a, a) for a in argv])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum(line.startswith("usage:") for line in err.splitlines()) == 1
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert err.splitlines()[-1].endswith(message)
    assert not (tmp_path / "db").exists()
    assert not (tmp_path / "m.npz").exists()


def test_sweep_reads_the_case_and_the_mesh_once(tmp_path, monkeypatch):
    """Once per command, not once per point; a rerun with every entry
    complete reads neither."""
    case = make_case(tmp_path)
    calls = {"load_case": 0, "read_mesh": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(hemoflow.casefile, "load_case")
    count(hemoflow.casefile, "read_mesh")
    argv = ["sweep", str(case), "--lo", "3", "--hi", "5", "--count", "3",
            "--out", str(tmp_path / "db")]
    assert main(argv) == 0
    assert calls == {"load_case": 1, "read_mesh": 1}
    assert main(argv) == 0
    assert calls == {"load_case": 1, "read_mesh": 1}


def test_sweep_stopped_while_writing_weights_completes_them(tmp_path,
                                                            monkeypatch):
    """A sweep stopped after the first of a field's weights is written
    leaves no entry without weights, and a rerun writes the rest."""
    case = make_case(tmp_path)
    db = str(tmp_path / "db")
    set_weights = SnapshotDB.set_weights

    def stop_after_the_first(self, name, values):
        set_weights(self, name, values)
        raise KeyboardInterrupt

    argv = ["sweep", str(case), "--lo", "3", "--hi", "5", "--count", "3",
            "--out", db]
    monkeypatch.setattr(SnapshotDB, "set_weights", stop_after_the_first)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert len(SnapshotDB(db).manifest["weights"]) == 1
    assert SnapshotDB(db).params().size == 0

    monkeypatch.setattr(SnapshotDB, "set_weights", set_weights)
    assert main(argv) == 0
    done = SnapshotDB(db)
    assert set(done.manifest["weights"]) == set(done.field_names()) \
        == {"p", "u_x", "u_y", "wss"}


def test_killed_sweep_resumes(tmp_path, monkeypatch):
    """SIGKILL a sweep process once its first entry is stored: a rerun of
    the same command stores every point, each file passing its checksum,
    and solves only the points the killed run had not stored."""
    mesh = generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, resolution=8)
    write_mesh(mesh, tmp_path / "bif.hfm")
    case = tmp_path / "case.json"
    case.write_text(json.dumps({
        "schema": "hemoflow-case/1",
        "mesh": "bif.hfm",
        "fluid": {"rho": 1060.0, "mu": 3e-4},
        "boundary": {
            "inlet": {"velocity": {"type": "inflow", "flow_lmin": 4.0},
                      "pressure": {"type": "zero-gradient"}},
            "wall": {"velocity": {"type": "no-slip"},
                     "pressure": {"type": "zero-gradient"}},
            "outlet": {"velocity": {"type": "zero-gradient"},
                       "pressure": {"type": "windkessel", "R_p": 4.8,
                                    "R_d": 43.2, "C": 1.2e-3,
                                    "p0_mmhg": 2.16}},
        },
        "solver": {"dt": 0.05, "t_end": 20.0, "steady_tol": 5e-5,
                   "n_nonorth": 2, "convection_scheme": "upwind",
                   "lin_tol": 1e-7, "continuity_tol": 1e-6, "cfl_max": 1e9,
                   "cfl_action": "warn"},
        "initial": {"from_inflow": True},
    }))
    db = tmp_path / "db"
    argv = ["sweep", str(case), "--lo", "3", "--hi", "5", "--count", "4",
            "--out", str(db)]
    plan = np.linspace(3.0, 5.0, 4)

    src = os.path.dirname(os.path.dirname(hemoflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-m", "hemoflow.cli", *argv],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        while proc.poll() is None and time.monotonic() < deadline:
            manifest = db / "manifest.json"
            if manifest.exists() and json.loads(manifest.read_text())["entries"]:
                break
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL

    kept = SnapshotDB(db)
    stored = [pf for pf in plan if kept.has_entry(pf)]
    kept_meta = {pf: kept.entry_meta(pf) for pf in stored}
    assert 1 <= len(stored) < plan.size

    solved = []
    add_entry = SnapshotDB.add_entry

    def record(self, param, fields, **meta):
        solved.append(param)
        return add_entry(self, param, fields, **meta)

    monkeypatch.setattr(SnapshotDB, "add_entry", record)
    assert main(argv) == 0
    assert sorted(solved) == [pf for pf in plan if pf not in stored]
    done = SnapshotDB(db)
    assert np.allclose(done.params(), plan)
    assert all(done.has_entry(pf) for pf in plan)
    assert {pf: done.entry_meta(pf) for pf in stored} == kept_meta
    assert set(done.manifest["weights"]) == set(done.field_names())
    for rec in done.manifest["weights"].values():
        data = (db / rec["file"]).read_bytes()
        assert rec["checksum"] == "sha256:" + hashlib.sha256(data).hexdigest()


def test_mesh_accepts_integer_resolution(tmp_path):
    out = tmp_path / "bif.hfm"
    assert main(["mesh", "bifurcation", "--resolution", "8",
                 "--out", str(out)]) == 0
    want = generate_bifurcation_mesh(0.1, 0.02, 0.012, 60.0, resolution=8)
    assert read_mesh(out).n_cells == want.n_cells
    with pytest.raises(SystemExit) as stop:
        main(["mesh", "bifurcation", "--resolution", "huge",
              "--out", str(out)])
    assert stop.value.code == 2


class TestExitCodes:
    def test_mesh_beyond_the_non_orthogonality_cap_is_refused(self, tmp_path,
                                                              capsys):
        out = tmp_path / "steep.hfm"
        capsys.readouterr()
        assert main(["mesh", "bifurcation", "--branch-angle", "15",
                     "--out", str(out), "--vtk", str(tmp_path / "steep.vtk")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-orthogonality cap" in err
        assert list(tmp_path.iterdir()) == []

    def test_broken_case_is_a_usage_error(self, tmp_path):
        case = tmp_path / "case.json"
        case.write_text(json.dumps({"schema": "hemoflow-case/1",
                                    "mesh": "missing.hfm",
                                    "boundry": {}}))
        assert main(["fom-run", str(case)]) == 2

    def test_mesh_naming_a_missing_point_is_a_usage_error(self, tmp_path,
                                                           capsys):
        case = make_case(tmp_path)
        mesh = tmp_path / "channel.hfm"
        lines = mesh.read_text().splitlines()
        assert lines[2].startswith("POINTS ")
        n_points = lines[2].split()[1]
        at = next(i for i, line in enumerate(lines) if line.startswith("FACES"))
        nv, _, *rest = lines[at + 1].split()
        lines[at + 1] = " ".join([nv, n_points, *rest])   # one past the last
        mesh.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fom-run", str(case)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_mesh_with_an_unknown_patch_kind_is_a_usage_error(self, tmp_path,
                                                              capsys):
        case = make_case(tmp_path)
        mesh = tmp_path / "channel.hfm"
        text = mesh.read_text()
        assert "\nwall wall " in text
        mesh.write_text(text.replace("\nwall wall ", "\nwall vein "))
        capsys.readouterr()
        assert main(["fom-run", str(case)]) == 2
        assert "unknown patch kind 'vein'" in capsys.readouterr().err

    def test_non_finite_snapshot_is_a_runtime_error(self, tmp_path, capsys):
        """A stored NaN passes its checksum but cannot be trained on."""
        db = SnapshotDB(tmp_path / "db")
        db.add_entry(3.0, {"p": np.ones(4)})
        db.add_entry(4.0, {"p": np.array([2.0, np.nan, 2.0, 2.0])})
        assert db.has_entry(4.0)
        rc = main(["rom-train", str(tmp_path / "db"),
                   "--out", str(tmp_path / "m.npz")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not finite" in err
        assert not (tmp_path / "m.npz").exists()

    def test_fields_of_different_lengths_are_a_usage_error(self, tmp_path,
                                                           capsys):
        """Two sweeps of cases on different meshes into one database: the
        second mesh's entry is refused, and a database that already holds
        both lengths fails rom-train with one error line, not a
        traceback."""
        root = tmp_path / "db"
        db = SnapshotDB(root)
        db.add_entry(3.0, {"p": np.ones(8)})
        manifest = (root / "manifest.json").read_text()
        with pytest.raises(SchemaError, match="field 'p' at parameter 4 has "
                           "9 values; the database holds 8"):
            db.add_entry(4.0, {"p": np.ones(9)})
        assert (root / "manifest.json").read_text() == manifest
        assert sorted(os.listdir(root)) == ["manifest.json", "point_3.0"]
        # the database as an unchecked add_entry left it
        db.add_entry(4.0, {"p": np.ones(8)})
        rec = db.manifest["entries"][1]["fields"]["p"]
        write_field(root / rec["file"], np.ones(9))
        rec.update(n=9, checksum="sha256:" + hashlib.sha256(
            (root / rec["file"]).read_bytes()).hexdigest())
        (root / "manifest.json").write_text(json.dumps(db.manifest))
        capsys.readouterr()
        assert main(["rom-train", str(root),
                     "--out", str(tmp_path / "m.npz")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: field 'p' has 8 values at parameter 3 but 9 at 4"]
        assert not (tmp_path / "m.npz").exists()

    def test_weights_written_without_a_length_still_train(self, tmp_path,
                                                          capsys):
        """A database whose weights record no length (as written before
        weights did) opens, takes entries and trains; when its p weights
        hold 8 values and its entries 9, rom-train exits 2 naming the
        field and both lengths, where it exited 1 naming neither."""
        for n, rc in ((9, 0), (8, 2)):
            root = tmp_path / f"db{n}"
            db = SnapshotDB(root)
            db.set_weights("p", np.ones(n))
            del db.manifest["weights"]["p"]["n"]
            (root / "manifest.json").write_text(json.dumps(db.manifest))
            db = SnapshotDB.open(root)
            for pf in (3.0, 4.0):
                db.add_entry(pf, {"p": np.arange(9.0) * pf})
            capsys.readouterr()
            model = tmp_path / f"m{n}.npz"
            assert main(["rom-train", str(root), "--out", str(model)]) == rc
            assert model.exists() == (rc == 0)
        assert capsys.readouterr().err.splitlines() == [
            "error: weights of field 'p' have 8 values; the database holds 9"]

    def test_validate_reports_deviations(self, capsys):
        assert main(["validate", "--tolerance", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "checks" in out

    def test_validate_strict_flags_known_outliers(self):
        assert main(["validate", "--tolerance", "2.0", "--strict"]) == 1
        assert main(["validate", "--tolerance", "10.0", "--strict"]) == 0
