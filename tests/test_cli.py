"""Command-line interface: exit codes and a small end-to-end workflow."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import hemoflow.casefile
import hemoflow.cli
from hemoflow.cli import main
from hemoflow.errors import SolverFailure
from hemoflow.mesh import generate_bifurcation_mesh, read_mesh, write_mesh
from hemoflow.snapshots import SnapshotDB, load_models, save_models


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


@pytest.mark.parametrize("workers", ["0", "2"])
def test_sweep_runs_serially_only(tmp_path, workers):
    case = make_case(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main(["sweep", str(case), "--lo", "3", "--hi", "5", "--count", "3",
              "--workers", workers, "--out", str(tmp_path / "db")])
    assert stop.value.code == 2
    assert not (tmp_path / "db").exists()


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

    count(hemoflow.cli, "load_case")
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
    assert main(["mesh", "bifurcation", "--resolution", "huge",
                 "--out", str(out)]) == 1


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

    def test_bad_threshold_is_a_runtime_error(self, tmp_path):
        db = SnapshotDB(tmp_path / "db")
        db.add_entry(3.0, {"p": np.ones(4)})
        db.add_entry(4.0, {"p": np.full(4, 2.0)})
        rc = main(["rom-train", str(tmp_path / "db"), "--threshold", "1.5",
                   "--out", str(tmp_path / "m.npz")])
        assert rc == 1

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

    def test_validate_reports_deviations(self, capsys):
        assert main(["validate", "--tolerance", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "checks" in out

    def test_validate_strict_flags_known_outliers(self):
        assert main(["validate", "--tolerance", "2.0", "--strict"]) == 1
        assert main(["validate", "--tolerance", "10.0", "--strict"]) == 0
