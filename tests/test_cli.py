"""Command-line interface: exit codes and a small end-to-end workflow."""

import json

import numpy as np
import pytest

import hemoflow.cli
from hemoflow.cli import main
from hemoflow.errors import SolverFailure
from hemoflow.mesh import generate_bifurcation_mesh, read_mesh
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
                 "--out", model,
                 "--energy-csv", str(root / "energy.csv")]) == 0
    return {"root": root, "case": case, "db": db, "model": model}


class TestWorkflow:
    def test_fom_run_outputs(self, workflow):
        run = workflow["root"] / "run"
        assert (run / "fields.vtk").exists()
        assert (run / "p_avg.csv").exists()
        assert (run / "probes.csv").exists()
        report = (run / "report.txt").read_text()
        assert "PAM" in report

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
        energy = (workflow["root"] / "energy.csv").read_text().splitlines()
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_interrupted_sweep_keeps_finished_points(tmp_path, monkeypatch,
                                                 workers):
    """A failing 2nd point ends the sweep with exit 1; the point solved
    before it stays in the database and a rerun solves only the missing
    ones, on the serial and on the thread path."""
    case = make_case(tmp_path)
    db = str(tmp_path / "db")
    solve = hemoflow.cli._sweep_one
    solved = []

    def fail_second(case_path, pf, delta_p):
        if pf == 4.0:
            raise SolverFailure("injected failure", [1.0])
        return solve(case_path, pf, delta_p)

    def record(case_path, pf, delta_p):
        solved.append(pf)
        return solve(case_path, pf, delta_p)

    argv = ["sweep", str(case), "--lo", "3", "--hi", "5", "--count", "3",
            "--workers", workers, "--out", db]
    monkeypatch.setattr(hemoflow.cli, "_sweep_one", fail_second)
    assert main(argv) == 1
    assert np.allclose(SnapshotDB(db).params(), [3.0])
    assert SnapshotDB(db).weights("p") is not None

    monkeypatch.setattr(hemoflow.cli, "_sweep_one", record)
    assert main(argv) == 0
    assert np.allclose(sorted(solved), [4.0, 5.0])
    assert np.allclose(SnapshotDB(db).params(), [3.0, 4.0, 5.0])


def test_mesh_accepts_integer_resolution(tmp_path):
    out = tmp_path / "bif.hfm"
    assert main(["mesh", "bifurcation", "--resolution", "8",
                 "--out", str(out)]) == 0
    want = generate_bifurcation_mesh(0.1, 0.02, 0.012, 60.0, resolution=8)
    assert read_mesh(out).n_cells == want.n_cells
    assert main(["mesh", "bifurcation", "--resolution", "huge",
                 "--out", str(out)]) == 1


class TestExitCodes:
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

    def test_validate_reports_deviations(self, capsys):
        assert main(["validate", "--tolerance", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "checks" in out

    def test_validate_strict_flags_known_outliers(self):
        assert main(["validate", "--tolerance", "2.0", "--strict"]) == 1
        assert main(["validate", "--tolerance", "10.0", "--strict"]) == 0
