"""Shared fixtures for the regression and acceptance suites.

The two session-scoped fixtures run transient finite-volume solves that
take most of the suite's time, so they are computed once and reused by
every test that needs a converged flow field.
"""

from __future__ import annotations

import importlib.util
import json
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hemoflow.cli import main
from hemoflow.fv import FluidProperties, PisoSolver, SolverConfig, poiseuille_bcs
from hemoflow.indicators import wall_shear_stress
from hemoflow.mesh import generate_pipe_mesh
from hemoflow.snapshots import SnapshotDB


def solve_pipe(diameter, flow_rate, axial, radial, n_theta, fluid):
    """Steady laminar pipe flow, warm-started from the exact parabola."""
    mesh = generate_pipe_mesh(diameter, diameter, axial, radial,
                              n_theta=n_theta)
    bcs = poiseuille_bcs(mesh, flow_rate, profile="parabolic")
    cfg = SolverConfig(dt=0.01, t_end=50.0, steady_tol=5e-4,
                       convection_scheme="upwind", lin_tol=1e-6,
                       continuity_tol=2e-5, cfl_max=1e9, cfl_action="warn")
    solver = PisoSolver(mesh, bcs, fluid, cfg)
    u_mean = flow_rate / (np.pi * diameter**2 / 4.0)
    r = np.linalg.norm(mesh.cell_centroid[:, :2], axis=1)
    u0 = np.zeros((mesh.n_cells, 3))
    u0[:, 2] = 2.0 * u_mean * (1.0 - (2.0 * r / diameter) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = solver.run(solver.initialize(u=u0))
    wss = wall_shear_stress(state, mesh, fluid, "wall")
    return mesh, state, wss


@pytest.fixture(scope="session")
def pipe_runs():
    """Pipe solutions at Re 500: two resolutions plus a narrower bore.

    The flow rate is held fixed across the two diameters so the wall
    shear ratio isolates the d^-3 scaling.
    """
    fluid = FluidProperties(rho=1060.0, mu=0.004)
    d = 0.02
    u_mean = 500.0 * fluid.nu / d
    Q = u_mean * np.pi * d * d / 4.0
    t0 = time.perf_counter()
    runs = {
        "coarse": solve_pipe(d, Q, 16, 6, 24, fluid),
        "medium": solve_pipe(d, Q, 20, 10, 40, fluid),
        "narrow": solve_pipe(0.016, Q, 20, 10, 40, fluid),
    }
    return {"fluid": fluid, "d": d, "d_narrow": 0.016, "Q": Q,
            "u_mean": u_mean, "runs": runs,
            "seconds": time.perf_counter() - t0}


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded by its path (perfbench is not a
    package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the benchmark's bifurcation set-up (``perfbench/workloads.bif_setup``):
#: 452 cells, one RCR outlet whose proximal pressure starts at the steady
#: R_d*Q of 4 l/min. It writes its mesh and case file into a directory.
bif_setup = _benchmark_workloads().bif_setup
with tempfile.TemporaryDirectory() as _work:
    #: the case file that ``bif_setup`` writes
    BIF_CASE = json.loads(bif_setup(_work).read_text())
#: ``hemoflow mesh`` arguments that write ``bif_setup``'s mesh
BIF_MESH = ["mesh", "bifurcation", "--length", "0.024", "--diameter", "0.004",
            "--branch-diameter", "0.002", "--branch-angle", "45",
            "--resolution", "8"]


@pytest.fixture(scope="session")
def bif_sweep(tmp_path_factory):
    """The bifurcation case swept over PF through ``hemoflow mesh`` and
    ``hemoflow sweep``, read back from the snapshot databases.

    Returns 21 equispaced training snapshots over PF in [3, 5] l/min, two
    held-out references at 3.45 and 4.35 l/min with their solve times
    (each entry's ``fom_seconds``), and the quadrature weights for each
    field. Every point starts cold, as every sweep point does.
    """
    work = tmp_path_factory.mktemp("bif_sweep")
    assert main(BIF_MESH + ["--out", str(work / "bif.hfm")]) == 0
    case = work / "case.json"
    case.write_text(json.dumps(BIF_CASE))

    def sweep(name, lo, hi, count):
        db = str(work / name)
        assert main(["sweep", str(case), "--lo", lo, "--hi", hi,
                     "--count", count, "--out", db]) == 0
        db = SnapshotDB(db)
        return db, {float(pf): {n: db.load_field(pf, n)
                                for n in db.field_names()}
                    for pf in db.params()}

    train, snaps = sweep("train_db", "3", "5", "21")
    held, refs = sweep("held_db", "3.45", "4.35", "2")
    return {"params": train.params(), "snaps": snaps, "refs": refs,
            "cold_seconds": {pf: held.entry_meta(pf)["fom_seconds"]
                             for pf in refs},
            "weights": {n: train.weights(n) for n in train.field_names()}}
