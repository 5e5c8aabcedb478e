"""The two benchmark workloads.

``bif_sweep`` is the paper's offline/online chain on the 452-cell planar
bifurcation with an RCR outlet: the mesh is small and each point takes
hundreds of PISO steps, so the pressure solve, per-step Python overhead,
the Windkessel update, snapshot I/O and PODI do the work and the mesh
layer does almost none.

``pipe_medium`` is the 8000-cell 3D pipe at Re ~ 500: 3D polygonal faces
and ~30 heavy steps put the work in mesh geometry and the momentum
ILU-BiCGStab, and it bypasses the Windkessel, snapshot and podi modules.
Its pressure system is also on the other side of any size-based choice
between direct and iterative solvers from the bifurcation's.

Both reach hemoflow only through public entry points, looked up at call
time so that the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.sparse

import hemoflow.cli
import hemoflow.fv
import hemoflow.indicators
import hemoflow.mesh
import hemoflow.snapshots
from hemoflow.errors import HemoflowError

# The bifurcation's set-up (~40 ms) runs this many times before the timed
# phase and as many after it, and the median is reported: on a shared host
# CPU speed can change over seconds, so set-ups in one burst would all see
# one speed. The pipe's set-up (a 10-17 s mesh build at the seed) runs once.
SETUP_REPEATS = 12

# fom_step_rel divides each PISO step's time by that of a fixed reference
# kernel timed right after it. Each core of a shared host switches between
# a fast and a ~1.6x slower speed every few seconds, so step times, their
# percentiles and run totals spread by up to 40% from run to run, while
# the ratio of neighbours stays within a few per cent.
REF_N = 4096
REF_A = scipy.sparse.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-64, -1, 0, 1, 64],
                           shape=(REF_N, REF_N), format="csr")
REF_X = np.linspace(0.0, 1.0, REF_N)
REF_SWEEPS = 20
REF_LOOP = 3000

# Answer gate: acceptance criteria 4 (pipe oracle) and 7 (ROM error).
ORACLE_LIMIT_PCT = 5.0
ROM_LIMIT_PCT = 15.0
# Final field norms must match the committed reference this closely.
FINGERPRINT_RTOL = 1e-6

# -- bif_sweep: the bif_sweep fixture's reference case ------------------------
BIF_GEOMETRY = (0.024, 0.004, 0.002, 45.0)   # trunk L, D, branch D, angle
BIF_RESOLUTION = 8
BIF_FLUID = {"rho": 1060.0, "mu": 3e-4}
BIF_SOLVER = {"dt": 0.01, "t_end": 20.0, "steady_tol": 5e-5, "n_nonorth": 2,
              "convection_scheme": "upwind", "lin_tol": 1e-7,
              "continuity_tol": 1e-6, "cfl_max": 1e9, "cfl_action": "warn"}
RCR = {"R_p": 4.8, "R_d": 43.2, "C": 1.2e-3}
# the outlet starts at the steady proximal pressure R_d*Q of the mid-range
# flow, 4 l/min (Q in cm^3/s, pressure in dyn/cm^2 -> mmHg)
RCR_P0_MMHG = RCR["R_d"] * (4.0 / 60.0 * 1e3) / 1333.22
TRAIN = (3.0, 5.0, 2)                          # lo, hi, count [l/min]
# The training sweep runs serially. At --workers 2 the same two points
# took 33, 39 and 47 s on a shared 2-core host against 21 s serially: a
# spread wider than the wall_s bound, at up to twice the run time.
TRAIN_WORKERS = 1
# Held-out points: one drawn from each set, off the training grid and near
# the fixture's 3.45 and 4.35. Each takes 532-577 steps, so seeds differ
# little in cost; 3.35 and 4.40 are left out because they take 567 and 656.
HELD_OUT_LO = (3.40, 3.45, 3.50, 3.55)
HELD_OUT_HI = (4.25, 4.30, 4.35, 4.45)
ROM_FIELDS = ("p", "u_x", "u_y", "wss")
QUERY_POOL = 4096

# -- pipe_medium: the "medium" run of the pipe_runs fixture --------------------
PIPE_D = 0.02
PIPE_CELLS = (20, 10, 40)                      # axial, radial, n_theta
PIPE_RE = (490.0, 495.0, 500.0, 505.0, 510.0)
PIPE_FLUID = {"rho": 1060.0, "mu": 0.004}
PIPE_SOLVER = {"dt": 0.01, "t_end": 50.0, "steady_tol": 5e-4,
               "convection_scheme": "upwind", "lin_tol": 1e-6,
               "continuity_tol": 2e-5, "cfl_max": 1e9, "cfl_action": "warn"}


class Run:
    """One workload run: inputs, work directory, optional tracer, and the
    tally of attempted and failed operations."""

    def __init__(self, work, rng, seconds, tracer=None):
        self.work = Path(work)
        self.rng = rng
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def setup_times(fn):
    """Run ``fn`` SETUP_REPEATS times; its last result and the times."""
    times = []
    for _ in range(SETUP_REPEATS):
        out, sec = timed(fn)
        times.append(sec)
    return out, times


def reference_kernel():
    """Time in ms of REF_SWEEPS sparse mat-vecs and REF_LOOP Python adds,
    about 1 ms of the same kinds of work as a PISO step."""
    t0 = time.perf_counter()
    x = REF_X
    for _ in range(REF_SWEEPS):
        x = REF_A @ x
        x = x / (1.0 + abs(x[0]))
    s = 0.0
    for i in range(REF_LOOP):
        s += i * 0.5
    return 1e3 * (time.perf_counter() - t0)


@contextlib.contextmanager
def step_clock(step_ms, ref_ms=None):
    """Append the wall time in ms of every ``PisoSolver.step`` call to
    ``step_ms`` while the block runs and, if ``ref_ms`` is a list, the time
    of ``reference_kernel`` run right after each step on the same core."""
    cls = hemoflow.fv.PisoSolver
    step = cls.__dict__["step"]

    def timed_step(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            step_ms.append(1e3 * (time.perf_counter() - t0))
            if ref_ms is not None:
                ref_ms.append(reference_kernel())
    cls.step = timed_step
    try:
        yield
    finally:
        cls.step = step


def closed_loop(run, query, inputs):
    """One client sends the next query when the last one returned, for
    ``run.seconds``. Returns the latencies in ms."""
    lat = []
    deadline = time.perf_counter() + run.seconds
    i = 0
    while True:
        x = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        try:
            ok = query(x)
        except HemoflowError as e:
            ok = False
            x = f"{x}: {e}"
        t1 = time.perf_counter()
        lat.append(1e3 * (t1 - t0))
        run.check(ok, f"query {x}")
        i += 1
        if t1 >= deadline:
            return lat


def close(a, b, rtol=FINGERPRINT_RTOL):
    return abs(a - b) <= rtol * abs(b)


def check_norms(run, label, p_norm, u_norm, ref):
    if ref is None:
        return run.check(False, f"{label}: no committed reference")
    return run.check(close(p_norm, ref["p_norm"]) and
                     close(u_norm, ref["u_norm"]),
                     f"{label}: |p| {p_norm:.12g} |u| {u_norm:.12g} vs "
                     f"reference {ref['p_norm']:.12g} {ref['u_norm']:.12g}")


# -- bif_sweep ---------------------------------------------------------------------

def bif_key(pf):
    return f"{pf:.2f}"


def bif_setup(work):
    """Mesh through the hemoflow.mesh API (``hemoflow mesh`` rejects
    ``--resolution 8``), native write, and the case file."""
    work = Path(work)
    mesh = hemoflow.mesh.generate_bifurcation_mesh(
        *BIF_GEOMETRY, resolution=BIF_RESOLUTION)
    hemoflow.mesh.write_mesh(mesh, str(work / "bif.hfm"))
    case = {
        "schema": "hemoflow-case/1",
        "mesh": "bif.hfm",
        "fluid": BIF_FLUID,
        "boundary": {
            "inlet": {"velocity": {"type": "inflow", "flow_lmin": 4.0,
                                   "profile": "plug"},
                      "pressure": {"type": "zero-gradient"}},
            "wall": {"velocity": {"type": "no-slip"},
                     "pressure": {"type": "zero-gradient"}},
            "outlet": {"velocity": {"type": "zero-gradient"},
                       "pressure": {"type": "windkessel", **RCR,
                                    "p0_mmhg": RCR_P0_MMHG}},
        },
        "solver": BIF_SOLVER,
        "initial": {"from_inflow": True},
    }
    path = work / "case.json"
    path.write_text(json.dumps(case, indent=1))
    return path


def cli(run, *argv):
    """One ``hemoflow`` command; its stdout goes to cli.log. A non-zero exit
    or an exception is a failed operation."""
    argv = [str(a) for a in argv]
    with open(run.work / "cli.log", "a") as log, \
            contextlib.redirect_stdout(log):
        try:
            rc = run.call(f"cli.{argv[0]}", hemoflow.cli.main, argv)
        except Exception:   # a crash is counted and the chain goes on
            traceback.print_exc(file=log)
            rc = "exception"
    return run.check(rc == 0, f"hemoflow {' '.join(argv)} exited {rc}")


def sweep(run, case, lo, hi, count, workers, out):
    return cli(run, "sweep", case, "--lo", lo, "--hi", hi, "--count", count,
               "--workers", workers, "--out", out)


def db_norms(db_path):
    """{PF: (|p|, |u|)} of every entry, read back through the checksums."""
    db = hemoflow.snapshots.SnapshotDB(str(db_path))
    out = {}
    for pf in db.params():
        p = db.load_field(pf, "p")
        u2 = sum(float(np.dot(v, v)) for v in
                 (db.load_field(pf, "u_x"), db.load_field(pf, "u_y")))
        out[float(pf)] = (float(np.linalg.norm(p)), math.sqrt(u2))
    return out


def check_db(run, db_path, expected_params, reference):
    try:
        norms = db_norms(db_path)
    except (HemoflowError, OSError) as e:
        run.check(False, f"{db_path}: {e}")
        return
    run.check(sorted(bif_key(p) for p in norms) ==
              sorted(bif_key(p) for p in expected_params),
              f"{db_path}: entries {sorted(norms)}")
    for pf, (pn, un) in norms.items():
        check_norms(run, f"PF={pf:g}", pn, un,
                    reference["points"].get(bif_key(pf)))


def rom_errors(path):
    with open(path, newline="") as fh:
        return [(float(r["parameter"]), r["field"], float(r["E_percent"]))
                for r in csv.DictReader(fh)]


def bif_inputs(rng):
    held = (rng.choice(HELD_OUT_LO), rng.choice(HELD_OUT_HI))
    queries = [rng.uniform(TRAIN[0], TRAIN[1]) for _ in range(QUERY_POOL)]
    return held, queries


def bif_sweep(run, reference):
    held, queries = bif_inputs(run.rng)
    case, setup_before = setup_times(lambda: bif_setup(run.work))
    train_db, held_db = run.work / "train_db", run.work / "held_db"
    model, eval_dir = run.work / "model.npz", run.work / "eval"

    step_ms, ref_ms = [], None if run.tracer else []
    t0 = time.perf_counter()
    with step_clock(step_ms, ref_ms):
        _, train_s = timed(sweep, run, case, *TRAIN, TRAIN_WORKERS, train_db)
        _, held_s = timed(sweep, run, case, held[0], held[1], 2, 1, held_db)
    cli(run, "rom-train", train_db, "--out", model)
    evaluated = cli(run, "rom-eval", model, "--params",
                    f"{held[0]!r},{held[1]!r}", "--db", held_db,
                    "--out-dir", eval_dir)
    wall_s = time.perf_counter() - t0

    check_db(run, train_db, np.linspace(*TRAIN), reference)
    check_db(run, held_db, held, reference)
    rom_err = float("nan")
    if evaluated:
        rows = rom_errors(eval_dir / "rom_errors.csv")
        run.check(len(rows) == len(held) * len(ROM_FIELDS),
                  f"rom-eval reported {len(rows)} errors")
        rom_err = max(e for _, _, e in rows)
        run.check(rom_err <= ROM_LIMIT_PCT,
                  f"ROM error {rom_err:.3f}% exceeds {ROM_LIMIT_PCT}%")

    latencies = []
    if run.check(model.exists(), "no model file"):
        models, _ = hemoflow.snapshots.load_models(str(model))
        run.check(sorted(models) == sorted(ROM_FIELDS),
                  f"model fields {sorted(models)}")

        def query(pf):
            return all(np.isfinite(m.predict(pf)).all()
                       for m in models.values())
        latencies = closed_loop(run, query, queries)
    _, setup_after = setup_times(lambda: bif_setup(run.work))

    # all four points are serial cold solves; timing all of them halves
    # the effect of the host's speed swings against the held-out two alone
    fom_solve_s = (train_s + held_s) / (TRAIN[2] + len(held))
    n_train = TRAIN[2]
    expected = [reference["points"].get(bif_key(pf), {})
                for pf in (*np.linspace(*TRAIN), *held)]
    return {
        "inputs": {"held_out_pf": list(held), "query_pool": QUERY_POOL},
        "query_name": "rom_query",
        "setup_s": statistics.median(setup_before + setup_after),
        "wall_s": wall_s,
        "fom_solve_s": fom_solve_s,
        "latencies_ms": latencies,
        "step_ms": step_ms,
        "ref_ms": ref_ms,
        "sweep_points_per_min": 60.0 * n_train / train_s,
        "sweep_speedup": n_train * fom_solve_s / train_s,
        "rom_err_pct_max": rom_err,
        "expected_counts": _expected_counts(expected),
    }


# -- pipe_medium -------------------------------------------------------------------

def pipe_key(re):
    return f"{re:g}"


def pipe_setup(work):
    axial, radial, n_theta = PIPE_CELLS
    mesh = hemoflow.mesh.generate_pipe_mesh(PIPE_D, PIPE_D, axial, radial,
                                            n_theta=n_theta)
    path = Path(work) / "pipe.hfm"
    hemoflow.mesh.write_mesh(mesh, str(path))
    return path


def pipe_flow(re):
    fluid = hemoflow.fv.FluidProperties(**PIPE_FLUID)
    u_mean = re * fluid.nu / PIPE_D
    return fluid, u_mean, u_mean * math.pi * PIPE_D ** 2 / 4.0


def pipe_solve(mesh_path, re):
    """Read the mesh and solve to steady state from the exact parabola, as
    the pipe_runs fixture does. Returns the mesh, state and wall shear."""
    fluid, u_mean, Q = pipe_flow(re)
    mesh = hemoflow.mesh.read_mesh(str(mesh_path))
    bcs = hemoflow.fv.poiseuille_bcs(mesh, Q, profile="parabolic")
    solver = hemoflow.fv.PisoSolver(mesh, bcs, fluid,
                                    hemoflow.fv.SolverConfig(**PIPE_SOLVER))
    r = np.linalg.norm(mesh.cell_centroid[:, :2], axis=1)
    u0 = np.zeros((mesh.n_cells, 3))
    u0[:, 2] = 2.0 * u_mean * (1.0 - (2.0 * r / PIPE_D) ** 2)
    state = solver.run(solver.initialize(u=u0))
    wss = hemoflow.indicators.wall_shear_stress(state, mesh, fluid, "wall")
    return mesh, state, wss


def pipe_medium(run, reference):
    re = run.rng.choice(PIPE_RE)
    path, setup_s = timed(pipe_setup, run.work)
    fluid, u_mean, _ = pipe_flow(re)

    step_ms, ref_ms = [], None if run.tracer else []
    with step_clock(step_ms, ref_ms):
        (mesh, state, wss), wall_s = timed(pipe_solve, path, re)
    run.check(True, "pipe solve")

    check_norms(run, f"Re={re:g}", float(np.linalg.norm(state.p)),
                float(np.linalg.norm(state.u)),
                reference["re"].get(pipe_key(re)))
    e_u = 100.0 * abs(state.u[:, 2].max() / (2.0 * u_mean) - 1.0)
    wss_mean = wss.area_mean()
    e_w = 100.0 * abs(wss_mean / (8.0 * fluid.mu * u_mean / PIPE_D) - 1.0)
    oracle = max(e_u, e_w)
    run.check(oracle <= ORACLE_LIMIT_PCT,
              f"Hagen-Poiseuille error {oracle:.3f}% exceeds "
              f"{ORACLE_LIMIT_PCT}%")

    def query(_):
        w = hemoflow.indicators.wall_shear_stress(state, mesh, fluid, "wall")
        return w.area_mean() == wss_mean
    latencies = closed_loop(run, query, [None])

    return {
        "inputs": {"re": re},
        "query_name": "wss_query",
        "setup_s": setup_s,
        "wall_s": wall_s,
        "fom_solve_s": wall_s,
        "latencies_ms": latencies,
        "step_ms": step_ms,
        "ref_ms": ref_ms,
        "oracle_err_pct": oracle,
        "sweep_speedup": 0.0,
        "expected_counts": _expected_counts(
            [reference["re"].get(pipe_key(re), {})]),
    }


def _expected_counts(refs):
    """Committed fv.step and fv.pressure_solve totals over the solves."""
    if not all(refs):
        return None
    return {"fv.step_calls": sum(r["steps"] for r in refs),
            "fv.pressure_solve_calls": sum(r["pressure_solves"]
                                           for r in refs)}


WORKLOADS = {"bif_sweep": bif_sweep, "pipe_medium": pipe_medium}
