"""Command-line front end.

Commands: mesh generation, single solver runs, parameter sweeps, ROM
training and evaluation, clinical-table validation, and report emission.
Exit codes: 0 success, 1 runtime/numerical failure, 2 usage or schema
error.

The mesh, case-file and solver modules, and with them scipy, are
imported inside the commands that solve or mesh (``mesh``, ``fom-run``,
``sweep``): ``rom-train``, ``rom-eval``, ``report`` and ``validate`` run
on numpy alone.

Environment: HEMOFLOW_LOG sets the log level. BLAS runs on one thread
unless the environment says otherwise (``hemoflow/__init__.py``).
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
import time

import numpy as np

from . import indicators, podi, pump, refdata, units, windkessel
from .errors import (DegenerateInputError, HemoflowError, SchemaError,
                     SolverFailure)
from .indicators import TimeSeries, pas_pad_pam, volume_avg_pressure, wall_shear_stress
from .snapshots import SnapshotDB, SweepPlan, load_models, save_models

log = logging.getLogger("hemoflow")


def _outdir(args, default="."):
    d = getattr(args, "out_dir", None) or default
    os.makedirs(d, exist_ok=True)
    return d


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.15g}" if isinstance(v, float) else v for v in row])


# -- mesh -----------------------------------------------------------------------

def cmd_mesh(args):
    from .mesh import (generate_bifurcation_mesh, generate_channel_mesh,
                       generate_pipe_mesh, mesh_quality, write_mesh,
                       write_vtk)
    if args.shape == "pipe":
        mesh = generate_pipe_mesh(args.length, args.diameter,
                                  axial_cells=args.axial,
                                  radial_cells=args.radial)
    elif args.shape == "channel":
        mesh = generate_channel_mesh(args.length, args.height,
                                     nx=args.axial, ny=args.radial)
    else:
        mesh = generate_bifurcation_mesh(args.length, args.diameter,
                                         args.branch_diameter,
                                         args.branch_angle,
                                         resolution=args.resolution)
    write_mesh(mesh, args.out)
    if args.vtk:
        write_vtk(mesh, args.vtk)
    print(mesh_quality(mesh))
    print(f"wrote {args.out}")
    return 0


# -- single run -------------------------------------------------------------------

def _run_case(case, mesh, bcs, observer=None):
    """Solve ``case`` on ``mesh`` with ``bcs`` from a cold start: (solver,
    final state)."""
    from .fv import InflowBC, PisoSolver
    solver = PisoSolver(mesh, bcs, case.fluid, case.solver)
    u0 = None
    if case.from_inflow:
        # start from a uniform velocity matched to the direction of the
        # case's one inflow
        name, vbc = next((n, v) for n, (v, _) in bcs.conditions.items()
                         if isinstance(v, InflowBC))
        u, influx = vbc.shape_velocities(mesh, mesh.patches[name])
        uf = u * (vbc.rate(0.0) / influx)
        u0 = np.tile(uf.mean(axis=0), (mesh.n_cells, 1))
    state = solver.run(solver.initialize(u=u0), observer=observer)
    return solver, state


def cmd_fom_run(args):
    from .casefile import load_case
    from .fv import InflowBC
    from .mesh import write_vtk
    case = load_case(args.case)
    mesh = case.load_mesh()
    out = _outdir(args, case.out_dir or ".")
    times, pavg = [], []
    # the cell whose centroid is nearest each probe point
    probe_cells = [int(np.argmin(np.linalg.norm(
        mesh.cell_centroid - np.asarray(xy), axis=1))) for xy in case.probes]
    probe_rows = []

    def observer(st):
        times.append(st.time)
        pavg.append(volume_avg_pressure(st.p, st.mesh))
        if probe_cells:
            row = [st.time]
            for c in probe_cells:
                row.append(st.p[c])
                row.extend(st.u[c])
            probe_rows.append(row)

    t0 = time.perf_counter()
    solver, state = _run_case(case, mesh, case.bcs, observer=observer)
    elapsed = time.perf_counter() - t0

    cell_data = {"p": state.p}
    for i, ax in enumerate("xyz"[:mesh.dim]):
        cell_data[f"u_{ax}"] = state.u[:, i]
    write_vtk(mesh, os.path.join(out, "fields.vtk"), cell_data)
    _write_csv(os.path.join(out, "p_avg.csv"), ["t_s", "p_avg_pa"],
               list(zip(times, pavg)))
    if probe_rows:
        hdr = ["t_s"]
        for i in range(len(case.probes)):
            hdr += [f"p{i}_pa"] + [f"u{i}_{ax}" for ax in "xyz"[:mesh.dim]]
        _write_csv(os.path.join(out, "probes.csv"), hdr, probe_rows)

    # a pulsatile inflow's report covers the last (longest) cardiac period
    periods = [v.period_s for v, _ in case.bcs.conditions.values()
               if isinstance(v, InflowBC) and v.period_s is not None]
    series = TimeSeries(np.asarray(times), np.asarray(pavg))
    pas, pad, pam = pas_pad_pam(series, max(periods, default=None))
    tol = case.solver.steady_tol
    lines = [f"time integrated: {state.time:.6g} s  (wall {elapsed:.1f} s)",
             "steady_tol: none set" if tol is None else
             f"steady_tol {tol:g} {'met' if state.converged else 'NOT met'} "
             f"after {state.steps} steps",
             f"PAS = {pas/units.MMHG_TO_PA:.2f} mmHg",
             f"PAD = {pad/units.MMHG_TO_PA:.2f} mmHg",
             f"PAM = {pam/units.MMHG_TO_PA:.2f} mmHg"]
    if abs(pas - pad) < 1e-9 * max(abs(pam), 1.0):
        lines.append("steady solution: PAM = PAD = PAS")
    report = "\n".join(lines)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(report + "\n")
    print(report)
    return 0


# -- sweep ------------------------------------------------------------------------

def _snapshot(mesh, fluid, state):
    """{field name: (values, quadrature weights)} stored per sweep point:
    p, |WSS| on the wall patches and the velocity parts; p and velocity
    are weighted by cell volume, |WSS| by wall face area."""
    vol = mesh.cell_volume
    snap = {"p": (state.p, vol)}
    walls = [(n, p) for n, p in mesh.patches.items() if p.kind == "wall"]
    if walls:
        snap["wss"] = (
            np.concatenate([wall_shear_stress(state, mesh, fluid, n).magnitude()
                            for n, _ in walls]),
            np.concatenate([mesh.face_area_mag[p.face_ids] for _, p in walls]))
    for i, ax in enumerate("xyz"[:mesh.dim]):
        snap[f"u_{ax}"] = (state.u[:, i], vol)
    return snap


def _sweep_point(case, mesh, pf):
    """Cold-start solve at inflow ``pf`` l/min: (snapshot, wall seconds).
    SolverFailure when the run stops without meeting ``steady_tol``."""
    from .casefile import with_inflow
    t0 = time.perf_counter()
    solver, state = _run_case(case, mesh, with_inflow(case.bcs, pf))
    elapsed = time.perf_counter() - t0
    if state.converged is False:
        raise SolverFailure(
            f"PF={pf:g} l/min: steady_tol {case.solver.steady_tol:g} not met "
            f"at t={state.time:.6g} s after {state.steps} steps")
    return _snapshot(mesh, solver.fluid, state), elapsed


def cmd_sweep(args):
    from .casefile import load_case
    plan = SweepPlan(args.lo, args.hi, args.count, delta_p=args.delta_p)
    db = SnapshotDB(args.out)
    # every point's pump speed comes before the first solve, so that a head
    # the pump cannot give at some point fails the sweep before any solve
    model = pump.reference_model()
    omegas = {pf: pump.pump_speed_for(model, pf, plan.delta_p)
              for pf in plan.params() if not db.has_entry(pf)}
    skipped = plan.count - len(omegas)
    if skipped:
        log.info("resuming sweep: %d entries already complete", skipped)
    if omegas:
        case = load_case(args.case)
        mesh = case.load_mesh()
    for pf, omega in omegas.items():
        snap, elapsed = _sweep_point(case, mesh, pf)
        # weights first, so that a stored entry has them all even when the
        # sweep is killed between the two
        for name, (_, weights) in snap.items():
            if name not in db.manifest["weights"]:
                db.set_weights(name, weights)
        # each entry is stored as soon as its point is solved
        db.add_entry(pf, {n: v for n, (v, _) in snap.items()},
                     omega_rpm=omega, fom_seconds=elapsed)
        log.info("PF=%.3f l/min  omega=%.0f rpm  %.1f s", pf, omega, elapsed)
    print(f"snapshot database: {args.out} ({db.params().size} entries)")
    return 0


# -- ROM --------------------------------------------------------------------------

def cmd_rom_train(args):
    db = SnapshotDB.open(args.db)
    if not db.params().size:
        raise DegenerateInputError(f"{args.db}: empty snapshot database")
    models = {}
    for name in db.field_names():
        S, params = db.load_matrix(name)
        ss = podi.SnapshotSet(S, params, field_name=name,
                              weight=db.weights(name))
        models[name] = podi.train(ss, args.threshold, args.kind)
        k = models[name].basis.k
        log.info("field %-6s: %d/%d modes retained", name, k, params.size)
        print(f"{name}: retained {k} of {params.size} modes")
    save_models(args.out, models,
                meta={"threshold": args.threshold, "kind": args.kind,
                      "db": os.path.abspath(args.db)})
    print(f"wrote {args.out}")
    return 0


def _energy_rows(models):
    """(field, modes, cumulative energy) rows of each model's spectrum, in
    the order of ``models``."""
    return [(name, i + 1, float(e)) for name, m in models.items()
            for i, e in enumerate(podi.cumulative_energy(
                m.basis.singular_values))]


def cmd_rom_eval(args):
    db = SnapshotDB.open(args.db) if args.db else None
    models, meta = load_models(args.model)
    params = args.params
    out = _outdir(args)

    t0 = time.perf_counter()
    predictions = {pi: {name: m.predict(pi, args.allow_extrapolation)
                        for name, m in models.items()}
                   for pi in params}
    rom_seconds = (time.perf_counter() - t0) / len(params)

    for pi, fields in predictions.items():
        for name, values in fields.items():
            _write_csv(os.path.join(out, f"rom_{name}_{pi:g}.csv"),
                       [name], [(float(v),) for v in values])

    lines = [f"ROM evaluation: {rom_seconds:.4g} s per parameter point"]
    if db is not None:
        fom = {}
        for pi in params:
            for name in models:
                fom[(name, pi)] = db.load_field(pi, name)
        weights = {n: db.weights(n) for n in models}
        table = podi.evaluate_rom(models, fom, params, weights)
        txt = podi.format_error_table(table, field_order=sorted(models))
        print(txt)
        rows = [(pi, name, table[pi][name]) for pi in params
                for name in sorted(models)]
        _write_csv(os.path.join(out, "rom_errors.csv"),
                   ["parameter", "field", "E_percent"], rows)
        fom_secs = [db.entry_meta(p).get("fom_seconds")
                    for p in db.params()]
        fom_secs = [s for s in fom_secs if s]
        if fom_secs:
            speedup = float(np.mean(fom_secs)) / max(rom_seconds, 1e-12)
            lines.append(f"FOM solve: {np.mean(fom_secs):.4g} s average; "
                         f"speed-up {speedup:.0f}x")
    report = "\n".join(lines)
    with open(os.path.join(out, "timing.txt"), "w") as fh:
        fh.write(report + "\n")
    print(report)
    return 0


# -- validation report --------------------------------------------------------------

def _pct(a, b):
    return 100.0 * abs(a / b - 1.0)


def cmd_validate(args):
    tol = args.tolerance
    bad = 0
    rows = []

    pre = refdata.PRE_RECORD
    T = windkessel.cardiac_period(pre.SV, pre.CO)
    rows.append(("cardiac period T [s]", refdata.PUBLISHED_PERIOD, T))
    C = windkessel.total_compliance(pre.PAS, pre.PAD, pre.SV)
    rows.append(("total compliance C [cm^5/dyn]",
                 refdata.PUBLISHED_COMPLIANCE, C))
    recs = {"pre": pre, **refdata.POST_RECORDS}
    for key, rec in recs.items():
        rows.append((f"RVS {key} [dyn s/cm^5]", refdata.PUBLISHED_RVS[key],
                     windkessel.systemic_resistance(rec)))

    model = pump.reference_model()
    for key, rec in refdata.POST_RECORDS.items():
        rows.append((f"pump head {key} [mmHg]",
                     refdata.PUBLISHED_PUMP_HEADS[key],
                     pump.pump_delta_p(model, rec.omega, rec.PF)))

    props = indicators.FluidProperties()
    A_oc = refdata.INLET_AREAS["outflow_cannula"] * 1e-4
    for key, rec in refdata.POST_RECORDS.items():
        rows.append((f"inlet Re {key}", refdata.PUBLISHED_REYNOLDS[key],
                     indicators.reynolds_inlet(units.lmin_to_m3s(rec.PF),
                                               A_oc, props)))

    for key, rec in recs.items():
        # the post-surgery records carry no PAS/PAD/SV; the pre-surgery
        # total compliance is reused for them
        est = windkessel.estimate_outlet_set(
            rec, refdata.OUTLETS, total_C=None if key == "pre" else C)
        published = (refdata.PUBLISHED_PRE_COEFFICIENTS if key == "pre"
                     else refdata.PUBLISHED_POST_COEFFICIENTS[key])
        for o in est:
            ref = published[o.name]
            rows.append((f"{key} {o.name} R_p", ref[0], o.R_p))
            rows.append((f"{key} {o.name} R_d", ref[1], o.R_d))
            if key == "pre":
                rows.append((f"{key} {o.name} C", ref[2], o.C))

    print(f"{'quantity':<42s} {'published':>12s} {'computed':>12s} {'dev%':>7s}")
    for label, ref, got in rows:
        dev = _pct(got, ref)
        flag = "" if dev <= tol else "  *"
        if dev > tol:
            bad += 1
        print(f"{label:<42s} {ref:12.6g} {got:12.6g} {dev:7.2f}{flag}")
    print(f"\n{len(rows)} checks, {bad} outside {tol:.1f}% (marked *)")
    return 0 if (bad == 0 or not args.strict) else 1


# -- report -----------------------------------------------------------------------

def cmd_report(args):
    db = SnapshotDB.open(args.db) if args.db else None
    out = _outdir(args)
    lines = []
    if db is not None:
        params = db.params()
        lines.append(f"snapshot database {args.db}: {params.size} entries, "
                     f"fields {db.field_names()}")
        rows = [(p, db.entry_meta(p).get("omega_rpm", float("nan")),
                 db.entry_meta(p).get("fom_seconds", float("nan")))
                for p in params]
        _write_csv(os.path.join(out, "sweep_summary.csv"),
                   ["parameter", "omega_rpm", "fom_seconds"], rows)
    if args.model:
        models, meta = load_models(args.model)
        lines.append(f"model {args.model}: trained with {meta}")
        models = dict(sorted(models.items()))
        for name, m in models.items():
            lines.append(f"  {name}: k={m.basis.k}, "
                         f"energy={m.basis.energy_fraction:.6f}, "
                         f"box={m.param_box}")
        _write_csv(os.path.join(out, "energy.csv"),
                   ["field", "modes", "cumulative_energy"], _energy_rows(models))
    report = "\n".join(lines) if lines else "nothing to report (give --db/--model)"
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(report + "\n")
    print(report)
    return 0


# -- parser -----------------------------------------------------------------------

def _resolution(text):
    return int(text) if text.isdigit() else text


def _params(text):
    """The numbers of a comma-separated list, at least one."""
    try:
        params = [float(s) for s in text.split(",") if s]
    except ValueError:
        params = []
    if not params:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of numbers")
    return params


def _ranged(kind, ok, what):
    """An argparse type: ``kind`` of the text, a usage error unless ``ok``
    accepts it."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    parse.__name__ = kind.__name__   # argparse names it in "invalid ..."
    return parse


def build_parser():
    p = argparse.ArgumentParser(prog="hemoflow",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="generate a test geometry mesh")
    pm.add_argument("shape", choices=["pipe", "channel", "bifurcation"])
    pm.add_argument("--length", type=float, default=0.1)
    pm.add_argument("--diameter", type=float, default=0.02)
    pm.add_argument("--height", type=float, default=0.01)
    pm.add_argument("--branch-diameter", type=float, default=0.012)
    pm.add_argument("--branch-angle", type=float, default=60.0)
    pm.add_argument("--resolution", type=_resolution, default="medium",
                    help="cells across the trunk, or coarse/medium/fine")
    pm.add_argument("--axial", type=int, default=30)
    pm.add_argument("--radial", type=int, default=10)
    pm.add_argument("--out", required=True)
    pm.add_argument("--vtk")
    pm.set_defaults(func=cmd_mesh)

    pf = sub.add_parser("fom-run", help="run one transient/steady case")
    pf.add_argument("case")
    pf.add_argument("--out-dir")
    pf.set_defaults(func=cmd_fom_run)

    ps = sub.add_parser("sweep", help="run a parameter sweep into a snapshot db")
    ps.add_argument("case")
    finite = _ranged(float, math.isfinite, "a finite number")
    ps.add_argument("--lo", type=finite, required=True)
    ps.add_argument("--hi", type=finite, required=True)
    ps.add_argument("--count", required=True,
                    type=_ranged(int, lambda n: n >= 2, "at least 2"))
    ps.add_argument("--delta-p", type=finite, default=75.0)
    # sweeps run serially; the flag stays only for callers that still pass
    # "--workers 1" and goes with the next change to the benchmark
    ps.add_argument("--workers", type=int, choices=[1])
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_sweep)

    pt = sub.add_parser("rom-train", help="train reduced models from a sweep")
    pt.add_argument("db")
    pt.add_argument("--threshold", default=0.999, type=_ranged(
        float, lambda x: 0.0 < x <= 1.0, "in (0, 1]"))
    pt.add_argument("--kind", choices=list(podi.INTERPOLATION_KINDS),
                    default="linear")
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_rom_train)

    pe = sub.add_parser("rom-eval", help="evaluate a trained model")
    pe.add_argument("model")
    pe.add_argument("--params", required=True, type=_params,
                    help="comma-separated parameter values")
    pe.add_argument("--db", help="snapshot db with reference solutions")
    pe.add_argument("--allow-extrapolation", action="store_true")
    pe.add_argument("--out-dir")
    pe.set_defaults(func=cmd_rom_eval)

    pv = sub.add_parser("validate",
                        help="reproduce the published clinical tables")
    pv.add_argument("--tolerance", default=2.0, type=_ranged(
        float, lambda x: x >= 0.0, "at least 0"))
    pv.add_argument("--strict", action="store_true",
                    help="exit 1 when any check exceeds the tolerance")
    pv.set_defaults(func=cmd_validate)

    pr = sub.add_parser("report", help="summarize a sweep and/or model")
    pr.add_argument("--db")
    pr.add_argument("--model")
    pr.add_argument("--out-dir")
    pr.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("HEMOFLOW_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and not args.lo < args.hi:
        parser.error(f"sweep: --lo {args.lo:g} is not below --hi {args.hi:g}")
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e.filename}: no such file", file=sys.stderr)
        return 2
    except HemoflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
