"""Spans and counters recorded from outside hemoflow, for the traced run.

``install`` replaces the public functions of each hemoflow module with
wrappers that record a span (name, start, end, parent, run id) per call,
and counts at the same boundaries. Nothing is patched unless ``install``
is called, so the untraced run executes hemoflow unchanged. Spans stay in
memory until ``Tracer.write``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter

from stats import percentile, self_time

# Span names, grouped into the per-layer metrics they feed.
SNAPSHOT_READS = ("snapshots.load_field", "snapshots.load_matrix",
                  "snapshots.weights")
SNAPSHOT_WRITES = ("snapshots.add_entry", "snapshots.set_weights")
MODEL_IO = ("snapshots.save_models", "snapshots.load_models")
CHECKS = ("fv.continuity_error", "fv.cfl")


class Tracer:
    """In-memory span and counter store, safe to use from sweep threads."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []            # (id, name, start, end, parent id)
        self.counts = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent))

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def write(self, path):
        """Write one JSON object per span (times relative to the first)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, name, start, end, parent in sorted(self.spans,
                                                        key=lambda s: s[2]):
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "name": name, "parent": parent,
                                     "start_s": start - t0,
                                     "end_s": end - t0}) + "\n")


def _replace_everywhere(old, new):
    """Rebind every hemoflow module global that refers to ``old``."""
    undo = []
    for mod in list(sys.modules.values()):
        if mod is None or not mod.__name__.startswith("hemoflow"):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
                undo.append((mod, key, old))
    return undo


def _spanned(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(result, args)
        return result
    return wrapper


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``hemoflow.fv.linsolve``
    to count Krylov iterations, converged solves and factorizations."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def _krylov(self, solver, prefix, A, b, **kwargs):
        iters = [0]
        user_cb = kwargs.pop("callback", None)

        def callback(xk):
            iters[0] += 1
            if user_cb is not None:
                user_cb(xk)

        x, info = solver(A, b, callback=callback, **kwargs)
        self._tracer.count(f"{prefix}_iters", iters[0])
        self._tracer.count(f"{prefix}_attempts")
        if info == 0:
            self._tracer.count(f"{prefix}_converged")
        return x, info

    def cg(self, A, b, **kwargs):
        return self._krylov(self._spla.cg, "cg", A, b, **kwargs)

    def bicgstab(self, A, b, **kwargs):
        return self._krylov(self._spla.bicgstab, "bicgstab", A, b, **kwargs)

    def splu(self, *args, **kwargs):
        self._tracer.count("factorizations")
        return self._spla.splu(*args, **kwargs)

    def spilu(self, *args, **kwargs):
        self._tracer.count("factorizations")
        return self._spla.spilu(*args, **kwargs)


def install(tracer):
    """Wrap hemoflow's public functions; returns a callable that undoes it."""
    import hemoflow.casefile
    import hemoflow.cli
    import hemoflow.fv.linsolve as linsolve
    import hemoflow.fv.piso as piso
    import hemoflow.indicators
    import hemoflow.mesh as mesh
    import hemoflow.podi
    import hemoflow.snapshots as snapshots

    undo = []

    def patch_function(owner, attr, name, after=None):
        old = getattr(owner, attr)
        undo.extend(_replace_everywhere(old, _spanned(tracer, name, old,
                                                      after)))

    def patch_method(cls, attr, name, after=None):
        old = cls.__dict__[attr]
        setattr(cls, attr, _spanned(tracer, name, old, after))
        undo.append((cls, attr, old))

    def file_bytes(path):
        return os.path.getsize(path) if os.path.exists(path) else 0

    def entry_written(_, args):
        db, param = args[0], args[1]
        tracer.count("snapshot_bytes_written", sum(
            file_bytes(os.path.join(db.root, rec["file"]))
            for e in db.manifest["entries"] if e["param"] == float(param)
            for rec in e["fields"].values()))

    def weights_written(_, args):
        db, name = args[0], args[1]
        rec = db.manifest["weights"][name]
        tracer.count("snapshot_bytes_written",
                     file_bytes(os.path.join(db.root, rec["file"])))

    def field_read(values, _):
        if values is not None:
            tracer.count("snapshot_bytes_read", values.nbytes)

    for attr in ("generate_box_mesh", "generate_channel_mesh",
                 "generate_pipe_mesh", "generate_bifurcation_mesh"):
        patch_function(mesh, attr, "mesh.generate")
    patch_function(mesh, "write_mesh", "mesh.write")
    patch_function(mesh, "read_mesh", "mesh.read")
    patch_method(mesh.Mesh, "__init__", "mesh.construct")
    patch_function(hemoflow.casefile, "load_case", "casefile.load")

    patch_method(piso.PisoSolver, "run", "fv.run")
    patch_method(piso.PisoSolver, "step", "fv.step")
    patch_method(piso.PisoSolver, "advance_windkessel", "windkessel.advance")
    patch_method(piso.FlowState, "continuity_error", "fv.continuity_error")
    patch_method(piso.FlowState, "cfl", "fv.cfl")
    for attr in ("boundary_values_from_patches", "convective_term",
                 "diffusion_term", "face_interpolate", "gauss_gradient",
                 "gradient_term"):
        old = getattr(piso, attr)
        setattr(piso, attr, _spanned(tracer, "fv.operators", old))
        undo.append((piso, attr, old))
    patch_function(linsolve, "solve_cg", "fv.pressure_solve")
    patch_function(linsolve, "solve_bicgstab", "fv.momentum_solve")
    undo.append((linsolve, "spla", linsolve.spla))
    linsolve.spla = _LinalgProxy(linsolve.spla, tracer)

    patch_function(hemoflow.indicators, "wall_shear_stress", "indicators.wss")

    db = snapshots.SnapshotDB
    patch_method(db, "add_entry", "snapshots.add_entry", entry_written)
    patch_method(db, "set_weights", "snapshots.set_weights", weights_written)
    patch_method(db, "load_field", "snapshots.load_field", field_read)
    patch_method(db, "weights", "snapshots.weights", field_read)
    patch_method(db, "load_matrix", "snapshots.load_matrix")
    patch_method(db, "has_entry", "snapshots.verify")
    patch_function(snapshots, "save_models", "snapshots.save_models")
    patch_function(snapshots, "load_models", "snapshots.load_models")

    patch_function(hemoflow.podi, "train", "podi.train")
    patch_method(hemoflow.podi.RomModel, "predict", "podi.predict")

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return uninstall


# -- per-layer metrics ---------------------------------------------------------

def _outermost(spans, by_id, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for s in spans:
        if s[1] not in names:
            continue
        parent = s[4]
        while parent is not None and by_id[parent][1] not in names:
            parent = by_id[parent][4]
        if parent is None:
            out.append(s)
    return out


def _calls(spans, name):
    return sum(1 for s in spans if s[1] == name)


def layer_metrics(tracer, sweep_speedup):
    """Every per-layer metric, from the recorded spans and counts.

    ``sweep_speedup`` (from the workload) is training points x serial
    per-point time / training-sweep wall time, 0 where there is no sweep.
    """
    spans, c = tracer.spans, tracer.counts
    by_id = {s[0]: s for s in spans}

    def busy(*names):
        """Summed duration of the outermost spans named in ``names``."""
        return sum(s[3] - s[2] for s in _outermost(spans, by_id, set(names)))

    steps = [s for s in spans if s[1] == "fv.step"]
    step_ms = [1e3 * (s[3] - s[2]) for s in steps]
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    step_self = sum(self_time(s[2], s[3], children.get(s[0], ()))
                    for s in steps)
    attempts = c["bicgstab_attempts"]
    return {
        "mesh.generate_s": busy("mesh.generate"),
        "mesh.write_s": busy("mesh.write"),
        "mesh.read_s": busy("mesh.read"),
        "mesh.read_calls": _calls(spans, "mesh.read"),
        "mesh.construct_s": busy("mesh.construct"),
        "casefile.load_calls": _calls(spans, "casefile.load"),
        "casefile.load_s": busy("casefile.load"),
        "fv.run_s": busy("fv.run"),
        "fv.step_calls": len(steps),
        "fv.step_ms_p50": percentile(step_ms, 50) if steps else 0.0,
        "fv.step_ms_p90": percentile(step_ms, 90) if steps else 0.0,
        "fv.step_self_s": step_self,
        "fv.pressure_solve_s": busy("fv.pressure_solve"),
        "fv.pressure_solve_calls": _calls(spans, "fv.pressure_solve"),
        "fv.cg_iters": c["cg_iters"],
        "fv.momentum_solve_s": busy("fv.momentum_solve"),
        "fv.momentum_solve_calls": _calls(spans, "fv.momentum_solve"),
        "fv.bicgstab_iters": c["bicgstab_iters"],
        "fv.factorizations": c["factorizations"],
        "fv.iterative_ok_ratio": (c["bicgstab_converged"] / attempts
                                  if attempts else 0.0),
        "fv.operators_s": busy("fv.operators"),
        "fv.checks_s": busy(*CHECKS),
        "windkessel.advance_s": busy("windkessel.advance"),
        "windkessel.advance_calls": _calls(spans, "windkessel.advance"),
        "indicators.wss_s": busy("indicators.wss"),
        "indicators.wss_calls": _calls(spans, "indicators.wss"),
        "snapshots.write_s": busy(*SNAPSHOT_WRITES),
        "snapshots.bytes_written": c["snapshot_bytes_written"],
        "snapshots.read_s": busy(*SNAPSHOT_READS),
        "snapshots.bytes_read": c["snapshot_bytes_read"],
        "snapshots.verify_s": busy("snapshots.verify"),
        "snapshots.model_io_s": busy(*MODEL_IO),
        "podi.train_s": busy("podi.train"),
        "podi.predict_calls": _calls(spans, "podi.predict"),
        "podi.predict_s": busy("podi.predict"),
        "cli.sweep_s": busy("cli.sweep"),
        "cli.rom_train_s": busy("cli.rom-train"),
        "cli.rom_eval_s": busy("cli.rom-eval"),
        "cli.sweep_speedup": sweep_speedup,
    }


def per_run_counts(tracer):
    """(fv.step calls, fv.pressure_solve calls) under each fv.run span, in
    start order."""
    by_id = {s[0]: s for s in tracer.spans}
    runs = sorted((s for s in tracer.spans if s[1] == "fv.run"),
                  key=lambda s: s[2])
    totals = {s[0]: [0, 0] for s in runs}
    for s in tracer.spans:
        if s[1] not in ("fv.step", "fv.pressure_solve"):
            continue
        parent = s[4]
        while parent is not None and parent not in totals:
            parent = by_id[parent][4]
        if parent is not None:
            totals[parent][s[1] == "fv.pressure_solve"] += 1
    return [tuple(totals[s[0]]) for s in runs]
