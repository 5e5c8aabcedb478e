"""Rewrite reference.json, the answer fingerprint the benchmark checks.

For every input a seed can draw (each bifurcation flow rate of the
training grid and the held-out sets, each pipe Reynolds number) it records
the PISO steps and pressure solves of the solve and the final |p|_2 and
|u|_2. Run from the checkout root; it takes about five minutes::

    python3 perfbench/make_reference.py

Only a change that means to alter the solution should need a new file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import tracing


def counted(tracer, n_runs, fn, *args):
    """Call ``fn`` and return its result with the (steps, pressure solves)
    of the ``n_runs`` solver runs it made."""
    before = len(tracing.per_run_counts(tracer))
    out = fn(*args)
    counts = tracing.per_run_counts(tracer)[before:]
    if len(counts) != n_runs:
        sys.exit(f"expected {n_runs} solver runs, saw {counts}")
    return out, counts


def entry(counts, p_norm, u_norm):
    return {"steps": counts[0], "pressure_solves": counts[1],
            "p_norm": p_norm, "u_norm": u_norm}


def main():
    run.prepare()
    import numpy as np
    import workloads as w

    work = run.OUT / "work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer("reference")
    bench = w.Run(work, None, 0.0, tracer)
    tracing.install(tracer)

    points = {}
    case = w.bif_setup(work)
    pairs = [w.TRAIN[:2]] + list(zip(w.HELD_OUT_LO, w.HELD_OUT_HI))
    for i, (lo, hi) in enumerate(pairs):
        db = work / f"db{i}"
        # a serial sweep runs its points in order
        ok, counts = counted(tracer, 2, w.sweep, bench, case, lo, hi, 2, 1,
                             db)
        if not ok:
            sys.exit(f"sweep {lo}-{hi} failed: {bench.failures}")
        norms = w.db_norms(db)
        for pf, c in zip((lo, hi), counts):
            points[w.bif_key(pf)] = entry(c, *norms[pf])
        print(f"bif {lo} {hi}: {counts}", file=sys.stderr)

    res = {}
    path = w.pipe_setup(work)
    for re in w.PIPE_RE:
        (mesh, state, _), counts = counted(tracer, 1, w.pipe_solve, path, re)
        res[w.pipe_key(re)] = entry(counts[0], float(np.linalg.norm(state.p)),
                                    float(np.linalg.norm(state.u)))
        print(f"pipe Re {re:g}: {counts}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)

    ref = {"bif_sweep": {"points": points}, "pipe_medium": {"re": res}}
    (run.BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
