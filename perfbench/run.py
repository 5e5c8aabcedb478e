"""hemoflow benchmark: one workload per run, answers checked, metrics printed.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload bif_sweep --seed 1 --seconds 3 --trace 0

Workloads (see workloads.py for why each was chosen):

* ``bif_sweep``: bifurcation mesh and case file (set-up), then through
  ``hemoflow.cli.main`` a 2-point training sweep, a sweep of two held-out
  flow rates drawn from the seed, ``rom-train`` and ``rom-eval``, then a
  closed loop of seeded ROM queries.
* ``pipe_medium``: 8000-cell pipe mesh (set-up), then ``read_mesh``, the
  steady solve at a seeded Re near 500 and wall shear stress, then a closed
  loop of wall-shear queries on the solved state.

The offline chain is fixed work and always runs to completion; ``wall_s``
is its time and ``fom_step_ms`` the median time of its PISO steps.
``fom_step_rel`` is the median, over the steps, of a step's time divided
by that of a fixed reference kernel run right after it on the same core
(workloads.reference_kernel); the untraced run's ``wall_s`` and
``fom_solve_s`` include these ~1 ms runs, the traced run makes none.
``--seconds`` sets how long the closed loop
of one client runs; its rate and latencies are printed as
``rom_query_per_s``, ``rom_query_ms_p50`` and ``rom_query_ms_p99``
(``wss_query_*`` on the pipe).

Each core of a shared 2-core host runs at one of two speeds ~1.6x apart
and switches every few seconds, so times over a run (``wall_s``,
``fom_solve_s``, ``fom_step_ms``) and query latencies spread by up to 40%
from run to run, and their medians move with the host's load. They are
printed but not in BENCHMARK.json, which gates ``setup_s``,
``fom_step_rel`` and ``peak_rss_mb``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
wraps hemoflow's public functions (tracing.py), prints the per-layer
metrics, writes the spans to ``perfbench/out/spans/`` and reports the
tracing overhead: its wall_s minus the median of the untraced runs stored
in ``perfbench/out/results/`` (make some first).

Every answer is checked (CLI exit codes, ROM error, Hagen-Poiseuille
oracle, final field norms and, in the traced run, step and pressure-solve
counts against reference.json); any failure makes ``correct`` false and
the exit code 1. Each run is one process with the math libraries pinned
to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import tracing
from stats import (percentile, samples_beyond, tail_percentile,
                   valid_metric_name)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_hemoflow():
    """Put the checkout's ``src`` first on the path and import hemoflow
    from there; exits non-zero if the checkout holds no hemoflow sources."""
    src = ROOT / "src"
    if not (src / "hemoflow" / "__init__.py").is_file():
        sys.exit(f"error: no hemoflow sources under {src}")
    sys.path.insert(0, str(src))
    import hemoflow
    if Path(hemoflow.__file__).resolve().parent != src / "hemoflow":
        sys.exit(f"error: imported hemoflow from {hemoflow.__file__}")


def prepare():
    """Pin the math libraries to one thread (before numpy is imported),
    clear hemoflow's environment overrides and import it from ``src``."""
    for key in THREAD_ENV:
        os.environ[key] = "1"
    for key in ("HEMOFLOW_WORKERS", "HEMOFLOW_OUTDIR"):
        os.environ.pop(key, None)
    os.environ["HEMOFLOW_LOG"] = "WARNING"
    import_hemoflow()


def environment(seed):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{k: os.environ.get(k) for k in THREAD_ENV},
            "seed": seed}


def latency_summary(lat):
    if not lat:
        return {"n": 0}
    q = tail_percentile(len(lat))
    return {"n": len(lat), "per_s": 1e3 * len(lat) / sum(lat),
            "p50": percentile(lat, 50),
            "p99": percentile(lat, 99),
            "beyond_p99": samples_beyond(len(lat), 99),
            "tail_q": q, "tail": None if q is None else percentile(lat, q)}


def end_to_end(res, peak_rss_mb):
    """End-to-end metrics of a workload result, and its latency summary."""
    lat = latency_summary(res.pop("latencies_ms"))
    steps, refs = res.pop("step_ms"), res.pop("ref_ms")
    e2e = {k: res[k] for k in ("setup_s", "wall_s", "fom_solve_s")}
    e2e["fom_step_ms"] = statistics.median(steps) if steps else math.nan
    e2e["fom_step_rel"] = (statistics.median(s / r for s, r in zip(steps, refs))
                           if steps and refs else math.nan)
    e2e.update(query_per_s=lat.get("per_s", math.nan),
               query_ms_p50=lat.get("p50", math.nan),
               query_ms_p99=lat.get("p99", math.nan),
               peak_rss_mb=peak_rss_mb)
    return e2e, lat


def emit(spec_metrics, values):
    """Metrics dict for the result line: every metric of ``spec_metrics``,
    by name, with its unit. Raises KeyError for a missing metric and
    ValueError for a malformed name."""
    out = {}
    for m in spec_metrics:
        if not valid_metric_name(m["name"]):
            raise ValueError(f"bad metric name {m['name']!r}")
        v = float(values[m["name"]])
        out[m["name"]] = {"value": v if math.isfinite(v) else None,
                          "unit": m["unit"]}
    return out


def untraced_wall_s(workload):
    """Median wall_s of the correct untraced runs of ``workload`` stored in
    this checkout, and how many there were; None if there are none. Seeds
    change the work of a run by at most ~1%."""
    runs = [json.loads(p.read_text()) for p in
            (OUT / "results").glob(f"{workload}-seed*-trace0-*.json")]
    walls = [r["e2e"]["wall_s"] for r in runs if r["correct"]]
    return (statistics.median(walls), len(walls)) if walls else None


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    prepare()
    import workloads    # imports numpy, which reads the thread settings

    env = environment(args.seed)
    with open(BENCH / "reference.json") as fh:
        reference = json.load(fh)[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / "work" / run_id
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(run_id) if args.trace else None
    run = workloads.Run(work, random.Random(args.seed), args.seconds, tracer)

    uninstall = tracing.install(tracer) if tracer else None
    res = None
    try:
        res = workloads.WORKLOADS[args.workload](run, reference)
    except Exception:   # counted, reported, and the run exits 1
        run.check(False, traceback.format_exc(limit=-3).strip())
    finally:
        if uninstall:
            uninstall()
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"run": run_id, "env": env}
    metrics = None
    if res is not None:
        e2e, lat = end_to_end(res, peak_rss_mb)
        report.update(inputs=res["inputs"], e2e=e2e, query=lat,
                      query_name=res["query_name"],
                      **{k: res[k] for k in ("sweep_points_per_min",
                                             "rom_err_pct_max",
                                             "oracle_err_pct") if k in res})
        if tracer is None:
            metrics = emit(spec["end_to_end"], e2e)
        else:
            layers = tracing.layer_metrics(tracer, res["sweep_speedup"])
            expected = res["expected_counts"]
            for name in ("fv.step_calls", "fv.pressure_solve_calls"):
                run.check(expected is not None and
                          layers[name] == expected[name],
                          f"{name} {layers[name]} vs reference "
                          f"{None if expected is None else expected[name]}")
            report["layers"] = layers
            metrics = emit(spec["per_layer"], layers)
    report["failed_frac"] = run.failed / max(run.attempted, 1)
    report["failures"] = run.failures
    report["correct"] = run.failed == 0 and metrics is not None

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        spans = OUT / "spans" / f"{run_id}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        report["spans"] = str(spans.relative_to(ROOT))
        base = untraced_wall_s(args.workload)
        if res is not None and base is not None:
            report["trace_overhead_s"] = res["wall_s"] - base[0]
            report["trace_overhead_base"] = {"wall_s": base[0],
                                             "runs": base[1]}
    (OUT / "results" / f"{run_id}.json").write_text(
        json.dumps(report, indent=1))

    print_report(report)
    print(json.dumps({"correct": report["correct"],
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics or {}}))
    return 0 if report["correct"] else 1


def print_report(r):
    print(f"# {r['run']}  env {json.dumps(r['env'])}")
    if "inputs" in r:
        print(f"# inputs {json.dumps(r['inputs'])}")
    e = r.get("e2e", {})
    for name, unit in (("setup_s", "s"), ("wall_s", "s"),
                       ("fom_solve_s", "s"), ("fom_step_ms", "ms"),
                       ("fom_step_rel", "ratio"),
                       ("query_per_s", "1/s"),
                       ("query_ms_p50", "ms"),
                       ("query_ms_p99", "ms"), ("peak_rss_mb", "MiB")):
        if name in e:
            label = name.replace("query", r["query_name"])
            print(f"{label:<22s} {e[name]:12.6g} {unit}")
    for name, unit in (("sweep_points_per_min", "points/min"),
                       ("rom_err_pct_max", "%"), ("oracle_err_pct", "%")):
        if name in r:
            print(f"{name:<22s} {r[name]:12.6g} {unit}")
    print(f"{'failed_frac':<22s} {r['failed_frac']:12.6g} ratio")
    q = r.get("query")
    if q and q["n"]:
        tail = ("none has 10 samples beyond it" if q["tail_q"] is None else
                f"p{q['tail_q']:g} = {q['tail']:.6g} ms")
        print(f"# queries: {q['n']} samples, {q['beyond_p99']:g} beyond "
              f"p99; highest percentile with >= 10 beyond: {tail}")
    for name, value in r.get("layers", {}).items():
        print(f"{name:<26s} {value:14.6g}")
    if "layers" in r:
        o, b = r.get("trace_overhead_s"), r.get("trace_overhead_base")
        print("# tracing overhead: " + (
            "no untraced run in this checkout to compare" if o is None else
            f"{o:+.3f} s on wall_s against the median {b['wall_s']:.3f} s of "
            f"{b['runs']} untraced run(s)"))
    for f in r["failures"]:
        print(f"# FAILED: {f}")


if __name__ == "__main__":
    sys.exit(main())
