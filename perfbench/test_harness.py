"""Self-tests of the benchmark harness; no hemoflow solve is run.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import math
from pathlib import Path

import pytest

import run
import stats
import tracing

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n, q", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert stats.tail_percentile(n) == q
    if q is not None:
        assert stats.samples_beyond(n, q) >= 10 - 1e-9


def test_percentile_interpolates_between_ranks():
    xs = [float(i) for i in range(1, 101)]
    assert stats.percentile(xs, 50) == pytest.approx(50.5)
    assert stats.percentile(xs, 99) == pytest.approx(99.01)
    assert stats.percentile([3.0], 99) == 3.0


def test_latency_summary_prints_percentile_with_count():
    lat = [float(i) for i in range(2000)]
    s = run.latency_summary(lat)
    assert s["n"] == 2000 and s["beyond_p99"] == pytest.approx(20)
    assert s["tail_q"] == 99.0 and s["tail"] == s["p99"]


def test_self_time_subtracts_union_of_children():
    # parent [0, 10]; children overlap each other and stick out of it
    children = [(1, 4), (3, 5), (8, 12), (-2, 0.5)]
    assert stats.covered(children, 0, 10) == pytest.approx(4 + 2 + 0.5)
    assert stats.self_time(0, 10, children) == pytest.approx(3.5)
    assert stats.self_time(0, 10, []) == 10


def test_nested_spans_self_time_and_outermost_sums():
    tr = tracing.Tracer("t")
    # step [0, 10] > pressure [1, 4] > operators [2, 3]; step > checks [6, 7]
    tr.spans = [(1, "fv.step", 0.0, 10.0, None),
                (2, "fv.pressure_solve", 1.0, 4.0, 1),
                (3, "fv.operators", 2.0, 3.0, 2),
                (4, "fv.continuity_error", 6.0, 7.0, 1),
                (5, "snapshots.load_matrix", 20.0, 30.0, None),
                (6, "snapshots.load_field", 21.0, 22.0, 5),
                (7, "snapshots.load_field", 40.0, 41.0, None)]
    m = tracing.layer_metrics(tr, 0.0)
    # grandchildren lie inside children, so only direct children count
    assert m["fv.step_self_s"] == pytest.approx(10 - 3 - 1)
    assert m["fv.step_calls"] == 1
    assert m["fv.step_ms_p50"] == pytest.approx(1e4)
    # a read nested in another read is not counted twice
    assert m["snapshots.read_s"] == pytest.approx(10 + 1)
    assert m["fv.checks_s"] == pytest.approx(1)


def test_tracer_records_parent_and_run_id(tmp_path):
    tr = tracing.Tracer("run-7")
    tr.call("outer", tr.call, "inner", lambda: None)
    inner, outer = tr.spans
    assert (inner[1], outer[1]) == ("inner", "outer")
    assert inner[4] == outer[0] and outer[4] is None
    tr.write(tmp_path / "s.jsonl")
    rows = [json.loads(x) for x in (tmp_path / "s.jsonl").read_text().split("\n") if x]
    assert {r["run"] for r in rows} == {"run-7"}


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(stats.valid_metric_name(n) for n in names)
    assert len(set(names)) == len(names)
    assert not stats.valid_metric_name("bad name")
    assert not stats.valid_metric_name("p99/ms")
    with pytest.raises(ValueError):
        run.emit([{"name": "bad name", "unit": "s"}], {"bad name": 1.0})


def test_every_layer_metric_is_produced():
    m = tracing.layer_metrics(tracing.Tracer("empty"), 0.0)
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}


def test_every_metric_is_printed_with_its_unit():
    for group in ("end_to_end", "per_layer"):
        values = {m["name"]: 1.5 for m in SPEC[group]}
        out = run.emit(SPEC[group], values)
        assert out == {m["name"]: {"value": 1.5, "unit": m["unit"]}
                       for m in SPEC[group]}
        del values[SPEC[group][0]["name"]]
        with pytest.raises(KeyError):
            run.emit(SPEC[group], values)
    assert run.emit(SPEC["end_to_end"][:1],
                    {SPEC["end_to_end"][0]["name"]: math.nan}) == {
        SPEC["end_to_end"][0]["name"]: {"value": None,
                                        "unit": SPEC["end_to_end"][0]["unit"]}}


def test_every_end_to_end_metric_is_produced():
    res = {"setup_s": 1.0, "wall_s": 2.0, "fom_solve_s": 3.0,
           "latencies_ms": [0.5] * 1000,
           "step_ms": [30.0, 10.0, 20.0], "ref_ms": [1.0, 2.0, 0.5]}
    e2e, lat = run.end_to_end(res, 90.0)
    assert lat["per_s"] == pytest.approx(2000.0)
    assert e2e["fom_step_ms"] == 20.0
    # the median of each step over the reference kernel run after it
    assert e2e["fom_step_rel"] == 30.0
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert all(v["value"] is not None
               for v in run.emit(SPEC["end_to_end"], e2e).values())
