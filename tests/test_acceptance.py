"""Acceptance suite: one pass/fail line per criterion.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` line directly to the
terminal (bypassing capture) so the gate status is visible in any run.
"""

import sys
import time

import numpy as np
import pytest

from hemoflow import indicators, pump, refdata, units, windkessel
from hemoflow.fv import (BoundaryConditionSet, FluidProperties, InflowBC,
                         NoSlipBC, PisoSolver, PressureZeroGradientBC,
                         SolverConfig, VelocityZeroGradientBC)
from hemoflow.indicators import TimeSeries, l2_rel_error, pas_pad_pam, wape
from hemoflow.mesh import generate_pipe_mesh
from hemoflow.podi import SnapshotSet, pod_basis, train
from hemoflow.windkessel import WindkesselOutlet

LMIN = 1.0 / 60000.0


def criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {description}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def deviation_pct(computed, published):
    return 100.0 * abs(computed / published - 1.0)


#: Table entries that other numbers of the same published tables
#: contradict. Criterion 1 checks only their proximal split; the set the
#: flag rule finds must equal this list. ``hemoflow validate`` still shows
#: their raw deviations.
INCONSISTENT_ENTRIES = (
    "pre right_common_carotid R_p", "pre right_common_carotid R_d",
    "pre left_common_carotid R_p", "pre left_common_carotid R_d",
    "pre left_subclavian R_p", "pre left_subclavian R_d",
    "test4 right_subclavian R_p", "test4 right_subclavian R_d",
    "test4 right_common_carotid R_p", "test4 right_common_carotid R_d",
    "test4 left_common_carotid R_p", "test4 left_common_carotid R_d",
    "test4 left_subclavian R_p", "test4 left_subclavian R_d",
    "test4 descending_aorta R_p", "test4 descending_aorta R_d",
)


def test_criterion_1_clinical_coefficient_tables():
    """Every published quantity the tables support is reproduced within 2%.

    The estimators give R_k = RVS * (sum A)/A_k, so a published row fixes
    the area it was split over: A_k = RVS * (sum A)/(R_p + R_d), with the
    table's own published RVS and the listed areas. A row whose implied
    area is more than 2% from its listed area is flagged. The rule reads
    the published data only, never the estimators.

    Compared directly with the estimators: period, total compliance, the
    five RVS values, every pre-surgery C and the R_p/R_d of every
    unflagged row (46 entries, worst 1.91%). A flagged row keeps one
    checkable quantity, its proximal split R_p/(R_p + R_d), which is
    compared with the estimator's (worst 0.53%).

    The rule flags 16 entries, pinned in ``INCONSISTENT_ENTRIES``, and
    the criterion fails if the flagged set differs from that list:

    - all ten test4 resistances: the published RVS(test4) is 1328 dyn s/cm^5
      (83 mmHg at 5.0 l/min), yet its five outlet resistances combine in
      parallel to 1295.2 and each row implies an area 2.3-2.7% too large,
      while tests 1-3 agree with their own RVS within 0.24%;
    - R_p/R_d of the pre-surgery right_common_carotid, left_common_carotid
      and left_subclavian: given RVS(pre) = 1105 they imply areas of
      0.2366, 0.1628 and 0.4115 cm^2 against the listed 0.246, 0.168 and
      0.446, although the published C column matches the listed areas
      within 0.3%. With R and C split over the same areas every R_k C_k
      would be equal; the published rows range from 1.07 to 1.18 s.
    """
    t0 = time.perf_counter()
    rows = []
    splits = []
    flagged = {}
    pre = refdata.PRE_RECORD
    rows.append(("period", refdata.PUBLISHED_PERIOD,
                 windkessel.cardiac_period(pre.SV, pre.CO)))
    C = windkessel.total_compliance(pre.PAS, pre.PAD, pre.SV)
    rows.append(("compliance", refdata.PUBLISHED_COMPLIANCE, C))
    records = {"pre": pre, **refdata.POST_RECORDS}
    for key, rec in records.items():
        rows.append((f"RVS {key}", refdata.PUBLISHED_RVS[key],
                     windkessel.systemic_resistance(rec)))
    areas = {o.name: o.area for o in refdata.OUTLETS}
    sum_a = sum(areas.values())
    for key, rec in records.items():
        est = windkessel.estimate_outlet_set(
            rec, refdata.OUTLETS, total_C=None if key == "pre" else C)
        published = (refdata.PUBLISHED_PRE_COEFFICIENTS if key == "pre"
                     else refdata.PUBLISHED_POST_COEFFICIENTS[key])
        for o in est:
            ref = published[o.name]
            row = f"{key} {o.name}"
            if key == "pre":
                rows.append((f"{row} C", ref[2], o.C))
            r_total = ref[0] + ref[1]
            implied_area = refdata.PUBLISHED_RVS[key] * sum_a / r_total
            area_dev = deviation_pct(implied_area, areas[o.name])
            if area_dev > 2.0:
                flagged[row] = area_dev
                splits.append((f"{row} R_p/(R_p+R_d)", ref[0] / r_total,
                               o.R_p / (o.R_p + o.R_d)))
            else:
                rows.append((f"{row} R_p", ref[0], o.R_p))
                rows.append((f"{row} R_d", ref[1], o.R_d))
    elapsed = time.perf_counter() - t0

    for row, dev in flagged.items():
        print(f"  flagged: {row}: implied area {dev:.2f}% off the listed area",
              file=sys.__stdout__)
    flagged_entries = {f"{row} {r}" for row in flagged for r in ("R_p", "R_d")}
    direct = [deviation_pct(got, ref) for _, ref, got in rows]
    split = [deviation_pct(got, ref) for _, ref, got in splits]
    offenders = [(label, dev) for (label, _, _), dev
                 in zip(rows + splits, direct + split) if dev > 2.0]
    for label, dev in offenders:
        print(f"  outside 2%: {label}: {dev:.2f}%", file=sys.__stdout__)
    worst_direct, worst_split = max(direct), max(split, default=0.0)
    pinned = flagged_entries == set(INCONSISTENT_ENTRIES)
    criterion(1, "clinical coefficient tables within 2% where consistent",
              not offenders and pinned and elapsed < 1.0,
              f"{len(rows)} direct checks (worst {worst_direct:.2f}%), "
              f"{len(splits)} flagged rows by split "
              f"(worst {worst_split:.2f}%), flagged set "
              f"{'as pinned' if pinned else 'differs from the pinned list'}, "
              f"{len(offenders)} outside 2%, {elapsed:.3f} s")


def test_criterion_2_pump_model():
    t0 = time.perf_counter()
    model = pump.reference_model()
    head_err = max(
        abs(pump.pump_delta_p(model, rec.omega, rec.PF)
            - refdata.PUBLISHED_PUMP_HEADS[key])
        for key, rec in refdata.POST_RECORDS.items())
    w3 = pump.pump_speed_for(model, 3.0, 75.0)
    w5 = pump.pump_speed_for(model, 5.0, 75.0)
    elapsed = time.perf_counter() - t0
    ok = head_err <= 1.0 and abs(w3 - 5076.0) <= 10.0 \
        and abs(w5 - 5720.0) <= 10.0 and elapsed < 1.0
    criterion(2, "pump heads within 1 mmHg, speeds within 10 rpm", ok,
              f"max head err {head_err:.2f} mmHg, "
              f"speeds {w3:.0f}/{w5:.0f} rpm, {elapsed:.3f} s")


def test_criterion_3_reynolds_table():
    props = FluidProperties()
    A = refdata.INLET_AREAS["outflow_cannula"] * 1e-4  # cm^2 -> m^2
    devs = {key: deviation_pct(
        indicators.reynolds_inlet(rec.PF * LMIN, A, props),
        refdata.PUBLISHED_REYNOLDS[key])
        for key, rec in refdata.POST_RECORDS.items()}
    worst = max(devs.values())
    criterion(3, "published inlet Reynolds numbers within 2%",
              worst <= 2.0, f"worst deviation {worst:.2f}%")


def test_criterion_4_steady_pipe_flow_oracle(pipe_runs):
    fluid, d, Q = pipe_runs["fluid"], pipe_runs["d"], pipe_runs["Q"]
    u_mean = pipe_runs["u_mean"]
    wss_exact = 8.0 * fluid.mu * u_mean / d

    def errors(run):
        _, state, wss = run
        e_u = deviation_pct(state.u[:, 2].max(), 2.0 * u_mean)
        e_w = deviation_pct(wss.area_mean(), wss_exact)
        return e_u, e_w

    eu_c, ew_c = errors(pipe_runs["runs"]["coarse"])
    eu_m, ew_m = errors(pipe_runs["runs"]["medium"])
    improving = eu_m < eu_c and ew_m < ew_c

    # same flow rate through a narrower pipe: wall shear scales as 1/d^3
    wss_med = pipe_runs["runs"]["medium"][2].area_mean()
    wss_nar = pipe_runs["runs"]["narrow"][2].area_mean()
    ratio = wss_nar / wss_med
    ratio_exact = (d / pipe_runs["d_narrow"]) ** 3
    e_ratio = deviation_pct(ratio, ratio_exact)

    ok = eu_m <= 5.0 and ew_m <= 5.0 and improving and e_ratio <= 7.0
    criterion(4, "pipe flow matches the laminar analytic solution", ok,
              f"centerline {eu_c:.2f}->{eu_m:.2f}%, "
              f"wall shear {ew_c:.2f}->{ew_m:.2f}%, "
              f"1/d^3 ratio off by {e_ratio:.3f}% "
              f"({pipe_runs['seconds']:.0f} s)")


def test_criterion_5_lumped_outlet_coupling():
    mesh = generate_pipe_mesh(0.02, 0.01, 6, 4)
    fluid = FluidProperties()
    R_p, R_d, C = 100.0, 1500.0, 1e-4
    tau = R_d * C  # 0.15 s
    Q = 1e-5       # m^3/s = 10 cm^3/s

    def build(flow, p0, dt, t_end):
        outlet = WindkesselOutlet("outlet", R_p=R_p, R_d=R_d, C=C, p_p=p0)
        bcs = BoundaryConditionSet({
            "inlet": (InflowBC(flow, profile="parabolic"),
                      PressureZeroGradientBC()),
            "wall": (NoSlipBC(), PressureZeroGradientBC()),
            "outlet": (VelocityZeroGradientBC(), outlet),
        })
        cfg = SolverConfig(dt=dt, t_end=t_end, convection_scheme="upwind",
                           lin_tol=1e-8, continuity_tol=1e-5,
                           cfl_max=1e9, cfl_action="warn")
        return PisoSolver(mesh, bcs, fluid, cfg)

    # constant inflow: outlet pressure converges to (R_p + R_d) Q
    solver = build(Q, 0.0, dt=0.01, t_end=10.0 * tau)
    r = np.linalg.norm(mesh.cell_centroid[:, :2], axis=1)
    u0 = np.zeros((mesh.n_cells, 3))
    u0[:, 2] = 2.0 * (Q / (np.pi * 0.01**2 / 4.0)) * (1.0 - (r / 0.005)**2)
    state = solver.run(solver.initialize(u=u0))
    q_cgs = state.patch_flux("outlet") * 1e6
    p_bc = state.p_p[0] + R_p * q_cgs
    e_steady = deviation_pct(p_bc, (R_p + R_d) * Q * 1e6)

    # no inflow: the proximal pressure decays with the relaxation time
    # R_d C, resolved with dt = 0.0133 tau (comfortably below 0.02 tau)
    p0 = R_d * Q * 1e6
    state = build(0.0, p0, dt=0.002, t_end=tau).run()
    e_decay = deviation_pct(state.p_p[0], p0 / np.e)

    ok = e_steady <= 1.0 and e_decay <= 2.0
    criterion(5, "flow solver coupled to the RCR outlet model", ok,
              f"steady pressure off {e_steady:.3f}%, "
              f"decay after one time constant off {e_decay:.2f}%")


def test_criterion_6_pod_against_dense_svd():
    rng = np.random.default_rng(2024)
    worst_sv = worst_frob = worst_orth = 0.0
    for trial in range(100):
        n = int(rng.integers(20, 120))
        ns = int(rng.integers(2, min(12, n)))
        S = rng.standard_normal((n, ns)) * 10.0 ** rng.integers(-3, 4)
        weighted = trial % 2
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        snaps = SnapshotSet(S, np.arange(ns, dtype=float), weight=w)
        basis = pod_basis(snaps, energy_threshold=1.0)
        ref = np.linalg.svd(S if w is None else np.sqrt(w)[:, None] * S,
                            compute_uv=False)
        worst_sv = max(worst_sv,
                       np.abs(basis.singular_values - ref).max() / ref[0])
        ww = np.ones(n) if w is None else w
        for k in range(1, ns + 1):
            Uk = basis.modes[:, :k]
            resid = S - Uk @ (Uk.T @ (ww[:, None] * S))
            resid_norm = np.sqrt(np.sum(ww[:, None] * resid**2))
            expected = np.sqrt(np.sum(ref[k:] ** 2))
            worst_frob = max(worst_frob,
                             abs(resid_norm - expected) / ref[0])
        gram = basis.modes.T @ (ww[:, None] * basis.modes)
        worst_orth = max(worst_orth,
                         np.abs(gram - np.eye(basis.k)).max())
    ok = worst_sv <= 1e-8 and worst_frob <= 1e-8 and worst_orth <= 1e-10
    criterion(6, "POD matches a dense SVD oracle on 100 random matrices",
              ok, f"singular values {worst_sv:.1e}, "
              f"truncation identity {worst_frob:.1e}, "
              f"orthonormality {worst_orth:.1e}")


FIELDS = ("p", "u_x", "u_y", "wss")


def _train_all(sweep, params, threshold):
    models = {}
    for name in FIELDS:
        S = np.column_stack([sweep["snaps"][pf][name] for pf in params])
        models[name] = train(SnapshotSet(S, params, field_name=name,
                                         weight=sweep["weights"][name]),
                             energy_threshold=threshold)
    return models


def test_criterion_7_rom_error_structure(bif_sweep):
    held_out = (3.45, 4.35)
    ok_a = ok_b = True
    details = []
    for count, step in ((11, 2), (21, 1)):
        params = bif_sweep["params"][::step]
        models = _train_all(bif_sweep, params, threshold=0.9999999)
        for pf in held_out:
            E = {name: l2_rel_error(bif_sweep["refs"][pf][name],
                                    models[name].predict(pf),
                                    weights=bif_sweep["weights"][name])
                 for name in FIELDS}
            ok_a &= E["p"] <= E["u_x"] / 10.0 and E["p"] <= E["u_y"] / 10.0
            ok_b &= max(E.values()) <= 15.0
            details.append(f"n={count} PF={pf}: " + " ".join(
                f"E_{n}={E[n]:.4f}%" for n in FIELDS))
    for line in details:
        print("  " + line, file=sys.__stdout__)

    # full-energy basis reconstructs every training snapshot
    models = _train_all(bif_sweep, bif_sweep["params"], threshold=1.0)
    worst_train = max(
        l2_rel_error(bif_sweep["snaps"][pf][name],
                     models[name].predict(pf),
                     weights=bif_sweep["weights"][name])
        for name in FIELDS for pf in bif_sweep["params"])

    ok = ok_a and ok_b and worst_train <= 1e-8
    criterion(7, "surrogate errors at held-out flow rates", ok,
              f"pressure/velocity ratio {'ok' if ok_a else 'violated'}, "
              f"all E<=15% {'ok' if ok_b else 'violated'}, "
              f"training reconstruction {worst_train:.1e}%")


def test_criterion_8_surrogate_speed_up(bif_sweep):
    models = _train_all(bif_sweep, bif_sweep["params"], threshold=0.9999999)
    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        for m in models.values():
            m.predict(4.35)
    rom_seconds = (time.perf_counter() - t0) / reps
    fom_seconds = min(bif_sweep["cold_seconds"].values())
    speedup = fom_seconds / rom_seconds
    report = (f"timing: FOM steady solve {fom_seconds:.2f} s, "
              f"ROM prediction {rom_seconds * 1e3:.3f} ms, "
              f"speed-up {speedup:.0f}x")
    print("  " + report, file=sys.__stdout__)
    criterion(8, "surrogate at least 100x faster than the flow solver",
              speedup >= 100.0, report)


def test_criterion_9_metric_hand_examples():
    t = np.arange(4.0)
    e1 = wape(TimeSeries(t, [1.1, 0.9, 1.1, 0.9]),
              TimeSeries(t, [1.0, 1.0, 1.0, 1.0]))
    e2 = wape(TimeSeries(t, [6.0, 6.0, 6.0, 6.0]),
              TimeSeries(t, [3.0, 3.0, 3.0, 3.0]))
    x = np.array([3.0, -1.0, 2.0, 5.0])
    e3 = l2_rel_error(x, 1.01 * x)
    base = np.array([1.0, 0.0, 0.0])
    e4 = l2_rel_error(base, base + np.array([0.0, 0.05, 0.0]))
    T = 0.8
    ts = np.linspace(0.0, T, 200)
    pas, pad, pam = pas_pad_pam(
        TimeSeries(ts, 90.0 + 20.0 * np.sin(2.0 * np.pi * ts / T)), T)
    ok = (abs(e1 - 10.0) <= 1e-9 and abs(e2 - 100.0) <= 1e-9
          and abs(e3 - 1.0) <= 1e-9 and abs(e4 - 5.0) <= 1e-9
          and abs(pas / 110.0 - 1.0) <= 0.005
          and abs(pad / 70.0 - 1.0) <= 0.005
          and abs(pam / 90.0 - 1.0) <= 0.005)
    criterion(9, "error metric hand examples", ok,
              f"WAPE {e1:.10f}/{e2:.1f}%, E_X {e3:.10f}/{e4:.10f}%, "
              f"envelope ({pas:.2f}, {pad:.2f}, {pam:.2f})")
