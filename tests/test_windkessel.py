"""Lumped-parameter outlet estimation and time stepping."""

import numpy as np
import pytest

from hemoflow.errors import InvalidArgumentError
from hemoflow.units import LMIN_TO_CM3S, MMHG_TO_DYN_CM2
from hemoflow.windkessel import (ClinicalRecord, OutletGeometry,
                                 PROXIMAL_FRACTION, WindkesselOutlet,
                                 advance_outlet, cardiac_period,
                                 estimate_outlet_set, systemic_resistance,
                                 total_compliance)


class TestScalarEstimators:
    def test_period_hand_value(self):
        # 60 ml per beat at 100 cm^3/s of output -> 0.6 s per beat
        assert cardiac_period(60.0, 6.0) == pytest.approx(
            60.0 / (6.0 * LMIN_TO_CM3S), rel=1e-12)
        assert cardiac_period(60.0, 6.0) == pytest.approx(0.6, rel=1e-4)

    def test_period_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            cardiac_period(0.0, 5.0)

    def test_resistance_hand_value(self):
        rec = ClinicalRecord(configuration="post", PAM=80.0, PF=6.0)
        # 80 mmHg / 100 cm^3/s
        exact = 80.0 * MMHG_TO_DYN_CM2 / (6.0 * LMIN_TO_CM3S)
        assert systemic_resistance(rec) == pytest.approx(exact, rel=1e-12)
        assert systemic_resistance(rec) == pytest.approx(
            80.0 * MMHG_TO_DYN_CM2 / 100.0, rel=1e-4)

    def test_compliance_hand_value(self):
        # 60 ml over a 40 mmHg pulse pressure
        exact = 60.0 / (40.0 * MMHG_TO_DYN_CM2)
        assert total_compliance(120.0, 80.0, 60.0) == pytest.approx(exact,
                                                                    rel=1e-9)

    def test_compliance_rejects_inverted_pressures(self):
        with pytest.raises(InvalidArgumentError):
            total_compliance(80.0, 120.0, 60.0)


class TestRecordValidation:
    def test_pre_record_needs_cardiac_output(self):
        with pytest.raises(InvalidArgumentError):
            ClinicalRecord(configuration="pre", PAS=110.0, PAD=70.0,
                           PAM=85.0, SV=55.0)

    def test_post_record_needs_pump_flow(self):
        with pytest.raises(InvalidArgumentError):
            ClinicalRecord(configuration="post", PAM=85.0)

    def test_pressure_ordering_enforced(self):
        with pytest.raises(InvalidArgumentError):
            ClinicalRecord(configuration="pre", PAS=70.0, PAD=110.0,
                           PAM=85.0, CO=5.0, SV=55.0)


class TestOutletEstimation:
    REC = ClinicalRecord(configuration="pre", PAS=120.0, PAD=80.0,
                         PAM=93.0, CO=6.0, SV=60.0)
    GEO = [OutletGeometry("a", 1.0), OutletGeometry("b", 3.0)]

    def test_parallel_resistances_recover_total(self):
        outs = estimate_outlet_set(self.REC, self.GEO)
        inv_total = sum(1.0 / (o.R_p + o.R_d) for o in outs)
        assert 1.0 / inv_total == pytest.approx(
            systemic_resistance(self.REC), rel=1e-12)

    def test_compliances_sum_to_total(self):
        outs = estimate_outlet_set(self.REC, self.GEO)
        total = total_compliance(self.REC.PAS, self.REC.PAD, self.REC.SV)
        assert sum(o.C for o in outs) == pytest.approx(total, rel=1e-12)

    def test_proximal_split_is_fixed_fraction(self):
        for o in estimate_outlet_set(self.REC, self.GEO):
            assert o.R_p / (o.R_p + o.R_d) == pytest.approx(
                PROXIMAL_FRACTION, rel=1e-12)

    def test_resistance_inverse_and_compliance_proportional_to_area(self):
        a, b = estimate_outlet_set(self.REC, self.GEO)
        assert (a.R_p + a.R_d) / (b.R_p + b.R_d) == pytest.approx(3.0,
                                                                  rel=1e-12)
        assert b.C / a.C == pytest.approx(3.0, rel=1e-12)

    def test_initial_pressure_from_record(self):
        outs = estimate_outlet_set(self.REC, self.GEO)
        for o in outs:
            assert o.p_p == pytest.approx(93.0 * MMHG_TO_DYN_CM2, rel=1e-12)

    def test_initial_pressure_is_always_the_record_pam(self):
        with pytest.raises(TypeError):
            estimate_outlet_set(self.REC, self.GEO,
                                initial_pressure_from_record=False)

    def test_supplied_total_compliance_is_used(self):
        outs = estimate_outlet_set(self.REC, self.GEO, total_C=4e-4)
        assert sum(o.C for o in outs) == pytest.approx(4e-4, rel=1e-12)

    def test_needs_outlets(self):
        with pytest.raises(InvalidArgumentError):
            estimate_outlet_set(self.REC, [])


class TestOutletStepping:
    def test_constant_flow_reaches_resistive_steady_state(self):
        out = WindkesselOutlet("o", R_p=100.0, R_d=1500.0, C=1e-3)
        Q = 80.0  # cm^3/s
        p_p = out.p_p
        for _ in range(40000):  # ~27 relaxation times R_d C
            p_p, p = advance_outlet(out, p_p, Q, 1e-3)
        assert p == pytest.approx((100.0 + 1500.0) * Q, rel=1e-9)
        assert p_p == pytest.approx(1500.0 * Q, rel=1e-9)
        assert out.p_p == 0.0

    def test_zero_flow_decay_matches_backward_euler_closed_form(self):
        R_d, C, dt, p0 = 1500.0, 1e-3, 1e-3, 1e5
        out = WindkesselOutlet("o", R_p=100.0, R_d=R_d, C=C, p_p=p0)
        n = 500
        p_p = out.p_p
        for _ in range(n):
            p_p, _ = advance_outlet(out, p_p, 0.0, dt)
        assert p_p == pytest.approx(p0 / (1.0 + dt / (R_d * C)) ** n,
                                    rel=1e-12)

    def test_zero_flow_decay_time_constant(self):
        """One relaxation time R_d*C leaves p0/e, matched within 2%."""
        R_d, C, p0 = 1500.0, 1e-3, 1e5
        tau = R_d * C
        dt = tau / 200.0
        out = WindkesselOutlet("o", R_p=100.0, R_d=R_d, C=C, p_p=p0)
        p_p = out.p_p
        for _ in range(200):
            p_p, _ = advance_outlet(out, p_p, 0.0, dt)
        assert p_p == pytest.approx(p0 / np.e, rel=0.02)

    def test_rejects_nonpositive_dt(self):
        out = WindkesselOutlet("o", R_p=1.0, R_d=1.0, C=1.0)
        with pytest.raises(InvalidArgumentError):
            advance_outlet(out, 0.0, 1.0, 0.0)
