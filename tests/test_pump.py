"""Quadratic pump head curve: evaluation and inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemoflow.errors import InvalidArgumentError, NoSolutionError
from hemoflow.pump import (PumpModel, pump_delta_p, pump_speed_for,
                           reference_model)


class TestEvaluation:
    def test_head_formula_hand_value(self):
        model = PumpModel(K_A=1e-6, K_B=-1e-4, K_C=-1.0)
        # 1e-6*5000^2 - 1e-4*5000*4 - 1*16 = 25 - 2 - 16
        assert pump_delta_p(model, 5000.0, 4.0) == pytest.approx(7.0,
                                                                 rel=1e-12)

    def test_head_rejects_negative_inputs(self):
        with pytest.raises(InvalidArgumentError):
            pump_delta_p(reference_model(), -100.0, 4.0)
        with pytest.raises(InvalidArgumentError):
            pump_delta_p(reference_model(), 5000.0, -1.0)

    def test_model_requires_positive_speed_coefficient(self):
        with pytest.raises(InvalidArgumentError):
            PumpModel(K_A=-1e-6, K_B=0.0, K_C=-1.0)


class TestInversion:
    @given(omega=st.floats(3000.0, 8000.0), PF=st.floats(0.0, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_speed_inversion_round_trip(self, omega, PF):
        model = reference_model()
        dp = pump_delta_p(model, omega, PF)
        if dp < 0:
            return
        assert pump_speed_for(model, PF, dp) == pytest.approx(omega,
                                                              rel=1e-9)

    def test_unreachable_head_is_refused(self):
        model = PumpModel(K_A=1e-6, K_B=-1.0, K_C=-1.0)
        with pytest.raises(NoSolutionError):
            pump_speed_for(model, 5.0, -1e9)

    def test_negative_flow_is_refused(self):
        with pytest.raises(InvalidArgumentError):
            pump_speed_for(reference_model(), -1.0, 75.0)


def test_head_decreases_with_flow_over_operating_envelope():
    """At fixed speed the curve droops: more flow, less head."""
    model = reference_model()
    for omega in np.linspace(3000.0, 8000.0, 11):
        pf = np.linspace(0.0, 8.0, 33)
        dp = pump_delta_p(model, omega, pf)
        assert np.all(np.diff(dp) < 0.0)
