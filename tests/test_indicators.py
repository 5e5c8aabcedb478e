"""Hemodynamic indicators and error metrics against hand values."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hemoflow.errors import InvalidArgumentError, UndefinedMetricError
from hemoflow.fv import FlowState, FluidProperties
from hemoflow.indicators import (TimeSeries, l2_rel_error, pas_pad_pam,
                                 reynolds_inlet, volume_avg_pressure,
                                 wall_shear_stress, wape)
from hemoflow.mesh import generate_pipe_mesh


class TestWallShearStress:
    def test_quiescent_fluid_gives_zero_traction(self):
        mesh = generate_pipe_mesh(0.02, 0.01, 4, 3)
        state = FlowState(mesh)
        wss = wall_shear_stress(state, mesh, FluidProperties(), "wall")
        assert np.abs(wss.values).max() < 1e-12
        assert len(wss.values) == len(mesh.patches["wall"].face_ids)

    def test_patch_must_be_a_wall(self):
        mesh = generate_pipe_mesh(0.02, 0.01, 4, 3)
        state = FlowState(mesh)
        with pytest.raises(InvalidArgumentError):
            wall_shear_stress(state, mesh, FluidProperties(), "inlet")

    def test_traction_is_tangential(self):
        mesh = generate_pipe_mesh(0.02, 0.01, 4, 3)
        rng = np.random.default_rng(0)
        state = FlowState(mesh, u=rng.standard_normal((mesh.n_cells, 3)))
        wss = wall_shear_stress(state, mesh, FluidProperties(), "wall")
        g = mesh.fv
        rows = np.array([g.b_index[int(f)]
                         for f in mesh.patches["wall"].face_ids])
        n = g.b_normal[rows]
        normal_part = np.einsum("ij,ij->i", wss.values, n)
        assert np.abs(normal_part).max() < 1e-12 * wss.magnitude().max()


class TestReynolds:
    def test_zero_flow(self):
        assert reynolds_inlet(0.0, 1.3e-4, FluidProperties()) == 0.0

    @given(Q=st.floats(1e-6, 1e-3), A=st.floats(1e-5, 1e-3),
           s=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_flow_and_inverse_sqrt_in_area(self, Q, A, s):
        props = FluidProperties()
        base = reynolds_inlet(Q, A, props)
        assert reynolds_inlet(s * Q, A, props) == pytest.approx(s * base,
                                                                rel=1e-12)
        assert reynolds_inlet(Q, s * A, props) == pytest.approx(
            base / np.sqrt(s), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            reynolds_inlet(1e-4, 0.0, FluidProperties())
        with pytest.raises(InvalidArgumentError):
            reynolds_inlet(-1e-4, 1e-4, FluidProperties())


class TestVolumeAveragedPressure:
    def test_two_cell_hand_value(self):
        mesh = SimpleNamespace(cell_volume=np.array([1.0, 3.0]))
        assert volume_avg_pressure([4.0, 8.0], mesh) == 7.0

    def test_constant_field(self):
        mesh = SimpleNamespace(cell_volume=np.array([0.3, 1.2, 2.5]))
        assert volume_avg_pressure([5.5, 5.5, 5.5], mesh) == pytest.approx(
            5.5, rel=1e-14)


class TestPressureEnvelope:
    def test_constant_series(self):
        series = TimeSeries(np.linspace(0, 1, 10), np.full(10, 42.0))
        assert pas_pad_pam(series) == (42.0, 42.0, 42.0)

    def test_sinusoid_hand_values(self):
        T = 0.8
        t = np.linspace(0.0, T, 200)
        series = TimeSeries(t, 90.0 + 20.0 * np.sin(2.0 * np.pi * t / T))
        pas, pad, pam = pas_pad_pam(series, T)
        assert pas == pytest.approx(110.0, rel=0.005)
        assert pad == pytest.approx(70.0, rel=0.005)
        assert pam == pytest.approx(90.0, rel=0.005)

    def test_last_period_is_used(self):
        t = np.linspace(0.0, 2.0, 401)
        values = np.where(t < 1.0, 200.0, 50.0 + 10.0 * np.sin(2 * np.pi * t))
        pas, pad, pam = pas_pad_pam(TimeSeries(t, values), T=1.0)
        assert pas <= 60.0 and pad >= 40.0

    def test_series_shorter_than_a_period_is_refused(self):
        t = np.linspace(0.1, 0.8, 50)
        with pytest.raises(InvalidArgumentError, match="one period"):
            pas_pad_pam(TimeSeries(t, np.sin(t)), T=0.8)

    def test_empty_series_is_refused(self):
        with pytest.raises(InvalidArgumentError):
            pas_pad_pam(TimeSeries([], []))

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @example([0.1] * 4)
    @example([1.09e-269] * 4)
    @settings(max_examples=100, deadline=None)
    def test_envelope_ordering_always_holds(self, values):
        t = np.arange(len(values), dtype=float)
        pas, pad, pam = pas_pad_pam(TimeSeries(t, values))
        assert pad <= pam <= pas

    @pytest.mark.parametrize(
        "value", [0.1, 1.0 / 3.0, 7.7, 99.9, -0.3, 1e-300, 1.09e-269])
    def test_constant_trace_mean_stays_in_range(self, value):
        # the unclamped trapezoidal mean of [0.1] * 4 is 0.10000000000000002
        for n in range(2, 31):
            t = np.arange(n, dtype=float)
            pas, pad, pam = pas_pad_pam(TimeSeries(t, [value] * n))
            assert pad <= pam <= pas

    def test_time_series_validation(self):
        with pytest.raises(InvalidArgumentError):
            TimeSeries([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidArgumentError):
            TimeSeries([0.0, 1.0], [1.0])


class TestWape:
    def test_identical_series(self):
        t = np.arange(4.0)
        s = TimeSeries(t, [1.0, 2.0, 3.0, 4.0])
        assert wape(s, s) == 0.0

    def test_hand_value_ten_percent(self):
        t = np.arange(4.0)
        ref = TimeSeries(t, [1.0, 1.0, 1.0, 1.0])
        x = TimeSeries(t, [1.1, 0.9, 1.1, 0.9])
        assert wape(x, ref) == pytest.approx(10.0, abs=1e-9)

    def test_hand_value_doubling_constant(self):
        t = np.arange(5.0)
        ref = TimeSeries(t, np.full(5, 3.0))
        x = TimeSeries(t, np.full(5, 6.0))
        assert wape(x, ref) == pytest.approx(100.0, abs=1e-9)

    def test_grid_mismatch_is_refused(self):
        a = TimeSeries([0.0, 1.0], [1.0, 2.0])
        b = TimeSeries([0.0, 1.5], [1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            wape(a, b)

    def test_zero_reference_mean_is_undefined(self):
        t = np.arange(2.0)
        with pytest.raises(UndefinedMetricError):
            wape(TimeSeries(t, [1.0, 2.0]), TimeSeries(t, [-1.0, 1.0]))


class TestL2RelativeError:
    def test_identical_fields(self):
        x = np.arange(1.0, 10.0)
        assert l2_rel_error(x, x) == 0.0

    def test_uniform_scaling_is_exact(self):
        x = np.array([3.0, -1.0, 2.0, 5.0])
        w = np.array([0.5, 1.0, 2.0, 0.25])
        assert l2_rel_error(x, 1.01 * x, weights=w) == pytest.approx(
            1.0, abs=1e-12)

    def test_orthogonal_perturbation_with_known_norm(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        d = np.array([0.0, 0.05, 0.0, 0.0])  # orthogonal, 5% of ||x||
        assert l2_rel_error(x, x + d) == pytest.approx(5.0, abs=1e-9)

    def test_zero_reference_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            l2_rel_error(np.zeros(3), np.ones(3))

    def test_shape_mismatch_is_refused(self):
        with pytest.raises(InvalidArgumentError):
            l2_rel_error(np.zeros(3), np.zeros(4))

    def test_vector_fields_use_componentwise_sums(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        y = np.array([[3.0, 4.0], [0.3, 0.4]])
        # ||d|| / ||x|| = 0.5/5 with unit weights
        assert l2_rel_error(x, y) == pytest.approx(10.0, abs=1e-9)
