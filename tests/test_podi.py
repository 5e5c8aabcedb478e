"""POD basis extraction and coefficient interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemoflow.errors import (DegenerateInputError, ExtrapolationError,
                             InvalidArgumentError)
from hemoflow.podi import (PodBasis, RomModel, SnapshotSet, cumulative_energy,
                          pod_basis, train)


def random_snapshots(n, ns, seed, weighted=False):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, ns))
    w = rng.uniform(0.5, 2.0, n) if weighted else None
    params = np.linspace(0.0, 1.0, ns)
    return SnapshotSet(S, params, weight=w)


class TestCumulativeEnergy:
    def test_hand_value(self):
        assert np.allclose(cumulative_energy([2.0, 1.0]), [0.8, 1.0])

    def test_ascending_input_is_refused(self):
        with pytest.raises(InvalidArgumentError):
            cumulative_energy([3.0, 4.0])

    def test_empty_input_is_refused(self):
        with pytest.raises(InvalidArgumentError):
            cumulative_energy([])

    def test_negative_input_is_refused(self):
        with pytest.raises(InvalidArgumentError):
            cumulative_energy([2.0, -1.0])


class TestPodBasis:
    def test_singular_values_match_dense_svd(self):
        for seed in range(20):
            snaps = random_snapshots(50, 8, seed)
            basis = pod_basis(snaps, energy_threshold=1.0)
            ref = np.linalg.svd(snaps.S, compute_uv=False)
            assert np.allclose(basis.singular_values, ref,
                               rtol=1e-8, atol=1e-8 * ref[0])

    def test_weighted_singular_values_match_scaled_svd(self):
        snaps = random_snapshots(60, 7, seed=3, weighted=True)
        basis = pod_basis(snaps, energy_threshold=1.0)
        ref = np.linalg.svd(np.sqrt(snaps.weight)[:, None] * snaps.S,
                            compute_uv=False)
        assert np.allclose(basis.singular_values, ref, rtol=1e-8)

    def test_rank_one_matrix_keeps_one_mode(self):
        u = np.arange(1.0, 31.0)
        S = np.outer(u, [1.0, 2.0, 3.0])
        basis = pod_basis(SnapshotSet(S, [0.0, 1.0, 2.0]),
                          energy_threshold=0.999)
        assert basis.k == 1
        assert basis.singular_values[1] <= 1e-12 * basis.singular_values[0]

    def test_modes_are_orthonormal_in_weighted_inner_product(self):
        snaps = random_snapshots(80, 10, seed=5, weighted=True)
        basis = pod_basis(snaps, energy_threshold=1.0)
        gram = basis.modes.T @ (snaps.weight[:, None] * basis.modes)
        assert np.abs(gram - np.eye(basis.k)).max() < 1e-10

    def test_truncation_error_matches_discarded_energy(self):
        snaps = random_snapshots(40, 9, seed=7, weighted=True)
        for threshold in (0.9, 0.99, 0.9999):
            basis = pod_basis(snaps, energy_threshold=threshold)
            resid = snaps.S - basis.modes @ basis.project(snaps.S)
            resid_norm = np.sqrt(np.sum(snaps.weight[:, None] * resid**2))
            expected = np.sqrt(np.sum(basis.singular_values[basis.k:] ** 2))
            assert resid_norm == pytest.approx(expected, rel=1e-8,
                                               abs=1e-8 * basis.singular_values[0])

    def test_retained_modes_grow_with_threshold(self):
        snaps = random_snapshots(40, 9, seed=11)
        ks = [pod_basis(snaps, energy_threshold=t).k
              for t in (0.5, 0.9, 0.999, 1.0)]
        assert ks == sorted(ks)
        assert ks[-1] == 9

    def test_threshold_is_validated(self):
        snaps = random_snapshots(10, 3, seed=0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidArgumentError):
                pod_basis(snaps, energy_threshold=bad)

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pod_basis(SnapshotSet(np.zeros((5, 2)), [0.0, 1.0]))

    def test_sign_convention_is_deterministic(self):
        snaps = random_snapshots(30, 5, seed=13)
        a = pod_basis(snaps, energy_threshold=1.0)
        b = pod_basis(SnapshotSet(snaps.S.copy(), snaps.params.copy()),
                      energy_threshold=1.0)
        assert np.array_equal(a.modes, b.modes)

    @pytest.mark.parametrize("threshold", [0.999, 0.9999999, 1.0])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n, ns", [(60, 8), (40, 21), (5, 8)])
    def test_graded_spectrum_matches_weighted_svd(self, n, ns, weighted,
                                                  threshold):
        """Singular values from 1 down to 1e-13 agree with a dense SVD of
        W^(1/2) S to 1e-12 of the largest; with fewer rows than snapshots
        the spectrum keeps one value per snapshot, with a zero tail."""
        rng = np.random.default_rng(n * ns)
        r = min(n, ns)
        sigma = np.logspace(0.0, -13.0, r)
        Q1 = np.linalg.qr(rng.standard_normal((n, r)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((ns, r)))[0]
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        S = (Q1 * sigma) @ Q2.T
        if weighted:
            S /= np.sqrt(w)[:, None]
        basis = pod_basis(SnapshotSet(S, np.arange(ns), weight=w),
                          energy_threshold=threshold)
        ref = np.linalg.svd(S if w is None else np.sqrt(w)[:, None] * S,
                            compute_uv=False)
        ref = np.concatenate([ref, np.zeros(ns - r)])
        assert basis.singular_values.shape == (ns,)
        assert np.abs(basis.singular_values - ref).max() <= 1e-12 * ref[0]
        assert np.allclose(basis.energy_fraction,
                           cumulative_energy(ref)[basis.k - 1], rtol=1e-14)
        if threshold == 1.0:
            assert basis.k == np.sum(ref > 1e-12 * ref[0])


class TestSnapshotSetValidation:
    def test_duplicate_parameters_are_refused(self):
        with pytest.raises(InvalidArgumentError):
            SnapshotSet(np.ones((4, 2)), [1.0, 1.0])

    def test_column_count_must_match_parameters(self):
        with pytest.raises(InvalidArgumentError):
            SnapshotSet(np.ones((4, 3)), [1.0, 2.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            SnapshotSet(np.ones((2, 2)), [0.0, 1.0],
                        weight=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_snapshots_are_refused(self, bad):
        S = np.ones((3, 2))
        S[1, 0] = bad
        with pytest.raises(InvalidArgumentError, match="not finite"):
            SnapshotSet(S, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_are_refused(self, bad):
        with pytest.raises(InvalidArgumentError, match="finite"):
            SnapshotSet(np.ones((2, 2)), [0.0, 1.0],
                        weight=np.array([1.0, bad]))


class TestRomModel:
    @staticmethod
    def smooth_snapshots(ns=11, weighted=True):
        """Fields varying smoothly in the parameter, exactly rank 3."""
        x = np.linspace(0.0, 1.0, 200)
        params = np.linspace(3.0, 5.0, ns)
        S = np.column_stack([np.sin(np.pi * x) * pi
                             + np.cos(np.pi * x) * pi**2
                             + x * np.exp(-pi) for pi in params])
        w = np.full(200, 0.005) if weighted else None
        return SnapshotSet(S, params, weight=w), x

    def test_training_points_reproduce_truncated_projection(self):
        snaps, _ = self.smooth_snapshots()
        model = train(snaps, energy_threshold=0.99)
        U = model.basis
        for j, pi in enumerate(snaps.params):
            s = snaps.S[:, j]
            proj = U.modes @ U.project(s)
            scale = np.abs(s).max()
            assert np.abs(model.predict(pi) - proj).max() < 1e-9 * scale

    def test_interpolation_error_small_between_training_points(self):
        snaps, x = self.smooth_snapshots(ns=21)
        model = train(snaps, energy_threshold=1.0)
        pi = 4.35
        exact = (np.sin(np.pi * x) * pi + np.cos(np.pi * x) * pi**2
                 + x * np.exp(-pi))
        err = np.abs(model.predict(pi) - exact).max()
        assert err < 1e-3 * np.abs(exact).max()

    def test_rbf_interpolation_also_works(self):
        snaps, x = self.smooth_snapshots(ns=11)
        model = train(snaps, energy_threshold=1.0,
                      interpolation_kind="rbf")
        pi = 3.45
        exact = (np.sin(np.pi * x) * pi + np.cos(np.pi * x) * pi**2
                 + x * np.exp(-pi))
        err = np.abs(model.predict(pi) - exact).max()
        assert err < 1e-2 * np.abs(exact).max()

    def test_extrapolation_is_refused_by_default(self):
        snaps, _ = self.smooth_snapshots()
        model = train(snaps)
        with pytest.raises(ExtrapolationError):
            model.predict(10.0)

    def test_extrapolation_opt_in_clamps_linear_models(self):
        snaps, _ = self.smooth_snapshots()
        model = train(snaps)
        edge = model.predict(5.0)
        out = model.predict(10.0, allow_extrapolation=True)
        assert np.allclose(out, edge)

    def test_single_snapshot_cannot_be_interpolated(self):
        with pytest.raises(InvalidArgumentError):
            train(SnapshotSet(np.ones((5, 1)), [3.0]))

    def test_unknown_interpolation_kind_is_refused(self):
        snaps, _ = self.smooth_snapshots()
        with pytest.raises(InvalidArgumentError):
            train(snaps, interpolation_kind="spline")

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_full_threshold_reconstructs_training_data(self, seed):
        snaps = random_snapshots(60, 6, seed, weighted=True)
        model = train(snaps, energy_threshold=1.0)
        for j, pi in enumerate(snaps.params):
            err = np.abs(model.predict(pi) - snaps.S[:, j]).max()
            assert err < 1e-8 * np.abs(snaps.S).max()


class TestPermutationInvariance:
    """Reordering the snapshot columns together with their parameters
    changes neither the POD spectrum nor the PODI predictions."""

    @given(seed=st.integers(0, 1000), ns=st.integers(3, 8),
           weighted=st.booleans(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_pod_and_podi_ignore_the_column_order(self, seed, ns, weighted,
                                                  data):
        rng = np.random.default_rng(seed)
        n = 40
        S = rng.standard_normal((n, ns))
        params = rng.uniform(1.0, 6.0, ns)
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        perm = np.array(data.draw(st.permutations(range(ns))))
        given_order = SnapshotSet(S, params, weight=w)
        permuted = SnapshotSet(S[:, perm], params[perm], weight=w)

        sv = pod_basis(given_order, energy_threshold=1.0).singular_values
        sv_perm = pod_basis(permuted, energy_threshold=1.0).singular_values
        assert np.abs(sv_perm - sv).max() <= 1e-10 * sv[0]

        kind = data.draw(st.sampled_from(["linear", "rbf"]))
        model = train(given_order, interpolation_kind=kind)
        model_perm = train(permuted, interpolation_kind=kind)
        queries = data.draw(st.lists(
            st.floats(params.min(), params.max()), min_size=1, max_size=4))
        for pi in queries:
            ref = model.predict(pi)
            err = np.linalg.norm(model_perm.predict(pi) - ref)
            assert err <= 1e-10 * max(np.linalg.norm(ref), 1e-300)


def model_with(params, C, kind):
    """A RomModel whose modal coefficients at ``params`` are the columns
    of C, with the identity as its basis."""
    k = C.shape[0]
    basis = PodBasis(np.eye(k), np.ones(k), 1.0)
    return RomModel(basis, C, np.asarray(params, dtype=float), kind)


# 2-12 distinct parameters on a 0.01 grid in [0, 10], coefficients of
# 1-6 modes at one scale in 1e-3..1e3
@st.composite
def interpolation_data(draw):
    ints = draw(st.lists(st.integers(0, 1000), min_size=2, max_size=12,
                         unique=True))
    params = np.sort(np.array(ints)) / 100.0
    k = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    C = scale * np.random.default_rng(seed).standard_normal((k, len(params)))
    queries = draw(st.lists(st.floats(params[0], params[-1]), min_size=1,
                            max_size=4))
    return params, C, list(params) + queries


class TestInterpolantsAgainstScipy:
    """The numpy interpolants reproduce the scipy.interpolate ones that
    they replace (the tests, and only they, import scipy.interpolate)."""

    @given(interpolation_data())
    @settings(max_examples=60, deadline=None)
    def test_linear_is_bit_identical_to_interp1d(self, data):
        from scipy.interpolate import interp1d
        params, C, queries = data
        model = model_with(params, C, "linear")
        ref = interp1d(params, C, axis=1, kind="linear")
        for pi in queries:
            assert np.array_equal(model.coeffs_at(pi), ref(pi))

    @given(interpolation_data())
    @settings(max_examples=60, deadline=None)
    def test_rbf_matches_thin_plate_rbf_interpolator(self, data):
        # measured worst case 2.3e-9 max|C|, on 12 parameters clustered at
        # 0.01 spacing at one or both ends of [0, 10]; 1.4e-10 over 3000
        # random sets of this distribution
        from scipy.interpolate import RBFInterpolator
        params, C, queries = data
        model = model_with(params, C, "rbf")
        ref = RBFInterpolator(params[:, None], C.T,
                              kernel="thin_plate_spline")
        for pi in queries:
            err = np.abs(model.coeffs_at(pi) - ref([[pi]])[0]).max()
            assert err <= 1e-8 * np.abs(C).max()

    def test_rbf_extrapolates_like_rbf_interpolator(self):
        from scipy.interpolate import RBFInterpolator
        params = np.array([3.0, 3.5, 4.2, 5.0])
        C = np.array([[1.0, -2.0, 0.5, 3.0], [0.1, 0.2, 0.4, 0.3]])
        model = model_with(params, C, "rbf")
        ref = RBFInterpolator(params[:, None], C.T,
                              kernel="thin_plate_spline")
        for pi in (1.0, 7.5):
            assert np.allclose(model.coeffs_at(pi), ref([[pi]])[0],
                               rtol=1e-10, atol=1e-12)


class TestParameterChecks:
    C = np.array([[1.0, 2.0, 4.0], [0.0, -1.0, 1.0]])

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_parameter_is_refused(self, kind, bad):
        model = model_with([3.0, 4.0, 5.0], self.C, kind)
        for extrapolate in (False, True):
            with pytest.raises(InvalidArgumentError):
                model.predict(bad, allow_extrapolation=extrapolate)
        with pytest.raises(InvalidArgumentError):
            model.coeffs_at(bad)

    def test_linear_coefficients_refuse_to_extrapolate(self):
        model = model_with([3.0, 4.0, 5.0], self.C, "linear")
        for pi in (2.999, 5.001):
            with pytest.raises(ExtrapolationError):
                model.coeffs_at(pi)
        assert np.array_equal(model.coeffs_at(5.0), self.C[:, 2])

