import ctypes
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import genretrack as gt
from genretrack import tracking
from genretrack.tracking import FilterState
from properties import check_covariance_properties, run_many


def transition_1d(T=1.0, alpha=1.0):
    return np.array(
        [
            [alpha, T, T * T / 2.0],
            [0.0, alpha, T],
            [0.0, 0.0, alpha],
        ]
    )


class TestBuildModel:
    def test_huge_q_is_positive_semidefinite(self):
        # eigvalsh rounds at the 1e300 scale of Q; the check scales with it
        model = gt.build_model(d=3, q=1e300)
        assert np.all(np.isfinite(model.Q))

    def test_indefinite_q_still_rejected_at_any_scale(self):
        m = gt.build_model(d=1)
        for scale in (1.0, 1e300):
            Q = scale * np.diag([1.0, 1.0, -1e-6])
            with pytest.raises(ValueError, match="Q must be positive semidefinite"):
                gt.TrackingModel(d=1, T=1.0, alpha=1.0, Q=Q, R=m.R)

    def test_single_axis_matrices(self):
        m = gt.build_model(d=1, T=1.0, alpha=1.0, q=0.0, r=1.0)
        assert np.array_equal(m.A, transition_1d())
        assert np.array_equal(m.H, np.array([[1.0, 0.0, 0.0]]))
        assert m.state_dim == 3

    def test_two_axis_block_structure(self):
        m = gt.build_model(d=2, T=1.0, alpha=1.0, q=0.0, r=1.0)
        assert m.A.shape == (6, 6)
        assert np.array_equal(m.A, np.kron(transition_1d(), np.eye(2)))
        assert m.H.shape == (2, 6)
        assert np.array_equal(m.H, np.kron(np.array([[1.0, 0.0, 0.0]]), np.eye(2)))

    def test_wide_space_shapes(self):
        m = gt.build_model(d=44)
        assert m.H.shape == (44, 132)
        assert m.A.shape == (132, 132)

    def test_alpha_scales_diagonal(self):
        m = gt.build_model(d=1, alpha=0.9)
        assert np.array_equal(m.A, transition_1d(alpha=0.9))

    def test_white_accel_noise_block(self):
        for T in (1.0, 2.0):
            m = gt.build_model(d=1, T=T, q=0.25)
            g = np.array([T * T / 2.0, T, 1.0])
            assert np.allclose(m.Q, 0.25 * np.outer(g, g), atol=1e-15)

    def test_white_accel_kron_layout(self):
        m = gt.build_model(d=3, T=1.0, q=0.5)
        g = np.array([0.5, 1.0, 1.0])
        expected = 0.5 * np.kron(np.outer(g, g), np.eye(3))
        assert np.allclose(m.Q, expected, atol=1e-15)

    def test_identity_noise_structure(self):
        m = gt.build_model(d=2, q=0.1, q_structure="identity")
        assert np.array_equal(m.Q, 0.1 * np.eye(6))

    def test_measurement_noise(self):
        m = gt.build_model(d=3, r=0.04)
        assert np.array_equal(m.R, 0.04 * np.eye(3))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gt.build_model(d=0)
        with pytest.raises(ValueError):
            gt.build_model(d=1, T=0.0)
        with pytest.raises(ValueError):
            gt.build_model(d=1, q=-1.0)
        with pytest.raises(ValueError):
            gt.build_model(d=1, r=0.0)
        with pytest.raises(ValueError):
            gt.build_model(d=1, q_structure="banded")

    @pytest.mark.parametrize("name", ["T", "alpha", "q", "r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            gt.build_model(d=2, **{name: value})

    def test_overflowing_process_noise_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"process noise overflows: q=0.001 and T=1e\+100"):
                gt.build_model(d=2, T=1e100)


class TestInitFilter:
    def test_positions_seeded_rest_zero(self):
        m = gt.build_model(d=2)
        s = gt.init_filter(m, np.array([1.0, 2.0]), p0=10.0)
        assert s.x_hat.tolist() == [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]
        assert np.array_equal(s.P, 10.0 * np.eye(6))
        assert s.k == 0

    def test_p0_must_be_positive(self):
        m = gt.build_model(d=1)
        with pytest.raises(ValueError):
            gt.init_filter(m, np.array([1.0]), p0=0.0)

    def test_dimension_mismatch(self):
        m = gt.build_model(d=2)
        with pytest.raises(ValueError):
            gt.init_filter(m, np.array([1.0, 2.0, 3.0]))


class TestGain:
    def test_unit_covariance_hand_value(self):
        m = gt.build_model(d=1, q=0.0, r=1.0)
        K = gt.gain(m, np.eye(3))
        assert np.allclose(K, np.array([[0.5], [0.0], [0.0]]), atol=1e-12)

    def test_zero_covariance_zero_gain(self):
        m = gt.build_model(d=1, q=0.0, r=1.0)
        K = gt.gain(m, np.zeros((3, 3)))
        assert np.array_equal(K, np.zeros((3, 1)))

    def test_gain_shrinks_with_noisier_measurements(self):
        norms = []
        for r in (1.0, 100.0, 10000.0):
            m = gt.build_model(d=1, q=0.0, r=r)
            norms.append(np.linalg.norm(gt.gain(m, np.eye(3))))
        assert norms[0] == pytest.approx(0.5, abs=1e-12)
        assert norms[1] == pytest.approx(1.0 / 101.0, abs=1e-12)
        assert norms[2] == pytest.approx(1.0 / 10001.0, abs=1e-12)
        assert norms[0] > norms[1] > norms[2]

    def test_schedule_fault_raised_before_a_series_fault(self):
        five = gt.ProfileSeries("five", np.arange(5, dtype=float), np.ones((5, 2)))
        short = gt.ProfileSeries("short", [0.0], [[1.0, 1.0]])
        with pytest.raises(gt.DivergenceError, match="not finite at step 2$"):
            gt.track_users(gt.build_model(d=2, alpha=1e100), [short, five])

    def test_ill_conditioned_innovation_rejected(self):
        m = gt.build_model(d=2, q=1e-3, r=1e-12)
        P = np.eye(6)
        P[0, 0] = 1e14
        P[1, 1] = 1e-4
        with pytest.raises(gt.SingularInnovationError):
            gt.gain(m, P)


class TestPredictStep:
    def test_hand_example(self):
        # d=1, T=1, alpha=1, q=0, r=1, x=0, P=I, z=1
        m = gt.build_model(d=1, q=0.0, r=1.0)
        s = FilterState(x_hat=np.zeros(3), P=np.eye(3))
        out = gt.predict_step(m, s, np.array([1.0]))
        assert np.allclose(out.x_hat, np.array([0.5, 0.0, 0.0]), atol=1e-12)
        expected_P = np.array(
            [
                [1.75, 1.5, 0.5],
                [1.5, 2.0, 1.0],
                [0.5, 1.0, 1.0],
            ]
        )
        assert np.allclose(out.P, expected_P, atol=1e-12)
        assert out.k == 1
        assert np.allclose(out.last_innovation, np.array([1.0]), atol=1e-15)

    def test_zero_innovation_propagates_exactly(self):
        m = gt.build_model(d=2, q=1e-3, r=1e-2)
        rng = np.random.default_rng(3)
        x = rng.random(6)
        s = FilterState(x_hat=x, P=np.eye(6) * 2.0)
        z = m.H @ x
        out = gt.predict_step(m, s, z)
        assert np.array_equal(out.x_hat, m.A @ x)
        assert np.array_equal(out.last_innovation, np.zeros(2))

    def test_zero_state_zero_noise_stays_zero(self):
        m = gt.build_model(d=1, q=0.0, r=1.0)
        s = gt.init_filter(m, np.zeros(1), p0=1.0)
        for _ in range(5):
            s = gt.predict_step(m, s, np.zeros(1))
        assert np.array_equal(s.x_hat, np.zeros(3))

    def test_covariance_matches_covariance_step(self):
        m = gt.build_model(d=2, q=1e-3, r=1e-2)
        P = 4.0 * np.eye(6)
        s = FilterState(x_hat=np.zeros(6), P=P)
        out = gt.predict_step(m, s, np.ones(2))
        assert np.array_equal(out.P, gt.covariance_step(m, P))

    def test_symmetry_enforced(self):
        m = gt.build_model(d=1, q=1e-3, r=1e-2)
        s = gt.init_filter(m, np.array([0.3]), p0=5.0)
        for z in (0.4, 0.1, 0.9):
            s = gt.predict_step(m, s, np.array([z]))
            assert np.array_equal(s.P, s.P.T)

    def test_bad_observation_rejected(self):
        m = gt.build_model(d=2)
        s = gt.init_filter(m, np.zeros(2))
        with pytest.raises(ValueError):
            gt.predict_step(m, s, np.zeros(3))
        with pytest.raises(ValueError):
            gt.predict_step(m, s, np.array([1.0, np.nan]))

    def test_indefinite_covariance_flagged(self):
        m = gt.build_model(d=1, q=0.0, r=1e-2)
        bad = FilterState(x_hat=np.zeros(3), P=np.diag([1.0, 1.0, -5.0]))
        with pytest.raises(gt.DivergenceError):
            gt.predict_step(m, bad, np.array([0.0]))


class TestSteadyState:
    def test_riccati_converges_and_satisfies_recursion(self):
        m = gt.build_model(d=1, T=1.0, alpha=1.0, q=0.01, r=1.0)
        P = gt.steady_state_covariance(m, p0=10.0, tol=1e-10, max_iter=500)
        assert np.linalg.norm(gt.covariance_step(m, P) - P) < 1e-8

    def test_matches_independent_dare_solver(self):
        m = gt.build_model(d=1, T=1.0, alpha=1.0, q=0.01, r=1.0)
        P = gt.steady_state_covariance(m, p0=10.0, tol=1e-13, max_iter=5000)
        dare = scipy.linalg.solve_discrete_are(m.A.T, m.H.T, m.Q, m.R)
        assert np.allclose(P, dare, rtol=1e-7, atol=1e-9)

    def test_multi_axis_steady_state(self):
        m = gt.build_model(d=3, q=0.01, r=1.0)
        P = gt.steady_state_covariance(m, p0=10.0)
        dare = scipy.linalg.solve_discrete_are(m.A.T, m.H.T, m.Q, m.R)
        assert np.allclose(P, dare, rtol=1e-6, atol=1e-8)

    def test_unsettled_recursion_raises_divergence(self):
        m = gt.build_model(d=1, T=1.0, alpha=1.0, q=0.01, r=1.0)
        with pytest.raises(gt.DivergenceError, match="did not settle within 1 iterations"):
            gt.steady_state_covariance(m, p0=10.0, max_iter=1)


class TestTrackSeries:
    def make_series(self, rng, d, K, user_id="u"):
        instants = np.arange(K, dtype=float)
        profiles = rng.random((K, d)) * 2.0
        return gt.ProfileSeries(user_id, instants, profiles)

    def test_one_prediction_per_later_instant(self):
        rng = np.random.default_rng(0)
        series = self.make_series(rng, d=44, K=35)
        m = gt.build_model(d=44)
        rec = gt.track_series(m, series)
        assert rec.predicted.shape == (34, 44)
        assert rec.innovations.shape == (34, 44)
        assert rec.steps.tolist() == list(range(1, 35))
        assert rec.n_steps == 34

    def test_innovation_identity(self):
        # innovation at step k must equal observation minus forecast
        rng = np.random.default_rng(1)
        series = self.make_series(rng, d=3, K=12)
        m = gt.build_model(d=3)
        rec = gt.track_series(m, series)
        assert np.array_equal(rec.innovations, series.profiles[1:] - rec.predicted)

    def test_too_short_series_rejected(self):
        m = gt.build_model(d=2)
        series = gt.ProfileSeries("u", np.array([0.0]), np.ones((1, 2)))
        with pytest.raises(ValueError):
            gt.track_series(m, series)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        series = self.make_series(rng, d=3, K=5)
        m = gt.build_model(d=4)
        with pytest.raises(ValueError):
            gt.track_series(m, series)

    def test_constant_signal_innovations_vanish(self):
        m = gt.build_model(d=1, q=0.0, r=1e-2)
        K = 60
        series = gt.ProfileSeries("u", np.arange(K, dtype=float), np.full((K, 1), 3.0))
        rec = gt.track_series(m, series)
        assert np.max(np.abs(rec.innovations[49:])) < 1e-6

    def test_final_state_is_next_forecast(self):
        rng = np.random.default_rng(4)
        series = self.make_series(rng, d=2, K=8)
        m = gt.build_model(d=2)
        rec = gt.track_series(m, series)
        assert rec.final_state.k == 8
        assert rec.final_state.position().shape == (2,)


def assert_records_close(a, b, atol):
    assert np.array_equal(a.steps, b.steps)
    np.testing.assert_allclose(a.predicted, b.predicted, atol=atol, rtol=0.0)
    np.testing.assert_allclose(a.innovations, b.innovations, atol=atol, rtol=0.0)
    np.testing.assert_allclose(a.gain_norms, b.gain_norms, atol=atol, rtol=0.0)
    np.testing.assert_allclose(a.p_traces, b.p_traces, atol=atol, rtol=0.0)
    np.testing.assert_allclose(a.final_state.x_hat, b.final_state.x_hat, atol=atol, rtol=0.0)
    np.testing.assert_allclose(a.final_state.P, b.final_state.P, atol=atol, rtol=0.0)


class TestDecoupledEquivalence:
    def test_matches_dense_path(self):
        rng = np.random.default_rng(5)
        instants = np.arange(20, dtype=float)
        profiles = rng.random((20, 5)) * 3.0
        series = gt.ProfileSeries("u", instants, profiles)
        m = gt.build_model(d=5, q=1e-3, r=1e-2)
        dense = gt.track_series(m, series)
        fast = gt.track_series_decoupled(m, series)
        assert_records_close(dense, fast, atol=1e-9)

    def test_single_axis(self):
        rng = np.random.default_rng(6)
        series = gt.ProfileSeries("u", np.arange(10, dtype=float), rng.random((10, 1)))
        m = gt.build_model(d=1, q=1e-4, r=1e-3)
        assert_records_close(
            gt.track_series(m, series), gt.track_series_decoupled(m, series), atol=1e-9
        )

    def test_coupled_measurement_noise_rejected(self):
        m = gt.build_model(d=2, q=1e-3, r=1e-2)
        R = m.R.copy()
        R[0, 1] = R[1, 0] = 1e-3
        coupled = gt.TrackingModel(d=2, T=1.0, alpha=1.0, Q=m.Q, R=R)
        series = gt.ProfileSeries("u", np.arange(3, dtype=float), np.ones((3, 2)))
        with pytest.raises(ValueError):
            gt.track_series_decoupled(coupled, series)

    def test_cross_axis_process_noise_rejected(self):
        m = gt.build_model(d=2, q=1e-3, r=1e-2)
        # PSD cross-axis coupling: all axes share one noise source
        g = np.array([0.5, 1.0, 1.0])
        Q = m.Q + 1e-4 * np.kron(np.outer(g, g), np.ones((2, 2)))
        coupled = gt.TrackingModel(d=2, T=1.0, alpha=1.0, Q=Q, R=m.R)
        series = gt.ProfileSeries("u", np.arange(3, dtype=float), np.ones((3, 2)))
        with pytest.raises(ValueError):
            gt.track_series_decoupled(coupled, series)


class TestTrackUsers:
    def per_axis_model(self):
        # Different process and measurement noise on each of the three axes.
        g = np.array([0.5, 1.0, 1.0])
        Q = np.kron(np.outer(g, g), np.diag([1e-3, 4e-2, 2e-4]))
        return gt.TrackingModel(d=3, T=1.0, alpha=0.95, Q=Q, R=np.diag([1e-2, 3e-1, 5e-3]))

    def test_matches_dense_on_mixed_lengths(self):
        rng = np.random.default_rng(12)
        model = self.per_axis_model()
        # Late starters: series end together but begin on different days.
        series = [
            gt.ProfileSeries(f"u{i}", np.arange(20 - K, 20, dtype=float), rng.random((K, 3)))
            for i, K in enumerate((2, 9, 14, 5, 9, 20))
        ]
        records = gt.track_users(model, series)
        assert [r.user_id for r in records] == [s.user_id for s in series]
        for record, one in zip(records, series):
            assert_records_close(gt.track_series(model, one), record, atol=1e-9)
        # Equal lengths share one dense final covariance.
        assert records[1].final_state.P is records[4].final_state.P

    def test_coupled_process_noise_rejected(self):
        m = gt.build_model(d=2, q=1e-3, r=1e-2)
        g = np.array([0.5, 1.0, 1.0])
        Q = m.Q + 1e-4 * np.kron(np.outer(g, g), np.ones((2, 2)))
        coupled = gt.TrackingModel(d=2, T=1.0, alpha=1.0, Q=Q, R=m.R)
        series = gt.ProfileSeries("u", np.arange(3, dtype=float), np.ones((3, 2)))
        with pytest.raises(ValueError, match="Q couples genre axes"):
            gt.track_users(coupled, [series])

    @pytest.mark.parametrize("name", ["white_accel", "identity", "alpha", "per_axis"])
    def test_schedule_matches_dense_recursion_at_every_step(self, name):
        model = {
            "white_accel": lambda: gt.build_model(4),
            "identity": lambda: gt.build_model(4, q_structure="identity"),
            "alpha": lambda: gt.build_model(4, alpha=0.9, q=1e-2, r=0.5),
            "per_axis": self.per_axis_model,
        }[name]()
        p0, n = 10.0, 30
        covariances, gains = tracking._gain_schedule(model, p0, n)
        assert covariances.shape == (n + 1, model.d, 3, 3) and gains.shape == (n, model.d, 3)
        P = p0 * np.eye(3 * model.d)
        for k in range(n):
            K = tracking._assemble_dense(gains[k][:, :, None])
            np.testing.assert_allclose(tracking._assemble_dense(covariances[k]), P, atol=1e-9, rtol=0)
            np.testing.assert_allclose(K, gt.gain(model, P), atol=1e-9, rtol=0)
            P = gt.covariance_step(model, P)
        np.testing.assert_allclose(tracking._assemble_dense(covariances[n]), P, atol=1e-9, rtol=0)

    def test_ill_conditioned_innovation_rejected(self):
        m = gt.build_model(d=2)
        wide = gt.TrackingModel(d=2, T=1.0, alpha=1.0, Q=m.Q, R=np.diag([1e-3, 1e14]))
        series = gt.ProfileSeries("u", np.arange(3, dtype=float), np.ones((3, 2)))
        with pytest.raises(gt.SingularInnovationError):
            gt.track_users(wide, [series])

    def test_no_series(self):
        assert gt.track_users(gt.build_model(d=2), []) == []

    @pytest.mark.parametrize(
        "alpha, p0, step", [(1e100, 10.0, 2), (1.0, 1e308, 1), (1.0, 1e300, 1)]
    )
    def test_overflowing_covariance_named_without_warnings(self, alpha, p0, step):
        series = gt.ProfileSeries("u", np.arange(5, dtype=float), np.ones((5, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would fail the test
            with pytest.raises(gt.DivergenceError, match=f"not finite at step {step}$"):
                gt.track_users(gt.build_model(d=2, alpha=alpha), [series], p0=p0)

    @pytest.mark.parametrize("engine, step", [("track_users", 3), ("track_series", 4)])
    def test_non_positive_innovation_variance_named_with_its_step(self, engine, step):
        # q=0 with an almost exact measurement: the position variance rounds to slightly below 0
        series = gt.ProfileSeries("u", np.arange(6, dtype=float), np.full((6, 2), 0.5))
        model = gt.build_model(2, alpha=0.5, q=0, r=1e-300)
        run = {"track_users": lambda: gt.track_users(model, [series], p0=1),
               "track_series": lambda: gt.track_series(model, series, p0=1)}[engine]
        with pytest.raises(gt.SingularInnovationError, match=rf"ill-conditioned at step {step}: eigenvalue -\S+ is not positive$"):
            run()

    @pytest.mark.parametrize("kwargs", [dict(q=1e10), dict(q=1e100), dict(q=1e150), dict(r=1e100, q=1e100)])
    @pytest.mark.parametrize("engine", ["track_users", "track_series"])
    def test_large_valid_model_tracks(self, engine, kwargs):
        # An absolute PSD tolerance took rounding at this scale for a lost PSD
        series = gt.ProfileSeries("u", np.arange(6, dtype=float), np.random.default_rng(4).random((6, 3)))
        model = gt.build_model(3, **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = gt.track_users(model, [series])[0] if engine == "track_users" else gt.track_series(model, series)
        assert np.all(np.isfinite(record.predicted)) and np.all(np.isfinite(record.final_state.P))

    def test_psd_tolerance_scales_with_the_covariance(self):
        assert tracking._psd_tolerance(np.array([0.5, -0.25])) == tracking.PSD_TOL
        assert tracking._psd_tolerance(np.array([2.0, -1e200, 3.0])) == tracking.PSD_TOL * 1e200

    def test_huge_but_finite_innovation_accepted(self):
        # r near the float ceiling: COND_LIMIT * S would overflow, the ratio does not
        series = gt.ProfileSeries("u", np.arange(4, dtype=float), np.ones((4, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (record,) = gt.track_users(gt.build_model(d=2, r=1e300), [series])
        assert np.all(np.isfinite(record.predicted))


def numpy_openblas_threads():
    """(get, set) thread count of the OpenBLAS in numpy's wheel; None where numpy uses another BLAS."""
    root = Path(np.__file__).parent
    for path in sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(root.glob(".dylibs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_threads is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get, set_threads
    return None


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS set to 2 threads, so that a leaked limit of 1 shows; yields its getter or None."""
    found = numpy_openblas_threads()
    if found is None:
        yield None
        return
    get, set_threads = found
    before = get()
    set_threads(2)
    yield get
    set_threads(before)


class TestBlasThreadLimit:
    """The filters leave the process-wide BLAS thread count as they found it."""

    @pytest.mark.parametrize(
        "track", [gt.track_series, gt.track_series_decoupled], ids=["track_series", "track_series_decoupled"]
    )
    def test_counts_restored_after_error(self, two_blas_threads, track):
        series = gt.ProfileSeries("u", np.arange(6.0), np.random.default_rng(10).random((6, 4)))
        # ProfileSeries rejects NaN on construction; plant one in the third snapshot
        series.profiles[2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            track(gt.build_model(d=4), series)
        assert two_blas_threads is None or two_blas_threads() == 2


class TestCovarianceProperties:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=2, max_value=6),
        logq=st.floats(min_value=-6, max_value=-1),
        logr=st.floats(min_value=-4, max_value=0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_symmetric_psd_each_step(self, d, n, logq, logr, seed):
        rng = np.random.default_rng(seed)
        m = gt.build_model(d=d, q=10.0**logq, r=10.0**logr)
        s = gt.init_filter(m, rng.random(d), p0=float(rng.uniform(0.5, 20.0)))
        for _ in range(n):
            s = gt.predict_step(m, s, rng.random(d) * 2.0)
            assert np.array_equal(s.P, s.P.T)
            assert np.linalg.eigvalsh(s.P).min() >= -1e-9

    def test_seeded_sweep(self):
        assert run_many(check_covariance_properties, 100, seed=303) == 100


class TestSmoothing:
    def test_predictions_smoother_than_observations(self):
        # slow truth, noisy measurements, long window: the tracker should
        # attenuate step-to-step wiggle relative to the raw observations
        cfg = gt.ScenarioConfig(
            d=5, K=100, n_users=1, regime="smooth_drift", q_true=1e-8, r_true=1e-2, seed=0
        )
        data = gt.generate_scenario(cfg)
        obs = data.observed()
        uid = sorted(obs)[0]
        m = gt.build_model(d=5, q=1e-7, r=1e-2)
        rec = gt.track_series(m, obs[uid])
        report = gt.evaluate_record(rec, obs[uid])
        assert report.smoothness_ratio <= 1.0


class TestTrackRecordIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        series = gt.ProfileSeries("u", np.arange(6, dtype=float), rng.random((6, 3)))
        m = gt.build_model(d=3)
        rec = gt.track_series(m, series)
        space = gt.new_space(["a", "b", "c"])
        path = tmp_path / "track.csv"
        gt.write_track_record(rec, space, path)
        back = gt.read_track_record(path, space, user_id="u")
        assert np.array_equal(back.steps, rec.steps)
        assert np.array_equal(back.predicted, rec.predicted)
        assert np.array_equal(back.innovations, rec.innovations)
        assert np.array_equal(back.gain_norms, rec.gain_norms)
        assert np.array_equal(back.p_traces, rec.p_traces)

    def test_final_states_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        space = gt.new_space(["a", "b"])
        m = gt.build_model(d=2)
        states = {}
        for uid in ("u1", "u2"):
            series = gt.ProfileSeries(uid, np.arange(5, dtype=float), rng.random((5, 2)))
            states[uid] = gt.track_series(m, series).final_state
        path = tmp_path / "final.csv"
        gt.write_final_states(states, space, path)
        back = gt.read_final_states(path, space)
        assert set(back) == {"u1", "u2"}
        for uid in states:
            assert np.array_equal(back[uid], states[uid].x_hat)

    def test_duplicate_user_rejected(self, tmp_path):
        space = gt.new_space(["a"])
        path = tmp_path / "final.csv"
        header = "user_id,pos_a,vel_a,acc_a\n"
        path.write_text(header + "u1,1,0,0\nu1,2,0,0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            gt.read_final_states(path, space)

    def test_final_states_non_numeric_cell_names_its_line(self, tmp_path):
        space = gt.new_space(["a"])
        path = tmp_path / "final.csv"
        path.write_text("user_id,pos_a,vel_a,acc_a\nu1,1,0,0\nu2,oops,0,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: could not convert string to float: 'oops'")):
            gt.read_final_states(path, space)

    def test_track_record_non_numeric_cell_names_its_line(self, tmp_path):
        space = gt.new_space(["a"])
        path = tmp_path / "track.csv"
        header = ",".join(tracking._track_header(space))
        path.write_text(f"{header}\n1,0.5,0.1,0.2,0.3\n2,0.5,oops,0.2,0.3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: could not convert string to float: 'oops'")):
            gt.read_track_record(path, space)
