import numpy as np
import pytest

import genretrack as gt
import dense_oracle as oracle


def make_series(rng, d=3, K=8, user_id="u"):
    return gt.ProfileSeries(user_id, np.arange(K, dtype=float), rng.random((K, d)) + 0.1)


class TestEvaluate:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        obs = make_series(rng)
        report = gt.evaluate(obs, obs.profiles[1:])
        assert report.tau == 0.15
        assert report.n_steps == 7
        assert report.n_skipped == 0
        assert np.allclose(report.per_step_cosine, 0.0, atol=1e-12)
        assert report.fraction_below_threshold == 1.0
        assert report.rmse == 0.0
        assert np.all(report.per_axis_rmse == 0.0)
        assert report.smoothness_ratio == pytest.approx(1.0, abs=1e-12)

    def test_rmse_hand_case(self):
        obs = gt.ProfileSeries("u", np.array([0.0, 1.0]), np.array([[0.5, 0.5], [0.0, 1.0]]))
        report = gt.evaluate(obs, np.array([[1.0, 0.0]]))
        assert report.per_axis_rmse.tolist() == [1.0, 1.0]
        assert report.rmse == 1.0
        assert report.per_step_cosine[0] == pytest.approx(1.0, abs=1e-15)
        assert report.fraction_below_threshold == 0.0

    def test_zero_norm_steps_skipped(self):
        profiles = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        obs = gt.ProfileSeries("u", np.arange(3, dtype=float), profiles)
        report = gt.evaluate(obs, np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert report.n_skipped == 1
        assert np.isnan(report.per_step_cosine[0])
        assert report.per_step_cosine[1] == pytest.approx(0.0, abs=1e-12)
        # fraction counts valid steps only
        assert report.fraction_below_threshold == 1.0

    def test_zero_norm_prediction_also_skipped(self):
        rng = np.random.default_rng(1)
        obs = make_series(rng, d=2, K=3)
        report = gt.evaluate(obs, np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert report.n_skipped == 1

    def test_alignment_default_requires_k_minus_1(self):
        rng = np.random.default_rng(2)
        obs = make_series(rng, K=5)
        with pytest.raises(ValueError):
            gt.evaluate(obs, obs.profiles[1:3])

    def test_explicit_steps(self):
        rng = np.random.default_rng(3)
        obs = make_series(rng, K=6)
        report = gt.evaluate(obs, obs.profiles[[2, 4]], steps=np.array([2, 4]))
        assert report.n_steps == 2
        assert np.allclose(report.per_step_cosine, 0.0, atol=1e-12)

    def test_steps_out_of_range(self):
        rng = np.random.default_rng(4)
        obs = make_series(rng, K=4)
        with pytest.raises(ValueError):
            gt.evaluate(obs, obs.profiles[[1]], steps=np.array([4]))

    def test_out_of_range_step_is_the_one_named(self):
        obs = make_series(np.random.default_rng(4), K=6)
        with pytest.raises(ValueError, match=r"^step -1 out of range for a series with 6 instants$"):
            gt.evaluate(obs, obs.profiles[[1, 2, 5]], steps=np.array([1, -1, 5]))

    @pytest.mark.parametrize("steps, named", [([1.5, 2.0], "1.5"), ([1.0, np.nan], "nan"), ([np.inf, 2.5], "inf")])
    def test_step_that_is_not_a_whole_number_is_named(self, steps, named):
        # 1.5 was once truncated to step 1
        obs = make_series(np.random.default_rng(4), K=6)
        with pytest.raises(ValueError, match=rf"^step {named} is not a whole number$"):
            gt.evaluate(obs, obs.profiles[[1, 2]], steps=np.array(steps))

    def test_whole_float_steps_are_read_as_steps(self):
        obs = make_series(np.random.default_rng(3), K=6)
        report = gt.evaluate(obs, obs.profiles[[2, 4]], steps=np.array([2.0, 4.0]))
        assert report.n_steps == 2
        assert np.allclose(report.per_step_cosine, 0.0, atol=1e-12)

    def test_bad_tau(self):
        rng = np.random.default_rng(5)
        obs = make_series(rng)
        with pytest.raises(ValueError):
            gt.evaluate(obs, obs.profiles[1:], tau=0.0)

    def test_fraction_monotone_in_tau(self):
        rng = np.random.default_rng(6)
        obs = make_series(rng, d=4, K=30)
        pred = obs.profiles[1:] + rng.normal(scale=0.3, size=(29, 4))
        pred = np.abs(pred) + 1e-9
        taus = [0.01, 0.05, 0.15, 0.5, 1.0]
        fracs = [gt.evaluate(obs, pred, tau=t).fraction_below_threshold for t in taus]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(7)
        obs = make_series(rng, d=3, K=10)
        pred = rng.random((9, 3)) + 0.1
        base = gt.evaluate(obs, pred)
        scaled_obs = gt.ProfileSeries("u", obs.instants, obs.profiles * 2.0)
        scaled = gt.evaluate(scaled_obs, pred * 2.0)
        np.testing.assert_array_equal(base.per_step_cosine, scaled.per_step_cosine)
        assert base.fraction_below_threshold == scaled.fraction_below_threshold


class TestSmoothnessRatio:
    def test_single_step_is_zero(self):
        obs = gt.ProfileSeries("u", np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
        report = gt.evaluate(obs, np.array([[1.5]]))
        assert report.smoothness_ratio == 0.0

    def test_flat_reference_flat_prediction(self):
        obs = gt.ProfileSeries("u", np.arange(4, dtype=float), np.ones((4, 2)))
        report = gt.evaluate(obs, np.ones((3, 2)))
        assert report.smoothness_ratio == 0.0

    def test_flat_reference_varying_prediction(self):
        obs = gt.ProfileSeries("u", np.arange(4, dtype=float), np.ones((4, 2)))
        pred = np.ones((3, 2))
        pred[1] = 3.0
        report = gt.evaluate(obs, pred)
        assert report.smoothness_ratio == float("inf")

    def test_smoother_prediction_below_one(self):
        rng = np.random.default_rng(8)
        K = 50
        noisy = 5.0 + rng.normal(scale=0.5, size=(K, 1))
        obs = gt.ProfileSeries("u", np.arange(K, dtype=float), np.abs(noisy))
        flat = np.full((K - 1, 1), 5.0)
        report = gt.evaluate(obs, flat)
        assert report.smoothness_ratio == 0.0
        gentle = 5.0 + 0.1 * rng.normal(size=(K - 1, 1))
        report = gt.evaluate(obs, gentle)
        assert report.smoothness_ratio < 1.0


class TestEvaluateMany:
    def make_pooled(self, n_users=3, seed=0):
        rng = np.random.default_rng(seed)
        m = gt.build_model(d=2, q=1e-3, r=1e-2)
        records, observations = [], {}
        for i in range(n_users):
            uid = f"u{i}"
            series = make_series(rng, d=2, K=10, user_id=uid)
            observations[uid] = series
            records.append(oracle.track_series(m, series))
        return gt.evaluate_many(records, observations), records, observations

    def test_sorted_reports(self):
        pooled, _, _ = self.make_pooled()
        assert [r.user_id for r in pooled.reports] == ["u0", "u1", "u2"]
        assert pooled.n_users == 3

    def test_missing_reference_rejected(self):
        _, records, observations = self.make_pooled()
        del observations["u1"]
        with pytest.raises(KeyError):
            gt.evaluate_many(records, observations)

    def test_pooled_metrics_consistent(self):
        pooled, _, _ = self.make_pooled()
        cosines = pooled.all_cosines()
        assert cosines.size == sum(r.n_steps - r.n_skipped for r in pooled.reports)
        expect = np.count_nonzero(cosines < pooled.tau) / cosines.size
        assert pooled.pooled_fraction_below == pytest.approx(expect, abs=1e-15)
        assert pooled.pooled_mean_cosine == pytest.approx(float(cosines.mean()), abs=1e-15)


class TestHistogram:
    def test_counts_cover_all_valid_steps(self):
        rng = np.random.default_rng(9)
        m = gt.build_model(d=2)
        series = make_series(rng, d=2, K=12)
        pooled = gt.evaluate_many([oracle.track_series(m, series)], {"u": series})
        edges, counts = gt.pooled_histogram(pooled, bin_width=0.05)
        assert edges[0] == 0.0
        assert edges[-1] == pytest.approx(2.0)
        assert counts.sum() == pooled.all_cosines().size

    def test_values_above_upper_clipped_into_last_bin(self):
        obs = gt.ProfileSeries("u", np.arange(3, dtype=float), np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        # cosine distance 1.0 on both steps against an orthogonal prediction
        report = gt.evaluate(obs, np.array([[1.0, 0.0], [1.0, 0.0]]))
        pooled = gt.PooledReport(tau=0.15, reports=(report,))
        edges, counts = gt.pooled_histogram(pooled, bin_width=0.5, upper=1.0)
        assert counts.sum() == 2
        assert counts[-1] == 2


class TestWriters:
    def test_report_rows(self, tmp_path):
        rng = np.random.default_rng(10)
        m = gt.build_model(d=2)
        series = make_series(rng, d=2, K=5)
        pooled = gt.evaluate_many([oracle.track_series(m, series)], {"u": series})
        path = tmp_path / "report.csv"
        gt.write_report(pooled, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "user_id,step,cosine_distance"
        assert len(lines) == 1 + 4

    def test_summary_keys(self, tmp_path):
        rng = np.random.default_rng(11)
        m = gt.build_model(d=2)
        series = make_series(rng, d=2, K=5)
        pooled = gt.evaluate_many([oracle.track_series(m, series)], {"u": series})
        path = tmp_path / "summary.txt"
        gt.write_summary(pooled, path)
        text = path.read_text(encoding="utf-8")
        for key in (
            "tau=",
            "n_users=1",
            "pooled_mean_cosine=",
            "pooled_fraction_below=",
            "fraction_smoothness_le_1=",
            "user.u.n_steps=4",
        ):
            assert key in text

    def test_histogram_file(self, tmp_path):
        rng = np.random.default_rng(12)
        m = gt.build_model(d=2)
        series = make_series(rng, d=2, K=6)
        pooled = gt.evaluate_many([oracle.track_series(m, series)], {"u": series})
        path = tmp_path / "hist.csv"
        gt.write_histogram(pooled, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == pooled.all_cosines().size
