import numpy as np
import pytest

import genretrack as gt
from properties import assert_same_log, check_events_match_reference, run_many


class TestScenarioConfig:
    def test_defaults(self):
        cfg = gt.ScenarioConfig()
        assert cfg.d == 44
        assert cfg.K == 35
        assert cfg.n_users == 50
        assert cfg.regime == "smooth_drift"

    def test_validation(self):
        with pytest.raises(ValueError):
            gt.ScenarioConfig(d=0)
        with pytest.raises(ValueError):
            gt.ScenarioConfig(K=1)
        with pytest.raises(ValueError):
            gt.ScenarioConfig(n_users=0)
        with pytest.raises(ValueError):
            gt.ScenarioConfig(regime="chaotic")
        with pytest.raises(ValueError):
            gt.ScenarioConfig(q_true=-1.0)
        with pytest.raises(ValueError):
            gt.ScenarioConfig(seed=-1)


class TestTrajectories:
    def small(self, **kw):
        base = dict(d=4, K=10, n_users=3, q_true=1e-4, r_true=1e-3, seed=42)
        base.update(kw)
        return gt.ScenarioConfig(**base)

    def test_deterministic(self):
        a = gt.generate_scenario(self.small())
        b = gt.generate_scenario(self.small())
        assert [u.user_id for u in a.users] == [u.user_id for u in b.users]
        for ua, ub in zip(a.users, b.users):
            assert np.array_equal(ua.truth.profiles, ub.truth.profiles)
            assert np.array_equal(ua.observed.profiles, ub.observed.profiles)
        assert_same_log(a.events, b.events)

    def test_seed_changes_output(self):
        a = gt.generate_scenario(self.small(seed=1))
        b = gt.generate_scenario(self.small(seed=2))
        assert not np.array_equal(a.users[0].truth.profiles, b.users[0].truth.profiles)

    def test_noise_free_trajectories_constant(self):
        cfg = self.small(q_true=0.0, r_true=0.0)
        data = gt.generate_scenario(cfg)
        for u in data.users:
            assert np.array_equal(u.observed.profiles, u.truth.profiles)
            assert np.all(np.diff(u.truth.profiles, axis=0) == 0.0)

    def test_positions_nonnegative(self):
        for regime in gt.REGIMES:
            cfg = gt.ScenarioConfig(
                d=3, K=30, n_users=4, regime=regime, q_true=0.05, r_true=0.05, seed=9
            )
            data = gt.generate_scenario(cfg)
            for u in data.users:
                assert np.all(u.truth.profiles >= 0.0)
                assert np.all(u.observed.profiles >= 0.0)

    def test_regime_change_kicks_at_midpoint(self):
        # with zero noise the only motion comes from the midpoint kick
        cfg = self.small(regime="regime_change", q_true=0.0, r_true=0.0, K=12)
        data = gt.generate_scenario(cfg)
        mid = cfg.K // 2
        for u in data.users:
            # the kick alters the transition into step K//2, not before
            before = np.diff(u.truth.profiles[:mid], axis=0)
            after = np.diff(u.truth.profiles[mid - 1 :], axis=0)
            assert np.all(before == 0.0)
            assert np.any(after != 0.0)

    def test_bursty_produces_outliers(self):
        cfg = gt.ScenarioConfig(
            d=6, K=40, n_users=6, regime="bursty", q_true=1e-6, r_true=1e-4, seed=3
        )
        data = gt.generate_scenario(cfg)
        sigma = np.sqrt(cfg.r_true)
        deviations = np.concatenate(
            [np.abs(u.observed.profiles - u.truth.profiles).ravel() for u in data.users]
        )
        assert deviations.max() > 5.0 * sigma

    def test_user_ids_and_prefix_stability(self):
        small = gt.generate_scenario(self.small(n_users=3))
        large = gt.generate_scenario(self.small(n_users=5))
        assert [u.user_id for u in small.users] == ["u0000", "u0001", "u0002"]
        for us, ul in zip(small.users, large.users):
            assert np.array_equal(us.truth.profiles, ul.truth.profiles)

    def test_generate_trajectories_matches_scenario(self):
        cfg = self.small()
        series = gt.generate_trajectories(cfg)
        data = gt.generate_scenario(cfg)
        assert set(series) == {u.user_id for u in data.users}
        for u in data.users:
            assert np.array_equal(series[u.user_id].profiles, u.observed.profiles)
            assert np.array_equal(series[u.user_id].instants, data.instants)


class TestDayInstants:
    def test_end_of_day_snapshots(self):
        instants = gt.day_instants(3)
        assert instants.tolist() == [86399.0, 172799.0, 259199.0]

    def test_length_validation(self):
        with pytest.raises(ValueError):
            gt.day_instants(0)


class TestVocabulary:
    def test_placeholder_labels(self):
        labels = gt.placeholder_vocabulary(44)
        assert len(labels) == 44
        assert labels[0] == "genre_00"
        assert labels[43] == "genre_43"
        assert len(set(labels)) == 44

    def test_width_grows(self):
        labels = gt.placeholder_vocabulary(120)
        assert labels[-1] == "genre_119"


class TestGenerateEvents:
    def test_empty_map(self):
        space = gt.new_space(["a"])
        log = gt.generate_events({}, space, programs_per_day=3, seed=0)
        assert isinstance(log, gt.EventLog)
        assert (len(log), log.user_ids, log.genre_sets) == (0, (), ())

    def test_single_axis_all_events_that_genre(self):
        space = gt.new_space(["only"])
        profiles = np.array([[0.5], [1.5], [1.5], [2.0]])
        series = {"u0": gt.ProfileSeries("u0", gt.day_instants(4), profiles)}
        events = gt.generate_events(series, space, programs_per_day=2, seed=0)
        assert events
        assert all(e.genres == frozenset({"only"}) for e in events)
        # day 2 adds no interest mass, so it gets no events
        days = sorted({int(e.timestamp // gt.DAY_SECONDS) for e in events})
        assert days == [0, 1, 3]

    def test_fractions_and_timestamps_in_range(self):
        cfg = gt.ScenarioConfig(d=5, K=8, n_users=3, q_true=1e-4, r_true=1e-4, seed=7)
        data = gt.generate_scenario(cfg, programs_per_day=4)
        horizon = cfg.K * gt.DAY_SECONDS
        for e in data.events:
            assert 0.0 <= e.watched_fraction <= 1.0
            assert 0 <= e.timestamp < horizon
            assert e.timestamp == int(e.timestamp)

    def test_deterministic(self):
        cfg = gt.ScenarioConfig(d=3, K=5, n_users=2, seed=21)
        series = gt.generate_trajectories(cfg)
        space = gt.new_space(gt.placeholder_vocabulary(cfg.d))
        a = gt.generate_events(series, space, programs_per_day=3, seed=4)
        b = gt.generate_events(series, space, programs_per_day=3, seed=4)
        assert_same_log(a, b)

    def test_seeded_reference_sweep(self):
        # random d, users, programs per day, flat days and days needing ceil(total) events
        assert run_many(check_events_match_reference, 200, seed=606) == 200

    def test_tables_hold_what_occurs_and_read_back_equal(self, tmp_path):
        space = gt.new_space(["d", "c", "b", "a"])
        instants = gt.day_instants(3)
        rising = np.array([[0.5, 0.0, 0.2, 0.0], [1.5, 0.0, 0.2, 0.0], [1.5, 0.0, 3.0, 0.0]])
        series = {
            "zed": gt.ProfileSeries("zed", instants, rising),
            "idle": gt.ProfileSeries("idle", instants, np.zeros((3, 4))),
            "amy": gt.ProfileSeries("amy", instants, rising[::-1].copy()),
        }
        log = gt.generate_events(series, space, programs_per_day=2, seed=5)
        assert log.user_ids == ("amy", "zed")
        assert log.genre_sets == (("b",), ("d",))
        gt.write_events(log, tmp_path / "events.csv")
        assert_same_log(gt.read_events(tmp_path / "events.csv"), log)

    def test_scenario_log_reads_back_equal(self, tmp_path):
        cfg = gt.ScenarioConfig(d=6, K=9, n_users=4, regime="bursty", seed=13)
        data = gt.generate_scenario(cfg, programs_per_day=5)
        gt.write_events(data.events, tmp_path / "events.csv")
        assert_same_log(gt.read_events(tmp_path / "events.csv"), data.events)

    def test_round_trip_recovers_profiles(self):
        # rebuild profiles from the generated event log and compare direction
        cfg = gt.ScenarioConfig(
            d=10, K=15, n_users=5, regime="smooth_drift", q_true=1e-6, r_true=1e-4, seed=11
        )
        data = gt.generate_scenario(cfg, programs_per_day=200)
        rebuilt = gt.build_series(data.events, data.space, data.instants.copy())
        worst = 0.0
        for uid, ref in data.observed().items():
            got = rebuilt[uid]
            assert np.array_equal(got.instants, ref.instants)
            for k in range(ref.n_instants):
                a, b = got.profiles[k], ref.profiles[k]
                if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
                    continue
                worst = max(worst, gt.cosine_distance(a, b))
        assert worst < 0.2

    def test_programs_per_day_validation(self):
        space = gt.new_space(["a"])
        series = {"u": gt.ProfileSeries("u", gt.day_instants(2), np.ones((2, 1)))}
        with pytest.raises(ValueError):
            gt.generate_events(series, space, programs_per_day=0, seed=0)
