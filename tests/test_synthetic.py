import hashlib
import re

import numpy as np
import pytest

import genretrack as gt
from genretrack import synthetic
from genretrack.cli import main
from properties import (
    assert_same_log, check_events_match_reference, check_users_match_reference, run_many,
)


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

    def test_observed_matches_users(self):
        cfg = self.small()
        data = gt.generate_scenario(cfg)
        series = data.observed()
        assert set(series) == {u.user_id for u in data.users}
        for u in data.users:
            assert np.array_equal(series[u.user_id].profiles, u.observed.profiles)
            assert np.array_equal(series[u.user_id].instants, data.instants)


    def test_seeded_reference_sweep(self):
        # all regimes, q_true and r_true including 0, d 1-6, K 2-8 and 1-5 users
        assert run_many(check_users_match_reference, 200, seed=707) == 200


# sha256 of what `simulate --d 5 --k 12 --users 4 --regime R --seed 3` writes, recorded
# before the generator was vectorized.  The benchmark's inputs come from this generator,
# so any change to its bytes must show here and be recorded on purpose.
GOLDEN = {
    "smooth_drift": {
        "events.csv": "b5a1c76ad2c224ff84c0e0c071a50b2aacaf3dd857b63c3ab4ab67850773476a",
        "profiles.csv": "7943e520f30533117146013a21a042bfe548bedb79565e645714667b98415022",
        "truth.csv": "d056bff1ad3785fde24ec6d4e14d2bf72155b16aa8a8ebdc632a7826ee113492",
    },
    "regime_change": {
        "events.csv": "ff55dba86b7acc2d1e3cb3e6e9b9de15ebc5ee8903d415fcb6b7b83042ef1585",
        "profiles.csv": "b3adcff4615e028d5d1d9c7db60d220266289c46bdcae4199d76c2ec4f3c3b85",
        "truth.csv": "5690d8d1d3a8a7881dc84ae81261410abf59a7fafd4591cbc5d1a1a947d689f3",
    },
    "bursty": {
        "events.csv": "58983f09f4735b3e5187a9c0a508a3be025f2952e39bb11a7adf41bd7500afcd",
        "profiles.csv": "192b68959bf23bba1f3b06ca7170a1cb07365399ebfa443779c8a4152812d2d1",
        "truth.csv": "1460262c6e67650cfea4019da66abcd4946022550484b0871217af060b4608ca",
    },
}


@pytest.mark.parametrize("regime", sorted(GOLDEN))
def test_simulate_writes_the_golden_bytes(tmp_path, regime):
    argv = ["simulate", "--d", "5", "--k", "12", "--users", "4", "--programs-per-day", "3",
            "--regime", regime, "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in GOLDEN[regime].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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
        series = gt.generate_scenario(cfg).observed()
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

    @pytest.mark.parametrize(
        "last_day, total",
        [([1e19, 1e19], "2e+19"), ([2.0**62, 2.0**62], "9.22337e+18"), ([1e308, 1e308], "inf")],
    )
    def test_day_total_beyond_int64_names_user_and_day(self, last_day, total):
        # no RuntimeWarning either: the suite turns warnings into errors
        space = gt.new_space(["a", "b"])
        profiles = np.array([[0.5, 0.5], [0.5, 0.5], last_day])
        series = {
            "fine": gt.ProfileSeries("fine", gt.day_instants(3), np.ones((3, 2))),
            "big": gt.ProfileSeries("big", gt.day_instants(3), profiles),
        }
        message = f"series for 'big': day 2 total {total} overflows int64"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            gt.generate_events(series, space, programs_per_day=3, seed=0)

    def test_day_count_numpy_cannot_allocate_names_user_day_and_count(self):
        # The count fits int64, so the overflow check passes it; the event ceiling refuses
        # it before anything is allocated.
        space = gt.new_space(["a", "b"])
        series = {"big": gt.ProfileSeries("big", gt.day_instants(1), [[2.0**62, 2.0**62 - 1024]])}
        message = "series for 'big': day 0 has 9223372036854774784 events, more than can be allocated"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            gt.generate_events(series, space, programs_per_day=3, seed=0)

    def test_events_past_the_ceiling_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_MAX_EVENT_CELLS", 16)  # 8 events of d=2
        monkeypatch.setattr(synthetic.np, "repeat", None)  # allocating the events would fail
        space = gt.new_space(["a", "b"])
        series = {"big": gt.ProfileSeries("big", gt.day_instants(2), [[1.0, 0.5], [4.0, 4.0]])}
        message = "series for 'big': day 1 has 7 events after 3 on earlier days, more than can be allocated"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            gt.generate_events(series, space, programs_per_day=3, seed=0)

    def test_events_at_the_ceiling_generated(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_MAX_EVENT_CELLS", 16)
        space = gt.new_space(["a", "b"])
        series = {"big": gt.ProfileSeries("big", gt.day_instants(2), [[1.0, 0.5], [3.0, 3.0]])}
        assert len(gt.generate_events(series, space, programs_per_day=3, seed=0)) == 8

    def test_simulate_with_overflowing_day_totals_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--q-true", "1e200", "--d", "4", "--k", "5", "--users", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        cause = r"series for 'u000\d': day \d+ total \S+ overflows int64"
        assert re.fullmatch(f"genretrack simulate: error: {cause}\n", err), err
        assert not out.exists()

    def test_programs_per_day_validation(self):
        space = gt.new_space(["a"])
        series = {"u": gt.ProfileSeries("u", gt.day_instants(2), np.ones((2, 1)))}
        with pytest.raises(ValueError):
            gt.generate_events(series, space, programs_per_day=0, seed=0)
