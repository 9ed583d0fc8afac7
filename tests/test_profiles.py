import functools
import re

import numpy as np
import pytest

import genretrack as gt
from genretrack import ioutil, profiles
from properties import (
    assert_reads_like_reference,
    assert_same_log,
    check_event_order_matches_lexsort,
    check_fold_matches_reference,
    check_order_insensitivity,
    check_read_events_matches_reference,
    reference_read_events,
    run_many,
    takes_byte_path,
)


@pytest.fixture
def space():
    return gt.new_space(["Drama", "Entertainment", "Sports"])


class TestWatchEvent:
    def test_fields(self):
        e = gt.WatchEvent("u1", 10.0, frozenset({"Drama"}), 0.5)
        assert e.user_id == "u1"
        assert e.watched_fraction == 0.5

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            gt.WatchEvent("u1", 0.0, frozenset({"Drama"}), 1.5)
        with pytest.raises(ValueError):
            gt.WatchEvent("u1", 0.0, frozenset({"Drama"}), -0.1)

    def test_empty_genres_rejected(self):
        with pytest.raises(ValueError):
            gt.WatchEvent("u1", 0.0, frozenset(), 0.5)

    def test_empty_user_rejected(self):
        with pytest.raises(ValueError):
            gt.WatchEvent("", 0.0, frozenset({"Drama"}), 0.5)

    @pytest.mark.parametrize(
        "user_id", ["a\x00", "\x00", "a\nb", "a\rb", "\tu", "u\x1f", "u\x7f", "u\x85", "u\x9f", "a\u2028b", "a\u2029"]
    )
    def test_unwritable_user_id_rejected(self, user_id):
        with pytest.raises(ValueError, match=re.escape(f"user id {user_id!r} holds a control character")):
            gt.WatchEvent(user_id, 0.0, frozenset({"Drama"}), 0.5)

    @pytest.mark.parametrize("user_id", ["x=y", "a,b", 'say "hi"', " edge ", "é", "u\xa0v", "\u2027"])
    def test_awkward_but_writable_user_id_accepted(self, user_id):
        assert gt.WatchEvent(user_id, 0.0, frozenset({"Drama"}), 0.5).user_id == user_id


class TestInterestUpdate:
    def test_full_watch_single_genre(self, space):
        before = space.zeros()
        after = gt.interest_update(before, gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0), space)
        assert after.tolist() == [1.0, 0.0, 0.0]
        assert before.tolist() == [0.0, 0.0, 0.0]

    def test_split_across_genres(self, space):
        event = gt.WatchEvent("u", 0.0, frozenset({"Drama", "Entertainment"}), 0.5)
        after = gt.interest_update(space.zeros(), event, space)
        assert after.tolist() == [0.25, 0.25, 0.0]

    def test_zero_fraction_no_op(self, space):
        before = np.array([0.3, 0.1, 0.0])
        event = gt.WatchEvent("u", 0.0, frozenset({"Sports"}), 0.0)
        after = gt.interest_update(before, event, space)
        assert after.tolist() == before.tolist()

    def test_decay_applies_to_whole_profile(self, space):
        before = np.array([1.0, 2.0, 4.0])
        event = gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0)
        after = gt.interest_update(before, event, space, decay=0.5)
        assert after.tolist() == [1.5, 1.0, 2.0]

    def test_unknown_genre_named_in_error(self, space):
        event = gt.WatchEvent("u", 0.0, frozenset({"Opera"}), 1.0)
        with pytest.raises(gt.UnknownGenreError, match="Opera"):
            gt.interest_update(space.zeros(), event, space)

    def test_bad_decay_rejected(self, space):
        event = gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0)
        with pytest.raises(ValueError):
            gt.interest_update(space.zeros(), event, space, decay=1.5)


class TestBuildSeries:
    def test_single_event_two_instants(self, space):
        events = [gt.WatchEvent("u1", 5.0, frozenset({"Drama"}), 1.0)]
        series = gt.build_series(events, space, np.array([10.0, 20.0]))
        assert set(series) == {"u1"}
        s = series["u1"]
        assert s.n_instants == 2
        assert s.profiles[:, 0].tolist() == [1.0, 1.0]
        assert np.all(s.profiles[:, 1:] == 0.0)

    def test_no_events(self, space):
        assert gt.build_series([], space, np.array([1.0, 2.0])) == {}

    def test_snapshot_boundary_inclusive(self, space):
        # an event stamped exactly at an instant lands in that snapshot
        events = [gt.WatchEvent("u1", 10.0, frozenset({"Drama"}), 1.0)]
        series = gt.build_series(events, space, np.array([10.0, 20.0]))
        assert series["u1"].profiles[0, 0] == 1.0

    def test_user_enters_at_first_event(self, space):
        events = [gt.WatchEvent("u1", 15.0, frozenset({"Drama"}), 1.0)]
        series = gt.build_series(events, space, np.array([10.0, 20.0, 30.0]))
        s = series["u1"]
        assert s.instants.tolist() == [20.0, 30.0]
        assert s.profiles.shape == (2, 3)

    def test_interleaved_users_independent(self, space):
        instants = np.array([10.0, 20.0])
        ev_a = [
            gt.WatchEvent("a", 1.0, frozenset({"Drama"}), 1.0),
            gt.WatchEvent("a", 12.0, frozenset({"Sports"}), 0.5),
        ]
        ev_b = [
            gt.WatchEvent("b", 2.0, frozenset({"Entertainment"}), 0.25),
            gt.WatchEvent("b", 11.0, frozenset({"Drama"}), 1.0),
        ]
        interleaved = [ev_a[0], ev_b[0], ev_b[1], ev_a[1]]
        merged = gt.build_series(interleaved, space, instants)
        for uid, alone in (("a", ev_a), ("b", ev_b)):
            solo = gt.build_series(alone, space, instants)[uid]
            assert np.array_equal(merged[uid].profiles, solo.profiles)
            assert np.array_equal(merged[uid].instants, solo.instants)

    def test_monotone_accumulation_without_decay(self, space):
        rng = np.random.default_rng(7)
        labels = list(space.names)
        events = [
            gt.WatchEvent(
                "u",
                float(rng.integers(0, 100)),
                frozenset(rng.choice(labels, size=int(rng.integers(1, 3)), replace=False).tolist()),
                float(rng.random()),
            )
            for _ in range(40)
        ]
        instants = np.array([20.0, 40.0, 60.0, 80.0, 100.0])
        s = gt.build_series(events, space, instants)["u"]
        assert np.all(np.diff(s.profiles, axis=0) >= 0.0)

    def test_decay_hand_case(self, space):
        events = [
            gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0),
            gt.WatchEvent("u", 1.0, frozenset({"Entertainment"}), 1.0),
        ]
        s = gt.build_series(events, space, np.array([0.0, 1.0]), decay=0.5)["u"]
        assert s.profiles[0].tolist() == [1.0, 0.0, 0.0]
        assert s.profiles[1].tolist() == [0.5, 1.0, 0.0]

    def test_normalize_flag(self, space):
        events = [
            gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0),
            gt.WatchEvent("u", 0.0, frozenset({"Sports"}), 1.0),
        ]
        s = gt.build_series(events, space, np.array([5.0]), normalize=True)["u"]
        assert np.linalg.norm(s.profiles[0]) == pytest.approx(1.0, abs=1e-12)

    def test_instants_must_increase(self, space):
        events = [gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0)]
        with pytest.raises(ValueError):
            gt.build_series(events, space, np.array([10.0, 10.0]))

    @pytest.mark.parametrize(
        "instants, cause",
        [
            ([10.0, np.nan, 30.0], "must be finite, got nan"),
            ([10.0, np.inf], "must be finite, got inf"),
            ([-np.inf, 10.0], "must be finite, got -inf"),
        ],
    )
    def test_non_finite_instants_rejected(self, space, instants, cause):
        events = [gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0)]
        with pytest.raises(ValueError, match=f"^instants {cause}$"):
            gt.build_series(events, space, np.array(instants))

    def test_instants_spanning_past_the_float_range_accepted(self, space):
        # their difference overflows; the comparison does not
        events = [gt.WatchEvent("u", -1e308, frozenset({"Drama"}), 1.0)]
        series = gt.build_series(events, space, np.array([-1e308, 1e308]))["u"]
        assert series.instants.tolist() == [-1e308, 1e308]

    def test_empty_instants_rejected(self, space):
        events = [gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0)]
        with pytest.raises(ValueError):
            gt.build_series(events, space, np.array([]))

    def test_seeded_order_sweep(self):
        assert run_many(check_order_insensitivity, 100, seed=202) == 100

    def test_seeded_reference_fold_sweep(self):
        assert run_many(check_fold_matches_reference, 100, seed=203) == 100

    # 128 and 129 users narrow the codes to int8 and int16, 32,769 to int32.
    @pytest.mark.parametrize("n_users, n_cases", [(1, 50), (128, 50), (129, 50), (32769, 5)])
    def test_event_order_is_the_lexsort(self, n_users, n_cases):
        check = functools.partial(check_event_order_matches_lexsort, n_users=n_users)
        assert run_many(check, n_cases, seed=n_users) == n_cases

    def test_event_order_of_an_empty_log(self):
        assert profiles._event_order(gt.EventLog.from_events([])).size == 0

    def test_unknown_genre_named_in_error(self, space):
        events = [
            gt.WatchEvent("u", 0.0, frozenset({"Drama"}), 1.0),
            gt.WatchEvent("v", 1.0, frozenset({"Drama", "Opera"}), 1.0),
        ]
        with pytest.raises(gt.UnknownGenreError, match="'Opera' in event WatchEvent.*'v'"):
            gt.build_series(events, space, np.array([5.0]))

    def test_event_log_and_event_list_fold_alike(self, space):
        events = [
            gt.WatchEvent("b", 3.0, frozenset({"Sports", "Drama"}), 0.5),
            gt.WatchEvent("a", 1.0, frozenset({"Entertainment"}), 1.0),
        ]
        from_list = gt.build_series(events, space, [2.0, 4.0], decay=0.5)
        from_log = gt.build_series(gt.EventLog.from_events(events), space, [2.0, 4.0], decay=0.5)
        assert list(from_list) == list(from_log) == ["a", "b"]
        for uid in from_list:
            assert np.array_equal(from_list[uid].profiles, from_log[uid].profiles)


class TestEventLog:
    EVENTS = [
        gt.WatchEvent("zed", 5.0, frozenset({"Sports"}), 0.5),
        gt.WatchEvent("amy", 1.0, frozenset({"Sports", "Drama"}), 1.0),
        gt.WatchEvent("zed", 2.0, frozenset({"Drama", "Sports"}), 0.25),
    ]

    def test_sorted_tables_and_codes(self):
        log = gt.EventLog.from_events(self.EVENTS)
        assert log.user_ids == ("amy", "zed")
        assert log.genre_sets == (("Drama", "Sports"), ("Sports",))
        assert log.user.tolist() == [1, 0, 1]
        assert log.genre_set.tolist() == [1, 0, 0]
        assert log.timestamps.tolist() == [5.0, 1.0, 2.0]
        assert log.fractions.tolist() == [0.5, 1.0, 0.25]

    def test_yields_watch_events_in_log_order(self):
        log = gt.EventLog.from_events(self.EVENTS)
        assert len(log) == 3
        assert list(log) == self.EVENTS
        assert log[1] == self.EVENTS[1]
        assert log[-1] == self.EVENTS[-1]

    def test_any_table_order_is_recoded(self):
        sets = [("Sports",), ("Sports", "Drama")]
        log = gt.EventLog(("zed", "amy"), [0, 1], [5.0, 1.0], sets, [0, 1], [0.5, 1.0])
        assert log.user_ids == ("amy", "zed")
        assert list(log) == self.EVENTS[:2]

    def test_columns_read_only(self):
        log = gt.EventLog.from_events(self.EVENTS)
        with pytest.raises(ValueError):
            log.timestamps[0] = 0.0

    def test_empty(self):
        log = gt.EventLog.from_events([])
        assert len(log) == 0 and list(log) == []

    @pytest.mark.parametrize(
        "columns",
        [
            (("a", "a"), [0, 1], [0.0, 1.0], [("x",)], [0, 0], [1.0, 1.0]),
            (("a",), [1], [0.0], [("x",)], [0], [1.0]),
            (("a",), [0, 0], [0.0], [("x",)], [0], [1.0]),
            (("a",), [0], [np.inf], [("x",)], [0], [1.0]),
            (("a",), [0], [0.0], [("x",)], [0], [1.5]),
            (("",), [0], [0.0], [("x",)], [0], [1.0]),
            (("a",), [0], [0.0], [()], [0], [1.0]),
        ],
        ids=[
            "duplicate_user", "code_out_of_range", "ragged", "inf_timestamp", "fraction",
            "empty_user", "empty_set",
        ],
    )
    def test_invalid_columns_rejected(self, columns):
        with pytest.raises(ValueError):
            gt.EventLog(*columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            ((("",), [0], [("x",)], [0]), "event log user_ids has a blank entry ''"),
            ((("a", "a"), [0, 1], [("x",)], [0, 0]), "event log user_ids holds 'a' twice"),
            ((("a",), [1], [("x",)], [0]), "event log code 1 is outside user_ids (size 1)"),
            ((("a",), [0], [()], [0]), "event log genre_sets has a blank entry ()"),
            ((("a",), [0], [("x", "y"), ("y", "x")], [0]), "event log genre_sets holds ('x', 'y') twice"),
            ((("a",), [0], [("x",)], [-1]), "event log code -1 is outside genre_sets (size 1)"),
        ],
        ids=["blank_user", "repeated_user", "user_code", "blank_set", "repeated_set", "set_code"],
    )
    def test_table_fault_names_the_table_and_the_entry(self, columns, message):
        user_ids, user, genre_sets, genre_set = columns
        times, fractions = [0.0] * len(user), [1.0] * len(user)
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            gt.EventLog(user_ids, user, times, genre_sets, genre_set, fractions)


class TestProfileSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            gt.ProfileSeries("u", np.array([2.0, 1.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            gt.ProfileSeries("u", np.array([1.0, 2.0]), np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "instants, cause",
        [
            ([1.0, np.nan, 3.0], "must be finite, got nan"),
            ([np.nan], "must be finite, got nan"),
            ([1.0, np.inf], "must be finite, got inf"),
            ([2.0, 1.0, 3.0], "must be strictly increasing"),
            ([1.0, 1.0], "must be strictly increasing"),
        ],
    )
    def test_instants_fault_names_the_user_and_the_cause(self, instants, cause):
        with pytest.raises(ValueError, match=f"^instants for 'u' {cause}$"):
            gt.ProfileSeries("u", np.array(instants), np.zeros((len(instants), 2)))

    def test_instants_spanning_past_the_float_range_accepted(self):
        s = gt.ProfileSeries("u", np.array([-1e308, 1e308]), np.zeros((2, 2)))
        assert s.n_instants == 2

    def test_properties(self):
        s = gt.ProfileSeries("u", np.array([1.0, 2.0]), np.zeros((2, 4)))
        assert s.n_instants == 2
        assert s.d == 4


class TestEventIO:
    def test_round_trip(self, tmp_path, space):
        events = [
            gt.WatchEvent("u1", 100.0, frozenset({"Drama", "Sports"}), 0.75),
            gt.WatchEvent("u2", 50.0, frozenset({"Entertainment"}), 1.0),
        ]
        path = tmp_path / "events.csv"
        gt.write_events(events, path)
        back = gt.read_events(path)
        assert sorted(back, key=lambda e: e.user_id) == sorted(events, key=lambda e: e.user_id)

    def test_iso_timestamps(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "user_id,timestamp,genres,watched_fraction\n"
            "u1,1970-01-01T00:01:40Z,Drama,1.0\n",
            encoding="utf-8",
        )
        events = gt.read_events(path)
        assert events[0].timestamp == 100.0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("user,when,what,how_much\nu1,0,Drama,1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            gt.read_events(path)

    def test_round_trip_as_columns(self, tmp_path):
        events = TestEventLog.EVENTS
        path = tmp_path / "events.csv"
        gt.write_events(events, path)
        back = gt.read_events(path)
        assert isinstance(back, gt.EventLog)
        expected = gt.EventLog.from_events(events)
        for name in ("user_ids", "genre_sets"):
            assert getattr(back, name) == getattr(expected, name)
        for name in ("user", "timestamps", "genre_set", "fractions"):
            assert np.array_equal(getattr(back, name), getattr(expected, name))

    @pytest.mark.parametrize(
        "row, cause",
        [
            (",5,Drama,1.0", "user id must be non-empty"),
            ("u2,5, ; ,1.0", "event for 'u2' has no genres"),
            ("u2,inf,Drama,1.0", "event for 'u2' has non-finite timestamp"),
            ("u2,5,Drama,1.5", "watched_fraction must be in [0, 1], got 1.5"),
            ("u2,5,Drama,half", "could not convert string to float: 'half'"),
            ("u2,soon,Drama,1.0", "unparseable timestamp: 'soon'"),
            ("u2,5,Drama", "expected 4 fields, got 3"),
        ],
        ids=["empty_user", "empty_genres", "inf_timestamp", "fraction", "non_numeric", "bad_timestamp", "short_row"],
    )
    def test_each_fault_names_its_line(self, tmp_path, row, cause):
        path = tmp_path / "events.csv"
        path.write_text(f"user_id,timestamp,genres,watched_fraction\nu1,0,Drama,1.0\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: {cause}")):
            gt.read_events(path)

    def test_line_counts_newlines_inside_quoted_cells(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            'user_id,timestamp,genres,watched_fraction\nu1,1,"Drama;\nSports",1\nu2,2,Drama,oops\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: could not convert")):
            gt.read_events(path)

    @pytest.mark.parametrize("user_id", ["a\x00", "a\u2028b", "two\nlines"])
    def test_unwritable_user_id_names_its_first_row(self, tmp_path, user_id):
        path = tmp_path / "events.csv"
        rows = ["u1,0,Drama,1", f'"{user_id}",1,Drama,1', f'"{user_id}",2,Drama,1', "u1,3,Drama,1"]
        path.write_text("user_id,timestamp,genres,watched_fraction\n" + "\n".join(rows) + "\n", encoding="utf-8")
        line = 3 + user_id.count("\n")  # the first row holding the id ends on this line
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: user id {user_id!r} holds")):
            gt.read_events(path)

    def test_user_id_checked_once(self, tmp_path, monkeypatch):
        path = tmp_path / "events.csv"
        rows = [f"u{i % 3},{i},Drama,1" for i in range(30)]
        path.write_text("user_id,timestamp,genres,watched_fraction\n" + "\n".join(rows) + "\n", encoding="utf-8")
        checked = []
        monkeypatch.setattr(profiles, "_check_user_id", checked.append)
        assert len(gt.read_events(path)) == 30
        assert checked == ["u0", "u1", "u2"]

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "user_id,timestamp,genres,watched_fraction\n"
            "u1,0,Drama,1.0\n"
            "u2,5,Drama,not_a_number\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=":3:"):
            gt.read_events(path)


class TestReadEventsAgainstReference:
    """read_events against the row-by-row csv reader it replaced (tests/properties.py)."""

    HEADER = "user_id,timestamp,genres,watched_fraction\n"
    CHUNK_ROWS = ioutil._CHUNK_BYTES // profiles._EVENT_DTYPE.itemsize  # rows per chunk

    def test_chunk_budget_holds_16384_event_rows(self):
        assert self.CHUNK_ROWS == 16384

    def test_property_matches_reference(self, tmp_path):
        check = functools.partial(check_read_events_matches_reference, tmp_path=tmp_path)
        assert run_many(check, n_cases=300, seed=8) == 300

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_around_a_chunk_boundary(self, tmp_path, offset):
        n = self.CHUNK_ROWS + offset
        rows = [f"u{i % 7},{i},{'Drama' if i % 2 else 'News;Sports'},0.5\n" for i in range(n)]
        rows.insert(self.CHUNK_ROWS // 2, "\n\r\n")  # blank lines count toward no chunk
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER + "".join(rows), encoding="utf-8", newline="")
        assert len(gt.read_events(path)) == n
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n\r\n\r\n\n"], ids=["no_rows", "blank", "blanks"])
    def test_no_rows(self, tmp_path, body):
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER + body, encoding="utf-8", newline="")
        log = gt.read_events(path)
        assert len(log) == 0 and log.user_ids == () and log.genre_sets == ()

    @pytest.mark.parametrize("first", [-2, -1, 0])
    def test_quoted_multi_line_cell_across_a_chunk_boundary(self, tmp_path, first):
        # Rows first and first + 1 hold a three-line genres cell, so the lines of row
        # CHUNK_ROWS - 1 or CHUNK_ROWS run past the line that would end a chunk of lines.
        n = self.CHUNK_ROWS + 2
        rows = [f"u{i % 3},{i},Drama,1\n" for i in range(n)]
        for i in (self.CHUNK_ROWS + first, self.CHUNK_ROWS + first + 1):
            rows[i] = f'v,{i},"News;\nSports;\r\nDrama",0.25\n'
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER + "".join(rows), encoding="utf-8", newline="")
        log = gt.read_events(path)
        assert len(log) == n and ("Drama", "News", "Sports") in log.genre_sets
        assert_reads_like_reference(path)

    def test_fault_in_a_later_chunk_names_its_line(self, tmp_path):
        rows = [f"u,{i},Drama,1\n" for i in range(self.CHUNK_ROWS + 5)]
        rows[self.CHUNK_ROWS + 2] = "u,1,Drama,2\n"
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER + "".join(rows), encoding="utf-8", newline="")
        line = self.CHUNK_ROWS + 4
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: watched_fraction must be in [0, 1], got 2.0")):
            gt.read_events(path)

    @pytest.mark.parametrize("cell", ["0.1_5", "\u0660", "\uff11"])
    def test_fraction_only_float_reads_is_refused(self, tmp_path, cell):
        # A behaviour change: the row-by-row reader took these through float().
        path = tmp_path / "events.csv"
        path.write_text(f"{self.HEADER}u,1,Drama,1\nu,2,Drama,{cell}\n", encoding="utf-8")
        assert len(reference_read_events(path)) == 2
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: could not convert string to float: {cell!r}")):
            gt.read_events(path)

    def test_rows_ended_by_a_bare_carriage_return_are_read(self, tmp_path):
        # Lines split as csv splits them, so a bare CR ends a row, as it did before.
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER.replace("\n", "\r") + "u,1,Drama,1\rv,2,News,0.5\r", encoding="utf-8", newline="")
        lf = tmp_path / "lf.csv"
        lf.write_text(self.HEADER + "u,1,Drama,1\nv,2,News,0.5\n", encoding="utf-8")
        assert_reads_like_reference(path)
        assert_same_log(gt.read_events(path), gt.read_events(lf))

    def test_each_distinct_cell_parsed_once(self, tmp_path, monkeypatch):
        parsed, split = [], []
        monkeypatch.setattr(profiles, "parse_timestamp", lambda raw: parsed.append(raw) or float(raw))
        monkeypatch.setattr(profiles, "_labels", lambda raw: split.append(raw) or (raw,))
        rows = [f"u{i % 3},{i % 4},{'ab'[i % 2]},1\n" for i in range(40)]
        path = tmp_path / "events.csv"
        path.write_text(self.HEADER + "".join(rows), encoding="utf-8")
        assert len(gt.read_events(path)) == 40
        assert parsed == ["0", "1", "2", "3"] and split == ["a", "b"]


class TestReadEventsBytePath:
    """Which logs read_events cuts with numpy byte operations, and that those read alike."""

    HEADER = b"user_id,timestamp,genres,watched_fraction\n"
    CAP = profiles._FIELD_CAP

    def write(self, tmp_path, *rows: bytes):
        path = tmp_path / "events.csv"
        path.write_bytes(self.HEADER + b"".join(row + b"\n" for row in rows))
        return path

    def test_a_written_log_takes_the_byte_path(self, tmp_path):
        scenario = gt.generate_scenario(gt.ScenarioConfig(d=5, K=6, n_users=4, seed=2), programs_per_day=7)
        path = tmp_path / "events.csv"
        gt.write_events(scenario.events, path)
        assert takes_byte_path(path)
        assert_same_log(gt.read_events(path), scenario.events)
        assert_same_log(profiles._read_plain_events(path), profiles._read_event_rows(path))

    @pytest.mark.parametrize("size, byte_path", [(CAP, True), (CAP + 1, False)], ids=["at_cap", "past_cap"])
    @pytest.mark.parametrize("column", range(4))
    def test_a_field_past_the_byte_cap_takes_read_rows(self, tmp_path, size, byte_path, column):
        fields = [b"u", b"5", b"Drama", b"1"]
        fields[column] = {0: b"U", 1: b"0", 2: b" ", 3: b"0"}[column] * (size - len(fields[column])) + fields[column]
        path = self.write(tmp_path, b"v,1,News,0.5", b",".join(fields))
        assert takes_byte_path(path) == byte_path
        assert len(gt.read_events(path)) == 2
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("row", [b'"u",5,Drama,1', b"u,5,Drama,1\r", b"u\x00v,5,Drama,1"], ids=["quote", "cr", "nul"])
    def test_a_quote_cr_or_nul_byte_takes_read_rows(self, tmp_path, row):
        path = self.write(tmp_path, b"v,1,News,0.5", row)
        assert not takes_byte_path(path)
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("header", [b"user_id, timestamp,genres,watched_fraction\n", b"user_id,timestamp,genres,watched_fraction"])
    def test_a_stripped_header_or_a_header_alone_reads_alike(self, tmp_path, header):
        path = tmp_path / "events.csv"
        path.write_bytes(header)
        assert takes_byte_path(path) == (header == self.HEADER[:-1])
        assert len(gt.read_events(path)) == 0

    def test_last_row_without_a_newline_is_read(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(self.HEADER + b"u,1,Drama,1\n\nv,2,News,0.5")
        assert takes_byte_path(path)
        assert len(gt.read_events(path)) == 2
        assert_reads_like_reference(path)

    def test_a_hash_collision_is_caught(self):
        # Keys fold the words as key * K + word: (0, K) and (1, 0) share the key K.
        k = 0x9E3779B97F4A7C15
        words = np.array([[0, 1, 0], [k, 0, k]], dtype=np.uint64)
        with pytest.raises(ValueError, match="share a key"):
            profiles._distinct(words)
        first, index = profiles._distinct(np.array([[7, 3, 7, 3, 9]], dtype=np.uint64))
        assert first.tolist() == [0, 1, 4] and index.tolist() == [0, 1, 0, 1, 2]

    def test_a_quote_in_the_last_row_never_enters_the_byte_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(profiles, "_PLAIN_BLOCK_BYTES", 64)
        blocks = []
        plain_block = profiles._plain_block
        monkeypatch.setattr(profiles, "_plain_block", lambda block: blocks.append(block) or plain_block(block))
        rows = [f"u{i % 5},{i},Drama,1".encode() for i in range(100)]
        assert len(gt.read_events(self.write(tmp_path, *rows))) == 100 and blocks  # the count counts
        blocks.clear()
        path = self.write(tmp_path, *rows, b'"u",5,Drama,1')
        assert len(gt.read_events(path)) == 101
        assert blocks == []

    def test_rows_across_many_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(profiles, "_PLAIN_BLOCK_BYTES", 64)
        rows = [f"u{i % 5},{i % 9},{'Drama' if i % 2 else 'News;Drama'},0.{i % 7}".encode() for i in range(200)]
        path = self.write(tmp_path, *rows[:100], b"", *rows[100:])
        assert takes_byte_path(path)
        assert_reads_like_reference(path)
        assert_same_log(profiles._read_plain_events(path), profiles._read_event_rows(path))

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_a_byte_not_utf8_names_its_line(self, tmp_path, ending):
        path = tmp_path / "events.csv"
        rows = [self.HEADER[:-1], b"u,1,Drama,1", b"v\xff,2,News,1", b"w,3,Drama,1"]
        path.write_bytes(b"".join(row + ending for row in rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: byte 0xff is not UTF-8")):
            gt.read_events(path)
        assert_reads_like_reference(path)

    def test_an_earlier_faulty_row_is_named_before_a_later_bad_byte(self, tmp_path):
        path = self.write(tmp_path, b"u,1,Drama,1", b"u,2,Drama,2", b"u,3,Dr\xe9ma,1")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: watched_fraction must be in [0, 1], got 2.0")):
            gt.read_events(path)

    def test_a_bad_byte_in_the_header_names_line_1(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(b"user_id\xff,timestamp,genres,watched_fraction\nu,1,Drama,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: byte 0xff is not UTF-8")):
            gt.read_events(path)


class TestProfileIO:
    def test_round_trip(self, tmp_path, space):
        events = [
            gt.WatchEvent("u1", 1.0, frozenset({"Drama"}), 1.0),
            gt.WatchEvent("u2", 2.0, frozenset({"Sports"}), 0.5),
        ]
        series = gt.build_series(events, space, np.array([5.0, 10.0]))
        path = tmp_path / "profiles.csv"
        gt.write_profiles(series, space, path)
        back = gt.read_profiles(path, space)
        assert set(back) == set(series)
        for uid in series:
            assert np.array_equal(back[uid].instants, series[uid].instants)
            assert np.array_equal(back[uid].profiles, series[uid].profiles)

    def test_non_numeric_cell_names_its_line(self, tmp_path, space):
        path = tmp_path / "profiles.csv"
        path.write_text("user_id,instant,Drama,Entertainment,Sports\nu,1,0,0,0\nu,2,0,oops,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: could not convert string to float: 'oops'")):
            gt.read_profiles(path, space)

    @pytest.mark.parametrize("cell", ["1_0", "\u0663"])
    def test_cell_only_float_reads_is_refused(self, tmp_path, space, cell):
        # float() accepts underscores and non-ASCII digits; numpy's C parser does not
        path = tmp_path / "profiles.csv"
        path.write_text(f"user_id,instant,Drama,Entertainment,Sports\nu,1,0,0,0\nu,2,0,{cell},0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: could not convert string to float: {cell!r}")):
            gt.read_profiles(path, space)

    def test_rows_grouped_by_user_in_file_order(self, tmp_path, space):
        path = tmp_path / "profiles.csv"
        path.write_text(
            "user_id,instant,Drama,Entertainment,Sports\n"
            'v,1,1,2,3\n"a,b",5,0,0,1\nv,2,4,5,6\n\n"a,b",6,0,1,0\n',
            encoding="utf-8",
        )
        back = gt.read_profiles(path, space)
        assert list(back) == ["a,b", "v"]
        assert back["v"].instants.tolist() == [1, 2]
        assert back["v"].profiles.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert back["a,b"].profiles.tolist() == [[0, 0, 1], [0, 1, 0]]

    def test_vocabulary_mismatch_rejected(self, tmp_path, space):
        events = [gt.WatchEvent("u1", 1.0, frozenset({"Drama"}), 1.0)]
        series = gt.build_series(events, space, np.array([5.0]))
        path = tmp_path / "profiles.csv"
        gt.write_profiles(series, space, path)
        other = gt.new_space(["Alpha", "Beta", "Gamma"])
        with pytest.raises(ValueError):
            gt.read_profiles(path, other)
