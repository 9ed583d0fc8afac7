"""Tests of the benchmark's output checks, on cases small enough to work by hand.

    python3 -m pytest bench/test_check.py
"""

from __future__ import annotations

import numpy as np
import pytest

import check


def test_one_filter_step_matches_the_hand_worked_example():
    A3, Q3 = check.axis_model(T=1.0, alpha=1.0, q=0.0, q_structure="white_accel")
    X, P, gain, innovation = check.filter_step(np.zeros((1, 3)), np.eye(3), np.array([1.0]), A3, Q3, r=1.0)
    assert X.tolist() == [[0.5, 0.0, 0.0]]
    assert P.tolist() == [[1.75, 1.5, 0.5], [1.5, 2.0, 1.0], [0.5, 1.0, 1.0]]
    assert gain.tolist() == [0.5, 0.0, 0.0]
    assert innovation.tolist() == [1.0]


def test_three_event_fold_with_decay():
    events = {
        "u": [
            (2.0, ("B",), 0.5),
            (0.0, ("A",), 1.0),
            (1.0, ("A", "B"), 1.0),
        ]
    }
    instants = np.array([-1.0, 0.0, 1.0, 2.0])
    series = check.fold_profiles(events, ["A", "B"], instants, decay=0.5, normalize=False)
    got_instants, profiles = series["u"]
    # The series starts at the first instant with an event.
    assert got_instants.tolist() == [0.0, 1.0, 2.0]
    assert profiles.tolist() == [[1.0, 0.0], [1.0, 0.5], [0.5, 0.75]]

    _, normalized = check.fold_profiles(events, ["A", "B"], instants, decay=0.5, normalize=True)["u"]
    np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0, rtol=0, atol=1e-15)


def test_recommendation_ties_break_toward_the_lower_axis():
    rec = check.recommendation(
        "u", np.array([1.0, 1.0, -1.0, 1.0, -1.0]), np.zeros(5), theta=0.5,
        watched={"c"}, vocabulary=["a", "b", "c", "d", "e"], date="1970-01-02",
    )
    assert rec == {
        "date": "1970-01-02",
        "demoted": ["c", "e"],
        "excluded_watched": [],
        "promoted": ["a", "b", "d"],
        "user_id": "u",
    }


def test_watched_rising_genre_moves_to_excluded():
    rec = check.recommendation(
        "u", np.array([2.0, 1.0, 0.0]), np.zeros(3), theta=0.5,
        watched={"a"}, vocabulary=["a", "b", "c"], date="",
    )
    assert rec["promoted"] == ["b"]
    assert rec["excluded_watched"] == ["a"]


def test_require_close_scales_by_magnitude_and_rejects_nan():
    check.require_close("x", [1e6 + 1e-4], [1e6], 1e-9)
    with pytest.raises(check.CheckFailed):
        check.require_close("x", [1.0 + 1e-6], [1.0], 1e-9)
    with pytest.raises(check.CheckFailed):
        check.require_close("x", [np.nan], [1.0], 1e-9)
    check.require_close("x", [np.nan], [np.nan], 1e-9)


def test_profile_check_catches_a_changed_value(tmp_path):
    (tmp_path / "vocabulary.txt").write_text("A\nB\n", encoding="utf-8")
    (tmp_path / "instants.txt").write_text("0\n1\n", encoding="utf-8")
    (tmp_path / "events.csv").write_text(
        "user_id,timestamp,genres,watched_fraction\nu,0,A,1\nu,1,A;B,0.5\n", encoding="utf-8"
    )
    built = tmp_path / "built"
    built.mkdir()
    table = built / "built_profiles.csv"
    files = lambda: check.PassFiles(tmp_path, built, tmp_path, tmp_path, tmp_path)  # noqa: E731

    table.write_text("user_id,instant,A,B\nu,0,1,0\nu,1,1.25,0.25\n", encoding="utf-8")
    check.check_profiles(files(), decay=1.0, normalize=False)

    table.write_text("user_id,instant,A,B\nu,0,1,0\nu,1,1.25,0.2500001\n", encoding="utf-8")
    with pytest.raises(check.CheckFailed):
        check.check_profiles(files(), decay=1.0, normalize=False)
