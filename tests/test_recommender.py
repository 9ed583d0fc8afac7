import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genretrack as gt
from properties import check_watched_exclusion, read_recommendations, run_many


class TestConceptDeltas:
    def test_equal_vectors_all_neutral(self):
        v = np.array([0.4, 1.2, 0.0])
        deltas = gt.concept_deltas(v, v)
        assert [d.classification for d in deltas] == [gt.NEUTRAL] * 3
        assert [d.delta for d in deltas] == [0.0, 0.0, 0.0]

    def test_signed_classification(self):
        deltas = gt.concept_deltas(np.array([2.0, 0.0]), np.array([1.0, 1.0]), theta=0.5)
        assert deltas[0].axis == 0
        assert deltas[0].delta == 1.0
        assert deltas[0].classification == gt.POSITIVE
        assert deltas[1].delta == -1.0
        assert deltas[1].classification == gt.NEGATIVE

    def test_large_threshold_all_neutral(self):
        deltas = gt.concept_deltas(np.array([2.0, 0.0]), np.array([1.0, 1.0]), theta=10.0)
        assert all(d.classification == gt.NEUTRAL for d in deltas)

    def test_threshold_boundary_inclusive(self):
        deltas = gt.concept_deltas(np.array([0.05, -0.05]), np.zeros(2), theta=0.05)
        assert deltas[0].classification == gt.POSITIVE
        assert deltas[1].classification == gt.NEGATIVE

    def test_default_threshold(self):
        deltas = gt.concept_deltas(np.array([0.049]), np.zeros(1))
        assert deltas[0].classification == gt.NEUTRAL
        deltas = gt.concept_deltas(np.array([0.051]), np.zeros(1))
        assert deltas[0].classification == gt.POSITIVE

    def test_validation(self):
        with pytest.raises(ValueError):
            gt.concept_deltas(np.zeros(2), np.zeros(2), theta=0.0)
        with pytest.raises(ValueError):
            gt.concept_deltas(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            gt.concept_deltas(np.array([np.nan, 0.0]), np.zeros(2))

    def test_scale_invariance_of_classification(self):
        rng = np.random.default_rng(0)
        estimated = rng.normal(size=6)
        calculated = rng.normal(size=6)
        theta = 0.1
        base = gt.concept_deltas(estimated, calculated, theta=theta)
        # powers of two keep the comparison exact
        scaled = gt.concept_deltas(4.0 * estimated, 4.0 * calculated, theta=4.0 * theta)
        assert [d.classification for d in base] == [d.classification for d in scaled]


class TestRecommend:
    @pytest.fixture
    def space(self):
        return gt.new_space(["x", "y", "z"])

    def test_watched_positives_excluded(self, space):
        deltas = gt.concept_deltas(np.array([1.0, 1.0, 1.0]), np.zeros(3), theta=0.5)
        rec = gt.recommend(deltas, {"x", "y"}, space, user_id="u")
        assert rec.promoted == ("z",)
        assert set(rec.excluded_watched) == {"x", "y"}
        assert rec.demoted == ()

    def test_no_positive_deltas(self, space):
        deltas = gt.concept_deltas(np.zeros(3), np.zeros(3))
        rec = gt.recommend(deltas, set(), space)
        assert rec.promoted == ()
        assert rec.demoted == ()
        assert rec.excluded_watched == ()

    def test_promoted_sorted_by_descending_delta(self, space):
        deltas = gt.concept_deltas(np.array([1.0, 2.0, 0.0]), np.zeros(3), theta=0.5)
        rec = gt.recommend(deltas, set(), space)
        assert rec.promoted == ("y", "x")

    def test_demoted_sorted_most_negative_first(self, space):
        deltas = gt.concept_deltas(np.array([-1.0, -3.0, 0.0]), np.zeros(3), theta=0.5)
        rec = gt.recommend(deltas, set(), space)
        assert rec.demoted == ("y", "x")

    def test_tie_break_by_axis(self, space):
        deltas = gt.concept_deltas(np.array([1.0, 1.0, 1.0]), np.zeros(3), theta=0.5)
        rec = gt.recommend(deltas, set(), space)
        assert rec.promoted == ("x", "y", "z")

    def test_unknown_watched_genre(self, space):
        deltas = gt.concept_deltas(np.zeros(3), np.zeros(3))
        with pytest.raises(gt.UnknownGenreError):
            gt.recommend(deltas, {"opera"}, space)

    def test_duplicate_axis_rejected(self, space):
        bad = [
            gt.ConceptDelta(0, 1.0, gt.POSITIVE),
            gt.ConceptDelta(0, 1.0, gt.POSITIVE),
            gt.ConceptDelta(2, 0.0, gt.NEUTRAL),
        ]
        with pytest.raises(ValueError):
            gt.recommend(bad, set(), space)

    def test_axis_out_of_range_rejected(self, space):
        bad = [gt.ConceptDelta(7, 1.0, gt.POSITIVE)]
        with pytest.raises(ValueError):
            gt.recommend(bad, set(), space)

    def test_date_carried(self, space):
        deltas = gt.concept_deltas(np.zeros(3), np.zeros(3))
        rec = gt.recommend(deltas, set(), space, user_id="u9", date="2026-01-05")
        assert rec.user_id == "u9"
        assert rec.date == "2026-01-05"

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        d=st.integers(min_value=1, max_value=10),
    )
    def test_watched_never_promoted(self, seed, d):
        rng = np.random.default_rng(seed)
        labels = [f"g{i}" for i in range(d)]
        space = gt.new_space(labels)
        deltas = gt.concept_deltas(rng.normal(size=d), rng.normal(size=d), theta=0.1)
        watched = set(rng.choice(labels, size=int(rng.integers(0, d + 1)), replace=False))
        rec = gt.recommend(deltas, watched, space)
        assert not set(rec.promoted) & watched

    def test_seeded_sweep(self):
        assert run_many(check_watched_exclusion, 100, seed=404) == 100


class TestRecommendation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            gt.Recommendation("u", promoted=("x",), demoted=("x",), excluded_watched=())
        with pytest.raises(ValueError):
            gt.Recommendation("u", promoted=("x",), demoted=(), excluded_watched=("x",))


class TestFilterCatalog:
    @pytest.fixture
    def space(self):
        return gt.new_space(["a", "b", "c", "d"])

    def make_rec(self, space, promote, demote):
        estimated = np.zeros(4)
        for g in promote:
            estimated[space.axis(g)] = 1.0
        for g in demote:
            estimated[space.axis(g)] = -1.0
        deltas = gt.concept_deltas(estimated, np.zeros(4), theta=0.5)
        return gt.recommend(deltas, set(), space)

    def test_promoted_genre_required(self, space):
        rec = self.make_rec(space, promote=["a"], demote=["c"])
        catalog = {
            "p1": ["a", "b"],
            "p2": ["b"],
            "p3": ["a", "c"],
            "p4": ["a", "d"],
        }
        assert gt.filter_catalog(catalog, rec, space) == ["p1", "p4"]

    def test_empty_promotions_empty_result(self, space):
        rec = self.make_rec(space, promote=[], demote=[])
        assert gt.filter_catalog({"p1": ["a"]}, rec, space) == []

    def test_unknown_genre_rejected(self, space):
        rec = self.make_rec(space, promote=["a"], demote=[])
        with pytest.raises(gt.UnknownGenreError):
            gt.filter_catalog({"p1": ["a", "zzz"]}, rec, space)


class TestRecommendationIO:
    def test_round_trip(self, tmp_path):
        space = gt.new_space(["x", "y", "z"])
        deltas = gt.concept_deltas(np.array([1.0, -1.0, 0.0]), np.zeros(3), theta=0.5)
        recs = [
            gt.recommend(deltas, set(), space, user_id="u1", date="2026-01-01"),
            gt.recommend(deltas, {"x"}, space, user_id="u2", date="2026-01-01"),
        ]
        path = tmp_path / "recs.jsonl"
        gt.write_recommendations(recs, path)
        back = read_recommendations(path)
        assert len(back) == 2
        for orig, got in zip(recs, back):
            assert got.user_id == orig.user_id
            assert got.promoted == orig.promoted
            assert got.demoted == orig.demoted
            assert got.excluded_watched == orig.excluded_watched
            assert got.date == orig.date

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        good = '{"user_id": "u", "date": "", "promoted": [], "demoted": [], "excluded_watched": []}'
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_recommendations(path)
