import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genretrack as gt
from properties import check_cosine_properties, run_many


class TestConceptSpace:
    def test_two_genres(self):
        space = gt.new_space(["Documentary", "Drama"])
        assert space.d == 2
        assert space.axis("Documentary") == 0
        assert space.axis("Drama") == 1

    def test_forty_four_genres(self):
        labels = [f"genre_{i:02d}" for i in range(44)]
        space = gt.new_space(labels)
        assert space.d == 44
        assert len(space) == 44
        assert space.axis("genre_43") == 43

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            gt.new_space(["Drama", "Comedy", "Drama"])

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            gt.new_space([])

    def test_blank_label_rejected(self):
        with pytest.raises(ValueError):
            gt.new_space(["Drama", ""])

    @pytest.mark.parametrize(
        "label",
        ["a;b", " Drama", "Drama ", "a\nb", "a\rb", "tab\there", "a\x00", "a\x7f", "a\x85b", "a\u2028b"],
    )
    def test_label_the_files_cannot_hold_rejected(self, label):
        # ';' joins genres in the event log; the vocabulary file holds one stripped label a line
        with pytest.raises(ValueError, match=re.escape(f"genre label {label!r} cannot be written")):
            gt.new_space(["Comedy", label])

    @pytest.mark.parametrize("label", ["sci,fi", 'the "best"', "Café", "Science Fiction", "a=b"])
    def test_label_with_comma_quote_or_inner_space_accepted(self, label):
        assert gt.new_space([label]).names == (label,)

    def test_unknown_genre(self):
        space = gt.new_space(["Drama"])
        with pytest.raises(gt.UnknownGenreError):
            space.axis("Comedy")
        assert "Drama" in space
        assert "Comedy" not in space

    def test_axes_sorted(self):
        space = gt.new_space(["a", "b", "c", "d"])
        got = space.axes(["d", "a", "c"])
        assert got.tolist() == [0, 2, 3]

    def test_zeros(self):
        space = gt.new_space(["a", "b", "c"])
        z = space.zeros()
        assert z.shape == (3,)
        assert np.all(z == 0.0)


class TestCosineDistance:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert abs(gt.cosine_distance(v, v)) <= 1e-12

    def test_orthogonal_vectors(self):
        assert gt.cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_forty_five_degrees(self):
        got = gt.cosine_distance(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.29289321881345254, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(gt.ZeroNormError):
            gt.cosine_distance(np.zeros(3), np.ones(3))
        with pytest.raises(gt.ZeroNormError):
            gt.cosine_distance(np.ones(3), np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gt.cosine_distance(np.ones(3), np.ones(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            gt.cosine_distance(np.array([1.0, np.nan]), np.ones(2))


nonneg_vectors = st.integers(min_value=1, max_value=10).flatmap(
    lambda d: st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=d,
        max_size=d,
    )
)


class TestCosineProperties:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(v=nonneg_vectors)
    def test_self_distance_zero(self, v):
        u = np.asarray(v, dtype=float)
        if np.linalg.norm(u) == 0.0:
            u = u + 1.0
        assert abs(gt.cosine_distance(u, u)) <= 1e-12

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        v=nonneg_vectors,
        c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_scale_invariance(self, v, c):
        u = np.asarray(v, dtype=float) + 1e-3
        w = u[::-1].copy() + 0.5
        base = gt.cosine_distance(u, w)
        assert abs(gt.cosine_distance(c * u, w) - base) <= 1e-12
        assert abs(gt.cosine_distance(u, c * w) - base) <= 1e-12

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(v=nonneg_vectors, w=nonneg_vectors)
    def test_nonnegative_inputs_bounded(self, v, w):
        d = min(len(v), len(w))
        u = np.asarray(v[:d], dtype=float) + 1e-3
        x = np.asarray(w[:d], dtype=float) + 1e-3
        got = gt.cosine_distance(u, x)
        assert -1e-12 <= got <= 1.0 + 1e-12

    def test_seeded_sweep(self):
        assert run_many(check_cosine_properties, 100, seed=101) == 100


class TestVocabularyIO:
    def test_round_trip(self, tmp_path):
        labels = ["Action", "Comedy", "Drama"]
        path = tmp_path / "vocab.txt"
        gt.write_vocabulary(gt.new_space(labels), path)
        space = gt.read_vocabulary(path)
        assert space.names == tuple(labels)

    def test_awkward_labels_round_trip_through_events(self, tmp_path):
        space = gt.new_space(["sci,fi", 'the "best"', "Café"])
        gt.write_vocabulary(space, tmp_path / "vocab.txt")
        assert gt.read_vocabulary(tmp_path / "vocab.txt").names == space.names
        events = [gt.WatchEvent("u", 1.0, frozenset(space.names), 1.0)]
        gt.write_events(events, tmp_path / "events.csv")
        series = gt.build_series(gt.read_events(tmp_path / "events.csv"), space, [1.0])
        assert np.array_equal(series["u"].profiles, [[1 / 3, 1 / 3, 1 / 3]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("Action\n\nDrama\n", encoding="utf-8")
        space = gt.read_vocabulary(path)
        assert space.names == ("Action", "Drama")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError):
            gt.read_vocabulary(path)

    def test_byte_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"Action\n\nCaf\xe9\nDrama\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: byte 0xe9 is not UTF-8") + "$"):
            gt.read_vocabulary(path)
