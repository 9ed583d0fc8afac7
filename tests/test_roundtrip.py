"""User ids that can be written read back exactly from every table the pipeline reads.

Ids hold commas, quotes, ``;``, ``=``, edge whitespace and non-ASCII text.  An id with a
line break or a control character is refused where it enters, naming the id, and every
writer refuses one before it opens its file.
"""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genretrack as gt
from genretrack import profiles, tracking
from genretrack.cli import main
import dense_oracle as oracle
from properties import assert_same_log, read_recommendations

# Any character but controls, surrogates (not UTF-8) and the line and paragraph separators.
ID_CHARS = st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"))
IDS = st.text(st.one_of(st.sampled_from(',";= \xa0é日'), ID_CHARS), min_size=1, max_size=10)
ID_LISTS = st.lists(IDS, min_size=1, max_size=5, unique=True)
BAD_IDS = ["two\nlines", "cr\rhere", "tab\there", "nul\x00", "del\x7f", "nel\x85", "a\u2028b", "\x1b[0m"]
VOCABULARY = ["Drama", "News"]


@pytest.fixture(scope="module")
def space():
    return gt.new_space(VOCABULARY)


def series_of(ids, n_instants=4):
    rng = np.random.default_rng(len(ids))
    instants = np.arange(1.0, n_instants + 1)
    return {
        user_id: gt.ProfileSeries(user_id, instants, rng.random((n_instants, len(VOCABULARY))))
        for user_id in ids
    }


@settings(max_examples=50, deadline=None)
@given(ID_LISTS)
def test_events(tmp_path_factory, ids):
    events = [
        gt.WatchEvent(user_id, float(i), frozenset(VOCABULARY[: 1 + i % 2]), 0.5)
        for i, user_id in enumerate(ids * 2)
    ]
    path = tmp_path_factory.mktemp("events") / "events.csv"
    gt.write_events(events, path)
    assert_same_log(gt.read_events(path), gt.EventLog.from_events(events))


@settings(max_examples=50, deadline=None)
@given(ID_LISTS)
def test_profiles(tmp_path_factory, space, ids):
    series = series_of(ids)
    path = tmp_path_factory.mktemp("profiles") / "profiles.csv"
    gt.write_profiles(series, space, path)
    back = gt.read_profiles(path, space)
    assert list(back) == sorted(ids)
    for user_id, ps in back.items():
        assert ps.user_id == user_id
        assert np.array_equal(ps.instants, series[user_id].instants)
        assert np.array_equal(ps.profiles, series[user_id].profiles)


@settings(max_examples=50, deadline=None)
@given(ID_LISTS)
def test_final_states(tmp_path_factory, space, ids):
    n = 3 * space.d
    states = {user_id: np.arange(n) + i / 7 for i, user_id in enumerate(ids)}
    path = tmp_path_factory.mktemp("states") / "final_states.csv"
    gt.write_final_states(states, space, path)
    back = gt.read_final_states(path, space)
    assert sorted(back) == sorted(ids)
    for user_id, x_hat in back.items():
        assert np.array_equal(x_hat, states[user_id])


@settings(max_examples=15, deadline=None)
@given(ID_LISTS)
def test_track_index_through_track_and_evaluate(tmp_path_factory, space, ids):
    root = tmp_path_factory.mktemp("cli")
    vocabulary, profiles = root / "vocabulary.txt", root / "profiles.csv"
    gt.write_vocabulary(space, vocabulary)
    gt.write_profiles(series_of(ids), space, profiles)
    common = ["--vocabulary", str(vocabulary), "--profiles", str(profiles)]
    assert main(["track", *common, "--out", str(root / "tracked")]) == 0
    tracks = root / "tracked" / "tracks"
    assert main(["evaluate", *common, "--tracks", str(tracks), "--out", str(root / "scored")]) == 0
    with open(tracks / "index.csv", newline="", encoding="utf-8") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == sorted(ids)
    with open(root / "scored" / "report.csv", newline="", encoding="utf-8") as fh:
        assert {row[0] for row in list(csv.reader(fh))[1:]} == set(ids)


@pytest.mark.parametrize("user_id", BAD_IDS)
def test_unwritable_id_is_refused_at_entry_naming_it(user_id):
    with pytest.raises(ValueError, match=re.escape(repr(user_id))):
        gt.WatchEvent(user_id, 0.0, frozenset({"Drama"}), 0.5)


@pytest.mark.parametrize("user_id", BAD_IDS)
def test_unwritable_id_in_a_hand_written_table_is_refused_naming_it(tmp_path, space, user_id):
    # Tables written from the event log never hold such an id; one written by hand, its
    # string cells quoted, is refused on reading, naming the id and its row.
    tables = [
        (gt.read_profiles, "profiles.csv", ["user_id", "instant", *VOCABULARY], [["u", 1, 0, 0], [user_id, 2, 0, 0]]),
        (gt.read_final_states, "final_states.csv", tracking._final_state_header(space), [[user_id, *[0] * 6]]),
    ]
    cause = re.escape(f"user id {user_id!r} holds a control character or line separator")
    for read, name, header, rows in tables:
        path = tmp_path / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)
            writer.writerows([header, *rows])
        with pytest.raises(ValueError, match=re.escape(str(path)) + r":\d+: " + cause + "$"):
            read(path, space)


def _pooled(space, user_id):
    series = series_of([user_id])[user_id]
    record = oracle.track_series(gt.build_model(d=space.d, q=1e-3, r=1e-2), series)
    return gt.evaluate_many([record], {user_id: series})


# Each writer of a table or text file that holds user ids, given one holding ``user_id``.
WRITERS = {
    "write_events": lambda space, user_id, path: gt.write_events(
        gt.EventLog((user_id,), [0], [1.0], (("Drama",),), [0], [0.5]), path
    ),
    "write_profiles": lambda space, user_id, path: gt.write_profiles(
        series_of(["u", user_id]), space, path
    ),
    "write_final_states": lambda space, user_id, path: gt.write_final_states(
        {uid: np.zeros(3 * space.d) for uid in ("u", user_id)},
        space,
        path,
    ),
    "write_report": lambda space, user_id, path: gt.write_report(_pooled(space, user_id), path),
    "write_summary": lambda space, user_id, path: gt.write_summary(_pooled(space, user_id), path),
}


def _refusal(user_id):
    return re.escape(f"user id {user_id!r} holds a control character or line separator")


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("user_id", BAD_IDS)
def test_writer_refuses_an_unwritable_id_and_leaves_no_file(tmp_path, space, writer, user_id):
    # Only a library caller can hand a writer such an id: every reader refuses it.
    path = tmp_path / "out"
    with pytest.raises(ValueError, match=_refusal(user_id) + "$"):
        WRITERS[writer](space, user_id, path)
    assert not path.exists()


@pytest.mark.parametrize("user_id", BAD_IDS)
def test_track_refuses_an_unwritable_id_before_writing_its_index(
    tmp_path, space, monkeypatch, capsys, user_id
):
    # read_profiles refuses such an id, so track is handed the series past it.
    monkeypatch.setattr(profiles, "read_profiles", lambda path, space: series_of(["u", user_id]))
    gt.write_vocabulary(space, tmp_path / "vocabulary.txt")
    out = tmp_path / "tracked"
    argv = ["track", "--vocabulary", str(tmp_path / "vocabulary.txt"), "--profiles", "unread.csv"]
    assert main([*argv, "--out", str(out)]) == 2
    assert re.fullmatch(f"genretrack track: error: {_refusal(user_id)}\n", capsys.readouterr().err)
    assert not out.exists()


# Floats of every kind a table holds, finite: signed zeros, subnormals and the extremes.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308]),
)


def float_array(data, *shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=float).reshape(shape)


def same_bits(a, b):
    return np.asarray(a).shape == np.asarray(b).shape and np.array_equal(
        np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_track_record_floats_read_back_bit_for_bit(tmp_path_factory, space, data):
    n, d = data.draw(st.integers(1, 6)), space.d
    values = float_array(data, n, 2 * d + 2)
    record = gt.TrackRecord(
        "u", np.arange(1, n + 1), values[:, :d], values[:, d : 2 * d], values[:, 2 * d], values[:, -1]
    )
    tracks = tmp_path_factory.mktemp("tracks")
    gt.write_tracks([record], space, tracks)
    (back,) = gt.read_tracks(tracks, space)
    assert back.user_id == "u"
    assert back.steps.tolist() == record.steps.tolist()
    for name in ("predicted", "innovations", "gain_norms", "p_traces"):
        assert same_bits(getattr(back, name), getattr(record, name)), name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_profile_floats_read_back_bit_for_bit(tmp_path_factory, space, data):
    series = {}
    for user_id in ("a", "b"):
        instants = data.draw(st.lists(FLOATS, min_size=1, max_size=5))
        instants = sorted(set(instants))
        profiles = float_array(data, len(instants), space.d)
        series[user_id] = gt.ProfileSeries(user_id, np.array(instants), profiles)
    path = tmp_path_factory.mktemp("profiles") / "profiles.csv"
    gt.write_profiles(series, space, path)
    back = gt.read_profiles(path, space)
    assert list(back) == ["a", "b"]
    for user_id, ps in back.items():
        assert same_bits(ps.instants, series[user_id].instants)
        assert same_bits(ps.profiles, series[user_id].profiles)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_final_state_floats_read_back_bit_for_bit(tmp_path_factory, space, data):
    n = 3 * space.d
    states = {user_id: float_array(data, n) for user_id in ("a", "b", "c")}
    path = tmp_path_factory.mktemp("states") / "final_states.csv"
    gt.write_final_states(states, space, path)
    back = gt.read_final_states(path, space)
    assert sorted(back) == ["a", "b", "c"]
    for user_id, x_hat in back.items():
        assert same_bits(x_hat, states[user_id])


# Labels a vocabulary can hold: quotes, backslashes, commas, "=" and non-ASCII text.
AWKWARD_LABELS = ['say "hi"', "back\\slash", "sci,fi", "a=b", "Café", "日本", "‧dot", '""']


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recommendations_read_back_unchanged(tmp_path_factory, data):
    space = gt.new_space(AWKWARD_LABELS)
    recs = []
    for user_id in data.draw(ID_LISTS):
        deltas = gt.concept_deltas(
            np.array(data.draw(st.lists(st.floats(-1, 1), min_size=space.d, max_size=space.d))),
            np.zeros(space.d),
            theta=0.25,
        )
        watched = data.draw(st.sets(st.sampled_from(AWKWARD_LABELS)))
        recs.append(gt.recommend(deltas, watched, space, user_id, data.draw(st.sampled_from(["", "2010-03-04"]))))
    path = tmp_path_factory.mktemp("recs") / "recommendations.jsonl"
    gt.write_recommendations(recs, path)
    assert read_recommendations(path) == recs
    # One line per record, even for an id holding a character str.splitlines splits at.
    assert len(path.read_bytes().split(b"\n")) == len(recs) + 1


# Labels a vocabulary accepts: no ';', control character or line separator, no edge whitespace.
LABELS = st.text(st.one_of(st.sampled_from(',"= \xa0é日_'), ID_CHARS), min_size=1, max_size=8).filter(
    lambda label: ";" not in label and label == label.strip() != ""
)


def header_of(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


@settings(max_examples=40, deadline=None)
@given(st.lists(LABELS, min_size=1, max_size=4, unique=True))
def test_genre_labels_read_back_unchanged(tmp_path_factory, labels):
    """Every label the vocabulary accepts comes back unchanged from the vocabulary file,
    the profile, track-file and final-state headers and recommendations.jsonl."""
    folder = tmp_path_factory.mktemp("labels")
    space = gt.new_space(labels)
    gt.write_vocabulary(space, folder / "vocabulary.txt")
    assert gt.read_vocabulary(folder / "vocabulary.txt").names == tuple(labels)

    rng = np.random.default_rng(len(labels))
    series = gt.ProfileSeries("u", np.arange(1.0, 5.0), rng.random((4, len(labels))))
    gt.write_profiles({"u": series}, space, folder / "profiles.csv")
    assert header_of(folder / "profiles.csv") == ["user_id", "instant", *labels]
    assert gt.read_profiles(folder / "profiles.csv", space)["u"].profiles.tolist() == series.profiles.tolist()

    records = gt.track_users(gt.build_model(d=len(labels)), [series])
    gt.write_tracks(records, space, folder / "tracks")
    parts = [f"{part}_{label}" for part in ("pred", "innov") for label in labels]
    assert header_of(folder / "tracks" / "u.csv") == ["step", *parts, "gain_norm", "p_trace"]
    (back,) = gt.read_tracks(folder / "tracks", space)
    assert back.predicted.tolist() == records[0].predicted.tolist()

    gt.write_final_states({"u": records[0].final_x_hat}, space, folder / "final_states.csv")
    parts = [f"{part}_{label}" for part in ("pos", "vel", "acc") for label in labels]
    assert header_of(folder / "final_states.csv") == ["user_id", *parts]
    assert gt.read_final_states(folder / "final_states.csv", space)["u"].tolist() == records[0].final_x_hat.tolist()

    rec = gt.Recommendation("u", tuple(labels[:1]), tuple(labels[1:3]), tuple(labels[3:]), "2010-03-04")
    gt.write_recommendations([rec], folder / "recommendations.jsonl")
    assert read_recommendations(folder / "recommendations.jsonl") == [rec]
