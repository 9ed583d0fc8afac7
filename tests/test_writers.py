"""Every table writer gives the bytes of a per-cell ``fmt`` + ``csv.writer`` writer.

The reference writers below format each float with ``fmt`` and each row with
``csv.writer``; the library's writers format whole rows at a time and must
produce identical files, for awkward user ids and genre labels too.
"""

import csv
import re
from unittest.mock import patch

import numpy as np
import pytest

import genretrack as gt
from genretrack import ioutil, tracking
from genretrack.ioutil import fmt

IDS = ["plain", "comma,id", 'quote"id', "Zoë ü", "both, \"and\" é"]
LABELS = ["Drama", "sci,fi", 'the "best"', "Café"]


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def space():
    return gt.new_space(LABELS)


@pytest.fixture
def awkward_floats():
    rng = np.random.default_rng(12)
    values = rng.normal(scale=10.0 ** rng.integers(-300, 300, size=400), size=400)
    return np.concatenate([values, [0.0, -0.0, 1.0, 0.1, 5e-324, 1e308, -2.5, 3.0]])


def test_events(tmp_path, space):
    events = [
        gt.WatchEvent(IDS[i % 5], 1e9 * i / 7 + 0.1, frozenset(LABELS[: 1 + i % 4]), i / 17)
        for i in range(17)
    ]
    write_csv(
        tmp_path / "ref.csv",
        ["user_id", "timestamp", "genres", "watched_fraction"],
        [
            [e.user_id, fmt(e.timestamp), ";".join(sorted(e.genres)), fmt(e.watched_fraction)]
            for e in events
        ],
    )
    gt.write_events(events, tmp_path / "list.csv")
    gt.write_events(gt.EventLog.from_events(events), tmp_path / "log.csv")
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_profiles(tmp_path, space, awkward_floats):
    rows = awkward_floats[: 5 * 4 * len(IDS)].reshape(len(IDS), 5, 4)
    series = {uid: gt.ProfileSeries(uid, np.arange(5) * 0.3, rows[i]) for i, uid in enumerate(IDS)}
    write_csv(
        tmp_path / "ref.csv",
        ["user_id", "instant", *space.names],
        [
            [uid, fmt(t), *(fmt(x) for x in row)]
            for uid in sorted(series)
            for t, row in zip(series[uid].instants, series[uid].profiles)
        ],
    )
    gt.write_profiles(series, space, tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_profiles_dimension_checked_before_writing(tmp_path, space):
    series = {"u": gt.ProfileSeries("u", np.arange(2.0), np.zeros((2, 3)))}
    with pytest.raises(ValueError, match="series for 'u' has d=3, space has d=4"):
        gt.write_profiles(series, space, tmp_path / "new.csv")
    assert not (tmp_path / "new.csv").exists()


def awkward_record(awkward_floats, n, start=0, user_id=IDS[1]):
    values = awkward_floats[start : start + n * 10]
    return gt.TrackRecord(
        user_id=user_id,
        steps=np.arange(1, n + 1),
        predicted=values[: n * 4].reshape(n, 4),
        innovations=values[n * 4 : n * 8].reshape(n, 4),
        gain_norms=values[n * 8 : n * 9],
        p_traces=values[n * 9 : n * 10],
    )


def write_reference_track(path, record, space):
    write_csv(
        path,
        tracking._track_header(space),
        [
            [int(record.steps[i])]
            + [fmt(x) for x in record.predicted[i]]
            + [fmt(x) for x in record.innovations[i]]
            + [fmt(record.gain_norms[i]), fmt(record.p_traces[i])]
            for i in range(record.n_steps)
        ],
    )


def write_indexed_tracks(records, space, directory):
    """Write ``records`` with ``write_tracks``; each user's file, as the index names it."""
    gt.write_tracks(records, space, directory)
    with open(directory / "index.csv", newline="", encoding="utf-8") as fh:
        return {user_id: directory / name for user_id, name in list(csv.reader(fh))[1:]}


def test_track_record(tmp_path, space, awkward_floats):
    record = awkward_record(awkward_floats, 9)
    write_reference_track(tmp_path / "ref.csv", record, space)
    files = write_indexed_tracks([record], space, tmp_path / "tracks")
    assert files[record.user_id].read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_csv(tmp_path / "ref_index.csv", ["user_id", "file"], [[record.user_id, "comma_id.csv"]])
    assert (tmp_path / "tracks" / "index.csv").read_bytes() == (tmp_path / "ref_index.csv").read_bytes()


@pytest.mark.parametrize("block_cells", [1, 19, 40, 100, 200, 10**6])
def test_track_records_stacked_in_blocks(tmp_path, space, awkward_floats, block_cells):
    # Records of 0 to 6 steps, 19 cells a row, stacked and formatted in blocks of a few
    # cells, so that files, stacks and blocks end on every kind of boundary.
    steps = (3, 1, 6, 0, 2, 5, 1, 4)
    records = [
        awkward_record(awkward_floats, n, start=7 * n, user_id=f"{IDS[i % len(IDS)]} {i}")
        for i, n in enumerate(steps)
    ]
    with patch.object(ioutil, "_BLOCK_CELLS", block_cells):
        files = write_indexed_tracks(records, space, tmp_path / "tracks")
    assert list(files) == [record.user_id for record in records]
    for record in records:
        write_reference_track(tmp_path / "ref.csv", record, space)
        assert files[record.user_id].read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_track_records_dimension_checked_before_writing(tmp_path, space, awkward_floats):
    good = awkward_record(awkward_floats, 3)
    bad = gt.TrackRecord("v", np.arange(1, 3), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="record dimension 3 does not match space d=4"):
        gt.write_tracks([good, bad], space, tmp_path / "out" / "tracks")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "n_records, cause",
    [(2, re.escape("user 'comma,id' has two track records")), (0, "no track records to write")],
    ids=["repeated_user", "no_records"],
)
def test_write_tracks_refuses_what_read_tracks_would_refuse(tmp_path, space, awkward_floats, n_records, cause):
    # read_tracks refuses an index listing a user twice, or no user.
    with pytest.raises(ValueError, match=cause):
        gt.write_tracks([awkward_record(awkward_floats, 3)] * n_records, space, tmp_path / "out" / "tracks")
    assert not (tmp_path / "out").exists()


def test_final_states(tmp_path, space, awkward_floats):
    states = {uid: awkward_floats[12 * i : 12 * (i + 1)] for i, uid in enumerate(IDS)}
    write_csv(
        tmp_path / "ref.csv",
        tracking._final_state_header(space),
        [[uid] + [fmt(x) for x in states[uid]] for uid in sorted(states)],
    )
    gt.write_final_states(states, space, tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def pooled_report(awkward_floats):
    rng = np.random.default_rng(4)
    reports = []
    for i, uid in enumerate(sorted(IDS)):
        n = 3 + i
        cosines = np.abs(awkward_floats[10 * i : 10 * i + n]) % 1.0
        cosines[1] = np.nan  # a skipped step
        reports.append(
            gt.EvalReport(
                user_id=uid, tau=0.15, steps=np.arange(1, n + 1), per_step_cosine=cosines,
                fraction_below_threshold=0.5, smoothness_ratio=0.5,
                per_axis_rmse=rng.random(4), rmse=0.1, mean_cosine=0.2,
            )
        )
    return gt.PooledReport(tau=0.15, reports=tuple(reports))


def test_report(tmp_path, awkward_floats):
    pooled = pooled_report(awkward_floats)
    write_csv(
        tmp_path / "ref.csv",
        ["user_id", "step", "cosine_distance"],
        [
            [r.user_id, int(r.steps[i]), fmt(r.per_step_cosine[i])]
            for r in pooled.reports
            for i in range(r.n_steps)
        ],
    )
    gt.write_report(pooled, tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("bin_width", [0.05, 0.1, 0.3])
def test_histogram(tmp_path, awkward_floats, bin_width):
    pooled = pooled_report(awkward_floats)
    edges, counts = gt.pooled_histogram(pooled, bin_width)
    write_csv(
        tmp_path / "ref.csv",
        ["bin_lo", "bin_hi", "count"],
        [[fmt(edges[i]), fmt(edges[i + 1]), int(counts[i])] for i in range(counts.size)],
    )
    gt.write_histogram(pooled, tmp_path / "new.csv", bin_width)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
