"""Every table writer gives the bytes of a per-cell ``fmt`` + ``csv.writer`` writer.

The reference writers below format each float with ``fmt`` and each row with
``csv.writer``; the library's writers format whole rows at a time and must
produce identical files, for awkward user ids and genre labels too.
"""

import csv
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


def awkward_record(awkward_floats, n, start=0):
    values = awkward_floats[start : start + n * 10]
    return gt.TrackRecord(
        user_id=IDS[1],
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


def test_track_record(tmp_path, space, awkward_floats):
    record = awkward_record(awkward_floats, 9)
    write_reference_track(tmp_path / "ref.csv", record, space)
    gt.write_track_record(record, space, tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("block_cells", [1, 19, 40, 100, 200, 10**6])
def test_track_records_stacked_in_blocks(tmp_path, space, awkward_floats, block_cells):
    # Records of 0 to 6 steps, 19 cells a row, stacked and formatted in blocks of a few
    # cells, so that files, stacks and blocks end on every kind of boundary.
    records = [awkward_record(awkward_floats, n, start=7 * n) for n in (3, 1, 6, 0, 2, 5, 1, 4)]
    paths = [tmp_path / f"new{i}.csv" for i in range(len(records))]
    with patch.object(ioutil, "_BLOCK_CELLS", block_cells):
        gt.write_track_records(records, space, paths)
    for record, path in zip(records, paths):
        write_reference_track(tmp_path / "ref.csv", record, space)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_track_records_dimension_checked_before_writing(tmp_path, space, awkward_floats):
    good = awkward_record(awkward_floats, 3)
    bad = gt.TrackRecord("v", np.arange(1, 3), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), np.zeros(2))
    paths = [tmp_path / "good.csv", tmp_path / "bad.csv"]
    with pytest.raises(ValueError, match="record dimension 3 does not match space d=4"):
        gt.write_track_records([good, bad], space, paths)
    assert not any(path.exists() for path in paths)


def test_final_states(tmp_path, space, awkward_floats):
    states = {
        uid: gt.FilterState(x_hat=awkward_floats[12 * i : 12 * (i + 1)], P=np.eye(12))
        for i, uid in enumerate(IDS)
    }
    write_csv(
        tmp_path / "ref.csv",
        tracking._final_state_header(space),
        [[uid] + [fmt(x) for x in states[uid].x_hat] for uid in sorted(states)],
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
