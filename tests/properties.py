"""Seeded generative property checks shared by the module tests and the
acceptance suite.

Each function runs one randomized case against a caller-supplied Generator and
raises AssertionError on violation.  Callers loop them >= 100 times with a
fixed seed so failures reproduce exactly.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

import genretrack as gt
from genretrack import profiles
from genretrack.ioutil import _check_user_id, csv_cells, parse_timestamp
from genretrack.profiles import _EVENT_HEADER, _labels
from genretrack.synthetic import (
    _INIT_KINEMATIC_SCALE, _KICK_SCALE, _SPIKE_PROB, DAY_SECONDS, _user_rng, day_instants,
)
from genretrack.tracking import _transition_block
import dense_oracle as oracle


def random_nonzero_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.random(d) + 1e-6
    return v


def check_cosine_properties(rng: np.random.Generator) -> None:
    """Self-distance zero, positive-scale invariance, [0, 1] bounds for
    nonnegative inputs."""
    d = int(rng.integers(1, 11))
    u = random_nonzero_vector(rng, d)
    v = random_nonzero_vector(rng, d)
    c = float(rng.random() * 9.9 + 0.1)

    assert abs(gt.cosine_distance(u, u)) <= 1e-12
    base = gt.cosine_distance(u, v)
    assert abs(gt.cosine_distance(c * u, v) - base) <= 1e-12
    assert abs(gt.cosine_distance(u, c * v) - base) <= 1e-12
    assert -1e-12 <= base <= 1.0 + 1e-12


def check_covariance_properties(rng: np.random.Generator) -> None:
    """Prediction covariance stays symmetric and PSD along a filter run."""
    d = int(rng.integers(1, 4))
    n_steps = int(rng.integers(3, 9))
    q = float(10.0 ** rng.uniform(-6, -1))
    r = float(10.0 ** rng.uniform(-4, 0))
    z0 = rng.random(d)
    model = gt.build_model(d=d, q=q, r=r, p0=float(rng.uniform(0.5, 20.0)))
    state = oracle.init_filter(model, z0)
    for _ in range(n_steps):
        z = rng.random(d) * 2.0
        state = oracle.predict_step(model, state, z)
        assert np.array_equal(state.P, state.P.T)
        assert np.linalg.eigvalsh(state.P).min() >= -1e-9


def check_watched_exclusion(rng: np.random.Generator) -> None:
    """Promoted genres never intersect watched genres or demoted genres."""
    d = int(rng.integers(1, 13))
    labels = [f"g{i}" for i in range(d)]
    space = gt.new_space(labels)
    estimated = rng.normal(size=d)
    calculated = rng.normal(size=d)
    theta = float(rng.uniform(0.01, 1.0))
    deltas = gt.concept_deltas(estimated, calculated, theta=theta)
    n_watched = int(rng.integers(0, d + 1))
    watched = set(rng.choice(labels, size=n_watched, replace=False).tolist())
    rec = gt.recommend(deltas, watched, space, user_id="u")
    assert not (set(rec.promoted) & watched)
    assert not (set(rec.promoted) & set(rec.demoted))
    assert set(rec.excluded_watched) <= watched


def check_order_insensitivity(rng: np.random.Generator) -> None:
    """build_series output is independent of event log ordering."""
    d = int(rng.integers(1, 5))
    labels = [f"g{i}" for i in range(d)]
    space = gt.new_space(labels)
    n_users = int(rng.integers(1, 4))
    n_events = int(rng.integers(1, 15))
    decay = float(rng.choice([1.0, 0.8]))
    events = []
    for _ in range(n_events):
        uid = f"u{int(rng.integers(0, n_users))}"
        # coarse timestamps force collisions so canonical ordering matters
        ts = float(rng.integers(0, 5))
        k = int(rng.integers(1, d + 1))
        genres = frozenset(rng.choice(labels, size=k, replace=False).tolist())
        frac = float(rng.random())
        events.append(gt.WatchEvent(uid, ts, genres, frac))
    instants = np.array([0.0, 2.0, 4.0])

    reference = gt.build_series(events, space, instants, decay=decay)
    shuffled = list(events)
    rng.shuffle(shuffled)
    permuted = gt.build_series(shuffled, space, instants, decay=decay)

    assert set(reference) == set(permuted)
    for uid, series in reference.items():
        other = permuted[uid]
        assert np.array_equal(series.instants, other.instants)
        assert np.array_equal(series.profiles, other.profiles)


def check_event_order_matches_lexsort(rng: np.random.Generator, n_users: int) -> None:
    """profiles._event_order is np.lexsort((fractions, genre_set, timestamps, user)), over
    ties on (user, timestamp), rows repeated whole, negative and -0.0 timestamps, -0.0
    and 0.0 fractions, and user codes up to ``n_users - 1``."""
    n = int(rng.integers(1, 200))
    columns = [
        rng.integers(0, n_users, n),
        rng.choice([-86400.5, -1.0, -0.0, 0.0, 3.0, 1e9], n),
        rng.integers(0, 3, n),
        rng.choice([-0.0, 0.0, 0.25, 1.0], n),
    ]
    columns[0][0] = n_users - 1  # the narrowed codes must hold the largest
    again = rng.integers(0, n, int(rng.integers(0, n)))  # rows repeated whole: complete ties
    shuffle = rng.permutation(n + again.size)
    user, timestamps, genre_set, fractions = (np.concatenate((c, c[again]))[shuffle] for c in columns)
    # Zero-padded ids sort as their codes, so EventLog keeps the codes as drawn.
    user_ids = tuple(f"u{i:05d}" for i in range(n_users))
    log = gt.EventLog(user_ids, user, timestamps, (("a",), ("b",), ("c",)), genre_set, fractions)
    expected = np.lexsort((log.fractions, log.genre_set, log.timestamps, log.user))
    assert np.array_equal(profiles._event_order(log), expected)


def reference_fold(events, space, instants, decay=1.0, normalize=False):
    """The one-event-at-a-time fold that build_series must match bit for bit.

    Each user's events go through interest_update in (timestamp, sorted
    genres, fraction) order; the profile is snapshotted at each instant from
    the user's first contributing event on.  Returns {user: (instants, rows)}.
    """
    by_user = {}
    for event in events:
        by_user.setdefault(event.user_id, []).append(event)
    out = {}
    for user_id in sorted(by_user):
        ordered = sorted(
            by_user[user_id],
            key=lambda e: (e.timestamp, tuple(sorted(e.genres)), e.watched_fraction),
        )
        profile = space.zeros()
        consumed = 0
        kept_instants, kept_profiles = [], []
        for t in instants:
            while consumed < len(ordered) and ordered[consumed].timestamp <= t:
                profile = gt.interest_update(profile, ordered[consumed], space, decay)
                consumed += 1
            if consumed > 0:
                kept_instants.append(float(t))
                kept_profiles.append(profile.copy())
        if not kept_profiles:
            continue
        mat = np.vstack(kept_profiles)
        if normalize:
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            np.divide(mat, norms, out=mat, where=norms > 0)
        out[user_id] = (np.array(kept_instants), mat)
    return out


def check_fold_matches_reference(rng: np.random.Generator) -> None:
    """build_series is bit-identical to the per-event reference fold."""
    d = int(rng.integers(1, 6))
    labels = [f"g{i}" for i in range(d)]
    space = gt.new_space(labels)
    n_users = int(rng.integers(1, 5))
    decay = float(rng.choice([1.0, 0.8]))
    normalize = bool(rng.integers(0, 2))
    instants = np.array([0.0, 2.0, 4.0])
    events = []
    for _ in range(int(rng.integers(0, 40))):
        # coarse timestamps force ties; 5 and 6 fall after the last instant
        ts = float(rng.integers(-1, 7))
        genres = rng.choice(labels, size=int(rng.integers(1, d + 1)), replace=False)
        frac = float(rng.choice([0.0, 1.0, rng.random()]))
        uid = f"u{int(rng.integers(0, n_users))}"
        events.append(gt.WatchEvent(uid, ts, frozenset(genres.tolist()), frac))
    # a user whose only events come after the last instant is omitted
    events.append(gt.WatchEvent("late", 4.5, frozenset(labels[:1]), 1.0))

    reference = reference_fold(events, space, instants, decay, normalize)
    built = gt.build_series(events, space, instants, decay=decay, normalize=normalize)

    assert "late" not in built
    assert list(built) == list(reference)
    for uid, (ref_instants, ref_profiles) in reference.items():
        assert np.array_equal(built[uid].instants, ref_instants)
        assert np.array_equal(built[uid].profiles, ref_profiles)


def _reference_user(config: gt.ScenarioConfig, user_index: int) -> gt.SimulatedUser:
    d = config.d
    rng = _user_rng(config.seed, user_index, 0)
    A3 = _transition_block(T=1.0, alpha=1.0)
    g = np.array([0.5, 1.0, 1.0])  # T=1 white-acceleration injection vector

    sigma_a = math.sqrt(config.q_true)
    sigma_z = math.sqrt(config.r_true)
    kick_step = config.K // 2

    # Per-axis kinematic rows: position, velocity, acceleration.
    state = np.empty((d, 3))
    state[:, 0] = rng.uniform(0.0, 1.0, d)
    state[:, 1] = rng.normal(0.0, _INIT_KINEMATIC_SCALE * sigma_a, d)
    state[:, 2] = rng.normal(0.0, _INIT_KINEMATIC_SCALE * sigma_a, d)

    truth = np.empty((config.K, d))
    observed = np.empty((config.K, d))
    for k in range(config.K):
        if k > 0:
            if config.regime == "regime_change" and k == kick_step:
                state[:, 1] += rng.normal(0.0, _KICK_SCALE, d)
            accel_noise = rng.normal(0.0, sigma_a, d)
            state = state @ A3.T + g[None, :] * accel_noise[:, None]
            state[:, 0] = np.maximum(state[:, 0], 0.0)
        truth[k] = state[:, 0]
        z = state[:, 0] + rng.normal(0.0, sigma_z, d)
        if config.regime == "bursty":
            spike_scale = 5.0 * sigma_z if sigma_z > 0 else 0.05
            mask = rng.random(d) < _SPIKE_PROB
            spikes = rng.standard_t(2, d) * spike_scale
            z = z + np.where(mask, spikes, 0.0)
        observed[k] = np.maximum(z, 0.0)

    instants = day_instants(config.K)
    user_id = f"u{user_index:04d}"
    return gt.SimulatedUser(
        user_id=user_id,
        truth=gt.ProfileSeries(user_id=user_id, instants=instants, profiles=truth),
        observed=gt.ProfileSeries(user_id=user_id, instants=instants.copy(), profiles=observed),
    )


def reference_users(config: gt.ScenarioConfig) -> tuple[gt.SimulatedUser, ...]:
    """The one-user-one-day-at-a-time simulation that generate_users must match bit for bit.

    Each user's state steps through the days on its own, drawing from its stream as it
    goes: per day the regime_change kick, the acceleration noise, the observation noise,
    then the bursty spike mask and spikes.
    """
    return tuple(_reference_user(config, i) for i in range(config.n_users))


def check_users_match_reference(rng: np.random.Generator) -> None:
    """generate_users gives the reference simulation's ids, instants, truth and observations."""
    config = gt.ScenarioConfig(
        d=int(rng.integers(1, 7)),
        K=int(rng.integers(2, 9)),
        n_users=int(rng.integers(1, 6)),
        regime=str(rng.choice(gt.REGIMES)),
        q_true=float(rng.choice([0.0, 1e-6, 1e-3, 0.1])),
        r_true=float(rng.choice([0.0, 1e-4, 1e-2, 0.5])),
        seed=int(rng.integers(0, 2**31)),
    )
    users = gt.generate_users(config)
    reference = reference_users(config)
    assert [u.user_id for u in users] == [u.user_id for u in reference]
    for got, want in zip(users, reference):
        for part in ("truth", "observed"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.user_id == b.user_id == got.user_id, config
            assert np.array_equal(a.instants, b.instants), config
            assert np.array_equal(a.profiles, b.profiles), config
            assert np.array_equal(np.signbit(a.profiles), np.signbit(b.profiles)), config


def reference_events(trajectories, space, programs_per_day=3, seed=0):
    """The one-event-at-a-time generator that generate_events must match column for column."""
    if programs_per_day < 1:
        raise ValueError(f"programs_per_day must be >= 1, got {programs_per_day}")
    events: list[gt.WatchEvent] = []
    for index, user_id in enumerate(sorted(trajectories)):
        series = trajectories[user_id]
        Z = series.profiles
        if Z.shape[1] != space.d:
            raise ValueError(
                f"series for {user_id!r} has dimension {Z.shape[1]}, space has d={space.d}"
            )
        if np.any(Z < 0):
            raise ValueError(f"series for {user_id!r} has negative entries")
        rng = _user_rng(seed, index, 1)
        for k in range(Z.shape[0]):
            delta = Z[k] - Z[k - 1] if k > 0 else Z[k]
            delta = np.maximum(delta, 0.0)
            total = float(delta.sum())
            if total <= 0.0:
                continue
            n = max(programs_per_day, math.ceil(total))
            fraction = total / n
            axes = rng.choice(space.d, size=n, p=delta / total)
            for i in range(n):
                offset = ((i + 1) * DAY_SECONDS) // (n + 1)
                events.append(
                    gt.WatchEvent(
                        user_id=user_id,
                        timestamp=float(k * DAY_SECONDS + offset),
                        genres=frozenset({space.names[int(axes[i])]}),
                        watched_fraction=fraction,
                    )
                )
    return events


def assert_same_log(a: gt.EventLog, b: gt.EventLog) -> None:
    """Two event logs hold equal tables and columns (EventLog compares by identity)."""
    assert a.user_ids == b.user_ids
    assert a.genre_sets == b.genre_sets
    for column in ("user", "timestamps", "genre_set", "fractions"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def check_events_match_reference(rng: np.random.Generator) -> None:
    """generate_events gives the reference generator's events, as equal columns."""
    d = int(rng.integers(1, 7))
    # labels out of axis order, so the genre-set table is re-sorted
    labels = [f"g{j}" for j in rng.permutation(d).tolist()]
    space = gt.new_space(labels)
    K = int(rng.integers(2, 8))
    programs_per_day = int(rng.integers(1, 5))
    trajectories = {}
    for i in range(int(rng.integers(1, 6))):
        # scale 4 lets a day's total exceed programs_per_day, so n = ceil(total)
        Z = rng.random((K, d)) * float(rng.choice([0.1, 1.0, 4.0]))
        for k in range(1, K):
            if rng.random() < 0.3:  # a day with no increment, or a falling one
                Z[k] = Z[k - 1] * float(rng.choice([1.0, 0.5]))
        if rng.random() < 0.2:
            Z[:] = 0.0  # a user with no events at all
        uid = f"user{int(rng.integers(0, 1000))}-{i}"
        trajectories[uid] = gt.ProfileSeries(uid, gt.day_instants(K), Z)
    seed = int(rng.integers(0, 2**31))

    reference = reference_events(trajectories, space, programs_per_day, seed)
    log = gt.generate_events(trajectories, space, programs_per_day, seed)
    assert_same_log(log, gt.EventLog.from_events(reference))


def reference_read_events(path) -> gt.EventLog:
    """The row-by-row event reader that read_events must match, column for column.

    Each row is checked as it is read, and each distinct user id once, at its first
    row; a faulty one raises ValueError naming path:line and the cause, a byte that is
    not UTF-8 first.  It reads a fraction with float(), so it also takes 0.1_5 and
    non-ASCII digits, which read_events refuses as numpy's C parser does.
    """
    users: dict[str, int] = {}
    sets: dict[tuple[str, ...], int] = {}
    set_of_text: dict[str, int] = {}  # raw genres cell -> genre-set code, -1 if empty
    user, genre_set = array("q"), array("q")
    timestamps, fractions = array("d"), array("d")
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"event log {path} is empty")
        _refuse_escaped_bytes(header, f"{path}:{reader.line_num}")
        if [h.strip() for h in header] != _EVENT_HEADER:
            raise ValueError(f"event log {path} has header {header!r}, expected {_EVENT_HEADER!r}")
        for row in reader:
            if not row:
                continue
            _refuse_escaped_bytes(row, f"{path}:{reader.line_num}")
            if len(row) != 4:
                raise ValueError(f"{path}:{reader.line_num}: expected 4 fields, got {len(row)}")
            user_id, raw_ts, raw_genres, raw_fraction = row
            code = set_of_text.get(raw_genres)
            if code is None:
                labels = _labels(raw_genres)
                code = sets.setdefault(labels, len(sets)) if labels else -1
                set_of_text[raw_genres] = code
            user_code = users.get(user_id)
            try:
                timestamp = parse_timestamp(raw_ts)
                fraction = float(raw_fraction)
                if user_code is None:
                    _check_user_id(user_id)
                    user_code = users[user_id] = len(users)
                if not (code >= 0 and math.isfinite(timestamp) and 0 <= fraction <= 1):
                    gt.WatchEvent(user_id, timestamp, frozenset(_labels(raw_genres)), fraction)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            user.append(user_code)
            timestamps.append(timestamp)
            genre_set.append(code)
            fractions.append(fraction)
    return gt.EventLog(
        tuple(users),
        np.frombuffer(user, dtype=np.int64),
        np.frombuffer(timestamps, dtype=np.float64),
        tuple(sets),
        np.frombuffer(genre_set, dtype=np.int64),
        np.frombuffer(fractions, dtype=np.float64),
    )


def _refuse_escaped_bytes(row: list[str], where: str) -> None:
    """Raise ``where: byte 0x.. is not UTF-8`` for the first byte errors="surrogateescape"
    escaped in ``row``."""
    for cell in row:
        try:
            cell.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{where}: byte 0x{ord(cell[exc.start]) - 0xDC00:02x} is not UTF-8") from None


def takes_byte_path(path) -> bool:
    """Whether read_events reads ``path`` by its byte path, not by read_rows."""
    try:
        profiles._read_plain_events(path)
    except ValueError:
        return False
    return True


def read_both(path):
    """(reference log or error message, read_events log or error message)."""
    out = []
    for read in (reference_read_events, gt.read_events):
        try:
            out.append(read(path))
        except ValueError as exc:
            out.append(str(exc))
    return out


def assert_reads_like_reference(path) -> None:
    """read_events gives the reference reader's columns, or its first-fault message."""
    reference, got = read_both(path)
    if isinstance(reference, str):
        assert got == reference
    else:
        assert not isinstance(got, str), got
        assert_same_log(got, reference)


# Ids that can be written: commas, quotes, "=", edge whitespace, non-ASCII text.
AWKWARD_IDS = ["u1", "a,b", 'say "hi"', "x=y", " edge ", "é", "u\xa0v", "\u2027", "日本", '""']
# Cells of a genres column, a quoted multi-line one and one holding a blank line among them.
GENRES_CELLS = ["Drama", "Sports;News", " Drama ; Sports ", "News;News;", "Drama;\nSports", "News;\n\nDrama"]
# Malformed rows: each kind test_each_fault_names_its_line covers, and more.
BAD_ROWS = [
    ",5,Drama,1.0", "u2,5, ; ,1.0", "u2,inf,Drama,1.0", "u2,5,Drama,1.5", "u2,5,Drama,half",
    "u2,soon,Drama,1.0", "u2,5,Drama", "u2,5,Drama,1,1", '"a\x00",5,Drama,1', '"a\u2028b",5,Drama,1',
    "u2,5,Drama,nan", "u2,5,Drama,", "   ",
    # more than one fault: the reader's order of checks picks the cause
    "u2,soon,Drama,half", ",soon,Drama,1", ",5,Drama,half", '"a\x00",5,,1', "u2,inf, ,2", "u2,inf,Drama,2",
]


def _timestamp_cell(rng: np.random.Generator) -> str:
    seconds = int(rng.integers(0, 10 * DAY_SECONDS))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return str(seconds)
    if kind == 1:
        return repr(seconds + float(rng.random()))
    iso = np.datetime_as_string(np.datetime64(seconds, "s"))
    return iso + "Z" if kind == 2 else iso.replace("T", " ") + "+01:00"


# Rows read_events' byte path sees in a plain log: a NUL byte, a byte that is not UTF-8,
# a field just past the byte cap, and (valid) fields at the cap, one of them non-ASCII.
CAP = profiles._FIELD_CAP
EDGE_ROWS = [
    b"u\x00v,5,Drama,1", b"u\xff,5,Drama,1", b"u,5,Drama,0.5\xa0", b"L" * (CAP + 1) + b",5,Drama,1",
    b"C" * CAP + b",5,Drama,1", "\u65e5".encode() * (CAP // 3) + b"x,5,Drama,0.25",
    b"u,5," + b"Drama;" * (CAP // 6) + b"News,1", b"u,0." + b"1" * (CAP - 2) + b",Drama,1",
]


def check_read_events_matches_reference(rng: np.random.Generator, tmp_path: Path) -> None:
    """read_events gives the reference reader's columns on a valid file, and on a faulty
    one its first-fault message, over awkward ids, blank lines, mixed line ends, ISO and
    numeric timestamps and quoted multi-line cells.  Half the cases are plain logs (LF
    ends, no quotes), and read_events takes its byte path on exactly the valid plain
    logs whose fields all fit the byte cap."""
    plain = rng.random() < 0.5
    ends = ["\n"] if plain else ["\n", "\r\n", "\r"]
    ids, genres_cells, bad_rows = (
        [cell for cell in cells if '"' not in "".join(csv_cells([cell])) and "\n" not in cell]
        if plain else cells
        for cells in (AWKWARD_IDS, GENRES_CELLS, BAD_ROWS)
    )
    lines = ["user_id,timestamp,genres,watched_fraction" + str(rng.choice(ends[:2]))]
    for _ in range(int(rng.integers(0, 25))):
        user_id, genres = (str(rng.choice(cells)) for cells in (ids, genres_cells))
        fraction = str(rng.choice(["0", "1", " 0.5 ", repr(float(rng.random()))]))
        cells = csv_cells([user_id, _timestamp_cell(rng), genres]) + [fraction]
        lines.append(",".join(cells) + str(rng.choice(ends)))
        if rng.random() < 0.2:
            lines.append(str(rng.choice(ends)))  # a blank line
    rows = [line.encode() for line in lines]
    for _ in range(int(rng.integers(0, 3))):
        rows.insert(int(rng.integers(1, len(rows) + 1)), str(rng.choice(bad_rows)).encode() + b"\n")
    if rng.random() < 0.3:
        rows.insert(int(rng.integers(1, len(rows) + 1)), EDGE_ROWS[int(rng.integers(0, len(EDGE_ROWS)))] + b"\n")
    path = tmp_path / "events.csv"
    path.write_bytes(data := b"".join(rows))
    assert_reads_like_reference(path)
    body = data.partition(b"\n")[2]
    fits = all(len(field) <= CAP for line in body.split(b"\n") for field in line.split(b","))
    plain_bytes = not any(byte in data for byte in (b'"', b"\r", b"\0"))
    valid = not isinstance(read_both(path)[0], str)
    assert takes_byte_path(path) == (plain_bytes and fits and valid)


def reference_write_table(path, header: Sequence[str], row_format: str, rows: Iterable) -> None:
    """Write ``header``, then ``row_format % row`` per row; strings come quoted by csv_cells.

    The writer every table went through before the column-wise one, kept as its reference.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(row_format % row for row in rows)


def read_recommendations(path) -> list[gt.Recommendation]:
    """The records in a ``recommendations.jsonl``, which no command reads back."""
    recs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                lists = (tuple(obj[key]) for key in ("promoted", "demoted", "excluded_watched"))
                recs.append(gt.Recommendation(obj["user_id"], *lists, date=obj.get("date", "")))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: bad recommendation record: {exc}") from exc
    return recs


def run_many(check, n_cases: int, seed: int) -> int:
    """Run a property check across seeded cases; returns the case count."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        check(rng)
    return n_cases
