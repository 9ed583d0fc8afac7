"""Turn raw watch events into per-user, per-instant interest vectors.

Each watch event bumps the interest scores of the genres attached to the
program, proportionally to how much of the program was actually watched.
Snapshots of the running profile taken at a fixed grid of instants form the
observation sequence that the tracker consumes.

A log is held as an :class:`EventLog`: columns of user codes, timestamps,
genre-set codes and fractions, which :func:`read_events` fills straight from
the CSV rows.  :func:`build_series` folds every user at once on those columns
and performs, cell by cell, the additions of :func:`interest_update` in the
same order, so its profiles are bit-identical to folding one event at a time.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ioutil import csv_cells, parse_timestamp, read_table, write_table
from .space import ConceptSpace, UnknownGenreError

__all__ = [
    "WatchEvent",
    "EventLog",
    "ProfileSeries",
    "interest_update",
    "build_series",
    "read_events",
    "write_events",
    "read_profiles",
    "write_profiles",
]


# C0 and C1 controls and the Unicode line and paragraph separators: in a user id they
# would split or hide a line of summary.txt and of any text view of the CSV tables.
_UNWRITABLE_ID = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def _check_user_id(user_id: str) -> None:
    if not user_id:
        raise ValueError("event user_id must be non-empty")
    if _UNWRITABLE_ID.search(user_id):
        raise ValueError(f"user id {user_id!r} holds a control character or line separator")


@dataclass(frozen=True)
class WatchEvent:
    """One viewing record: who watched what kind of program, and how much of it.

    ``watched_fraction`` is the fraction of the program duration actually
    viewed, in [0, 1].  ``genres`` is the non-empty set of genre labels the
    program is tagged with.  ``user_id`` may hold no control character and no
    line or paragraph separator.
    """

    user_id: str
    timestamp: float
    genres: frozenset[str]
    watched_fraction: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "genres", frozenset(self.genres))
        _check_user_id(self.user_id)
        if not self.genres:
            raise ValueError(f"event for {self.user_id!r} has no genres")
        if not np.isfinite(self.timestamp):
            raise ValueError(f"event for {self.user_id!r} has non-finite timestamp")
        if not 0.0 <= self.watched_fraction <= 1.0:
            raise ValueError(f"watched_fraction must be in [0, 1], got {self.watched_fraction!r}")


def _sort_table(table: Iterable, codes) -> tuple[tuple, np.ndarray]:
    """The table sorted, and the codes into it recoded to match."""
    table = tuple(table)
    codes = np.asarray(codes, dtype=np.intp)
    in_range = np.all((codes >= 0) & (codes < len(table)))
    if len(set(table)) < len(table) or not all(table) or not in_range:
        raise ValueError("event log table has a blank or repeated entry, or a code outside it")
    order = sorted(range(len(table)), key=table.__getitem__)
    recode = np.empty(len(table), dtype=np.intp)
    recode[order] = np.arange(len(table))
    return tuple(table[i] for i in order), recode[codes]


@dataclass(frozen=True, eq=False)
class EventLog:
    """A watch-event log held as columns, one entry per event, in log order.

    ``user`` and ``genre_set`` are codes into the sorted tables of distinct
    ``user_ids`` and ``genre_sets`` (sorted label tuples), so sorting codes
    sorts what they stand for.  Construction sorts the tables and recodes the
    events.  ``len``, indexing and iteration yield :class:`WatchEvent` records.
    """

    user_ids: tuple[str, ...]
    user: np.ndarray
    timestamps: np.ndarray
    genre_sets: tuple[tuple[str, ...], ...]
    genre_set: np.ndarray
    fractions: np.ndarray

    def __post_init__(self) -> None:
        user_ids, user = _sort_table(self.user_ids, self.user)
        sets = (tuple(sorted(labels)) for labels in self.genre_sets)
        genre_sets, genre_set = _sort_table(sets, self.genre_set)
        timestamps = np.asarray(self.timestamps, dtype=float).view()
        fractions = np.asarray(self.fractions, dtype=float).view()
        columns = dict(user=user, timestamps=timestamps, genre_set=genre_set, fractions=fractions)
        if any(column.shape != (user.size,) for column in columns.values()):
            raise ValueError("event log columns must be 1-D and of equal length")
        if not (np.all(np.isfinite(timestamps)) and np.all((fractions >= 0) & (fractions <= 1))):
            raise ValueError("event log has a non-finite timestamp or a fraction outside [0, 1]")
        object.__setattr__(self, "user_ids", user_ids)
        object.__setattr__(self, "genre_sets", genre_sets)
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_events(cls, events: Iterable[WatchEvent]) -> EventLog:
        """The columns of a sequence of :class:`WatchEvent` records."""
        users: dict[str, int] = {}
        sets: dict[tuple[str, ...], int] = {}
        rows = [
            (
                users.setdefault(event.user_id, len(users)),
                event.timestamp,
                sets.setdefault(tuple(sorted(event.genres)), len(sets)),
                event.watched_fraction,
            )
            for event in events
        ]
        user, timestamps, genre_set, fractions = zip(*rows) if rows else ((),) * 4
        return cls(tuple(users), user, timestamps, tuple(sets), genre_set, fractions)

    def __len__(self) -> int:
        return len(self.user)

    def __getitem__(self, i: int) -> WatchEvent:
        return WatchEvent(
            self.user_ids[self.user[i]],
            float(self.timestamps[i]),
            frozenset(self.genre_sets[self.genre_set[i]]),
            float(self.fractions[i]),
        )

    def __iter__(self) -> Iterator[WatchEvent]:
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True, eq=False)
class ProfileSeries:
    """A user's interest vectors sampled at strictly increasing instants.

    ``profiles`` has one row per instant; row k is the profile observed at
    ``instants[k]``.
    """

    user_id: str
    instants: np.ndarray
    profiles: np.ndarray

    def __post_init__(self) -> None:
        instants = np.asarray(self.instants, dtype=float)
        profiles = np.asarray(self.profiles, dtype=float)
        object.__setattr__(self, "instants", instants)
        object.__setattr__(self, "profiles", profiles)
        if instants.ndim != 1 or instants.size < 1:
            raise ValueError("instants must be a non-empty 1-D sequence")
        if profiles.ndim != 2 or profiles.shape[0] != instants.size:
            raise ValueError(
                f"profiles shape {profiles.shape} does not match "
                f"{instants.size} instants"
            )
        if np.any(np.diff(instants) <= 0):
            raise ValueError("instants must be strictly increasing")
        if not np.all(np.isfinite(profiles)):
            raise ValueError(f"profiles for {self.user_id!r} contain non-finite values")

    @property
    def n_instants(self) -> int:
        return int(self.instants.size)

    @property
    def d(self) -> int:
        return int(self.profiles.shape[1])


def interest_update(
    profile: np.ndarray,
    event: WatchEvent,
    space: ConceptSpace,
    decay: float = 1.0,
) -> np.ndarray:
    """Fold one watch event into a profile.

    Every axis first decays by ``decay``; each genre of the event then gains
    ``watched_fraction / n_genres``, so a fully watched single-genre program
    adds exactly 1 to its axis.  Entries stay nonnegative.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (space.d,):
        raise ValueError(f"profile shape {profile.shape} does not match d={space.d}")
    if not 0.0 <= decay <= 1.0:
        raise ValueError(f"decay must be in [0, 1], got {decay!r}")
    try:
        axes = space.axes(event.genres)
    except UnknownGenreError as exc:
        raise UnknownGenreError(f"{exc.args[0]} in event {event!r}") from None
    updated = decay * profile
    updated[axes] += event.watched_fraction / len(event.genres)
    return updated


def build_series(
    events: EventLog | Iterable[WatchEvent],
    space: ConceptSpace,
    instants: Sequence[float],
    decay: float = 1.0,
    normalize: bool = False,
) -> dict[str, ProfileSeries]:
    """Fold a watch-event log into per-user profile series.

    Each user's events are applied in (timestamp, sorted genres, fraction)
    order, so input order never matters; the running profile is snapshotted
    at each instant, counting events with ``timestamp <= instant``.  A user
    enters the output at the first instant with at least one contributing
    event, so no series ever starts with an all-zero history; users with no
    usable events are omitted.  With ``normalize=True`` each snapshot is
    scaled to unit L2 norm.  All users advance together, and each profile
    cell gets the operations of :func:`interest_update` in the same order.
    """
    grid = np.asarray(list(instants), dtype=float)
    if grid.size == 0:
        raise ValueError("instants list is empty")
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("instants must be strictly increasing")
    if not 0.0 <= decay <= 1.0:
        raise ValueError(f"decay must be in [0, 1], got {decay!r}")
    log = events if isinstance(events, EventLog) else EventLog.from_events(events)

    # Each genre set's axes, padded with column d: a spare column no snapshot reads.
    n_genres = np.array([len(labels) for labels in log.genre_sets], dtype=float)
    set_axes = np.full((len(n_genres), int(n_genres.max(initial=0))), space.d)
    for code, labels in enumerate(log.genre_sets):
        try:
            set_axes[code, : len(labels)] = space.axes(labels)
        except UnknownGenreError as exc:
            event = log[int(np.argmax(log.genre_set == code))]
            raise UnknownGenreError(f"{exc.args[0]} in event {event!r}") from None

    # Canonical order; an event joins the first instant at or after it, or is dropped.
    order = np.lexsort((log.fractions, log.genre_set, log.timestamps, log.user))
    interval = np.searchsorted(grid, log.timestamps[order], "left")
    order, interval = order[interval < grid.size], interval[interval < grid.size]
    user = log.user[order]
    first = np.full(len(log.user_ids), grid.size)
    np.minimum.at(first, user, interval)
    # Step (j, k) applies the k-th event of every user in interval j; steps run in (j, k) order.
    runs = np.flatnonzero(np.diff(user * grid.size + interval, prepend=-1))
    rank = np.arange(user.size) - np.repeat(runs, np.diff(runs, append=user.size))
    step = interval * user.size + rank
    by_step = np.argsort(step, kind="stable")
    order, user, interval, step = order[by_step], user[by_step], interval[by_step], step[by_step]
    bounds = [*np.flatnonzero(np.diff(step, prepend=-1)).tolist(), user.size]
    axes = set_axes[log.genre_set[order]]
    gains = log.fractions[order] / n_genres[log.genre_set[order]]

    current = np.zeros((len(log.user_ids), space.d + 1))
    snapshots = np.empty((len(log.user_ids), grid.size, space.d))
    taken = 0  # intervals snapshotted so far
    for a, b in zip(bounds, bounds[1:]):
        snapshots[:, taken : interval[a]] = current[:, None, :-1]
        taken = interval[a]
        rows = user[a:b]
        current[rows] *= decay
        current[rows[:, None], axes[a:b]] += gains[a:b, None]
    snapshots[:, taken:] = current[:, None, :-1]

    out: dict[str, ProfileSeries] = {}
    for u in np.flatnonzero(first < grid.size):
        mat = snapshots[u, first[u] :]
        if normalize:
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            np.divide(mat, norms, out=mat, where=norms > 0)
        out[log.user_ids[u]] = ProfileSeries(log.user_ids[u], grid[first[u] :].copy(), mat)
    return out


# ---------------------------------------------------------------------------
# file formats
#
# Watch-event log: CSV with header user_id,timestamp,genres,watched_fraction;
# genres is a semicolon-joined label list, timestamps are epoch seconds or
# ISO-8601 on input and epoch seconds on output.
#
# Profile table: CSV with header user_id,instant,<genre labels...>; one row
# per (user, instant), floats at full precision.
# ---------------------------------------------------------------------------

_EVENT_HEADER = ["user_id", "timestamp", "genres", "watched_fraction"]


def _labels(raw_genres: str) -> tuple[str, ...]:
    return tuple(sorted({g.strip() for g in raw_genres.split(";")} - {""}))


def read_events(path: str | Path) -> EventLog:
    """Read a watch-event log, row by row, straight into columns.

    Each row is checked as it is read, and each distinct user id once, at its
    first row; a faulty one raises ``ValueError`` naming ``path:line`` and the cause.
    """
    users: dict[str, int] = {}
    sets: dict[tuple[str, ...], int] = {}
    set_of_text: dict[str, int] = {}  # raw genres cell -> genre-set code, -1 if empty
    user, genre_set = array("q"), array("q")
    timestamps, fractions = array("d"), array("d")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"event log {path} is empty")
        if [h.strip() for h in header] != _EVENT_HEADER:
            raise ValueError(f"event log {path} has header {header!r}, expected {_EVENT_HEADER!r}")
        for row in reader:
            if not row:
                continue
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
                    WatchEvent(user_id, timestamp, frozenset(_labels(raw_genres)), fraction)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            user.append(user_code)
            timestamps.append(timestamp)
            genre_set.append(code)
            fractions.append(fraction)
    return EventLog(
        tuple(users),
        np.frombuffer(user, dtype=np.int64),
        np.frombuffer(timestamps, dtype=np.float64),
        tuple(sets),
        np.frombuffer(genre_set, dtype=np.int64),
        np.frombuffer(fractions, dtype=np.float64),
    )


def write_events(events: EventLog | Iterable[WatchEvent], path: str | Path) -> None:
    log = events if isinstance(events, EventLog) else EventLog.from_events(events)
    users = csv_cells(log.user_ids)
    sets = csv_cells(";".join(labels) for labels in log.genre_sets)
    rows = zip(
        map(users.__getitem__, log.user.tolist()),
        log.timestamps.tolist(),
        map(sets.__getitem__, log.genre_set.tolist()),
        log.fractions.tolist(),
    )
    write_table(path, _EVENT_HEADER, "%s,%.17g,%s,%.17g\n", rows)


def write_profiles(
    series: Mapping[str, ProfileSeries],
    space: ConceptSpace,
    path: str | Path,
) -> None:
    for user_id, ps in sorted(series.items()):
        if ps.d != space.d:
            raise ValueError(f"series for {user_id!r} has d={ps.d}, space has d={space.d}")
    users = sorted(series)
    rows = (
        (cell, *row)
        for cell, user_id in zip(csv_cells(users), users)
        for row in np.column_stack([series[user_id].instants, series[user_id].profiles]).tolist()
    )
    header = ["user_id", "instant", *space.names]
    write_table(path, header, "%s" + ",%.17g" * (space.d + 1) + "\n", rows)


def read_profiles(path: str | Path, space: ConceptSpace) -> dict[str, ProfileSeries]:
    """Each user's series, keyed and ordered by user id; a user's rows stay in file order."""
    header = ["user_id", "instant", *space.names]
    users, table = read_table(path, header, "profile table", labeled=True)
    rows: dict[str, list[int]] = {}
    for i, user_id in enumerate(users):
        rows.setdefault(user_id, []).append(i)
    return {
        user_id: ProfileSeries(user_id, table[rows[user_id], 0], table[rows[user_id], 1:])
        for user_id in sorted(rows)
    }
