"""Turn raw watch events into per-user, per-instant interest vectors.

Each watch event bumps the interest scores of the genres attached to the
program, proportionally to how much of the program was actually watched.
Snapshots of the running profile taken at a fixed grid of instants form the
observation sequence that the tracker consumes.

A log is held as an :class:`EventLog`: columns of user codes, timestamps,
genre-set codes and fractions, which :func:`read_events` fills.  It finds each
column's distinct cells with numpy byte operations on a plain log (LF ends, no
quotes, short fields), else from numpy's parse of the CSV rows, and one decode
step then handles each distinct cell once.  :func:`build_series`
folds every user at once on those columns and performs, cell by cell, the
additions of :func:`interest_update` in the same order, so its profiles are
bit-identical to folding one event at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ioutil import (
    _check_user_id, _parse_float, csv_cells, parse_timestamp, read_rows, read_table, write_table,
)
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


def _sort_table(name: str, table: Iterable, codes) -> tuple[tuple, np.ndarray]:
    """The table sorted, and the codes into it recoded to match; errors name the table."""
    table = tuple(table)
    codes = np.asarray(codes, dtype=np.intp)
    repeated = [entry for entry, count in Counter(table).items() if count > 1]
    outside = codes[(codes < 0) | (codes >= len(table))]
    if not all(table):
        raise ValueError(f"event log {name} has a blank entry {next(e for e in table if not e)!r}")
    if repeated:
        raise ValueError(f"event log {name} holds {repeated[0]!r} twice")
    if outside.size:
        raise ValueError(f"event log code {outside[0]} is outside {name} (size {len(table)})")
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
        user_ids, user = _sort_table("user_ids", self.user_ids, self.user)
        sets = (tuple(sorted(labels)) for labels in self.genre_sets)
        genre_sets, genre_set = _sort_table("genre_sets", sets, self.genre_set)
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


def _check_instants(instants: np.ndarray, what: str = "instants") -> None:
    """Reject instants that are not finite and strictly increasing.

    Neighbours are compared, never subtracted: a difference can overflow,
    and a NaN passes ``<= 0``.
    """
    if not np.all(np.isfinite(instants)):
        raise ValueError(f"{what} must be finite, got {instants[~np.isfinite(instants)][0]}")
    if instants.ndim != 1 or not np.all(instants[1:] > instants[:-1]):
        raise ValueError(f"{what} must be strictly increasing")


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
        _check_instants(instants, f"instants for {self.user_id!r}")
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


def _event_order(log: EventLog) -> np.ndarray:
    """``np.lexsort((log.fractions, log.genre_set, log.timestamps, log.user))``, found faster.

    A stable sort by timestamp, then one by user code, narrowed to the smallest signed
    type that holds every code (numpy radix-sorts 8- and 16-bit integers), order the
    events by (user, timestamp).  Each run of events tied on both is then reordered by
    (genre set, fraction) with one lexsort over the tied events alone, keyed first by
    their run.  Every step is stable, so complete ties keep log order, as in the lexsort.
    """
    order = np.argsort(log.timestamps, kind="stable")
    user = log.user.astype(np.min_scalar_type(-len(log.user_ids)))
    order = order[np.argsort(user[order], kind="stable")]
    user, stamps = user[order], log.timestamps[order]
    tied = np.concatenate(([False], (user[1:] == user[:-1]) & (stamps[1:] == stamps[:-1]), [False]))
    run = np.cumsum(~tied[:-1])  # tied[i]: event i - 1 ties with event i
    at = np.flatnonzero(tied[1:] | tied[:-1])
    ties = order[at]
    order[at] = ties[np.lexsort((log.fractions[ties], log.genre_set[ties], run[at]))]
    return order


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
    _check_instants(grid)
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

    # Canonical order: user, timestamp, genre set, fraction, and log order among complete
    # ties.  An event joins the first instant at or after it, or is dropped.
    order = _event_order(log)
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


_EVENT_DTYPE = np.dtype([(name, object) for name in _EVENT_HEADER])


def _encode(cells: np.ndarray, codes: dict[str, int]) -> np.ndarray:
    """Each cell's code in ``codes``, which gives each cell it has not seen the next code."""
    cells = cells.tolist()
    for cell in dict.fromkeys(cells):
        codes.setdefault(cell, len(codes))
    return np.fromiter(map(codes.__getitem__, cells), np.intp, len(cells))


def _check_event_row(row: list[str]) -> None:
    """Raise a faulty row's ValueError; of two causes, the one the reader always named."""
    user_id, ts, genres, fraction = row
    WatchEvent(user_id, parse_timestamp(ts), frozenset(_labels(genres)), _parse_float(fraction))


def read_events(path: str | Path) -> EventLog:
    """Read a watch-event log into columns.

    A plain log (see :func:`_read_plain_events`) is cut into cells with numpy byte
    operations; any other log, which one scan of the file finds before any parsing, and
    a plain one on which the byte path raises ``ValueError``, is read by
    :func:`ioutil.read_rows`.  Either way each distinct cell is handled once, in
    first-seen order: a user id is checked, a timestamp parsed and a genres cell split.
    Any fault raises ``ValueError`` naming the first faulty row's ``path:line`` and its
    cause, as ``read_rows`` names it.
    """
    try:
        return _read_plain_events(path)
    except ValueError:
        return _read_event_rows(path)


def _read_event_rows(path: str | Path) -> EventLog:
    """The event log at ``path``, through :func:`ioutil.read_rows`."""
    # Per column: its distinct cells, each to its code, in first-seen order; its rows' codes.
    cells: list[dict[str, int]] = [{} for _ in _EVENT_HEADER]
    codes: list[list[np.ndarray]] = [[np.empty(0, np.intp)] for _ in _EVENT_HEADER]
    with read_rows(path, _EVENT_HEADER, "event log", _EVENT_DTYPE, _check_event_row) as chunks:
        for chunk in chunks:
            for name, seen, parts in zip(_EVENT_HEADER, cells, codes):
                parts.append(_encode(chunk[name], seen))
        return _event_log([(list(seen), np.concatenate(parts)) for seen, parts in zip(cells, codes)])


def _event_log(columns: Sequence[tuple[Sequence[str], np.ndarray]]) -> EventLog:
    """The log whose 4 columns each hold (its distinct cells in first-seen order, each row's
    index into them).  Each distinct cell is decoded once: a user id checked, a timestamp and
    a fraction parsed, a genres cell split; EventLog refuses a non-finite timestamp and a
    fraction outside [0, 1]."""
    (users, user), (stamps, stamp), (genres, genre), (fractions, fraction) = columns
    for user_id in users:
        _check_user_id(user_id)
    sets: dict[tuple[str, ...], int] = {}
    label_sets = [_labels(cell) for cell in genres]
    # A cell with no label gets -1, which EventLog refuses.
    set_of_cell = np.array([sets.setdefault(s, len(sets)) if s else -1 for s in label_sets], dtype=np.intp)
    return EventLog(
        tuple(users),
        user,
        np.array(list(map(parse_timestamp, stamps)), dtype=float)[stamp],
        tuple(sets),
        set_of_cell[genre],
        np.array(list(map(_parse_float, fractions)), dtype=float)[fraction],
    )


# The byte path reads a log this many bytes at a time, cut after the block's last newline.
_PLAIN_BLOCK_BYTES = 1 << 19
# A field longer than this many bytes sends the log to read_rows.
_FIELD_CAP = 64
_LINE_CAP = 4 * _FIELD_CAP + 3  # the longest line a plain log can hold, newline aside
_PAD = bytes(_FIELD_CAP + 8)  # lets a word be read past a block's last field
# _LOW_BYTES[n] keeps the n low (first) bytes of a little-endian word.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _distinct(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For cells held as the columns of ``words`` (each cell's bytes, NUL-padded, as 64-bit
    words): the first column of each distinct cell, in first-seen order, and each column's
    index into those.  ``ValueError`` if two distinct cells share a key."""
    key = words[0]
    for word in words[1:]:
        key = key * np.uint64(0x9E3779B97F4A7C15) + word
    # np.unique's work, and each key's first column: the least in its run of the sort.
    order = key.argsort()
    new = np.diff(key[order], prepend=~key[order[:1]]) != 0
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if order.size else order
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    if not np.array_equal(words, words[:, first[group]]):  # a hash collision joins two cells
        raise ValueError("two distinct cells share a key")
    seen = first.argsort()
    rank = np.empty_like(seen)
    rank[seen] = np.arange(seen.size)
    return first[seen], rank[group]


def _plain_block(block: bytes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each column's (distinct cells in first-seen order, each row's index into them) for
    ``block``, whole lines of a plain log, the last one's newline left off.  A cell is a
    fixed-width bytes scalar, its field padded with NUL bytes to a whole number of words."""
    buf = np.frombuffer(block, np.uint8)
    ends = np.append(np.flatnonzero(buf == ord("\n")), buf.size)
    commas = np.flatnonzero(buf == ord(","))
    starts = np.concatenate(([0], ends[:-1] + 1))
    full = ends > starts  # an empty line holds no row
    if not np.array_equal(np.diff(np.searchsorted(commas, ends), prepend=0), 3 * full):
        raise ValueError("a row without 4 fields")
    commas = commas.reshape(-1, 3).T
    lo = np.vstack((starts[full], commas + 1))
    sizes = np.vstack((commas, ends[full])) - lo
    if sizes.max(initial=0) > _FIELD_CAP:
        raise ValueError("a field too long for the byte path")
    # window[i] is the little-endian word of the 8 bytes at offset i.
    padded = block + _PAD
    window = np.ndarray((len(padded) - 7,), "<u8", padded, strides=(1,))
    out = []
    for start, size in zip(lo, sizes):
        n_words = max(1, -(-int(size.max(initial=0)) // 8))
        words = np.array([
            window[start + 8 * w] & _LOW_BYTES[np.clip(size - 8 * w, 0, 8)] for w in range(n_words)
        ], dtype="<u8")
        first, index = _distinct(words)
        out.append((np.ascontiguousarray(words[:, first].T).view(f"S{8 * n_words}").ravel(), index))
    return out


def _read_plain_events(path: str | Path) -> EventLog:
    """The event log at ``path`` if it is plain, else ``ValueError``.

    A plain log holds no ``"``, CR or NUL byte, has the exact header, a row of 4 fields
    of at most ``_FIELD_CAP`` bytes on each line that is not empty, and only valid
    values.  One scan of the whole file for those three bytes refuses a log that is not
    plain before any parsing.  A plain log is then read a bounded block of lines at a
    time: numpy finds each row's commas, packs each field into 64-bit words and keys
    each block's distinct cells.  The blocks' distinct cells are keyed again, and each
    distinct cell of the log is decoded once and given the value ``read_rows`` gives it.
    """
    blocks = []
    with open(path, "rb") as fh:
        while block := fh.read(_PLAIN_BLOCK_BYTES):
            if b'"' in block or b"\r" in block or b"\0" in block:
                raise ValueError("not a plain log")
        fh.seek(0)
        if fh.readline(_LINE_CAP).rstrip(b"\n").decode().split(",") != _EVENT_HEADER:
            raise ValueError("not the exact header")
        tail = b""
        while block := fh.read(_PLAIN_BLOCK_BYTES):
            lines, _, tail = (tail + block).rpartition(b"\n")
            if lines:
                blocks.append(_plain_block(lines))
            if len(tail) > _LINE_CAP:
                raise ValueError("a line too long for the byte path")
        if tail:
            blocks.append(_plain_block(tail))
    columns = []
    for parts in zip(*blocks) if blocks else ([],) * 4:
        # The blocks' distinct cells, padded to one width, keyed again.
        cells = np.concatenate([np.empty(0, "S8"), *(c for c, _ in parts)])
        first, inverse = _distinct(cells.view("<u8").reshape(cells.size, cells.itemsize // 8).T)
        offsets = np.cumsum([0, *(c.size for c, _ in parts)])
        index = np.concatenate([np.empty(0, np.intp), *(i + o for (_, i), o in zip(parts, offsets))])
        columns.append(([cell.decode() for cell in cells[first].tolist()], inverse[index]))
    return _event_log(columns)


def write_events(events: EventLog | Iterable[WatchEvent], path: str | Path) -> None:
    log = events if isinstance(events, EventLog) else EventLog.from_events(events)
    users = csv_cells(map(_check_user_id, log.user_ids))
    sets = csv_cells(";".join(labels) for labels in log.genre_sets)
    columns = [(users, log.user), log.timestamps, (sets, log.genre_set), log.fractions]
    for i in (1, 3):  # a log repeats these: each distinct bit pattern is formatted once
        bits, codes = np.unique(columns[i].view(np.uint64), return_inverse=True)
        columns[i] = (bits.view(float), codes)
    write_table(path, _EVENT_HEADER, columns)


def write_profiles(
    series: Mapping[str, ProfileSeries],
    space: ConceptSpace,
    path: str | Path,
) -> None:
    for user_id, ps in sorted(series.items()):
        if ps.d != space.d:
            raise ValueError(f"series for {user_id!r} has d={ps.d}, space has d={space.d}")
    users = sorted(map(_check_user_id, series))
    chosen = [series[user_id] for user_id in users]
    columns = [
        (csv_cells(users), np.repeat(np.arange(len(users)), [ps.n_instants for ps in chosen])),
        np.concatenate([[], *(ps.instants for ps in chosen)]),
        np.concatenate([np.empty((0, space.d)), *(ps.profiles for ps in chosen)]),
    ]
    write_table(path, ["user_id", "instant", *space.names], columns)


def read_profiles(path: str | Path, space: ConceptSpace) -> dict[str, ProfileSeries]:
    """Each user's series, keyed and ordered by user id; a user's rows stay in file order.
    A row whose instant is not after its user's last is refused naming its ``path:line``."""
    header = ["user_id", "instant", *space.names]
    last: dict[str, tuple[float, str]] = {}  # user id -> (instant, cell) of its last row
    runs: list[np.ndarray] = []  # each user's row numbers in file order, users in id order

    def increasing(row: list[str]) -> None:
        user_id, instant, cell = row[0], float(row[1]), row[1].strip()
        if user_id in last and instant <= last[user_id][0]:  # a NaN is ProfileSeries' fault
            got = f"got {cell} after {last[user_id][1]}"
            raise ValueError(f"instants for {user_id!r} must be strictly increasing, {got}")
        last[user_id] = instant, cell

    def valid(users: list[str], table: np.ndarray) -> bool:
        code = np.unique(np.array(users, dtype=str), return_inverse=True)[1]
        order = np.argsort(code, kind="stable")
        instants, same_user = table[order, 0], np.diff(code[order]) == 0
        runs.extend(np.split(order, np.flatnonzero(~same_user) + 1) if users else [])
        return not np.any(same_user & (instants[1:] <= instants[:-1]))

    users, table = read_table(path, header, "profile table", labeled=True,
                              valid=valid, check_row=increasing)
    return {users[r[0]]: ProfileSeries(users[r[0]], table[r, 0], table[r, 1:]) for r in runs}
