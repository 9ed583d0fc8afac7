"""Seeded synthetic scenarios: latent interest trajectories, noisy daily
snapshots, and watch-event streams that approximately reproduce them.

Each simulated user is a latent point moving through the genre space under the
same kinematic model the tracker assumes: per axis, position/velocity/
acceleration propagate through the constant-acceleration transition with white
acceleration noise of variance ``q_true``.  The observed daily snapshot is the
latent position plus N(0, r_true) measurement noise.  Both are clamped at zero
since interest cannot be negative; the clamp is inactive for the default
parameter ranges (initial positions in [0,1] dwarf the accumulated noise), so
the generated data stays effectively linear.  Three regimes:

* ``smooth_drift``: the plain model, nothing else.
* ``regime_change``: a one-off random velocity kick halfway through, an abrupt
  taste shift the filter must re-acquire.
* ``bursty``: heavy-tailed (Student-t, df=2) spikes added to a random ~5% of
  observation entries, modelling one-off binges.

Everything is driven by ``numpy.random.default_rng`` seeded through
``SeedSequence(seed, spawn_key=(user_index, stream))``, so output is a pure
function of the config: same config, same bytes out, serial or parallel.
Users are drawn one stream at a time and then advanced together, one step a day.
Watch events go straight into the columns of an ``EventLog``, with one uniform
draw per user for all of that user's events and no per-event object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ioutil import DAY_SECONDS
from .profiles import EventLog, ProfileSeries
from .space import ConceptSpace, new_space

__all__ = [
    "DAY_SECONDS",
    "REGIMES",
    "ScenarioConfig",
    "SimulatedUser",
    "ScenarioData",
    "placeholder_vocabulary",
    "day_instants",
    "generate_users",
    "generate_trajectories",
    "generate_events",
    "generate_scenario",
]

REGIMES = ("smooth_drift", "regime_change", "bursty")

# Scale of the initial velocity/acceleration draw relative to sqrt(q_true).
_INIT_KINEMATIC_SCALE = 0.01
# Velocity kick magnitude for the regime_change regime.
_KICK_SCALE = 0.05
# Spike probability per observation entry for the bursty regime.
_SPIKE_PROB = 0.05
# Most (event, genre) cells generate_events draws for one user, as an (events, d) float
# array: 256 MiB.  A user whose days pass it is refused before anything is allocated.
_MAX_EVENT_CELLS = 1 << 25


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic scenario; the seed fixes every byte.

    ``d`` is the genre-space dimension, ``K`` the number of daily snapshot
    instants.  Defaults give the desk-scale reference scenario.
    """

    d: int = 44
    K: int = 35
    n_users: int = 50
    regime: str = "smooth_drift"
    q_true: float = 1e-3
    r_true: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.q_true < 0:
            raise ValueError(f"q_true must be >= 0, got {self.q_true}")
        if self.r_true < 0:
            raise ValueError(f"r_true must be >= 0, got {self.r_true}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SimulatedUser:
    """Latent truth and noisy observations for one user, on the same day grid."""

    user_id: str
    truth: ProfileSeries
    observed: ProfileSeries


@dataclass(frozen=True)
class ScenarioData:
    """A complete generated scenario: vocabulary, users, and their watch events."""

    config: ScenarioConfig
    space: ConceptSpace
    users: tuple[SimulatedUser, ...]
    events: EventLog
    programs_per_day: int

    @property
    def instants(self) -> np.ndarray:
        return self.users[0].truth.instants.copy()

    def observed(self) -> dict[str, ProfileSeries]:
        return {u.user_id: u.observed for u in self.users}


def placeholder_vocabulary(d: int) -> tuple[str, ...]:
    """Zero-padded generic genre labels, e.g. genre_00 .. genre_43."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    width = max(2, len(str(d - 1)))
    return tuple(f"genre_{j:0{width}d}" for j in range(d))


def day_instants(n_days: int) -> np.ndarray:
    """Snapshot instants at the last second of each day: day k ends at (k+1)*86400 - 1."""
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    return np.array([(k + 1) * DAY_SECONDS - 1.0 for k in range(n_days)])


def _user_rng(seed: int, user_index: int, stream: int) -> np.random.Generator:
    # stream 0: trajectory draws, stream 1: event draws.  Separate streams keep
    # event generation from perturbing the trajectory sequence.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(user_index, stream)))


def generate_users(config: ScenarioConfig) -> tuple[SimulatedUser, ...]:
    """Simulate every user, keeping both the latent truth and the observations.

    User i is driven by SeedSequence(seed, spawn_key=(i, 0)), so any one user
    can be regenerated without the others and adding users never changes
    existing ones.  The draws never depend on the state, so each user's stream
    is drawn first, then all users advance together, one step a day.
    """
    N, K, d = config.n_users, config.K, config.d
    sigma_a, sigma_z = math.sqrt(config.q_true), math.sqrt(config.r_true)
    kick_step = K // 2 if config.regime == "regime_change" else None
    spike_scale = 5.0 * sigma_z if sigma_z > 0 else 0.05

    # Per-axis kinematic rows: position, velocity, acceleration.
    state = np.empty((N, d, 3))
    kick, accel_noise = np.zeros((N, d)), np.zeros((N, K, d))  # accel_noise[:, 0] unused
    noise, spikes = np.empty((N, K, d)), np.zeros((N, K, d))
    for i in range(N):
        rng = _user_rng(config.seed, i, 0)
        state[i, :, 0] = rng.uniform(0.0, 1.0, d)
        state[i, :, 1] = rng.normal(0.0, _INIT_KINEMATIC_SCALE * sigma_a, d)
        state[i, :, 2] = rng.normal(0.0, _INIT_KINEMATIC_SCALE * sigma_a, d)
        for k in range(K):
            if k > 0:
                if k == kick_step:
                    kick[i] = rng.normal(0.0, _KICK_SCALE, d)
                accel_noise[i, k] = rng.normal(0.0, sigma_a, d)
            noise[i, k] = rng.normal(0.0, sigma_z, d)
            if config.regime == "bursty":
                mask = rng.random(d) < _SPIKE_PROB
                spikes[i, k] = np.where(mask, rng.standard_t(2, d) * spike_scale, 0.0)
    # tracking._transition_block(T=1.0, alpha=1.0), written out so simulate loads no tracking.
    A3 = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    g = np.array([0.5, 1.0, 1.0])  # T=1 white-acceleration injection vector
    truth = np.empty((N, K, d))
    for k in range(K):
        if k > 0:
            if k == kick_step:
                state[:, :, 1] += kick
            state = state @ A3.T + g * accel_noise[:, k, :, None]
            state[:, :, 0] = np.maximum(state[:, :, 0], 0.0)
        truth[:, k] = state[:, :, 0]
    # (position + noise) + spikes: adding the spikes to the noise first changes the bytes.
    observed = np.maximum(truth + noise + spikes, 0.0)

    instants = day_instants(K)
    return tuple(
        SimulatedUser(u, ProfileSeries(u, instants.copy(), t), ProfileSeries(u, instants.copy(), z))
        for u, t, z in zip((f"u{i:04d}" for i in range(N)), truth, observed)
    )


def generate_trajectories(config: ScenarioConfig) -> dict[str, ProfileSeries]:
    """Observed daily snapshot series per user id, sorted by user id."""
    return {u.user_id: u.observed for u in generate_users(config)}


def generate_events(
    trajectories: Mapping[str, ProfileSeries],
    space: ConceptSpace,
    programs_per_day: int = 3,
    seed: int = 0,
) -> EventLog:
    """Derive a watch-event log whose built profiles approximate the series.

    Day k of a series contributes its non-negative increment over day k-1 (day
    0 contributes the full first row).  That mass is split over
    ``programs_per_day`` single-genre events, more if needed to keep
    watched_fraction <= 1, each event's genre drawn categorically in
    proportion to the per-axis increment.  Days with no positive increment
    produce no events; one whose count overflows int64, or that brings a user's
    events times d past ``_MAX_EVENT_CELLS``, raises ValueError naming the user and day.
    Timestamps are integer seconds, evenly spread inside the day, strictly
    before the day's snapshot instant.  Users are processed in sorted id order,
    each with one uniform draw for all its events from a per-index stream, so
    the output is deterministic in (trajectories, programs_per_day, seed).  The
    log's tables hold only the users and genres that occur.
    """
    if programs_per_day < 1:
        raise ValueError(f"programs_per_day must be >= 1, got {programs_per_day}")
    user_ids = sorted(trajectories)
    # Per user: event count; per event: axis, timestamp, fraction.
    counts, axes, timestamps, fractions = [], [], [], []
    for index, user_id in enumerate(user_ids):
        Z = trajectories[user_id].profiles
        if Z.shape[1] != space.d:
            raise ValueError(
                f"series for {user_id!r} has dimension {Z.shape[1]}, space has d={space.d}"
            )
        if np.any(Z < 0):
            raise ValueError(f"series for {user_id!r} has negative entries")
        deltas = np.maximum(np.concatenate([Z[:1], np.diff(Z, axis=0)]), 0.0)
        with np.errstate(over="ignore"):  # an infinite total is refused below
            totals = deltas.sum(axis=1)
        days = np.flatnonzero(totals > 0.0)
        ceils = np.ceil(totals[days])
        for k in days[~(ceils < 2.0**63)][:1].tolist():  # checked before the int64 cast
            raise ValueError(f"series for {user_id!r}: day {k} total {totals[k]:g} overflows int64")
        n = np.maximum(ceils.astype(np.int64), programs_per_day)
        # Summed in floats, which cannot wrap; the first day to pass the ceiling is named.
        for k in np.flatnonzero(np.cumsum(n, dtype=float) * space.d > _MAX_EVENT_CELLS)[:1].tolist():
            before = f" after {int(n[:k].sum())} on earlier days" if k else ""
            cause = f"day {days[k]} has {n[k]} events{before}, more than can be allocated"
            raise ValueError(f"series for {user_id!r}: {cause}")
        # Each event's row among the event days, and its place 1..n within its day.
        row = np.repeat(np.arange(days.size), n)
        place = np.arange(1, row.size + 1) - (np.cumsum(n) - n)[row]
        # rng.choice(d, n, p=delta/total) per day as numpy computes it, one uniform per event.
        cdf = (deltas[days] / totals[days, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        u = _user_rng(seed, index, 1).random(row.size)
        axes.append((cdf[row] <= u[:, None]).sum(axis=1))
        timestamps.append(days[row] * DAY_SECONDS + place * DAY_SECONDS // (n[row] + 1))
        fractions.append((totals[days] / n)[row])
        counts.append(row.size)
    # Tables of the users and genres that occur, and codes into them.
    counts = np.array(counts, dtype=np.intp)
    users = np.flatnonzero(counts)
    genres, genre_set = np.unique(np.concatenate([[], *axes]).astype(np.intp), return_inverse=True)
    return EventLog(
        user_ids=tuple(user_ids[i] for i in users.tolist()),
        user=np.repeat(np.arange(users.size), counts[users]),
        timestamps=np.concatenate([[], *timestamps]),
        genre_sets=tuple((space.names[a],) for a in genres.tolist()),
        genre_set=genre_set,
        fractions=np.concatenate([[], *fractions]),
    )


def generate_scenario(config: ScenarioConfig, programs_per_day: int = 3) -> ScenarioData:
    """Generate the full scenario: placeholder vocabulary, users, and all events."""
    space = new_space(placeholder_vocabulary(config.d))
    users = generate_users(config)
    events = generate_events(
        {u.user_id: u.observed for u in users}, space, programs_per_day, config.seed
    )
    return ScenarioData(config, space, users, events, programs_per_day)
