"""Constant-acceleration Kalman predictor over the genre space.

A user is modelled as a point moving through the d-dimensional genre space
with position, velocity and acceleration per axis.  Every genre axis follows
the same model: the kinematic transition block

    A = [[a, T, T^2/2],
         [0, a, T    ],
         [0, 0, a    ]]

with scalar diagonal ``a`` (alpha) and inter-sample interval ``T``, the 3x3
process-noise block Q, q times a fixed structure, and the measurement of the position
alone, H = [1, 0, 0], with noise variance r; every filter starts from P = p0 I.
:class:`TrackingModel` holds exactly those scalars.

The filter is the one-step-ahead predictor: consuming observation z_k with
prediction x_hat = X(k | k-1) and covariance P = P(k | k-1), on each axis,

    S = H P H' + r                      innovation variance
    K = A P H' / S                      predictor gain
    nu = z_k - H x_hat                  innovation
    X(k+1 | k) = A x_hat + K nu
    P(k+1 | k) = A P A' - K (A P H')' + Q    (symmetrized)

The P and K recursion never sees a measurement, and every axis shares it, so
:func:`track_users` computes one 3x3 gain schedule from the model alone,
then makes one data pass over every user and axis.  No array larger than 3x3
describes the model, so the innovation covariance is a scalar; the general dense
filter over the stacked 3d state, the independent reference this engine is tested
against, is test code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .ioutil import _check_user_id, csv_cells, read_rows, read_table, write_table
from .profiles import ProfileSeries
from .space import ConceptSpace

__all__ = [
    "TrackingModel",
    "TrackRecord",
    "DivergenceError",
    "SingularInnovationError",
    "build_model",
    "gain_schedule",
    "track_users",
    "read_track_record",
    "write_tracks",
    "read_tracks",
    "read_final_states",
    "write_final_states",
]

# Most negative covariance eigenvalue tolerated before declaring divergence, per unit of
# the covariance's scale (see _psd_tolerance).
PSD_TOL = 1e-9


class DivergenceError(RuntimeError):
    """The prediction covariance lost positive semidefiniteness or failed to settle."""


class SingularInnovationError(RuntimeError):
    """The innovation covariance is numerically singular or ill-conditioned."""


def _transition_block(T: float, alpha: float) -> np.ndarray:
    return np.array([[alpha, T, 0.5 * T * T], [0.0, alpha, T], [0.0, 0.0, alpha]])


@dataclass(frozen=True, eq=False)
class TrackingModel:
    """The model every genre axis shares, and each filter's start, made by
    :func:`build_model`, which describes each field.  The constructor checks every value
    and derives the read-only 3x3 process-noise block ``q_block``.  Immutable."""

    d: int
    T: float
    alpha: float
    q: float
    r: float
    p0: float
    q_structure: str
    q_block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        T, q = self.T, self.q
        for name in ("T", "alpha", "q", "r"):
            if not np.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if q < 0:
            raise ValueError(f"process-noise scale q must be >= 0, got {q}")
        if self.q_structure == "white_accel":
            g = np.array([0.5 * T * T, T, 1.0])  # (T^2/2, T, 1) a for unit-variance acceleration a
            with np.errstate(over="ignore", invalid="ignore"):
                block = q * np.outer(g, g)
            if not np.all(np.isfinite(block)):
                raise ValueError(f"process noise overflows: q={q} and T={T} give a non-finite Q")
        elif self.q_structure == "identity":
            block = q * np.eye(3)
        else:
            raise ValueError(f"unknown q_structure: {self.q_structure!r}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not T > 0:
            raise ValueError(f"inter-sample interval T must be > 0, got {T}")
        if not self.r > 0:
            raise ValueError(f"measurement-noise variance r must be > 0, got {self.r}")
        if not self.p0 > 0:
            raise ValueError(f"initial covariance scale p0 must be > 0, got {self.p0}")
        if not np.isfinite(self.p0):
            raise ValueError(f"p0 must be finite, got {self.p0}")
        block.flags.writeable = False
        object.__setattr__(self, "q_block", block)


def build_model(
    d: int,
    T: float = 1.0,
    alpha: float = 1.0,
    q: float = 1e-3,
    r: float = 1e-2,
    p0: float = 10.0,
    q_structure: str = "white_accel",
) -> TrackingModel:
    """The tracking model for a d-dimensional genre space; every value must be finite.

    Parameters
    ----------
    d : space dimension (number of genre axes).
    T : inter-sample interval, > 0; one filter step per profile snapshot.
    alpha : transition diagonal scalar; 1 gives plain kinematics.
    q : process-noise scale, >= 0.
    r : measurement-noise variance per axis, > 0 (the gain divides by the
        innovation variance).
    p0 : initial covariance scale, > 0: every filter starts from p0 * I.
    q_structure : "white_accel" for q times the discrete white-acceleration
        block per axis, or "identity" for plain q*I (ablation variant).
    """
    return TrackingModel(d, T, alpha, q, r, p0, q_structure)


def _psd_tolerance(diagonal: np.ndarray) -> float:
    """PSD_TOL times the covariance's scale: its largest diagonal entry, and at least 1.

    Rounding error grows with the largest eigenvalue, which for a PSD matrix lies
    between the largest diagonal entry and n times it; the diagonal costs O(n).
    """
    return PSD_TOL * max(1.0, float(np.max(np.abs(diagonal))))


@dataclass(frozen=True, eq=False)
class TrackRecord:
    """Per-step tracking log pairing each observation with the prediction made first.

    Row i describes step k = steps[i]: ``predicted[i]`` is the position block
    of X(k | k-1), i.e. the forecast issued before observation z_k arrived;
    ``innovations[i]`` is z_k minus that forecast; ``gain_norms[i]`` is the
    Frobenius norm of the 3d x d gain that consumed z_k; ``p_traces[i]`` is the
    trace of the 3d x 3d P(k | k-1).  The trivial step 0, whose forecast is the
    initial observation itself, is not recorded.  ``final_x_hat`` is the state
    vector [positions | velocities | accelerations] of the one-step forecast past
    the last observation (None for records read from disk).
    """

    user_id: str
    steps: np.ndarray
    predicted: np.ndarray
    innovations: np.ndarray
    gain_norms: np.ndarray
    p_traces: np.ndarray
    final_x_hat: Optional[np.ndarray] = None

    @property
    def n_steps(self) -> int:
        return int(self.steps.size)


def gain_schedule(model: TrackingModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every axis's covariances P_0..P_n, (n + 1, 3, 3), and gains K_0..K_{n-1}, (n, 3), of
    n steps from p0*I: they depend only on the model, and their tail converges to the
    steady state.  Raises the error of the first step that fails a check."""
    A3 = _transition_block(model.T, model.alpha)
    P = model.p0 * np.eye(3)
    covariances, gains = [P], []
    for k in range(n):
        S = P[0, 0] + model.r
        if S <= 0.0:
            raise SingularInnovationError(
                f"innovation covariance ill-conditioned at step {k}: "
                f"eigenvalue {S:.3e} is not positive"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            AP = A3 @ P
            cross = AP[:, 0]  # A P e1
            K = cross / S
            P = AP @ A3.T - np.outer(cross, cross) / S + model.q_block
            P = 0.5 * (P + P.T)
        if not np.all(np.isfinite(P)):
            raise DivergenceError(f"prediction covariance is not finite at step {k + 1}")
        if np.linalg.eigvalsh(P).min() < -_psd_tolerance(np.diag(P)):
            raise DivergenceError(f"prediction covariance lost PSD at step {k + 1}")
        covariances.append(P)
        gains.append(K)
    return np.stack(covariances), np.reshape(gains, (n, 3))


def track_users(model: TrackingModel, series_list: Sequence[ProfileSeries]) -> list[TrackRecord]:
    """Track every series at once, one filter per genre axis; records in input order.

    P_k and K_k never see the data and are the same on every axis:
    :func:`gain_schedule` computes them once, for the longest series, and one
    data pass advances all users together, one (N, d, 3) update per step; a
    shorter series uses a prefix.  Records match the dense filter over the stacked
    3d state to rounding; equal lengths share read-only steps, gain norms and traces.
    A step of the schedule that fails a check is raised before any series is checked.
    """
    lengths = np.array([series.n_instants for series in series_list], dtype=np.intp)
    covariances, gains = gain_schedule(model, int(lengths.max(initial=0)))
    d = model.d
    for series in series_list:
        uid, n_obs = series.user_id, series.n_instants
        if series.d != d:
            raise ValueError(f"user {uid!r}: series dimension {series.d} does not match model d={d}")
        if n_obs < 2:
            raise ValueError(f"user {uid!r}: tracking needs at least 2 observations, got {n_obs}")
        if not np.all(np.isfinite(series.profiles)):
            raise ValueError(f"user {uid!r}: observations contain non-finite values")
    if not series_list:
        return []

    # Longest series first, so the users still running at step k are rows [:active[k]].
    order = np.argsort(-lengths, kind="stable")
    n_users, n_max = len(order), int(lengths[order[0]])
    active = (lengths[:, None] > np.arange(n_max)).sum(axis=0)
    Z = np.zeros((n_users, n_max, d))
    for row, i in enumerate(order):
        Z[row, : lengths[i]] = series_list[i].profiles

    A3 = _transition_block(model.T, model.alpha)
    # Per user and axis, the state row (position, velocity, acceleration).
    X = np.zeros((n_users, d, 3))
    X[:, :, 0] = Z[:, 0]
    predicted = np.empty((n_users, n_max - 1, d))
    innovations = np.empty_like(predicted)
    for k, K in enumerate(gains):
        m = active[k]
        nu = Z[:m, k] - X[:m, :, 0]
        if k >= 1:
            predicted[:m, k - 1] = X[:m, :, 0]
            innovations[:m, k - 1] = nu
        X[:m] = X[:m] @ A3.T + K * nu[:, :, None]

    # Shared by every series: entry k belongs to step k, and a series of n observations
    # reads entries 1..n-1.  The dense gain and P are block diagonal, d copies of the
    # axis's; each sum runs over those d copies in the order the dense entries are laid
    # out, so the digits written are the same as summing the dense matrices' entries.
    steps = np.arange(n_max)
    gain_norms = np.sqrt(np.tile(gains * gains, (1, d)).sum(axis=1))
    p_traces = np.repeat(covariances[:-1, (0, 1, 2), (0, 1, 2)], d, axis=1).sum(axis=1)
    for shared in (steps, gain_norms, p_traces):
        shared.flags.writeable = False
    x_final = np.transpose(X, (0, 2, 1)).reshape(n_users, 3 * d)
    records: list[TrackRecord] = [None] * n_users  # type: ignore[list-item]
    for row, (i, n) in enumerate(zip(order, lengths[order].tolist())):
        records[i] = TrackRecord(
            user_id=series_list[i].user_id,
            steps=steps[1:n],
            predicted=predicted[row, : n - 1],
            innovations=innovations[row, : n - 1],
            gain_norms=gain_norms[1:n],
            p_traces=p_traces[1:n],
            final_x_hat=x_final[row],
        )
    return records


# ---------------------------------------------------------------------------
# tracks directory: one CSV per user, header step, pred_<genre>..., innov_<genre>...,
# gain_norm, p_trace, a row per recorded step; and index.csv, a row user_id,file per user.
# ---------------------------------------------------------------------------
_INDEX = np.dtype([("user_id", object), ("file", object)])


def _track_header(space: ConceptSpace) -> list[str]:
    labels = [f"{part}_{n}" for part in ("pred", "innov") for n in space.names]
    return ["step", *labels, "gain_norm", "p_trace"]


def write_tracks(records: Sequence[TrackRecord], space: ConceptSpace, directory: str | Path) -> None:
    """Write ``records`` into the tracks ``directory``, each to a file named from its user id
    (each character outside ``[A-Za-z0-9._-]`` made ``_``, then ``_2``, ``_3``, ... while
    ``index.csv`` or an earlier name matches it ignoring case), and the index.  Every record
    is checked and every file named before the directory and its missing parents are created."""
    if not records:
        raise ValueError("no track records to write")
    for d in (r.predicted.shape[1] for r in records if r.predicted.shape[1] != space.d):
        raise ValueError(f"record dimension {d} does not match space d={space.d}")
    files: dict[str, str] = {}  # user id -> file name
    taken = {"index.csv"}  # casefolded: U1.csv and u1.csv are one file if case is ignored
    for record in records:
        user_id = _check_user_id(record.user_id)
        if user_id in files:
            raise ValueError(f"user {user_id!r} has two track records")
        base = re.sub(r"[^A-Za-z0-9._-]", "_", user_id)
        name, suffix = f"{base}.csv", 2
        while name.casefold() in taken:
            name, suffix = f"{base}_{suffix}.csv", suffix + 1
        taken.add(name.casefold())
        files[user_id] = name

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    parts = [(r.steps, r.predicted, r.innovations, r.gain_norms, r.p_traces) for r in records]
    paths, sizes = [directory / name for name in files.values()], [r.n_steps for r in records]
    write_table(paths, _track_header(space), [np.concatenate(c) for c in zip(*parts)], sizes)
    codes = np.arange(len(files))  # a file name is its own CSV cell: it needs no quotes
    columns = [(csv_cells(files), codes), (list(files.values()), codes)]
    write_table(directory / "index.csv", _INDEX.names, columns)


def _final_state_header(space: ConceptSpace) -> list[str]:
    return ["user_id", *(f"{part}_{n}" for part in ("pos", "vel", "acc") for n in space.names)]


def write_final_states(
    states: dict[str, np.ndarray], space: ConceptSpace, path: str | Path
) -> None:
    """One row per user: its final predicted state vector, [pos | vel | acc]."""
    for user_id, x_hat in sorted(states.items()):
        if np.shape(x_hat) != (3 * space.d,):
            raise ValueError(f"state for {user_id!r} has shape {np.shape(x_hat)}, space has d={space.d}")
    users = sorted(map(_check_user_id, states))
    x_hats = np.reshape([states[user_id] for user_id in users], (-1, 3 * space.d))
    columns = [(csv_cells(users), np.arange(len(users))), x_hats]
    write_table(path, _final_state_header(space), columns)


def read_final_states(path: str | Path, space: ConceptSpace) -> dict[str, np.ndarray]:
    """Final state vectors keyed by user id; covariances are not persisted.  A user's second
    row is refused naming its ``path:line``."""
    seen: set[str] = set()

    def once(row: list[str]) -> None:
        if row[0] in seen:
            raise ValueError(f"duplicate final state for user {row[0]!r}")
        seen.add(row[0])

    header = _final_state_header(space)
    users, table = read_table(path, header, "final-state file", labeled=True,
                              valid=lambda users, _: len(set(users)) == len(users), check_row=once)
    return dict(zip(users, table))


def read_track_record(path: str | Path, space: ConceptSpace, user_id: str = "") -> TrackRecord:
    """The record of one track file.  A step that is not a whole number above the previous
    row's (above 0 on the first row) and below 2**63 is refused naming its ``path:line``."""
    last = [0]

    def rising(row: list[str]) -> None:
        step = float(row[0])
        if not (step.is_integer() and last[0] < step < 2**63):
            raise ValueError(f"step {row[0]!r} is not a whole number in [{last[0] + 1}, 2**63)")
        last[0] = int(step)

    def valid(_, table: np.ndarray) -> bool:
        steps = table[:, 0]
        return bool(np.all((np.diff(steps, prepend=0.0) > 0) & (steps % 1 == 0) & (steps < 2**63)))

    _, data = read_table(path, _track_header(space), "track record", valid=valid, check_row=rising)
    if not len(data):
        raise ValueError(f"track record {path} has no steps")
    d = space.d
    return TrackRecord(
        user_id=user_id,
        steps=data[:, 0].astype(int),
        predicted=data[:, 1 : 1 + d],
        innovations=data[:, 1 + d : 1 + 2 * d],
        gain_norms=data[:, 1 + 2 * d],
        p_traces=data[:, 2 + 2 * d],
    )


def read_tracks(directory: str | Path, space: ConceptSpace) -> list[TrackRecord]:
    """The records :func:`write_tracks` wrote into ``directory``, in its index's order.  An
    index row whose id breaks the user-id rule, whose user was listed before, or whose file
    is empty, not a name in ``directory`` or listed before (ignoring case, as
    :func:`write_tracks` compares names) is refused naming its ``path:line``."""
    path = Path(directory) / "index.csv"
    index: dict[str, str] = {}  # user id -> file name
    files: set[str] = set()  # the file names, casefolded

    def add(row: Sequence[str]) -> None:
        user_id, name = row
        _check_user_id(user_id)
        if not name:
            raise ValueError("file must be non-empty")
        if re.search(r"[/\\]", name) or name in (".", "..", "index.csv"):
            raise ValueError(f"file {name!r} is not a track file's name")
        if user_id in index:
            raise ValueError(f"user {user_id!r} is listed twice")
        if name.casefold() in files:
            raise ValueError(f"file {name!r} is listed twice")
        index[user_id] = name
        files.add(name.casefold())

    with read_rows(path, _INDEX.names, "track index", _INDEX, add) as chunks:
        try:
            for chunk in chunks:
                for row in chunk.tolist():
                    add(row)
        except ValueError:
            index.clear()  # read_rows' fault pass calls add again from the first row
            files.clear()
            raise
    if not index:
        raise ValueError(f"track index {path} lists no users")
    return [read_track_record(path.parent / name, space, uid) for uid, name in index.items()]
