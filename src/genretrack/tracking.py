"""Constant-acceleration Kalman predictor over the genre space.

A user is modelled as a point moving through the d-dimensional genre space
with position, velocity and acceleration per axis, stacked into a 3d state
ordered as [positions | velocities | accelerations].  The transition matrix
is the kinematic block form

    A = [[a*I, T*I, T^2/2*I],
         [0,   a*I, T*I    ],
         [0,   0,   a*I    ]]

with d x d identity blocks, scalar diagonal ``a`` (alpha) and inter-sample
interval ``T``.  Measurements are the positions alone: H = [I | 0 | 0].

The filter is the one-step-ahead predictor: consuming observation z_k with
prediction x_hat = X(k | k-1) and covariance P = P(k | k-1),

    S = H P H' + R                      innovation covariance
    K = A P H' S^-1                     predictor gain
    nu = z_k - H x_hat                  innovation
    X(k+1 | k) = A x_hat + K nu
    P(k+1 | k) = A P A' - K (A P H')' + Q    (symmetrized)

The dense filter (:func:`track_series`) solves against numpy's Cholesky
factor of S; it serves models whose noise couples axes and is the reference
for the batched engine (:func:`track_users`), where S is diagonal and the
solve a division.  No explicit matrix inverse is formed anywhere.

The P and K recursion never sees a measurement, so the batched engine computes
its gain schedule from the model and p0 alone, then makes one data pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .ioutil import _check_user_id, csv_cells, read_rows, read_table, write_table
from .profiles import ProfileSeries
from .space import ConceptSpace

__all__ = [
    "TrackingModel",
    "FilterState",
    "TrackRecord",
    "DivergenceError",
    "SingularInnovationError",
    "build_model",
    "init_filter",
    "gain",
    "predict_step",
    "covariance_step",
    "steady_state_covariance",
    "track_series",
    "track_series_decoupled",
    "track_users",
    "read_track_record",
    "track_writer",
    "read_tracks",
    "read_final_states",
    "write_final_states",
]

# Condition-number ceiling for the innovation covariance solve.
COND_LIMIT = 1e12
# Most negative covariance eigenvalue tolerated before declaring divergence, per unit of
# the covariance's scale (see _psd_tolerance).
PSD_TOL = 1e-9

DEFAULT_P0 = 10.0


class DivergenceError(RuntimeError):
    """The prediction covariance lost positive semidefiniteness or failed to settle."""


class SingularInnovationError(RuntimeError):
    """The innovation covariance is numerically singular or ill-conditioned."""


def _transition_block(T: float, alpha: float) -> np.ndarray:
    return np.array([[alpha, T, 0.5 * T * T], [0.0, alpha, T], [0.0, 0.0, alpha]])


def _white_accel_block(T: float) -> np.ndarray:
    # Covariance of (T^2/2, T, 1) * a for unit-variance acceleration noise a.
    g = np.array([0.5 * T * T, T, 1.0])
    return np.outer(g, g)


@dataclass(frozen=True, eq=False)
class TrackingModel:
    """State-space model shared by every filter instance for one parameterization.

    ``A`` and ``H`` are derived from (d, T, alpha) at construction and always
    have the kinematic block structure above, so they cannot drift out of
    shape.  ``Q`` must be symmetric PSD, ``R`` symmetric PD.  Immutable.
    """

    d: int
    T: float
    alpha: float
    Q: np.ndarray
    R: np.ndarray
    A: np.ndarray = field(init=False, repr=False)
    H: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not self.T > 0:
            raise ValueError(f"inter-sample interval T must be > 0, got {self.T}")
        Q = np.asarray(self.Q, dtype=float)
        R = np.asarray(self.R, dtype=float)
        n = 3 * self.d
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        if R.shape != (self.d, self.d):
            raise ValueError(f"R must be {self.d}x{self.d}, got {R.shape}")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        if not np.allclose(R, R.T, atol=1e-12):
            raise ValueError("R must be symmetric")
        eigenvalues = np.linalg.eigvalsh(Q)
        # Rounding scales with the largest eigenvalue, so the tolerance does too.
        if eigenvalues.min() < -1e-12 * max(1.0, np.abs(eigenvalues).max()):
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(R).min() <= 0.0:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        eye = np.eye(self.d)
        A = np.kron(_transition_block(self.T, self.alpha), eye)
        H = np.kron(np.array([[1.0, 0.0, 0.0]]), eye)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "H", H)

    @property
    def state_dim(self) -> int:
        return 3 * self.d


def build_model(
    d: int,
    T: float = 1.0,
    alpha: float = 1.0,
    q: float = 1e-3,
    r: float = 1e-2,
    q_structure: str = "white_accel",
) -> TrackingModel:
    """Assemble the tracking model for a d-dimensional genre space.

    Parameters
    ----------
    d : space dimension (number of genre axes).
    T : inter-sample interval; one filter step per profile snapshot.
    alpha : transition diagonal scalar; 1 gives plain kinematics.
    q : process-noise scale, >= 0.
    r : measurement-noise variance per axis, > 0 (the gain solve needs an
        invertible innovation covariance).
    q_structure : "white_accel" for q times the discrete white-acceleration
        block per axis, or "identity" for plain q*I (ablation variant).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    for name, value in (("T", T), ("alpha", alpha), ("q", q), ("r", r)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if q < 0:
        raise ValueError(f"process-noise scale q must be >= 0, got {q}")
    if not r > 0:
        raise ValueError(f"measurement-noise variance r must be > 0, got {r}")
    eye = np.eye(d)
    if q_structure == "white_accel":
        with np.errstate(over="ignore", invalid="ignore"):
            block = q * _white_accel_block(T)
        if not np.all(np.isfinite(block)):
            raise ValueError(f"process noise overflows: q={q} and T={T} give a non-finite Q")
        Q = np.kron(block, eye)
    elif q_structure == "identity":
        Q = q * np.eye(3 * d)
    else:
        raise ValueError(f"unknown q_structure: {q_structure!r}")
    return TrackingModel(d=d, T=T, alpha=alpha, Q=Q, R=r * eye)


@dataclass(frozen=True, eq=False)
class FilterState:
    """One-step-ahead prediction X(k | k-1), its covariance, and step bookkeeping.

    ``last_innovation`` and ``last_gain`` describe the observation consumed to
    produce this state; both are None on a freshly initialized filter.
    """

    x_hat: np.ndarray
    P: np.ndarray
    k: int = 0
    last_innovation: Optional[np.ndarray] = None
    last_gain: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x_hat, dtype=float)
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "P", P)
        if x.ndim != 1 or x.size % 3 != 0:
            raise ValueError(f"state vector must be a flat 3d vector, got {x.shape}")
        n = x.size
        if P.shape != (n, n):
            raise ValueError(f"covariance must be {n}x{n}, got {P.shape}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(P)):
            raise ValueError("filter state contains non-finite values")

    @property
    def d(self) -> int:
        return self.x_hat.size // 3

    def position(self) -> np.ndarray:
        """The predicted interest vector (position block of the state)."""
        return self.x_hat[: self.d].copy()


def init_filter(model: TrackingModel, z0: np.ndarray, p0: float = DEFAULT_P0) -> FilterState:
    """Start a filter at the first observation with zero velocity/acceleration."""
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (model.d,):
        raise ValueError(f"initial observation must have shape ({model.d},), got {z0.shape}")
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial observation contains non-finite values")
    if not p0 > 0:
        raise ValueError(f"initial covariance scale p0 must be > 0, got {p0}")
    x0 = np.zeros(3 * model.d)
    x0[: model.d] = z0
    return FilterState(x_hat=x0, P=p0 * np.eye(3 * model.d), k=0)


def _check_conditioning(eigenvalues: np.ndarray, step: int | None) -> None:
    """Reject an innovation covariance with these eigenvalues, consumed at ``step``, if unusable."""
    lowest, highest = np.min(eigenvalues), np.max(eigenvalues)
    where = "" if step is None else f" at step {step}"
    if lowest <= 0.0:
        raise SingularInnovationError(
            f"innovation covariance ill-conditioned{where}: eigenvalue {lowest:.3e} is not positive"
        )
    if highest / COND_LIMIT > lowest:  # a division cannot overflow
        raise SingularInnovationError(
            f"innovation covariance ill-conditioned{where}: "
            f"eigenvalue range [{lowest:.3e}, {highest:.3e}]"
        )


def _psd_tolerance(diagonal: np.ndarray) -> float:
    """PSD_TOL times the covariance's scale: its largest diagonal entry, and at least 1.

    Rounding error grows with the largest eigenvalue, which for a PSD matrix lies
    between the largest diagonal entry and n times it; the diagonal costs O(n).
    """
    return PSD_TOL * max(1.0, float(np.max(np.abs(diagonal))))


def _gain_and_cross(
    model: TrackingModel, P: np.ndarray, step: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Return (K, A P H') for prediction covariance P, which ``step`` consumes."""
    AP = model.A @ P
    APHt = AP @ model.H.T
    S = model.H @ (P @ model.H.T) + model.R
    S = 0.5 * (S + S.T)
    _check_conditioning(np.linalg.eigvalsh(S), step)
    L = np.linalg.cholesky(S)
    K = np.linalg.solve(L.T, np.linalg.solve(L, APHt.T)).T
    return K, APHt


def gain(model: TrackingModel, P: np.ndarray) -> np.ndarray:
    """Predictor gain K = A P H' (H P H' + R)^-1 for covariance P.

    The solve runs against the symmetric PD innovation covariance; an
    eigenvalue-ratio estimate above ``COND_LIMIT`` raises
    :class:`SingularInnovationError`.
    """
    P = np.asarray(P, dtype=float)
    n = 3 * model.d
    if P.shape != (n, n):
        raise ValueError(f"covariance must be {n}x{n}, got {P.shape}")
    K, _ = _gain_and_cross(model, P)
    return K


def predict_step(model: TrackingModel, state: FilterState, z: np.ndarray) -> FilterState:
    """Consume one observation and advance the predictor by one step.

    Returns the next one-step-ahead state; the consumed innovation and the
    gain that weighted it are recorded on the returned state.  Raises
    :class:`DivergenceError` if the updated covariance has an eigenvalue
    below ``-PSD_TOL`` times its scale (see ``_psd_tolerance``).
    """
    if state.d != model.d:
        raise ValueError(f"state dimension {state.d} does not match model d={model.d}")
    z = np.asarray(z, dtype=float)
    if z.shape != (model.d,):
        raise ValueError(f"observation must have shape ({model.d},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("observation contains non-finite values")

    P = state.P
    K, APHt = _gain_and_cross(model, P, state.k)
    innovation = z - model.H @ state.x_hat
    x_next = model.A @ state.x_hat + K @ innovation
    P_next = (model.A @ P) @ model.A.T - K @ APHt.T + model.Q
    P_next = 0.5 * (P_next + P_next.T)
    # Cholesky of P + tol*I succeeds exactly when min eig > -tol.
    try:
        np.linalg.cholesky(P_next + _psd_tolerance(np.diag(P_next)) * np.eye(P_next.shape[0]))
    except np.linalg.LinAlgError:
        raise DivergenceError(f"prediction covariance lost PSD at step {state.k + 1}") from None
    return FilterState(x_next, P_next, state.k + 1, last_innovation=innovation, last_gain=K)


def covariance_step(model: TrackingModel, P: np.ndarray) -> np.ndarray:
    """One iteration of the prediction-covariance (Riccati) recursion.

    Shares the exact arithmetic of :func:`predict_step`, so a fixed point of
    this map is a fixed point of the filter's covariance trajectory.
    """
    P = np.asarray(P, dtype=float)
    K, APHt = _gain_and_cross(model, P)
    P_next = (model.A @ P) @ model.A.T - K @ APHt.T + model.Q
    return 0.5 * (P_next + P_next.T)


def steady_state_covariance(
    model: TrackingModel,
    p0: float = DEFAULT_P0,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> np.ndarray:
    """Iterate the covariance recursion from p0*I until ||P_next - P|| < tol.

    Raises :class:`DivergenceError` if it has not settled after ``max_iter``
    iterations.
    """
    P = p0 * np.eye(3 * model.d)
    for _ in range(max_iter):
        P_next = covariance_step(model, P)
        delta = np.linalg.norm(P_next - P)
        P = P_next
        if delta < tol:
            return P
    raise DivergenceError(f"covariance recursion did not settle within {max_iter} iterations")


@dataclass(frozen=True, eq=False)
class TrackRecord:
    """Per-step tracking log pairing each observation with the prediction made first.

    Row i describes step k = steps[i]: ``predicted[i]`` is the position block
    of X(k | k-1), i.e. the forecast issued before observation z_k arrived;
    ``innovations[i]`` is z_k minus that forecast; ``gain_norms[i]`` is the
    Frobenius norm of the gain that consumed z_k; ``p_traces[i]`` is the trace
    of P(k | k-1).  The trivial step 0, whose forecast is the initial
    observation itself, is not recorded.  ``final_state`` is the one-step
    forecast past the last observation (None for records read from disk).
    """

    user_id: str
    steps: np.ndarray
    predicted: np.ndarray
    innovations: np.ndarray
    gain_norms: np.ndarray
    p_traces: np.ndarray
    final_state: Optional[FilterState] = None

    @property
    def n_steps(self) -> int:
        return int(self.steps.size)


def track_series(
    model: TrackingModel,
    observations: ProfileSeries,
    p0: float = DEFAULT_P0,
) -> TrackRecord:
    """Run the predictor over a profile series, one filter step per snapshot.

    The filter starts at the first observation; every subsequent snapshot is
    paired with the prediction made before it was consumed, so the record is
    honest out-of-sample output.  Needs at least 2 observations.
    """
    Z = observations.profiles
    if observations.d != model.d:
        raise ValueError(f"series dimension {observations.d} does not match model d={model.d}")
    n_obs = observations.n_instants
    if n_obs < 2:
        raise ValueError(f"tracking needs at least 2 observations, got {n_obs}")

    states = [init_filter(model, Z[0], p0)]
    for z in Z:
        states.append(predict_step(model, states[-1], z))
    # states[k] is X(k | k-1) and states[k + 1] consumed z_k; step 0 is not recorded.
    before, after = states[1:-1], states[2:]
    return TrackRecord(
        user_id=observations.user_id,
        steps=np.arange(1, n_obs),
        predicted=np.array([state.position() for state in before]),
        innovations=np.array([state.last_innovation for state in after]),
        gain_norms=np.array([np.linalg.norm(state.last_gain) for state in after]),
        p_traces=np.array([np.trace(state.P) for state in before]),
        final_state=states[-1],
    )


def _gain_schedule(model: TrackingModel, p0: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis covariances P_0..P_n, (n + 1, d, 3, 3), and gains K_0..K_{n-1}, (n, d, 3),
    of n steps from p0*I: they depend only on the model and p0.  Raises ValueError for
    p0 <= 0 or noise that couples axes, and the error of the first step that fails a check."""
    if not p0 > 0:
        raise ValueError(f"initial covariance scale p0 must be > 0, got {p0}")
    d, idx = model.d, np.arange(model.d)
    if np.any(model.R != np.diag(np.diag(model.R))):
        raise ValueError("R couples genre axes; decoupled tracking needs a diagonal R")
    Q = model.Q.reshape(3, d, 3, d).copy()  # Q[a, i, b, j] is entry (a*d + i, b*d + j)
    Qb = Q[:, idx, :, idx]  # (d, 3, 3): each axis's own 3x3 block
    Q[:, idx, :, idx] = 0.0
    if np.any(Q != 0.0):
        raise ValueError("Q couples genre axes; decoupled tracking needs per-axis blocks")
    A3 = _transition_block(model.T, model.alpha)
    P = np.broadcast_to(p0 * np.eye(3), (d, 3, 3)).copy()
    covariances, gains = [P], []
    for k in range(n):
        S = P[:, 0, 0] + np.diag(model.R)  # diagonal: its entries are its eigenvalues
        _check_conditioning(S, k)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            AP = A3 @ P                        # (d, 3, 3)
            cross = AP[:, :, 0]                # A P e1 per axis
            K = cross / S[:, None]
            P = AP @ A3.T - cross[:, :, None] * cross[:, None, :] / S[:, None, None] + Qb
            P = 0.5 * (P + np.transpose(P, (0, 2, 1)))
        if not np.all(np.isfinite(P)):
            raise DivergenceError(f"prediction covariance is not finite at step {k + 1}")
        if np.linalg.eigvalsh(P).min() < -_psd_tolerance(P[:, (0, 1, 2), (0, 1, 2)]):
            raise DivergenceError(f"prediction covariance lost PSD at step {k + 1}")
        covariances.append(P)
        gains.append(K)
    return np.stack(covariances), np.reshape(gains, (n, d, 3))


def track_users(
    model: TrackingModel, series_list: Sequence[ProfileSeries], p0: float = DEFAULT_P0
) -> list[TrackRecord]:
    """Track every series at once, one filter per genre axis; records in input order.

    Without cross-axis noise (every :func:`build_model` output) P_k and K_k
    never see the data: :func:`_gain_schedule` computes them once, for the
    longest series, and one data pass advances all users together, one
    (N, d, 3) update per step; a shorter series uses a prefix.  Records match
    :func:`track_series` to rounding; equal lengths share read-only steps,
    gain norms, traces and final P and gain.  A fault of the model or p0,
    such as Q or R coupling axes (``ValueError``), is raised before any
    series is checked.
    """
    lengths = np.array([series.n_instants for series in series_list], dtype=np.intp)
    covariances, gains = _gain_schedule(model, p0, int(lengths.max(initial=0)))
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

    # Shared by every series: entry k belongs to step k, and a series of n
    # observations reads entries 1..n-1 and the dense P and K after step n-1.
    steps = np.arange(n_max)
    gain_norms = np.array([np.sqrt(np.sum(K * K)) for K in gains])
    p_traces = np.array([P[:, (0, 1, 2), (0, 1, 2)].sum() for P in covariances[:-1]])
    final_P = {n: _assemble_dense(covariances[n]) for n in set(lengths.tolist())}
    final_K = {n: _assemble_dense(gains[n - 1][:, :, None]) for n in final_P}
    for shared in (steps, gain_norms, p_traces, *final_P.values(), *final_K.values()):
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
            final_state=FilterState(
                x_hat=x_final[row],
                P=final_P[n],
                k=n,
                last_innovation=innovations[row, n - 2],
                last_gain=final_K[n],
            ),
        )
    return records


def track_series_decoupled(
    model: TrackingModel, observations: ProfileSeries, p0: float = DEFAULT_P0
) -> TrackRecord:
    """:func:`track_users` on one series: d per-axis filters instead of one dense one.

    Matches :func:`track_series` to rounding whenever Q and R carry no
    cross-axis coupling (true of every :func:`build_model` output).
    """
    return track_users(model, [observations], p0)[0]


def _assemble_dense(stack: np.ndarray) -> np.ndarray:
    """The dense (a*d, b*d) matrix whose (i, j) block is diag(stack[:, i, j])."""
    d, rows, cols = stack.shape
    dense = np.zeros((rows, d, cols, d))
    dense[:, np.arange(d), :, np.arange(d)] = stack
    return dense.reshape(rows * d, cols * d)


# ---------------------------------------------------------------------------
# tracks directory: one CSV per user, header step, pred_<genre>..., innov_<genre>...,
# gain_norm, p_trace, a row per recorded step; and index.csv, a row user_id,file per user.
# ---------------------------------------------------------------------------
_INDEX = np.dtype([("user_id", object), ("file", object)])


def _track_header(space: ConceptSpace) -> list[str]:
    labels = [f"{part}_{n}" for part in ("pred", "innov") for n in space.names]
    return ["step", *labels, "gain_norm", "p_trace"]


def track_writer(records: Sequence[TrackRecord], space: ConceptSpace) -> Callable[[Path], None]:
    """The function writing ``records`` into a tracks directory, each to a file named from its
    user id (each character outside ``[A-Za-z0-9._-]`` made ``_``, then ``_2``, ``_3``, ... while
    ``index.csv`` or an earlier name matches it ignoring case), and the index; all checked first."""
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

    def write(directory: Path) -> None:
        directory.mkdir(exist_ok=True)
        parts = [(r.steps, r.predicted, r.innovations, r.gain_norms, r.p_traces) for r in records]
        paths, sizes = [directory / name for name in files.values()], [r.n_steps for r in records]
        write_table(paths, _track_header(space), [np.concatenate(c) for c in zip(*parts)], sizes)
        codes = np.arange(len(files))  # a file name is its own CSV cell: it needs no quotes
        columns = [(csv_cells(files), codes), (list(files.values()), codes)]
        write_table(directory / "index.csv", _INDEX.names, columns)

    return write


def _final_state_header(space: ConceptSpace) -> list[str]:
    return ["user_id", *(f"{part}_{n}" for part in ("pos", "vel", "acc") for n in space.names)]


def write_final_states(
    states: dict[str, FilterState], space: ConceptSpace, path: str | Path
) -> None:
    """One row per user: the final predicted state vector, [pos | vel | acc]."""
    for user_id, state in sorted(states.items()):
        if state.d != space.d:
            raise ValueError(f"state for {user_id!r} has d={state.d}, space has d={space.d}")
    users = sorted(map(_check_user_id, states))
    x_hats = np.reshape([states[user_id].x_hat for user_id in users], (-1, 3 * space.d))
    columns = [(csv_cells(users), np.arange(len(users))), x_hats]
    write_table(path, _final_state_header(space), columns)


def read_final_states(path: str | Path, space: ConceptSpace) -> dict[str, np.ndarray]:
    """Final state vectors keyed by user id; covariances are not persisted."""
    users, table = read_table(path, _final_state_header(space), "final-state file", labeled=True)
    states: dict[str, np.ndarray] = {}
    for user_id, vec in zip(users, table):
        if user_id in states:
            raise ValueError(f"duplicate final state for user {user_id!r}")
        states[user_id] = vec
    return states


def read_track_record(path: str | Path, space: ConceptSpace, user_id: str = "") -> TrackRecord:
    _, data = read_table(path, _track_header(space), "track record")
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
        final_state=None,
    )


def read_tracks(directory: str | Path, space: ConceptSpace) -> list[TrackRecord]:
    """The records :func:`track_writer` wrote into ``directory``, in its index's order.  An
    index row whose id breaks the user-id rule, whose user was listed before, or whose file
    is empty, not a name in ``directory`` or listed before (ignoring case, as
    :func:`track_writer` compares names) is refused naming its ``path:line``."""
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
