"""The dense filter: one Kalman predictor over the stacked 3d state, the reference oracle.

The state is ordered [positions | velocities | accelerations], so the dense matrices of a
:class:`~genretrack.tracking.TrackingModel` spread its 3x3 blocks over d x d identities:
A = kron(A3, I), H = [I | 0 | 0], Q = kron(q_block, I), R = r I and P_0 = p0 I.  The
predictor equations of :mod:`genretrack.tracking` run on them, solved against numpy's
Cholesky factor of the innovation covariance.  This shares no arithmetic with the
per-axis gain schedule of :func:`~genretrack.tracking.track_users`, which is tested
against it.  Its innovation covariance is a d x d matrix, so it keeps its own conditioning
check.  Test code: the package ships only the per-axis filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from genretrack.profiles import ProfileSeries
from genretrack.tracking import (
    DivergenceError,
    SingularInnovationError,
    TrackingModel,
    TrackRecord,
    _psd_tolerance,
    _transition_block,
)

# Condition-number ceiling for the innovation covariance solve.
COND_LIMIT = 1e12


@lru_cache(maxsize=8)
def dense_matrices(model: TrackingModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dense (A, H, Q, R) of ``model``: 3d x 3d, d x 3d, 3d x 3d and d x d, read-only."""
    eye = np.eye(model.d)
    A = np.kron(_transition_block(model.T, model.alpha), eye)
    H = np.kron(np.array([[1.0, 0.0, 0.0]]), eye)
    matrices = (A, H, np.kron(model.q_block, eye), model.r * eye)
    for matrix in matrices:
        matrix.flags.writeable = False
    return matrices


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


def init_filter(model: TrackingModel, z0: np.ndarray) -> FilterState:
    """Start a filter at the first observation with zero velocity/acceleration, P = p0 I."""
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (model.d,):
        raise ValueError(f"initial observation must have shape ({model.d},), got {z0.shape}")
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial observation contains non-finite values")
    x0 = np.zeros(3 * model.d)
    x0[: model.d] = z0
    return FilterState(x_hat=x0, P=model.p0 * np.eye(3 * model.d), k=0)


def _dense_step(model: TrackingModel, P: np.ndarray, step: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Return (K, P(k+1 | k)) for prediction covariance P, which ``step`` consumes.  An
    innovation covariance that is not positive definite, or whose eigenvalue ratio exceeds
    ``COND_LIMIT``, raises :class:`~genretrack.tracking.SingularInnovationError`."""
    A, H, Q, R = dense_matrices(model)
    AP = A @ P
    APHt = AP @ H.T
    S = H @ (P @ H.T) + R
    S = 0.5 * (S + S.T)
    eigenvalues = np.linalg.eigvalsh(S)
    lowest, highest = np.min(eigenvalues), np.max(eigenvalues)
    where = "" if step is None else f" at step {step}"
    if lowest <= 0.0:
        raise SingularInnovationError(
            f"innovation covariance ill-conditioned{where}: eigenvalue {lowest:.3e} is not positive"
        )
    if highest / COND_LIMIT > lowest:  # a division cannot overflow
        raise SingularInnovationError(
            f"innovation covariance ill-conditioned{where}: eigenvalue range [{lowest:.3e}, {highest:.3e}]"
        )
    L = np.linalg.cholesky(S)
    K = np.linalg.solve(L.T, np.linalg.solve(L, APHt.T)).T
    P_next = AP @ A.T - K @ APHt.T + Q
    return K, 0.5 * (P_next + P_next.T)


def gain(model: TrackingModel, P: np.ndarray) -> np.ndarray:
    """Predictor gain K = A P H' (H P H' + R)^-1 for covariance P.

    The solve runs against the symmetric PD innovation covariance; an
    eigenvalue-ratio estimate above ``COND_LIMIT`` raises
    :class:`~genretrack.tracking.SingularInnovationError`.
    """
    P = np.asarray(P, dtype=float)
    n = 3 * model.d
    if P.shape != (n, n):
        raise ValueError(f"covariance must be {n}x{n}, got {P.shape}")
    return _dense_step(model, P, None)[0]


def predict_step(model: TrackingModel, state: FilterState, z: np.ndarray) -> FilterState:
    """Consume one observation and advance the predictor by one step.

    Returns the next one-step-ahead state; the consumed innovation and the
    gain that weighted it are recorded on the returned state.  Raises
    :class:`~genretrack.tracking.DivergenceError` if the updated covariance has
    an eigenvalue below ``-PSD_TOL`` times its scale (see ``_psd_tolerance``).
    """
    if state.d != model.d:
        raise ValueError(f"state dimension {state.d} does not match model d={model.d}")
    z = np.asarray(z, dtype=float)
    if z.shape != (model.d,):
        raise ValueError(f"observation must have shape ({model.d},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("observation contains non-finite values")

    A, H, _, _ = dense_matrices(model)
    K, P_next = _dense_step(model, state.P, state.k)
    innovation = z - H @ state.x_hat
    x_next = A @ state.x_hat + K @ innovation
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
    return _dense_step(model, np.asarray(P, dtype=float), None)[1]


def steady_state_covariance(
    model: TrackingModel, tol: float = 1e-10, max_iter: int = 1000
) -> np.ndarray:
    """Iterate the covariance recursion from p0*I until ||P_next - P|| < tol.

    Raises :class:`~genretrack.tracking.DivergenceError` if it has not settled
    after ``max_iter`` iterations.
    """
    P = model.p0 * np.eye(3 * model.d)
    for _ in range(max_iter):
        P_next = covariance_step(model, P)
        delta = np.linalg.norm(P_next - P)
        P = P_next
        if delta < tol:
            return P
    raise DivergenceError(f"covariance recursion did not settle within {max_iter} iterations")


def track_series(model: TrackingModel, observations: ProfileSeries) -> TrackRecord:
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

    states = [init_filter(model, Z[0])]
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
        final_x_hat=states[-1].x_hat,
    )
