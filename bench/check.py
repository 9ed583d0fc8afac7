"""Checks of the pipeline's outputs, recomputed without importing genretrack.

Every check reads the files a command consumed, re-derives what the command
should have written with its own parser and its own arithmetic, and compares.
The model follows the package README: the profile fold, the per-axis
constant-acceleration predictor, the recommendation ordering and tie rules,
and the cosine scoring.  Where the program's arithmetic may round differently
(summation order, a dense 3d x 3d filter against this per-axis one), the
comparison allows the tolerance named below; README.md lists them.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

DAY_SECONDS = 86400

# |got - want| <= tol * max(1, |want|) elementwise.
FOLD_TOL = 1e-12         # built profiles against this fold (summation order)
TRACK_TOL = 1e-9         # track rows and final states against this per-axis filter
INNOVATION_TOL = 1e-12   # innovation against observation minus prediction, same row
COSINE_TOL = 1e-12       # report cosines and pooled summary values
UNIT_NORM_TOL = 1e-12    # | ||row|| - 1 | for normalized profiles


class CheckFailed(Exception):
    """An output differs from its independent recomputation."""


def require_close(what: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    both_nan = np.isnan(got) & np.isnan(want)
    err = np.where(both_nan, 0.0, np.abs(got - want) / np.maximum(1.0, np.abs(want)))
    worst = float(np.max(err, initial=0.0))
    if not worst <= tol:  # also catches NaN against a number
        raise CheckFailed(f"{what}: worst scaled difference {worst:.3e} exceeds {tol:.0e}")


def require_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def _nonblank_lines(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip()]


def read_vocabulary(path: Path) -> list[str]:
    return _nonblank_lines(path)


def read_instants(path: Path) -> np.ndarray:
    return np.array([float(x) for x in _nonblank_lines(path) if not x.startswith("#")])


def read_manifest(path: Path) -> dict[str, str]:
    return dict(line.partition("=")[::2] for line in _nonblank_lines(path))


Event = tuple[float, tuple[str, ...], float]  # timestamp, sorted genres, fraction


def read_events(path: Path) -> dict[str, list[Event]]:
    """Events per user; timestamps in epoch seconds, as simulate writes them."""
    events: dict[str, list[Event]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        require_equal("events header", header, ["user_id", "timestamp", "genres", "watched_fraction"])
        for user, ts, genres, fraction in reader:
            labels = tuple(sorted({g.strip() for g in genres.split(";") if g.strip()}))
            events.setdefault(user, []).append((float(ts), labels, float(fraction)))
    return events


def read_table(path: Path, header_prefix: list[str]) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0][: len(header_prefix)] != header_prefix:
        raise CheckFailed(f"{path.name}: header does not start with {header_prefix}")
    return rows[0], rows[1:]


def read_profile_table(path: Path, vocabulary: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """user -> (instants, profiles) from a user_id,instant,<genre...> table."""
    header, rows = read_table(path, ["user_id", "instant"])
    require_equal(f"{path.name} genre columns", header[2:], vocabulary)
    grouped: dict[str, list[list[str]]] = {}
    for row in rows:
        grouped.setdefault(row[0], []).append(row[1:])
    out = {}
    for user, user_rows in grouped.items():
        data = np.array(user_rows, dtype=float)
        out[user] = (data[:, 0], data[:, 1:])
    return out


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------


def fold_profiles(
    events: dict[str, list[Event]],
    vocabulary: list[str],
    instants: np.ndarray,
    decay: float,
    normalize: bool,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Profile series per user, in closed form.

    After the m-th event (in time order, ties by genres then fraction) the
    profile is sum_{j<=m} decay^(m-j) * c_j, where c_j adds
    watched_fraction / n_genres to each of event j's genres.  A snapshot at
    an instant counts events with timestamp <= instant; a user's series
    starts at the first instant with an event.
    """
    axis = {label: i for i, label in enumerate(vocabulary)}
    out = {}
    for user, user_events in events.items():
        ordered = sorted(user_events)
        stamps = np.array([e[0] for e in ordered])
        contrib = np.zeros((len(ordered), len(vocabulary)))
        for j, (_, genres, fraction) in enumerate(ordered):
            for label in genres:
                contrib[j, axis[label]] += fraction / len(genres)
        counts = np.searchsorted(stamps, instants, side="right")
        keep = counts > 0
        if not keep.any():
            continue
        age = counts[keep][:, None] - np.arange(1, len(ordered) + 1)[None, :]
        weights = np.where(age >= 0, float(decay) ** np.maximum(age, 0), 0.0)
        profiles = np.einsum("kj,jd->kd", weights, contrib)
        if normalize:
            norms = np.sqrt(np.einsum("kd,kd->k", profiles, profiles))[:, None]
            profiles = np.divide(profiles, norms, out=profiles.copy(), where=norms > 0)
        out[user] = (instants[keep], profiles)
    return out


def axis_model(T: float, alpha: float, q: float, q_structure: str) -> tuple[np.ndarray, np.ndarray]:
    """(A3, Q3): one axis's transition matrix and process-noise covariance."""
    A3 = np.array([[alpha, T, T * T / 2], [0.0, alpha, T], [0.0, 0.0, alpha]])
    if q_structure == "white_accel":
        g = np.array([T * T / 2, T, 1.0])
        Q3 = q * np.outer(g, g)
    elif q_structure == "identity":
        Q3 = q * np.eye(3)
    else:
        raise CheckFailed(f"unknown q_structure {q_structure!r}")
    return A3, Q3


def filter_step(X: np.ndarray, P: np.ndarray, z: np.ndarray, A3: np.ndarray, Q3: np.ndarray, r: float):
    """One textbook one-step-ahead predictor step on every axis at once.

    X holds (position, velocity, acceleration) per axis, shape (d, 3); P is
    the 3x3 prediction covariance, the same on every axis because every axis
    has the same model.  Returns (X_next, P_next, gain, innovation).
    """
    S = P[0, 0] + r
    AP = A3 @ P
    gain = AP[:, 0] / S
    innovation = z - X[:, 0]
    X_next = X @ A3.T + innovation[:, None] * gain[None, :]
    P_next = AP @ A3.T - np.outer(AP[:, 0], AP[:, 0]) / S + Q3
    return X_next, 0.5 * (P_next + P_next.T), gain, innovation


def predict_series(Z: np.ndarray, params: dict[str, float | str]) -> dict[str, np.ndarray]:
    """Run the per-axis predictor over one user's snapshots Z (k, d).

    Row i of the record is step i + 1: the forecast made before z_{i+1}, the
    innovation, the Frobenius norm of the 3d x d gain and the trace of the
    3d x 3d covariance that forecast carried.
    """
    A3, Q3 = axis_model(params["T"], params["alpha"], params["q"], params["q_structure"])
    n, d = Z.shape
    X = np.zeros((d, 3))
    X[:, 0] = Z[0]
    P = params["p0"] * np.eye(3)
    predicted, innovations, gain_norms, p_traces = [], [], [], []
    for k in range(n):
        X_prev, P_prev = X, P
        X, P, gain, innovation = filter_step(X, P, Z[k], A3, Q3, params["r"])
        if k >= 1:
            predicted.append(X_prev[:, 0])
            innovations.append(innovation)
            gain_norms.append(math.sqrt(d * float(gain @ gain)))
            p_traces.append(d * float(np.trace(P_prev)))
    return {
        "steps": np.arange(1, n),
        "predicted": np.array(predicted).reshape(n - 1, d),
        "innovations": np.array(innovations).reshape(n - 1, d),
        "gain_norms": np.array(gain_norms),
        "p_traces": np.array(p_traces),
        "final_state": X.T.ravel(),
    }


def recommendation(
    user: str, estimated: np.ndarray, calculated: np.ndarray, theta: float,
    watched: set[str], vocabulary: list[str], date: str,
) -> dict:
    """Promote delta >= theta (largest first), demote delta <= -theta (most
    negative first), ties toward the lower axis; genres watched that day move
    from the promotions to excluded_watched."""
    delta = estimated - calculated
    rising = sorted((a for a in range(delta.size) if delta[a] >= theta), key=lambda a: (-delta[a], a))
    falling = sorted((a for a in range(delta.size) if delta[a] <= -theta), key=lambda a: (delta[a], a))
    return {
        "date": date,
        "demoted": [vocabulary[a] for a in falling],
        "excluded_watched": [vocabulary[a] for a in rising if vocabulary[a] in watched],
        "promoted": [vocabulary[a] for a in rising if vocabulary[a] not in watched],
        "user_id": user,
    }


def cosine_distances(predicted: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """1 - cos per row; NaN where either row has zero norm."""
    dots = np.einsum("ij,ij->i", predicted, observed)
    norms = np.sqrt(np.einsum("ij,ij->i", predicted, predicted)) * np.sqrt(
        np.einsum("ij,ij->i", observed, observed)
    )
    out = np.full(dots.shape, np.nan)
    valid = norms > 0
    out[valid] = 1.0 - dots[valid] / norms[valid]
    return out


def smoothness(predicted: np.ndarray, observed: np.ndarray) -> float:
    """Mean per-axis variance of the forecast's day-to-day changes over the observations'."""
    if predicted.shape[0] < 2:
        return 0.0
    num = float(np.var(np.diff(predicted, axis=0), axis=0).mean())
    den = float(np.var(np.diff(observed, axis=0), axis=0).mean())
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


# ---------------------------------------------------------------------------
# the checks of one pass
# ---------------------------------------------------------------------------


class PassFiles:
    """The inputs and outputs of one pass, each read once on first use."""

    def __init__(self, inputs: Path, built: Path, tracked: Path, recommended: Path, evaluated: Path):
        self.inputs, self.built_dir, self.tracked = inputs, built, tracked
        self.recommended, self.evaluated = recommended, evaluated

    @cached_property
    def vocabulary(self) -> list[str]:
        return read_vocabulary(self.inputs / "vocabulary.txt")

    @cached_property
    def events(self) -> dict[str, list[Event]]:
        return read_events(self.inputs / "events.csv")

    @cached_property
    def built(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return read_profile_table(self.built_dir / "built_profiles.csv", self.vocabulary)

    @cached_property
    def track_params(self) -> dict[str, float | str]:
        manifest = read_manifest(self.tracked / "track.manifest.txt")
        params: dict[str, float | str] = {k: float(manifest[k]) for k in ("T", "alpha", "q", "r", "p0")}
        params["q_structure"] = manifest["q_structure"]
        return params

    @cached_property
    def own_tracks(self) -> dict[str, dict[str, np.ndarray]]:
        return {user: predict_series(Z, self.track_params) for user, (_, Z) in self.built.items()}

    @cached_property
    def track_files(self) -> dict[str, Path]:
        _, rows = read_table(self.tracked / "tracks" / "index.csv", ["user_id", "file"])
        return {user: self.tracked / "tracks" / name for user, name in rows}

    @cached_property
    def tracks(self) -> dict[str, np.ndarray]:
        """user -> the track file's rows as floats, columns as written."""
        d = len(self.vocabulary)
        expected = (["step"] + [f"pred_{g}" for g in self.vocabulary]
                    + [f"innov_{g}" for g in self.vocabulary] + ["gain_norm", "p_trace"])
        out = {}
        for user, path in self.track_files.items():
            header, rows = read_table(path, ["step"])
            require_equal(f"{path.name} header", header, expected)
            out[user] = np.array(rows, dtype=float).reshape(len(rows), 3 + 2 * d)
        return out

    @cached_property
    def final_states(self) -> dict[str, np.ndarray]:
        header, rows = read_table(self.tracked / "final_states.csv", ["user_id"])
        require_equal("final_states.csv width", len(header), 1 + 3 * len(self.vocabulary))
        return {row[0]: np.array(row[1:], dtype=float) for row in rows}

    @cached_property
    def pooled(self) -> dict[str, float]:
        """The pooled summary lines recomputed from the tracks and the built profiles."""
        tau = float(read_manifest(self.evaluated / "evaluate.manifest.txt")["tau"])
        cosines, smooth, rmse = [], [], []
        for user in sorted(self.tracks):
            steps, predicted = self.forecasts(user)
            observed = self.built[user][1][steps]
            cosines.append(cosine_distances(predicted, observed))
            smooth.append(smoothness(predicted, observed))
            rmse.append(math.sqrt(float(np.mean((predicted - observed) ** 2))))
        pooled = np.concatenate(cosines) if cosines else np.empty(0)
        valid = pooled[~np.isnan(pooled)]
        return {
            "per_user_cosines": cosines,
            "tau": tau,
            "n_users": len(cosines),
            "total_skipped": int(np.isnan(pooled).sum()),
            "pooled_mean_cosine": float(valid.mean()) if valid.size else math.nan,
            "pooled_fraction_below": float(np.count_nonzero(valid < tau) / valid.size) if valid.size else 0.0,
            "fraction_smoothness_le_1": float(np.mean([s <= 1.0 for s in smooth])),
            "mean_rmse": float(np.mean(rmse)),
        }

    def forecasts(self, user: str) -> tuple[np.ndarray, np.ndarray]:
        """(steps, forecasts) as the user's track file has them."""
        rows = self.tracks[user]
        d = len(self.vocabulary)
        return rows[:, 0].astype(int), rows[:, 1 : 1 + d]


def check_profiles(f: PassFiles, decay: float, normalize: bool) -> None:
    want = fold_profiles(f.events, f.vocabulary, read_instants(f.inputs / "instants.txt"), decay, normalize)
    require_equal("users with a profile series", sorted(f.built), sorted(want))
    for user, (instants, profiles) in want.items():
        got_instants, got_profiles = f.built[user]
        require_equal(f"instants of {user}", got_instants.tolist(), instants.tolist())
        require_close(f"profiles of {user}", got_profiles, profiles, FOLD_TOL)


def check_unit_norm(f: PassFiles) -> None:
    for user, (_, profiles) in f.built.items():
        norms = np.sqrt(np.einsum("kd,kd->k", profiles, profiles))
        require_close(f"row norms of {user}", norms, np.ones_like(norms), UNIT_NORM_TOL)


def check_tracks(f: PassFiles) -> None:
    require_equal("users in tracks/index.csv", sorted(f.track_files), sorted(f.built))
    d = len(f.vocabulary)
    for user, want in f.own_tracks.items():
        rows = f.tracks[user]
        steps, predicted = f.forecasts(user)
        innovations = rows[:, 1 + d : 1 + 2 * d]
        require_equal(f"steps of {user}", steps.tolist(), want["steps"].tolist())
        require_close(f"forecasts of {user}", predicted, want["predicted"], TRACK_TOL)
        require_close(f"innovations of {user}", innovations, want["innovations"], TRACK_TOL)
        require_close(f"gain norms of {user}", rows[:, 1 + 2 * d], want["gain_norms"], TRACK_TOL)
        require_close(f"covariance traces of {user}", rows[:, 2 + 2 * d], want["p_traces"], TRACK_TOL)
        observed = f.built[user][1][steps]
        require_close(f"innovation = observation - forecast for {user}",
                      innovations, observed - predicted, INNOVATION_TOL)


def check_final_states(f: PassFiles) -> None:
    require_equal("users in final_states.csv", sorted(f.final_states), sorted(f.own_tracks))
    for user, want in f.own_tracks.items():
        require_close(f"final state of {user}", f.final_states[user], want["final_state"], TRACK_TOL)


def check_recommendations(f: PassFiles) -> None:
    theta = float(read_manifest(f.recommended / "recommend.manifest.txt")["theta"])
    day = max(math.floor(ts / DAY_SECONDS) for evs in f.events.values() for ts, _, _ in evs)
    date = (datetime.date(1970, 1, 1) + datetime.timedelta(days=day)).isoformat()
    watched = {
        user: {g for ts, genres, _ in evs if math.floor(ts / DAY_SECONDS) == day for g in genres}
        for user, evs in f.events.items()
    }
    d = len(f.vocabulary)
    want = [
        recommendation(user, f.final_states[user][:d], f.built[user][1][-1], theta,
                       watched.get(user, set()), f.vocabulary, date)
        for user in sorted(f.final_states)
    ]
    lines = _nonblank_lines(f.recommended / "recommendations.jsonl")
    got = [json.loads(line) for line in lines]
    for rec in got:
        promoted_watched = set(rec["promoted"]) & watched.get(rec["user_id"], set())
        if promoted_watched:
            raise CheckFailed(f"{rec['user_id']} is promoted genres watched on {date}: {sorted(promoted_watched)}")
    require_equal("number of recommendations", len(got), len(want))
    for got_rec, want_rec in zip(got, want):
        require_equal(f"recommendation for {want_rec['user_id']}", got_rec, want_rec)


def check_report(f: PassFiles) -> None:
    _, rows = read_table(f.evaluated / "report.csv", ["user_id", "step", "cosine_distance"])
    want_users, want_steps = [], []
    for user in sorted(f.tracks):
        steps = f.forecasts(user)[0]
        want_users += [user] * steps.size
        want_steps += steps.tolist()
    require_equal("report.csv users", [row[0] for row in rows], want_users)
    require_equal("report.csv steps", [int(row[1]) for row in rows], want_steps)
    got = np.array([float(row[2]) for row in rows])
    want = np.concatenate(f.pooled["per_user_cosines"]) if rows else np.empty(0)
    require_close("report.csv cosine distances", got, want, COSINE_TOL)


def check_summary(f: PassFiles) -> None:
    summary = dict(line.partition("=")[::2] for line in _nonblank_lines(f.evaluated / "summary.txt"))
    want = f.pooled
    for key in ("n_users", "total_skipped"):
        require_equal(f"summary {key}", int(summary[key]), want[key])
    for key in ("tau", "pooled_fraction_below", "fraction_smoothness_le_1"):
        require_equal(f"summary {key}", float(summary[key]), want[key])
    for key in ("pooled_mean_cosine", "mean_rmse"):
        require_close(f"summary {key}", float(summary[key]), want[key], COSINE_TOL)


def check_quality(f: PassFiles, bar: float) -> None:
    fraction = f.pooled["pooled_fraction_below"]
    if not fraction >= bar:
        raise CheckFailed(f"pooled fraction of forecasts within tau is {fraction:.4f}, below {bar}")


def pass_checks(decay: float, normalize: bool, quality_bar: float | None) -> list[tuple[str, Callable[[PassFiles], None]]]:
    """The named checks one workload runs after every pass, in order."""
    checks: list[tuple[str, Callable[[PassFiles], None]]] = [
        ("profiles", lambda f: check_profiles(f, decay, normalize)),
    ]
    if normalize:
        checks.append(("unit_norm", check_unit_norm))
    checks += [
        ("tracks", check_tracks),
        ("final_states", check_final_states),
        ("recommendations", check_recommendations),
        ("report", check_report),
        ("summary", check_summary),
    ]
    if quality_bar is not None:
        checks.append(("quality", lambda f: check_quality(f, quality_bar)))
    return checks


def run_checks(files: PassFiles, checks) -> list[tuple[str, str | None]]:
    """(name, None) for each check that passed, (name, reason) for each that did not."""
    results = []
    for name, check in checks:
        try:
            check(files)
        except Exception as exc:  # a check that cannot run counts as failed
            results.append((name, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, None))
    return results
