"""Scoring of tracker output against the observed profile series.

For each recorded step the tracker issued its interest vector before seeing
that step's observation, so every metric here is out-of-sample:

* per-step cosine distance between prediction and observation (steps where
  either vector has zero norm carry no direction; they are recorded as NaN
  and counted, never imputed),
* the fraction of valid distances strictly below a threshold ``tau``
  (default 0.15),
* a smoothness ratio: variance of the prediction's first differences over
  variance of the observation's first differences on the same steps (per
  axis, then averaged) — below 1 when the tracker damps observation noise,
* root-mean-square error per axis, plus the pooled scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ioutil import _check_user_id, csv_cells, fmt, write_table
from .profiles import ProfileSeries
from .tracking import TrackRecord

__all__ = [
    "DEFAULT_TAU",
    "EvalReport",
    "PooledReport",
    "evaluate",
    "evaluate_many",
    "pooled_histogram",
    "write_report",
    "write_summary",
    "write_histogram",
]

DEFAULT_TAU = 0.15


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Metrics for one user.

    ``per_step_cosine`` is aligned with ``steps``; skipped (zero-norm) steps
    hold NaN.  ``fraction_below_threshold`` counts only valid steps;
    ``mean_cosine`` is NaN when no step was valid.
    """

    user_id: str
    tau: float
    steps: np.ndarray
    per_step_cosine: np.ndarray
    fraction_below_threshold: float
    smoothness_ratio: float
    per_axis_rmse: np.ndarray
    rmse: float
    mean_cosine: float

    @property
    def n_steps(self) -> int:
        return int(self.steps.size)

    @property
    def n_skipped(self) -> int:
        return int(np.count_nonzero(np.isnan(self.per_step_cosine)))

    def valid_cosines(self) -> np.ndarray:
        return self.per_step_cosine[~np.isnan(self.per_step_cosine)]


@dataclass(frozen=True, eq=False)
class PooledReport:
    """Per-user reports plus aggregates pooled across users, sorted by id."""

    tau: float
    reports: tuple[EvalReport, ...]

    @property
    def n_users(self) -> int:
        return len(self.reports)

    def all_cosines(self) -> np.ndarray:
        return np.concatenate([np.empty(0), *(r.valid_cosines() for r in self.reports)])

    @property
    def total_skipped(self) -> int:
        return sum(r.n_skipped for r in self.reports)

    @property
    def pooled_mean_cosine(self) -> float:
        pooled = self.all_cosines()
        return float(pooled.mean()) if pooled.size else float("nan")

    @property
    def pooled_fraction_below(self) -> float:
        pooled = self.all_cosines()
        if not pooled.size:
            return 0.0
        return float(np.count_nonzero(pooled < self.tau) / pooled.size)

    @property
    def fraction_smoothness_le_1(self) -> float:
        return float(np.mean([r.smoothness_ratio <= 1.0 for r in self.reports]))

    @property
    def mean_rmse(self) -> float:
        return float(np.mean([r.rmse for r in self.reports]))


def _pooled_diff_variance(rows: np.ndarray) -> float:
    # Variance of first differences per axis, averaged across axes.
    diffs = np.diff(rows, axis=0)
    return float(np.var(diffs, axis=0, ddof=0).mean())


def evaluate(
    observations: ProfileSeries,
    predictions: Sequence[np.ndarray] | np.ndarray,
    tau: float = DEFAULT_TAU,
    steps: np.ndarray | None = None,
    user_id: str | None = None,
) -> EvalReport:
    """Score one user's predictions against the series they were issued for.

    By default predictions are taken as aligned one-to-one with observation
    instants 1..K-1 (the out-of-sample pairing the tracker produces); pass
    ``steps``, whole numbers, to override the alignment.  With fewer than two
    steps the smoothness ratio is 0 (no variation to compare); a zero
    observation-diff variance gives 0 when the prediction is also flat, else ``inf``.
    """
    if not tau > 0:
        raise ValueError(f"threshold tau must be > 0, got {tau}")
    pred = np.asarray(predictions, dtype=float)
    if pred.ndim != 2 or pred.shape[1] != observations.d:
        raise ValueError(f"predictions must be (n, {observations.d}), got {pred.shape}")
    if not np.all(np.isfinite(pred)):
        raise ValueError("predictions contain non-finite values")
    if steps is None:
        if pred.shape[0] != observations.n_instants - 1:
            raise ValueError(
                f"{pred.shape[0]} predictions do not align with instants 1..K-1 "
                f"of a series with K={observations.n_instants}"
            )
        steps = np.arange(1, observations.n_instants)
    else:
        steps = np.asarray(steps)
        if steps.shape != (pred.shape[0],):
            raise ValueError(
                f"steps shape {steps.shape} does not match {pred.shape[0]} predictions"
            )
        if steps.size == 0:
            raise ValueError("cannot evaluate an empty prediction sequence")
        whole = np.isfinite(steps) & (np.trunc(steps) == steps)
        if not whole.all():
            raise ValueError(f"step {steps[~whole][0]} is not a whole number")
        outside = steps[(steps < 0) | (steps >= observations.n_instants)]
        if outside.size:
            raise ValueError(
                f"step {int(outside[0])} out of range for a series with {observations.n_instants} instants"
            )
        steps = steps.astype(int, copy=False)

    ref = observations.profiles[steps]
    pred_norms = np.linalg.norm(pred, axis=1)
    ref_norms = np.linalg.norm(ref, axis=1)
    valid = (pred_norms > 0.0) & (ref_norms > 0.0)
    cosines = np.full(pred.shape[0], np.nan)
    dots = np.einsum("ij,ij->i", pred, ref)
    cosines[valid] = 1.0 - dots[valid] / (pred_norms[valid] * ref_norms[valid])
    n_valid = int(np.count_nonzero(valid))
    if n_valid:
        mean_cosine = float(cosines[valid].mean())
        fraction_below = float(np.count_nonzero(cosines[valid] < tau) / n_valid)
    else:
        mean_cosine = float("nan")
        fraction_below = 0.0

    if steps.size < 2:
        smoothness = 0.0
    else:
        num = _pooled_diff_variance(pred)
        den = _pooled_diff_variance(ref)
        if den == 0.0:
            smoothness = 0.0 if num == 0.0 else float("inf")
        else:
            smoothness = num / den

    err = pred - ref
    return EvalReport(
        user_id=observations.user_id if user_id is None else user_id,
        tau=tau,
        steps=steps.copy(),
        per_step_cosine=cosines,
        fraction_below_threshold=fraction_below,
        smoothness_ratio=float(smoothness),
        per_axis_rmse=np.sqrt(np.mean(err * err, axis=0)),
        rmse=float(np.sqrt(np.mean(err * err))),
        mean_cosine=mean_cosine,
    )


def evaluate_many(
    records: Iterable[TrackRecord],
    observations: Mapping[str, ProfileSeries],
    tau: float = DEFAULT_TAU,
) -> PooledReport:
    """Score many track records; every record must have its observed series."""
    reports = []
    for record in records:
        if record.user_id not in observations:
            raise KeyError(f"no observed series for user {record.user_id!r}")
        series = observations[record.user_id]
        reports.append(evaluate(series, record.predicted, tau, record.steps, record.user_id))
    reports.sort(key=lambda r: r.user_id)
    return PooledReport(tau=tau, reports=tuple(reports))


def pooled_histogram(
    pooled: PooledReport, bin_width: float = 0.05, upper: float = 2.0
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of all valid per-step cosine distances, clipped into [0, upper].

    Returns (edges, counts) with len(edges) = len(counts) + 1.  Cosine distance
    on nonnegative profiles lives in [0, 1], but the range covers the general
    bound 2 so mixed-sign inputs cannot fall outside.
    """
    if not bin_width > 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    edges = np.arange(0.0, upper + bin_width / 2, bin_width)
    values = np.clip(pooled.all_cosines(), 0.0, upper)
    counts, _ = np.histogram(values, bins=edges)
    return edges, counts


def write_report(pooled: PooledReport, path: str | Path) -> None:
    """Per-step CSV: one row per (user, step), NaN cosine marking skipped steps."""
    reports = pooled.reports
    cells = csv_cells(_check_user_id(report.user_id) for report in reports)
    columns = [
        (cells, np.repeat(np.arange(len(reports)), [report.n_steps for report in reports])),
        np.concatenate([np.empty(0, dtype=int), *(report.steps for report in reports)]),
        np.concatenate([[], *(report.per_step_cosine for report in reports)]),
    ]
    write_table(path, ["user_id", "step", "cosine_distance"], columns)


def write_summary(pooled: PooledReport, path: str | Path) -> None:
    """Aggregate and per-user metrics as deterministic key=value lines."""
    lines = [
        f"tau={fmt(pooled.tau)}",
        f"n_users={pooled.n_users}",
        f"total_skipped={pooled.total_skipped}",
        f"pooled_mean_cosine={fmt(pooled.pooled_mean_cosine)}",
        f"pooled_fraction_below={fmt(pooled.pooled_fraction_below)}",
        f"fraction_smoothness_le_1={fmt(pooled.fraction_smoothness_le_1)}",
        f"mean_rmse={fmt(pooled.mean_rmse)}",
    ]
    for report in pooled.reports:
        prefix = f"user.{_check_user_id(report.user_id)}"
        lines.append(f"{prefix}.n_steps={report.n_steps}")
        lines.append(f"{prefix}.n_skipped={report.n_skipped}")
        lines.append(f"{prefix}.mean_cosine={fmt(report.mean_cosine)}")
        lines.append(f"{prefix}.fraction_below={fmt(report.fraction_below_threshold)}")
        lines.append(f"{prefix}.smoothness_ratio={fmt(report.smoothness_ratio)}")
        lines.append(f"{prefix}.rmse={fmt(report.rmse)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_histogram(pooled: PooledReport, path: str | Path, bin_width: float = 0.05) -> None:
    """Pooled cosine-distance histogram as CSV rows (bin_lo, bin_hi, count)."""
    edges, counts = pooled_histogram(pooled, bin_width)
    write_table(path, ["bin_lo", "bin_hi", "count"], [edges[:-1], edges[1:], counts])
