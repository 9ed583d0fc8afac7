"""Genre-level recommendations from predicted-vs-calculated interest deltas.

The tracker supplies the estimated (predicted) interest vector one step past
the last computed profile.  Per genre axis, the delta estimated - calculated
is classified against a threshold theta > 0: rising interest (delta >= theta)
promotes the genre, falling interest (delta <= -theta) demotes it, and the
band in between is neutral.  Genres the user already watched today are removed
from the promotions (hard exclusion), so the recommendation concentrates on
rising genres the user has not touched yet.  A small catalog filter maps the
genre decision to concrete programs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .space import ConceptSpace

__all__ = [
    "DEFAULT_THETA",
    "POSITIVE",
    "NEGATIVE",
    "NEUTRAL",
    "ConceptDelta",
    "Recommendation",
    "concept_deltas",
    "recommend",
    "filter_catalog",
    "write_recommendations",
]

DEFAULT_THETA = 0.05

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class ConceptDelta:
    """Per-axis interest change: delta = estimated - calculated, classified."""

    axis: int
    delta: float
    classification: str

    def __post_init__(self) -> None:
        if self.axis < 0:
            raise ValueError(f"axis must be >= 0, got {self.axis}")
        if self.classification not in (POSITIVE, NEGATIVE, NEUTRAL):
            raise ValueError(f"unknown classification {self.classification!r}")


@dataclass(frozen=True)
class Recommendation:
    """Ranked genre decision for one user and day.

    ``promoted`` is ordered by descending delta, ``demoted`` by ascending
    delta (strongest drop first); ``excluded_watched`` holds rising genres
    removed because the user already watched them today.  The three sequences
    are pairwise disjoint by construction.
    """

    user_id: str
    promoted: tuple[str, ...]
    demoted: tuple[str, ...]
    excluded_watched: tuple[str, ...]
    date: str = ""

    def __post_init__(self) -> None:
        if set(self.promoted) & set(self.demoted):
            raise ValueError("promoted and demoted genres overlap")
        if set(self.promoted) & set(self.excluded_watched):
            raise ValueError("promoted and excluded_watched genres overlap")


def concept_deltas(
    estimated: np.ndarray,
    calculated: np.ndarray,
    theta: float = DEFAULT_THETA,
) -> list[ConceptDelta]:
    """Classify every axis of estimated - calculated against the threshold.

    positive iff delta >= theta, negative iff delta <= -theta, else neutral.
    Classification and ordering are invariant under scaling both the deltas
    and theta by the same positive factor.
    """
    if not theta > 0:
        raise ValueError(f"threshold theta must be > 0, got {theta}")
    est = np.asarray(estimated, dtype=float)
    calc = np.asarray(calculated, dtype=float)
    if est.ndim != 1 or est.shape != calc.shape:
        raise ValueError(
            f"estimated and calculated must be matching vectors, "
            f"got {est.shape} and {calc.shape}"
        )
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(calc))):
        raise ValueError("interest vectors contain non-finite values")
    out = []
    for axis, delta in enumerate((est - calc).tolist()):
        cls = POSITIVE if delta >= theta else NEGATIVE if delta <= -theta else NEUTRAL
        out.append(ConceptDelta(axis=axis, delta=delta, classification=cls))
    return out


def recommend(
    deltas: Sequence[ConceptDelta],
    watched_today: Collection[str],
    space: ConceptSpace,
    user_id: str = "",
    date: str = "",
) -> Recommendation:
    """Turn classified deltas into the day's promoted/demoted genre lists.

    Rising genres already watched today are excluded from the promotions and
    reported separately; falling genres are listed strongest drop first.
    Ties in delta break toward the lower axis index, so output is a pure
    function of the inputs.
    """
    watched_axes = {space.axis(label) for label in watched_today}  # raises UnknownGenreError
    seen_axes = set()
    for cd in deltas:
        if cd.axis >= space.d:
            raise ValueError(f"delta axis {cd.axis} out of range for d={space.d}")
        if cd.axis in seen_axes:
            raise ValueError(f"duplicate delta for axis {cd.axis}")
        seen_axes.add(cd.axis)

    positives = sorted(
        (cd for cd in deltas if cd.classification == POSITIVE),
        key=lambda cd: (-cd.delta, cd.axis),
    )
    negatives = sorted(
        (cd for cd in deltas if cd.classification == NEGATIVE),
        key=lambda cd: (cd.delta, cd.axis),
    )
    promoted = tuple(space.names[cd.axis] for cd in positives if cd.axis not in watched_axes)
    excluded = tuple(space.names[cd.axis] for cd in positives if cd.axis in watched_axes)
    demoted = tuple(space.names[cd.axis] for cd in negatives)
    return Recommendation(user_id, promoted, demoted, excluded_watched=excluded, date=date)


def filter_catalog(
    catalog: Mapping[str, Collection[str]],
    recommendation: Recommendation,
    space: ConceptSpace,
) -> list[str]:
    """Program ids whose genres intersect the promotions and avoid the demotions.

    Catalog order is preserved.  Unknown genre labels in the catalog raise.
    """
    promoted = set(recommendation.promoted)
    demoted = set(recommendation.demoted)
    kept = []
    for program_id, genres in catalog.items():
        genre_set = set(genres)
        for label in sorted(genre_set):
            space.axis(label)  # raises UnknownGenreError on a bad catalog entry
        if genre_set & promoted and not genre_set & demoted:
            kept.append(program_id)
    return kept


def write_recommendations(recs: Iterable[Recommendation], path: str | Path) -> None:
    """One JSON object per line, keys sorted, deterministic bytes.

    Every field is a string or a tuple of strings, so ``vars`` gives what
    ``dataclasses.asdict`` would, without deep-copying each tuple.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in recs:
            fh.write(json.dumps(vars(rec), sort_keys=True))
            fh.write("\n")

