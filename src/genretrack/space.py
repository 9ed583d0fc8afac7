"""Genre space: the d-dimensional axes every profile and prediction lives in."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ioutil import _text_lines

__all__ = [
    "ConceptSpace",
    "UnknownGenreError",
    "ZeroNormError",
    "new_space",
    "cosine_distance",
    "read_vocabulary",
    "write_vocabulary",
]


# ';' joins a program's genres in the event log; the vocabulary file holds one label a line.
_UNWRITABLE = re.compile(r"[;\x00-\x1f\x7f-\x9f\u2028\u2029]")


class UnknownGenreError(KeyError):
    """A genre label does not exist in the active space."""


class ZeroNormError(ValueError):
    """Cosine distance is undefined for a zero-norm vector."""


@dataclass(frozen=True, eq=False)
class ConceptSpace:
    """Ordered vocabulary of distinct genre labels; the label order fixes the axes.

    Immutable after construction, safe to share across workers.
    """

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("a concept space needs at least one genre label")
        index: dict[str, int] = {}
        for pos, label in enumerate(names):
            if not isinstance(label, str) or not label.strip():
                raise ValueError(f"blank genre label at position {pos}: {label!r}")
            if label != label.strip() or _UNWRITABLE.search(label):
                raise ValueError(
                    f"genre label {label!r} cannot be written: a label may not hold ';', "
                    "a control character or a line break, or begin or end with whitespace"
                )
            if label in index:
                raise ValueError(f"duplicate genre label: {label!r}")
            index[label] = pos
        object.__setattr__(self, "_index", index)

    @property
    def d(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def axis(self, label: str) -> int:
        """Axis index of ``label``, raising :class:`UnknownGenreError` if absent."""
        try:
            return self._index[label]
        except KeyError:
            raise UnknownGenreError(f"unknown genre label: {label!r}") from None

    def axes(self, labels: Iterable[str]) -> np.ndarray:
        return np.array(sorted(self.axis(label) for label in labels), dtype=int)

    def zeros(self) -> np.ndarray:
        """A fresh all-zero interest vector for this space."""
        return np.zeros(self.d)


def new_space(labels: Sequence[str]) -> ConceptSpace:
    """Build a :class:`ConceptSpace` from an ordered sequence of genre labels."""
    return ConceptSpace(tuple(labels))


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 minus the cosine similarity of two interest vectors.

    Lies in [0, 1] for nonnegative vectors.  A zero-norm input has no
    direction, so it raises :class:`ZeroNormError` rather than returning a
    misleading 0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("interest vectors must be finite")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroNormError("cosine distance undefined for zero-norm vector")
    return float(1.0 - (u @ v) / (nu * nv))


def read_vocabulary(path: str | Path) -> ConceptSpace:
    """Read a genre vocabulary file: one label per line, order defines the axis."""
    lines = _text_lines(path)
    labels = [line.strip() for line in lines if line.strip()]
    if not labels:
        raise ValueError(f"vocabulary file {path} contains no labels")
    return new_space(labels)


def write_vocabulary(space: ConceptSpace, path: str | Path) -> None:
    Path(path).write_text("\n".join(space.names) + "\n", encoding="utf-8")
