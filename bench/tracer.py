"""Traced run of one genretrack command, and the per-layer metrics drawn from its spans.

As a script, ``python tracer.py SPANS_FILE CLI_ARGS...`` wraps every public
function of every ``genretrack`` module (the names in each module's
``__all__``), under every name by which ``genretrack`` and its modules look
it up, then calls ``genretrack.cli.main(CLI_ARGS)`` in this process.  Each
call of a wrapped function records a span: name, start, end and the span it
was called from.  The spans stay in memory and are written to SPANS_FILE (an
``.npz``) when the command returns; the time spent writing them is saved
beside them, so the caller can leave it out of the traced wall time.  The
program's own files are not touched.

As a module, it aggregates span files into the per-layer metrics; it does not
import ``genretrack`` then.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Spans of wrapped calls, kept in flat arrays so a million calls stay small."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack = [-1]

    def wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int32),
        )


def install(tracer: Tracer) -> None:
    """Replace each public genretrack function, wherever it is looked up, by a traced wrapper."""
    package = importlib.import_module("genretrack")
    modules = {
        info.name: importlib.import_module(f"genretrack.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }
    holders = [package, *modules.values()]
    for short, module in sorted(modules.items()):
        for attr in getattr(module, "__all__", ()):
            original = getattr(module, attr)
            # Wrap each function once, under the module that defines it.
            if not inspect.isfunction(original) or original.__module__ != module.__name__:
                continue
            wrapper = tracer.wrap(f"{short}.{attr}", original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)


def traced_main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("genretrack.cli")
    code = cli.main(cli_args)
    returned = time.perf_counter()
    tracer.save(spans_path)
    spans_path.with_suffix(".json").write_text(
        json.dumps({"exit_code": code, "save_s": time.perf_counter() - returned}), encoding="utf-8"
    )
    return code


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class Spans:
    """Spans of one or more traced commands, with per-name totals."""

    def __init__(self, paths: list[Path]) -> None:
        ids: dict[str, int] = {}
        names, parent_names, durations, self_times = [], [], [], []
        for path in paths:
            with np.load(path) as data:
                local = np.array([ids.setdefault(str(n), len(ids)) for n in data["names"]], dtype=np.int64)
                name = local[data["name_ids"]]
                parents = data["parents"]
                duration = data["ends"] - data["starts"]
            has_parent = parents >= 0
            # Each span's wrapped children, summed onto it.
            nested = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=duration.size)
            names.append(name)
            parent_names.append(np.where(has_parent, name[np.maximum(parents, 0)], -1))
            durations.append(duration)
            self_times.append(duration - nested)
        self.ids = ids
        self.known = sorted(ids)
        join = lambda parts, dtype: np.concatenate(parts) if parts else np.empty(0, dtype=dtype)  # noqa: E731
        self.name = join(names, np.int64)
        self.parent_name = join(parent_names, np.int64)
        self.duration = join(durations, float)
        self.self_time = join(self_times, float)

    def _mask(self, names) -> np.ndarray:
        return np.isin(self.name, [self.ids.get(n, -2) for n in names])

    def seconds(self, name: str) -> float:
        """Time inside the function's calls, nested wrapped calls included."""
        return float(self.duration[self._mask([name])].sum())

    def self_seconds(self, name: str) -> float:
        """Time inside the function's calls minus the wrapped calls nested in them."""
        return float(self.self_time[self._mask([name])].sum())

    def calls(self, name: str, caller_prefix: str = "") -> int:
        mask = self._mask([name])
        if caller_prefix:
            callers = [self.ids[n] for n in self.known if n.startswith(caller_prefix)]
            mask &= np.isin(self.parent_name, callers)
        return int(mask.sum())

    def outermost_seconds(self, names: set[str]) -> float:
        """Time inside calls of any of ``names``, counting calls nested among them once."""
        outer = self._mask(names) & ~np.isin(self.parent_name, [self.ids[n] for n in names])
        return float(self.duration[outer].sum())


def layer_metrics(spans: Spans, n_events: int, n_observations: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced pass: name -> (value, unit).

    ``n_events`` is the number of rows of the event log; ``n_observations``
    the number of rows of the built profile table, one filter step each.
    """
    tracking_filter = {
        n for n in spans.known
        if n.startswith("tracking.")
        and not n.startswith(("tracking.read_", "tracking.write_"))
        and n != "tracking.build_model"
    }
    evaluation_writers = {n for n in spans.known if n.startswith("evaluation.write_")}
    read_events_s = spans.seconds("profiles.read_events")
    read_events_calls = spans.calls("profiles.read_events")
    filter_s = spans.outermost_seconds(tracking_filter)
    s = spans.seconds
    return {
        "cli.main.self_s": (spans.self_seconds("cli.main"), "s"),
        "profiles.read_events.s": (read_events_s, "s"),
        "profiles.read_events.calls": (read_events_calls, "count"),
        "profiles.read_events.events_per_s": (
            n_events * read_events_calls / read_events_s if read_events_s else 0.0, "1/s"
        ),
        "profiles.build_series.self_s": (spans.self_seconds("profiles.build_series"), "s"),
        "profiles.interest_update.s": (s("profiles.interest_update"), "s"),
        "profiles.interest_update.calls": (spans.calls("profiles.interest_update"), "count"),
        "profiles.parse_timestamp.calls": (spans.calls("ioutil.parse_timestamp", "profiles."), "count"),
        "profiles.read_profiles.s": (s("profiles.read_profiles"), "s"),
        "profiles.read_profiles.calls": (spans.calls("profiles.read_profiles"), "count"),
        "profiles.write_profiles.s": (s("profiles.write_profiles"), "s"),
        "profiles.write_events.s": (s("profiles.write_events"), "s"),
        "synthetic.generate_scenario.s": (s("synthetic.generate_scenario"), "s"),
        "tracking.build_model.s": (s("tracking.build_model"), "s"),
        "tracking.filter.s": (filter_s, "s"),
        "tracking.user_steps_per_s": (n_observations / filter_s if filter_s else 0.0, "1/s"),
        "tracking.predict_step.calls": (spans.calls("tracking.predict_step"), "count"),
        "tracking.predict_step.s": (s("tracking.predict_step"), "s"),
        "tracking.write_track_record.s": (s("tracking.write_track_record"), "s"),
        "tracking.write_final_states.s": (s("tracking.write_final_states"), "s"),
        "tracking.read_track_record.s": (s("tracking.read_track_record"), "s"),
        "tracking.read_final_states.s": (s("tracking.read_final_states"), "s"),
        "recommender.concept_deltas.s": (s("recommender.concept_deltas"), "s"),
        "recommender.recommend.s": (s("recommender.recommend"), "s"),
        "recommender.write_recommendations.s": (s("recommender.write_recommendations"), "s"),
        "evaluation.evaluate_many.s": (s("evaluation.evaluate_many"), "s"),
        "evaluation.writers.s": (spans.outermost_seconds(evaluation_writers), "s"),
        "ioutil.fmt.calls": (spans.calls("ioutil.fmt"), "count"),
        "ioutil.fmt.s": (s("ioutil.fmt"), "s"),
    }


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))
