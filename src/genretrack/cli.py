"""Command-line pipeline: simulate -> build-profiles -> track -> recommend -> evaluate.

Every run is deterministic: outputs are pure functions of the inputs and the
effective parameters, numeric text is printed at 17 significant digits, and
each command writes a ``<command>.manifest.txt`` recording the effective
parameter values and where each came from (flag, config file, or default).
Parameter precedence is defaults < config file < command-line flags; config
files are plain ``key=value`` lines (``#`` starts a comment line).

Only ``main`` creates ``--out``, before any input is read, and a command that fails removes
the directory its run created (``--out`` or its outermost missing parent); an ``--out`` that
existed keeps what a failed command wrote.  Each command is one pass: it reads and checks
every input, computes its results and writes them; ``main`` adds the manifest.  Each command
imports, when it runs, only the modules it uses: ``build-profiles`` loads ``space``,
``ioutil`` and ``profiles``; ``track`` adds ``tracking``; ``recommend`` adds ``tracking``
and ``recommender``; ``evaluate`` adds ``tracking`` and ``evaluation``; only ``simulate``
loads ``synthetic``.  Only ``tracking`` knows the ``tracks/`` layout: ``write_tracks``
names and writes its files, ``read_tracks`` reads them.  Every CSV input is read by
``ioutil.read_rows``, except a plain event log, which ``profiles.read_events`` cuts with
numpy byte operations and hands to ``read_rows`` on any fault.  So a faulty row is named by
``path:line`` and its cause, and a user id in any table obeys one rule; the instants file is
checked line by line the same way, and a byte that is not UTF-8 names its ``path:line`` in
every input.

Importing this module loads numpy with a one-thread OpenBLAS pool: a command's only linear
algebra is the tracker's, on 3x3 blocks, and starting the pool costs time on a busy host
(alternating runs of ``track`` on ``daily-50``, 2 cores, one thread against two: 253.5
against 257.8 ms idle, faster in 8 of 16 pairs; with one core busy, 232 against 269 ms, 11
of 14, and ``import numpy`` 119 against 173 ms, 10 of 14).  A thread count the caller set
in ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is honoured,
nothing changes when numpy is already loaded, and ``os.environ`` is left as it was.

Most of a command is start-up: ``site`` takes about 30 ms, ``import numpy`` 55-65 ms and
genretrack's modules 15-30 ms, most of it compiling them where ``PYTHONDONTWRITEBYTECODE``
is set and no ``__pycache__`` exists.  Under ``python -m genretrack.cli`` the collector is
off from the top of this module until ``main()`` calls ``gc.freeze()`` and turns it back
on, so no collection scans the import heap (about 21,000 objects), at shutdown either.
The ``genretrack`` console script imports this module as a library, so it still collects
during import.  Objects a command creates are collected as before, and stdio flushes and
``atexit`` handlers still run.  An import, and ``main(argv)`` with a list, leave ``gc``
as it was.

Exit codes: 0 success, 2 usage or input validation error (a filter that diverges
under the given model parameters included), 1 unexpected failure.  Diagnostics are
one line on stderr.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # main() turns the collector back on after its freeze (see above)

import argparse
import datetime
import math
import os
import re
import shutil
import sys
from pathlib import Path

# OpenBLAS sizes its thread pool once, when numpy loads it (see the module docstring).
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np

from .ioutil import DAY_SECONDS, _text_lines, fmt

__all__ = ["main"]


class CliError(Exception):
    """Input or usage problem; reported on one line, exit code 2."""


def _bool_from_text(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# dest -> (converter, default); required keys map to a None default and must
# arrive via flag or config file.  "out" is required everywhere.
_PARAMS: dict[str, dict[str, tuple]] = {
    "simulate": {
        "d": (int, 44),
        "k": (int, 35),
        "users": (int, 50),
        "regime": (str, "smooth_drift"),
        "q_true": (float, 1e-3),
        "r_true": (float, 1e-2),
        "programs_per_day": (int, 3),
        "seed": (int, 0),
        "out": (str, None),
    },
    "build-profiles": {
        "vocabulary": (str, None),
        "events": (str, None),
        "instants": (str, None),
        "decay": (float, 1.0),
        "normalize": (_bool_from_text, False),
        "out": (str, None),
    },
    "track": {
        "vocabulary": (str, None),
        "profiles": (str, None),
        "T": (float, 1.0),
        "alpha": (float, 1.0),
        "q": (float, 1e-3),
        "r": (float, 1e-2),
        "p0": (float, 10.0),
        "q_structure": (str, "white_accel"),
        "out": (str, None),
    },
    "recommend": {
        "vocabulary": (str, None),
        "final_states": (str, None),
        "profiles": (str, None),
        "events": (str, None),
        "theta": (float, 0.05),
        "date": (str, ""),
        "out": (str, None),
    },
    "evaluate": {
        "vocabulary": (str, None),
        "profiles": (str, None),
        "tracks": (str, None),
        "tau": (float, 0.15),
        "out": (str, None),
    },
}

_FLAG_HELP = {
    "d": "genre-space dimension",
    "k": "number of daily snapshot instants",
    "users": "number of simulated users",
    "regime": "trajectory regime: smooth_drift, regime_change, or bursty",
    "q_true": "generative process-noise scale",
    "r_true": "generative measurement-noise variance",
    "programs_per_day": "baseline watch events per user per day",
    "seed": "random seed",
    "out": "output directory (created if absent)",
    "vocabulary": "genre vocabulary file, one label per line",
    "events": "watch-event log CSV",
    "instants": "snapshot instants file, one epoch-seconds value per line",
    "decay": "per-update profile decay factor in [0, 1]",
    "normalize": "scale each profile snapshot to unit L2 norm",
    "profiles": "profile series CSV",
    "T": "filter inter-sample interval",
    "alpha": "transition diagonal scalar",
    "q": "filter process-noise scale",
    "r": "filter measurement-noise variance",
    "p0": "initial covariance scale",
    "q_structure": "process-noise structure: white_accel or identity",
    "final_states": "final-state CSV written by track",
    "theta": "promotion/demotion threshold on interest deltas",
    "date": "recommendation day: integer day index or ISO date (default: last event day)",
    "tracks": "directory of track CSVs written by track",
    "tau": "cosine-distance quality threshold",
}

_COMMAND_HELP = {
    "simulate": "generate a synthetic scenario (vocabulary, events, profiles, truth)",
    "build-profiles": "fold a watch-event log into per-user profile series",
    "track": "run the Kalman predictor over profile series",
    "recommend": "classify predicted-vs-calculated deltas into genre recommendations",
    "evaluate": "score track output against the profile series it tracked",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genretrack",
        description="Track user interest through genre space and recommend rising genres.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, params in _PARAMS.items():
        sub = subparsers.add_parser(command, help=_COMMAND_HELP[command])
        sub.add_argument(
            "--config",
            default=argparse.SUPPRESS,
            help="key=value config file; flags override it",
        )
        for dest, (conv, default) in params.items():
            flag = "--" + dest.replace("_", "-")
            kwargs: dict = {"dest": dest, "default": argparse.SUPPRESS}
            if conv is _bool_from_text:
                kwargs["action"] = "store_true"
            else:
                kwargs["type"] = conv
                kwargs["metavar"] = dest.upper()
            note = "required" if default is None else f"default {default}"
            kwargs["help"] = f"{_FLAG_HELP[dest]} ({note})"
            sub.add_argument(flag, **kwargs)
    return parser


def _content_lines(path: str, what: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor a # comment."""
    try:
        lines = (line.strip() for line in _text_lines(path))
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}") from exc
    return [(n, line) for n, line in enumerate(lines, 1) if line and not line.startswith("#")]


def _read_config_file(path: str, command: str) -> dict:
    params = _PARAMS[command]
    values: dict = {}
    for lineno, line in _content_lines(path, "config file"):
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in params:
            raise CliError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        conv = params[key][0]
        try:
            values[key] = conv(raw_value.strip())
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _merge_params(command: str, args: argparse.Namespace) -> tuple[dict, dict]:
    """Apply precedence defaults < config file < flags; track each value's source."""
    params = _PARAMS[command]
    effective = {dest: default for dest, (_, default) in params.items()}
    sources = dict.fromkeys(params, "default")
    given = vars(args)
    if "config" in given:
        for key, value in _read_config_file(given["config"], command).items():
            effective[key] = value
            sources[key] = "config"
    for key, value in given.items():
        if key in params:
            effective[key] = value
            sources[key] = "flag"
    missing = sorted(k for k, v in effective.items() if v is None)
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise CliError(f"missing required parameters for {command}: {flags}")
    return effective, sources


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    return str(value)


# Parameters holding filesystem paths.  Manifests record only their basenames
# ("out" not even that) so identical runs into different directories produce
# byte-identical manifests.
_PATH_PARAMS = {"out", "vocabulary", "events", "instants", "profiles", "final_states", "tracks"}


def _write_manifest(outdir: Path, command: str, effective: dict, sources: dict) -> None:
    lines = [f"command={command}"]
    for key in sorted(effective):
        if key == "out":
            continue
        value = effective[key]
        if key in _PATH_PARAMS:
            value = Path(value).name
        lines.append(f"{key}={_format_value(value)}")
        lines.append(f"{key}.source={sources[key]}")
    (outdir / f"{command}.manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_instants_file(path: str) -> list[float]:
    instants: list[float] = []
    previous = ""
    for lineno, line in _content_lines(path, "instants file"):
        try:
            instant = float(line)
        except ValueError:
            raise CliError(f"{path}:{lineno}: not a number: {line!r}") from None
        if not math.isfinite(instant):
            raise CliError(f"{path}:{lineno}: instants must be finite, got {instant}")
        if instants and not instant > instants[-1]:
            raise CliError(f"{path}:{lineno}: instants must be strictly increasing, got {line} after {previous}")
        instants.append(instant)
        previous = line
    if not instants:
        raise CliError(f"instants file {path} contains no instants")
    return instants


_EPOCH = datetime.date(1970, 1, 1)
_DAYS = range((datetime.date.min - _EPOCH).days, (datetime.date.max - _EPOCH).days + 1)


def _parse_day(raw: str) -> int:
    if re.fullmatch(r"[+-]?\d+", raw):
        return int(raw)
    try:
        day = datetime.date.fromisoformat(raw)
    except ValueError:
        raise CliError(f"date must be a day index or an ISO date, got {raw!r}") from None
    return (day - _EPOCH).days


def cmd_simulate(effective: dict, out: Path) -> None:
    from .profiles import write_events, write_profiles
    from .space import write_vocabulary
    from .synthetic import ScenarioConfig, generate_scenario
    config = ScenarioConfig(
        d=effective["d"],
        K=effective["k"],
        n_users=effective["users"],
        regime=effective["regime"],
        q_true=effective["q_true"],
        r_true=effective["r_true"],
        seed=effective["seed"],
    )
    scenario = generate_scenario(config, programs_per_day=effective["programs_per_day"])
    write_vocabulary(scenario.space, out / "vocabulary.txt")
    (out / "instants.txt").write_text(
        "\n".join(fmt(t) for t in scenario.instants) + "\n", encoding="utf-8"
    )
    write_events(scenario.events, out / "events.csv")
    write_profiles(scenario.observed(), scenario.space, out / "profiles.csv")
    write_profiles({u.user_id: u.truth for u in scenario.users}, scenario.space, out / "truth.csv")


def cmd_build_profiles(effective: dict, out: Path) -> None:
    from .profiles import build_series, read_events, write_profiles
    from .space import read_vocabulary
    space = read_vocabulary(effective["vocabulary"])
    events = read_events(effective["events"])
    if not events:
        raise CliError(f"event log {effective['events']} contains no events")
    instants = _read_instants_file(effective["instants"])
    series = build_series(
        events, space, instants, decay=effective["decay"], normalize=effective["normalize"]
    )
    if not series:
        raise CliError("no profile series could be built from the given events")
    write_profiles(series, space, out / "built_profiles.csv")


def cmd_track(effective: dict, out: Path) -> None:
    from .profiles import read_profiles
    from .space import read_vocabulary
    from .tracking import build_model, track_users, write_final_states, write_tracks
    space = read_vocabulary(effective["vocabulary"])
    series_by_user = read_profiles(effective["profiles"], space)
    if not series_by_user:
        raise CliError(f"profile table {effective['profiles']} contains no series")
    model = build_model(
        d=space.d,
        T=effective["T"],
        alpha=effective["alpha"],
        q=effective["q"],
        r=effective["r"],
        p0=effective["p0"],
        q_structure=effective["q_structure"],
    )
    series = [series_by_user[user_id] for user_id in sorted(series_by_user)]
    records = track_users(model, series)
    write_tracks(records, space, out / "tracks")
    final_states = {record.user_id: record.final_x_hat for record in records}
    write_final_states(final_states, space, out / "final_states.csv")


def cmd_recommend(effective: dict, out: Path) -> None:
    from .profiles import read_events, read_profiles
    from .recommender import concept_deltas, recommend, write_recommendations
    from .space import read_vocabulary
    from .tracking import read_final_states
    space = read_vocabulary(effective["vocabulary"])
    states = read_final_states(effective["final_states"], space)
    if not states:
        raise CliError(f"final-state file {effective['final_states']} contains no users")
    series_by_user = read_profiles(effective["profiles"], space)
    # The whole log is read: it gives the last day, and a bad row anywhere is an error.
    events = read_events(effective["events"])
    days = np.floor(events.timestamps / DAY_SECONDS)
    if effective["date"]:
        day = _parse_day(effective["date"])
    else:
        if not events:
            raise CliError("event log is empty; pass --date to pick the recommendation day")
        day = int(days.max())
    if day not in _DAYS:
        raise CliError(f"recommendation day {day} is outside 0001-01-01..9999-12-31"
                       f" (days {_DAYS[0]}..{_DAYS[-1]})")
    date_str = (_EPOCH + datetime.timedelta(days=day)).isoformat()

    today = days == day
    watched_today: dict[str, set[str]] = {}
    for user, genre_set in set(zip(events.user[today].tolist(), events.genre_set[today].tolist())):
        watched_today.setdefault(events.user_ids[user], set()).update(events.genre_sets[genre_set])

    recommendations = []
    for user_id in sorted(states):
        if user_id not in series_by_user:
            raise CliError(f"user {user_id!r} has a final state but no profile series")
        estimated = states[user_id][: space.d]
        calculated = series_by_user[user_id].profiles[-1]
        deltas = concept_deltas(estimated, calculated, theta=effective["theta"])
        recommendations.append(
            recommend(deltas, watched_today.get(user_id, set()), space, user_id, date_str)
        )
    write_recommendations(recommendations, out / "recommendations.jsonl")


def cmd_evaluate(effective: dict, out: Path) -> None:
    from .evaluation import evaluate_many, write_histogram, write_report, write_summary
    from .profiles import read_profiles
    from .space import read_vocabulary
    from .tracking import read_tracks
    space = read_vocabulary(effective["vocabulary"])
    observations = read_profiles(effective["profiles"], space)
    records = read_tracks(effective["tracks"], space)
    pooled = evaluate_many(records, observations, tau=effective["tau"])
    write_report(pooled, out / "report.csv")
    write_summary(pooled, out / "summary.txt")
    write_histogram(pooled, out / "histogram.csv")


_HANDLERS = {
    "simulate": cmd_simulate,
    "build-profiles": cmd_build_profiles,
    "track": cmd_track,
    "recommend": cmd_recommend,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # Run as the program: exempt the import-time heap from collection, then collect again.
        gc.freeze()
        gc.enable()
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    missing: list[Path] = []  # --out and its parents that this run creates, innermost first
    try:
        effective, sources = _merge_params(command, args)
        out = Path(effective["out"])
        missing = [path for path in (out, *out.parents) if not path.exists()]
        out.mkdir(parents=True, exist_ok=True)
        _HANDLERS[command](effective, out)
        _write_manifest(out, command, effective, sources)
    except Exception as exc:
        if missing:
            shutil.rmtree(missing[-1], ignore_errors=True)
        input_errors: tuple = (CliError, ValueError, KeyError, OSError)
        # Under track_users a filter that diverges depends only on the model, an input.  Only
        # a command that loaded tracking can raise its errors.
        tracking = sys.modules.get("genretrack.tracking")
        if tracking:
            input_errors += (tracking.DivergenceError, tracking.SingularInnovationError)
        if not isinstance(exc, input_errors):
            print(f"genretrack {command}: unexpected error: {exc}", file=sys.stderr)
            return 1
        # str() of a KeyError is the repr of its message; an OSError's names the path.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"genretrack {command}: error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
