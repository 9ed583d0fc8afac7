"""Command-line pipeline: simulate -> build-profiles -> track -> recommend -> evaluate.

Every run is deterministic: outputs are pure functions of the inputs and the
effective parameters, numeric text is printed at 17 significant digits, and
each command writes a ``<command>.manifest.txt`` recording the effective
parameter values and where each came from (flag, config file, or default).
Parameter precedence is defaults < config file < command-line flags; config
files are plain ``key=value`` lines (``#`` starts a comment line).

Commands validate all inputs and compute results in memory before creating or
writing any output file, so a fault in an input leaves no output behind; a
failure while writing leaves the files written before it.  Each command
imports, when it runs, only the modules it uses: ``build-profiles`` loads
``space``, ``ioutil`` and ``profiles``; ``track`` adds ``tracking``;
``recommend`` adds ``tracking`` and ``recommender``; ``evaluate`` adds
``tracking`` and ``evaluation``; only ``simulate`` loads ``synthetic``.  Only
``tracking`` knows the ``tracks/`` layout: ``track_writer`` names and writes its files,
``read_tracks`` reads them.  Every CSV input is read by ``ioutil.read_rows``, except a plain
event log, which ``profiles.read_events`` cuts with numpy byte operations and hands to
``read_rows`` on any fault.  So a faulty row is named by ``path:line`` and its cause, and a
user id in any table obeys one rule; the instants file is checked line by line the same way,
and a byte that is not UTF-8 names its ``path:line`` in every input.

Importing this module loads numpy with a one-thread OpenBLAS pool: no command runs
linear algebra big enough to gain from a second thread, and more threads only cost
time (``build_model(44)``'s check of ``Q`` takes 24 ms on two threads and under
1 ms on one, and starting the pool slows ``import numpy`` on a busy host).  A
thread count the caller set in ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is honoured, nothing changes when numpy is already loaded, and
``os.environ`` is left as it was.

Run as the program (``python -m genretrack.cli`` or the ``genretrack`` script),
``main`` calls ``gc.freeze()`` before it parses its arguments: the import-time heap
(about 21,000 objects) is then never scanned again, and interpreter shutdown takes
about 6 ms instead of 20.  Objects the command creates are collected as before, and
stdio flushes and ``atexit`` handlers still run.  ``main(argv)`` called with a list
leaves the collector as it found it.

Exit codes: 0 success, 2 usage or input validation error (a filter that diverges
under the given model parameters included), 1 unexpected failure.  Diagnostics are
one line on stderr.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import math
import os
import re
import sys
from pathlib import Path
from typing import Callable

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


def _parse_day(raw: str) -> int:
    if re.fullmatch(r"[+-]?\d+", raw):
        return int(raw)
    try:
        day = datetime.date.fromisoformat(raw)
    except ValueError:
        raise CliError(f"date must be a day index or an ISO date, got {raw!r}") from None
    return (day - _EPOCH).days


Writer = Callable[[Path], None]


def cmd_simulate(effective: dict) -> Writer:
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

    def write(outdir: Path) -> None:
        write_vocabulary(scenario.space, outdir / "vocabulary.txt")
        (outdir / "instants.txt").write_text(
            "\n".join(fmt(t) for t in scenario.instants) + "\n", encoding="utf-8"
        )
        write_events(scenario.events, outdir / "events.csv")
        write_profiles(scenario.observed(), scenario.space, outdir / "profiles.csv")
        write_profiles(
            {u.user_id: u.truth for u in scenario.users}, scenario.space, outdir / "truth.csv"
        )

    return write


def cmd_build_profiles(effective: dict) -> Writer:
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

    def write(outdir: Path) -> None:
        write_profiles(series, space, outdir / "built_profiles.csv")

    return write


def cmd_track(effective: dict) -> Writer:
    from .profiles import read_profiles
    from .space import read_vocabulary
    from .tracking import build_model, track_users, track_writer, write_final_states
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
        q_structure=effective["q_structure"],
    )
    series = [series_by_user[user_id] for user_id in sorted(series_by_user)]
    records = track_users(model, series, p0=effective["p0"])

    write_tracks = track_writer(records, space)

    def write(outdir: Path) -> None:
        write_tracks(outdir / "tracks")
        final_states = {record.user_id: record.final_state for record in records}
        write_final_states(final_states, space, outdir / "final_states.csv")

    return write


def cmd_recommend(effective: dict) -> Writer:
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
    date_str = (_EPOCH + datetime.timedelta(days=day)).isoformat()

    today = days == day
    n_sets = max(1, len(events.genre_sets))
    pairs = np.unique(events.user[today] * n_sets + events.genre_set[today])  # (user, genre set)
    watched_today: dict[str, set[str]] = {}
    for user, genre_set in zip((pairs // n_sets).tolist(), (pairs % n_sets).tolist()):
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

    def write(outdir: Path) -> None:
        write_recommendations(recommendations, outdir / "recommendations.jsonl")

    return write


def cmd_evaluate(effective: dict) -> Writer:
    from .evaluation import evaluate_many, write_histogram, write_report, write_summary
    from .profiles import read_profiles
    from .space import read_vocabulary
    from .tracking import read_tracks
    space = read_vocabulary(effective["vocabulary"])
    observations = read_profiles(effective["profiles"], space)
    records = read_tracks(effective["tracks"], space)
    try:
        pooled = evaluate_many(records, observations, tau=effective["tau"])
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from exc

    def write(outdir: Path) -> None:
        write_report(pooled, outdir / "report.csv")
        write_summary(pooled, outdir / "summary.txt")
        write_histogram(pooled, outdir / "histogram.csv")

    return write


_HANDLERS = {
    "simulate": cmd_simulate,
    "build-profiles": cmd_build_profiles,
    "track": cmd_track,
    "recommend": cmd_recommend,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # Run as the program: exempt the import-time heap from garbage collection.
        gc.freeze()
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        effective, sources = _merge_params(command, args)
        # Validate and compute everything first; only then touch the filesystem.
        write_outputs = _HANDLERS[command](effective)
        outdir = Path(effective["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        write_outputs(outdir)
        _write_manifest(outdir, command, effective, sources)
    except Exception as exc:
        input_errors: tuple = (CliError, ValueError, KeyError, OSError)
        # Under track_users a filter that diverges depends only on the model and p0, which are
        # inputs.  Only a command that loaded tracking can raise its errors.
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
