"""The five commands on small drawn scenarios, every output checked by ``bench/check.py``.

``bench/check.py`` recomputes what each command should have written without importing
genretrack: the fold, the per-axis predictor, the recommendations and the scores.  It is
imported here by path, as the benchmark imports it, so a change to it can fail this test.
"""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from genretrack.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "bench_check", Path(__file__).resolve().parents[1] / "bench" / "check.py"
)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)

# The refusals `track` may make on a drawn scenario, each a known open fault: a covariance
# the simple update loses at extreme p0/r, and a user whose series has one snapshot.  Any
# other refusal, or one from another command, fails the test.
ALLOWED_REFUSAL = re.compile(
    r"genretrack track: error: ("
    r"prediction covariance (lost PSD|is not finite) at step \d+"
    r"|innovation covariance ill-conditioned at step \d+: .*"
    r"|user '[^'\n]*': tracking needs at least 2 observations, got 1"
    r")\n"
)


def log_uniform(low: float, high: float):
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0 ** e)


SCENARIOS = st.fixed_dictionaries({
    "d": st.sampled_from([1, 2, 3, 5, 8]),
    "k": st.sampled_from([3, 4, 7, 12]),
    "users": st.sampled_from([1, 2, 5, 13]),
    "regime": st.sampled_from(["smooth_drift", "regime_change", "bursty"]),
    "programs_per_day": st.integers(min_value=1, max_value=10),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "decay": st.sampled_from([1.0, 0.9, 0.5]),
    "normalize": st.booleans(),
    "q": st.one_of(st.just(0.0), log_uniform(-12.0, 6.0)),
    "r": log_uniform(-12.0, 8.0),
    "q_structure": st.sampled_from(["white_accel", "identity"]),
    "alpha": st.sampled_from([1.0, 0.9]),
    "p0": log_uniform(-8.0, 8.0),
    "theta": log_uniform(-9.0, 0.5),
})


@settings(max_examples=100, derandomize=True, deadline=None)
@given(SCENARIOS)
def test_every_output_passes_the_benchmark_checks(tmp_path_factory, scenario):
    root = tmp_path_factory.mktemp("scenario")
    sim, built, tracked, recs, scored = (root / name for name in ("sim", "built", "tracked", "recs", "scored"))
    vocabulary = ["--vocabulary", str(sim / "vocabulary.txt")]
    profiles = ["--profiles", str(built / "built_profiles.csv")]
    s = {key: str(value) for key, value in scenario.items()}
    commands = [
        ["simulate", "--d", s["d"], "--k", s["k"], "--users", s["users"], "--regime", s["regime"],
         "--programs-per-day", s["programs_per_day"], "--seed", s["seed"], "--out", str(sim)],
        ["build-profiles", *vocabulary, "--events", str(sim / "events.csv"),
         "--instants", str(sim / "instants.txt"), "--decay", s["decay"],
         *(["--normalize"] if scenario["normalize"] else []), "--out", str(built)],
        ["track", *vocabulary, *profiles, "--q", s["q"], "--r", s["r"], "--q-structure", s["q_structure"],
         "--alpha", s["alpha"], "--p0", s["p0"], "--out", str(tracked)],
        ["recommend", *vocabulary, "--final-states", str(tracked / "final_states.csv"), *profiles,
         "--events", str(sim / "events.csv"), "--theta", s["theta"], "--out", str(recs)],
        ["evaluate", *vocabulary, *profiles, "--tracks", str(tracked / "tracks"), "--out", str(scored)],
    ]
    for argv in commands:
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(argv)
        err = stderr.getvalue()
        if code != 0:
            assert code == 2 and ALLOWED_REFUSAL.fullmatch(err), (argv[0], code, err)
            return
        assert err == ""

    files = check.PassFiles(sim, built, tracked, recs, scored)
    checks = check.pass_checks(scenario["decay"], scenario["normalize"], None)
    failed = [(name, reason) for name, reason in check.run_checks(files, checks) if reason]
    assert not failed, failed
