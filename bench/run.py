"""Benchmark of the genretrack CLI pipeline on seeded workloads.

    python3 bench/run.py --workload daily-50 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  ``simulate`` writes the workload's inputs
from ``--seed``; then ``build-profiles``, ``track``, ``recommend`` and
``evaluate`` run as a user runs them, one fresh ``python -m genretrack.cli``
process at a time with ``src`` on ``PYTHONPATH``, and each is timed from
spawn to exit.  After every pass, outside the timed part, ``check.py``
compares every output with its own recomputation.

``--trace 0`` reports the end-to-end metrics: each is the median over the
run's set-ups or passes, and passes repeat while the next one is likely to
end within ``--seconds``.
``--trace 1`` runs one pass of all five commands untraced and one through
``tracer.py``, each command untraced and then traced, and reports the
per-layer metrics of the traced pass and each command's tracing overhead
(traced minus untraced wall time).

The last line of standard output is the result: a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; every command and
every check is one operation.  The line before it holds the details: the
environment, every timing and every failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"

# simulate runs this many times per timed run; setup_s is their median.
SETUP_REPEATS = 5

PIPELINE = ("build-profiles", "track", "recommend", "evaluate")
CYCLE = ("build-profiles", "track", "recommend")


@dataclass(frozen=True)
class Workload:
    simulate: tuple[str, ...]
    decay: float = 1.0
    normalize: bool = False
    quality_bar: float | None = None


# Why each workload exists is in README.md.  No command but simulate gets
# --seed, and none gets --decoupled.
WORKLOADS = {
    "daily-50": Workload(
        ("--d", "44", "--k", "35", "--users", "50", "--programs-per-day", "3",
         "--regime", "smooth_drift"),
        quality_bar=0.80,
    ),
    "binge-decay": Workload(
        ("--d", "8", "--k", "35", "--users", "100", "--programs-per-day", "30"),
        decay=0.9,
        normalize=True,
    ),
}


@dataclass
class Run:
    """One command's outcome: wall time, peak resident memory, exit code."""

    wall_s: float
    peak_rss_mb: float
    exit_code: int


class Ledger:
    """Operations attempted and the ones that failed, with the reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Runner:
    """Runs commands one at a time, each in a fresh interpreter, and records them."""

    def __init__(self, ledger: Ledger, log: Path) -> None:
        self.ledger = ledger
        self.log = log
        self.env = child_env()

    def run(self, argv: list[str], what: str) -> Run:
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = None if proc.returncode == 0 else f"exit code {proc.returncode}, see {self.log.name}"
        self.ledger.record(what, error)
        return Run(wall, usage.ru_maxrss / 1024, proc.returncode)

    def cli(self, args: list[str], what: str) -> Run:
        return self.run([sys.executable, "-m", "genretrack.cli", *args], what)

    def traced(self, args: list[str], spans: Path, what: str) -> Run:
        outcome = self.run([sys.executable, str(HERE / "tracer.py"), str(spans), *args], what)
        meta = spans.with_suffix(".json")
        if meta.is_file():
            outcome.wall_s -= json.loads(meta.read_text(encoding="utf-8"))["save_s"]
        return outcome


def simulate_args(workload: Workload, seed: int, inputs: Path) -> list[str]:
    return ["simulate", *workload.simulate, "--seed", str(seed), "--out", str(inputs)]


def pipeline_args(workload: Workload, inputs: Path, out: Path) -> dict[str, list[str]]:
    vocabulary = ["--vocabulary", str(inputs / "vocabulary.txt")]
    built = str(out / "built" / "built_profiles.csv")
    fold = ["--decay", repr(workload.decay)] + (["--normalize"] if workload.normalize else [])
    return {
        "build-profiles": ["build-profiles", *vocabulary, "--events", str(inputs / "events.csv"),
                           "--instants", str(inputs / "instants.txt"), *fold,
                           "--out", str(out / "built")],
        "track": ["track", *vocabulary, "--profiles", built, "--out", str(out / "tracked")],
        "recommend": ["recommend", *vocabulary, "--final-states",
                      str(out / "tracked" / "final_states.csv"), "--profiles", built,
                      "--events", str(inputs / "events.csv"), "--out", str(out / "recommended")],
        "evaluate": ["evaluate", *vocabulary, "--profiles", built,
                     "--tracks", str(out / "tracked" / "tracks"), "--out", str(out / "evaluated")],
    }


def count_rows(path: Path) -> int:
    """Data rows of a CSV file with a header; 0 if it is missing."""
    if not path.is_file():
        return 0
    with open(path, "rb") as fh:
        return max(0, sum(1 for _ in fh) - 1)


def input_sizes(inputs: Path) -> dict[str, int]:
    events = inputs / "events.csv"
    return {"events": count_rows(events), "events_csv_bytes": events.stat().st_size if events.is_file() else 0}


def check_pass(workload: Workload, inputs: Path, out: Path, ledger: Ledger, label: str) -> None:
    files = check.PassFiles(inputs, out / "built", out / "tracked", out / "recommended", out / "evaluated")
    checks = check.pass_checks(workload.decay, workload.normalize, workload.quality_bar)
    for name, error in check.run_checks(files, checks):
        ledger.record(f"{label} check {name}", error)


def timed_run(workload: Workload, seed: int, seconds: float, run_dir: Path, runner: Runner, ledger: Ledger):
    inputs = run_dir / "in"
    setups = [runner.cli(simulate_args(workload, seed, inputs), f"setup {i} simulate").wall_s
              for i in range(SETUP_REPEATS)]
    passes: list[dict[str, Run]] = []
    started = time.perf_counter()
    # Start another pass only while it is likely to end within the time.
    while not passes or (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds:
        out = run_dir / "pass"
        shutil.rmtree(out, ignore_errors=True)
        label = f"pass {len(passes)}"
        passes.append({cmd: runner.cli(args, f"{label} {cmd}")
                       for cmd, args in pipeline_args(workload, inputs, out).items()})
        check_pass(workload, inputs, out, ledger, label)

    metrics = {
        "setup_s": (median(setups), "s"),
        "build_profiles_s": (median([p["build-profiles"].wall_s for p in passes]), "s"),
        "track_s": (median([p["track"].wall_s for p in passes]), "s"),
        "recommend_s": (median([p["recommend"].wall_s for p in passes]), "s"),
        "evaluate_s": (median([p["evaluate"].wall_s for p in passes]), "s"),
        "daily_cycle_s": (median([sum(p[c].wall_s for c in CYCLE) for p in passes]), "s"),
        "peak_rss_mb": (median([max(r.peak_rss_mb for r in p.values()) for p in passes]), "MB"),
    }
    detail = {
        "inputs": input_sizes(inputs),
        "setup_s": setups,
        "passes": [{cmd: vars(r) for cmd, r in p.items()} for p in passes],
    }
    return metrics, detail


def traced_run(workload: Workload, seed: int, run_dir: Path, runner: Runner, ledger: Ledger):
    commands = ("simulate",) + PIPELINE
    untraced: dict[str, Run] = {}
    traced: dict[str, Run] = {}
    traced_dir = run_dir / "traced"
    traced_dir.mkdir()
    spans = [traced_dir / f"spans.{cmd}.npz" for cmd in commands]
    argv = {
        label: {"simulate": simulate_args(workload, seed, run_dir / label / "in"),
                **pipeline_args(workload, run_dir / label / "in", run_dir / label)}
        for label in ("untraced", "traced")
    }
    # Each command runs untraced and then traced, back to back, so that the
    # difference is not a change in the machine's speed between two passes.
    for cmd, spans_file in zip(commands, spans):
        untraced[cmd] = runner.cli(argv["untraced"][cmd], f"untraced {cmd}")
        traced[cmd] = runner.traced(argv["traced"][cmd], spans_file, f"traced {cmd}")
    for label in ("untraced", "traced"):
        check_pass(workload, run_dir / label / "in", run_dir / label, ledger, label)

    inputs = input_sizes(traced_dir / "in")
    n_observations = count_rows(traced_dir / "built" / "built_profiles.csv")
    metrics = tracer.layer_metrics(tracer.Spans([p for p in spans if p.is_file()]), inputs["events"], n_observations)
    written = sum(f.stat().st_size for f in traced_dir.rglob("*")
                  if f.is_file() and not f.name.startswith("spans."))
    metrics["cli.bytes_written"] = (written, "bytes")
    for cmd in commands:
        key = f"trace.overhead.{cmd.replace('-', '_')}_s"
        metrics[key] = (traced[cmd].wall_s - untraced[cmd].wall_s, "s")
    detail = {
        "inputs": inputs,
        "untraced": {cmd: vars(r) for cmd, r in untraced.items()},
        "traced": {cmd: vars(r) for cmd, r in traced.items()},
        "spans": [str(p.relative_to(ROOT)) for p in spans],
    }
    return metrics, detail


def openblas_threads() -> dict[str, int | None]:
    """Thread count each OpenBLAS bundled with numpy and scipy reports; nothing is set."""
    import numpy
    import scipy

    counts: dict[str, int | None] = {}
    for package in (numpy, scipy):
        root = Path(package.__file__).parent
        counts[package.__name__] = None
        for path in sorted(root.parent.glob(f"{root.name}.libs/*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                get = getattr(lib, symbol, None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    counts[package.__name__] = get()
                    break
    return counts


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "seed": seed,
        "openblas_threads": openblas_threads(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "genretrack" / "cli.py").is_file():
        print(f"bench: no genretrack sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment(args.seed)
    ledger = Ledger()
    runner = Runner(ledger, run_dir / "commands.log")
    if args.trace:
        metrics, detail = traced_run(workload, args.seed, run_dir, runner, ledger)
    else:
        metrics, detail = timed_run(workload, args.seed, args.seconds, run_dir, runner, ledger)

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {"workload": args.workload, "trace": args.trace, "environment": env,
              "failures": ledger.failures, **detail}
    (run_dir / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
