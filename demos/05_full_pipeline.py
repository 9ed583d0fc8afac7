"""The five CLI stages chained end to end in a temporary directory.

simulate writes a synthetic scenario; build-profiles folds its event log
back into profile series; track runs the predictor; recommend turns the
final forecasts into genre lists; evaluate scores the predictions.
Every stage writes a manifest of its effective parameters.
"""

import tempfile
from pathlib import Path

from genretrack.cli import main

root = Path(tempfile.mkdtemp(prefix="genretrack_demo_"))
sim, built, tracked, recs, scored = (
    root / name for name in ("sim", "built", "tracked", "recs", "scored")
)

stages = [
    ["simulate", "--d", "8", "--k", "14", "--users", "5",
     "--programs-per-day", "6", "--seed", "2026", "--out", str(sim)],
    ["build-profiles", "--vocabulary", str(sim / "vocabulary.txt"),
     "--events", str(sim / "events.csv"), "--instants", str(sim / "instants.txt"),
     "--out", str(built)],
    ["track", "--vocabulary", str(sim / "vocabulary.txt"),
     "--profiles", str(built / "built_profiles.csv"), "--out", str(tracked)],
    ["recommend", "--vocabulary", str(sim / "vocabulary.txt"),
     "--final-states", str(tracked / "final_states.csv"),
     "--profiles", str(built / "built_profiles.csv"),
     "--events", str(sim / "events.csv"), "--out", str(recs)],
    ["evaluate", "--vocabulary", str(sim / "vocabulary.txt"),
     "--profiles", str(built / "built_profiles.csv"),
     "--tracks", str(tracked / "tracks"), "--out", str(scored)],
]

for argv in stages:
    code = main(argv)
    print(f"genretrack {argv[0]}: exit {code}")
    assert code == 0

print(f"\noutputs under {root}")
for path in sorted(root.rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(root)}")

print("\nevaluation summary:")
print((scored / "summary.txt").read_text(encoding="utf-8"))

print("recommendations for the last event day:")
print((recs / "recommendations.jsonl").read_text(encoding="utf-8"))
