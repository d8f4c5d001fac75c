"""Record, per workload and seed, the final-window mean test accuracy and
the attack outcome counts that every repetition must reproduce. A seed on
which the program raises is recorded as null, and its error is printed.

    python3 benchmarks/record_reference.py [--workload NAME ...]

Records seeds 0 .. SEEDS-1 of each named workload (default: all) and
replaces those workloads in benchmarks/reference.json. run.py maps its
--seed onto the recorded seeds on which the program completed and checks
every repetition against the values of that seed, so re-record only
when a change to the program is meant to move the accuracy or the attack
outcomes, or when a workload's rounds change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import DIAGNOSTIC_COUNTS, SRC, WORKLOADS, diagnostic_counts

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SEEDS = 100
FIELDS = ("accuracy", *DIAGNOSTIC_COUNTS)


def record(name: str) -> dict:
    from edgefl.config import validate_config
    from edgefl.metrics import trace_summary
    from edgefl.simulation import run_simulation

    workload = WORKLOADS[name]
    text = (SRC.parent / workload.config).read_text()
    by_seed = []
    for seed in range(SEEDS):
        cfg = validate_config(text, workload.overrides_for(seed, Path("unused")))
        try:
            records = run_simulation(cfg)
        except RuntimeError as exc:
            print(f"{name} seed {seed}: {exc}", flush=True)
            by_seed.append(None)
            continue
        accuracy = trace_summary(records, last_k=20)["accuracy_last_window"]["mean"]
        counts = diagnostic_counts(records)
        by_seed.append([accuracy, *(counts[key] for key in DIAGNOSTIC_COUNTS)])
    accuracies = [row[0] for row in by_seed if row is not None]
    print(f"{name}: {len(accuracies)} of {SEEDS} seeds ran, "
          f"accuracy {min(accuracies):.4f} .. {max(accuracies):.4f}", flush=True)
    return {"rounds": workload.rounds, "fields": list(FIELDS), "by_seed": by_seed}


def dump(reference: dict) -> str:
    """JSON with one line per seed, so a re-recording diffs seed by seed."""
    parts = []
    for name in sorted(reference):
        entry = reference[name]
        rows = ",\n  ".join(json.dumps(row) for row in entry["by_seed"])
        parts.append(
            f' {json.dumps(name)}: {{"rounds": {entry["rounds"]}, '
            f'"fields": {json.dumps(entry["fields"])}, "by_seed": [\n  {rows}\n ]}}'
        )
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    recorded = {name: record(name) for name in args.workload or sorted(WORKLOADS)}
    # Read the file only now, so workloads recorded by another process
    # in the meantime are kept.
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference.update(recorded)
    REFERENCE.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
