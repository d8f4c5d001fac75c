#!/usr/bin/env python3
"""Compare the output files of two checkouts, run for run.

    python scripts/compare_outputs.py PARENT CHANGE [--seeds 0 1 2] [--override KEY=VALUE]

Runs, in each checkout and with that checkout's own src/ and configs/,
every configs/synthetic_*.yaml as shipped (plus any --override) and
every workload config that benchmarks/workloads.py builds, once per
seed, through ``edgefl simulate``. For rounds.csv, summary.json and
attack_diag.csv it prints "byte-identical", or, per numeric column
(CSV) or key path (JSON) that differs, the largest absolute difference
and how many of its cells differ ("local_loss 2.22e-16 in 162 of 2100
cells"), and the number of differing cells of every other column.
Exits 0 when every file of every run is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

COMPARED = ("rounds.csv", "summary.json", "attack_diag.csv")


def cases(checkout: Path, seeds: list[int], overrides: list[str]):
    """(name, config path relative to the checkout, overrides without
    output_dir) for every run."""
    for config in sorted((checkout / "configs").glob("synthetic_*.yaml")):
        for seed in seeds:
            yield f"{config.stem} seed {seed}", config.relative_to(checkout), [
                *overrides, f"seed={seed}",
            ]
    # Run as a script, so no bytecode is written next to it.
    workloads = runpy.run_path(str(checkout / "benchmarks" / "workloads.py"))["WORKLOADS"]
    for name, workload in workloads.items():
        for seed in seeds:
            keys = [k for k in workload.overrides_for(seed, Path()) if not k.startswith("output_dir=")]
            yield f"workload {name} seed {seed}", Path(workload.config), keys


def run(checkout: Path, config: Path, overrides: list[str], out: Path) -> str | None:
    """Run one simulation into out; the error text when it fails."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "-m", "edgefl.cli", "simulate", "--config", str(checkout / config),
        "--out", str(out), *(arg for key in overrides for arg in ("--override", key)),
    ]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    return None if done.returncode == 0 else done.stderr.strip() or f"exit {done.returncode}"


def _cell(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def _difference(a, b) -> float | None:
    """|a - b| for two numbers (0 for equal ones, inf when only one is
    finite); None when either is not a number."""
    if a == b:
        return 0.0
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return None
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b)


def _columns(name: str, text: str) -> dict[str, list]:
    """A CSV file as column -> values, or a JSON file as key path -> [value]."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        return {col: [_cell(r[i]) for r in body] for i, col in enumerate(header)}
    flat: dict[str, list] = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        else:
            flat[path] = [value]

    walk(json.loads(text), "")
    return flat


def compare_file(name: str, parent: bytes, change: bytes) -> str:
    if parent == change:
        return "byte-identical"
    a, b = _columns(name, parent.decode()), _columns(name, change.decode())
    notes = []
    for key in sorted(set(a) ^ set(b)):
        notes.append(f"{key} only in {'parent' if key in a else 'change'}")
    for key in [k for k in a if k in b]:
        if len(a[key]) != len(b[key]):
            notes.append(f"{key} has {len(a[key])} rows in parent, {len(b[key])} in change")
            continue
        diffs = [_difference(x, y) for x, y in zip(a[key], b[key])]
        numeric = [d for d in diffs if d is not None]
        other = sum(d is None and x != y for d, x, y in zip(diffs, a[key], b[key]))
        moved = sum(d > 0 for d in numeric)
        if moved:
            notes.append(f"{key} {max(numeric):.3g} in {moved} of {len(diffs)} cells")
        if other:
            notes.append(f"{key} {other} cells differ")
    return "differs: " + ", ".join(notes) if notes else "differs in layout only"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="extra override for the synthetic configs, not the workloads")
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()

    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for index, (name, config, overrides) in enumerate(cases(change, args.seeds, args.override)):
            print(name)
            outs = {side: Path(tmp) / side / str(index) for side in ("parent", "change")}
            errors = {side: run(root, config, overrides, outs[side])
                      for side, root in (("parent", parent), ("change", change))}
            if any(errors.values()):
                identical = False
                for side, error in errors.items():
                    if error:
                        print(f"  {side} run failed: {error.splitlines()[-1]}")
                continue
            for file in COMPARED:
                there = [(out / file).is_file() for out in outs.values()]
                if not any(there):
                    continue
                if not all(there):
                    identical = False
                    print(f"  {file}: written by one side only")
                    continue
                verdict = compare_file(
                    file, (outs["parent"] / file).read_bytes(), (outs["change"] / file).read_bytes()
                )
                identical &= verdict == "byte-identical"
                print(f"  {file}: {verdict}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
