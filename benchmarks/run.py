"""edgefl benchmark harness.

    python3 benchmarks/run.py --workload avgae_default --seed 0 --seconds 55 --trace 0

Runs repetitions of one workload, each in a fresh child process
(child.py), until --seconds have passed, checks every repetition's
output files, and prints the metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. setup_s and wall_s are
calibrated to a fixed machine speed by a probe timed before the first
repetition and after each one: setup_s is the median of each
repetition's setup time scaled by PROBE_REF_S over the mean of the two
probes around it; wall_s is the low decile of the repetition times
scaled by PROBE_REF_S over the low decile of the probe times.
peak_rss_mb is the median. --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, plus the tracing overhead. A full record of
the run, with every raw sample and the environment, goes to
benchmarks/out/<workload>-seed<seed>-trace<t>.json.
See README.md for the workloads, the metrics and why they are calibrated.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    DIAGNOSTIC_COUNTS, OUTPUT_FILES, ROOT, ROUNDS_CSV_COLUMNS, SRC, TRACED, WORKLOADS, Workload,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 60
# Final-window mean accuracy must lie within this of the value recorded
# for the seed: wide enough for last-digit BLAS differences, far below
# what a broken trainer or a working attack moves it by.
ACCURACY_TOL = 0.005
# What calibration_probe() takes on an idle 2-core Xeon (OpenBLAS 0.3.31)
# at its fastest. Calibrated times read in seconds at that speed. Fixed,
# so that two commits are calibrated to the same speed.
PROBE_REF_S = 0.075
CHECKED_FILES = ("rounds.csv", "summary.json", "attack_diag.csv")
# Unit of each end-to-end metric. Load from outside the machine slows it
# by up to 2x, in episodes of a second to minutes; the calibration in
# end_to_end() removes most of that from a run's figures (measured in
# README.md).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class RepetitionFailed(Exception):
    pass


def _bytes_metric(file_name: str) -> str:
    return f"simulation.emit_outputs.bytes.{file_name.replace('.', '_')}"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for qualname in TRACED:
        units[f"{qualname}.calls"] = "count"
        units[f"{qualname}.busy_s"] = "s"
        units[f"{qualname}.self_s"] = "s"
    units["graph_attack.epochs_per_attack"] = "ratio"
    units["graph_attack.skipped_ratio"] = "ratio"
    units["graph_attack.constraint_ok_ratio"] = "ratio"
    units["graph_attack.uniform_fallback_ratio"] = "ratio"
    for name in OUTPUT_FILES:
        units[_bytes_metric(name)] = "B"
    units["tracing.traced_wall_s"] = "s"
    units["tracing.untraced_wall_s"] = "s"
    units["tracing.overhead_s"] = "s"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], diagnostics: dict, out_dir: Path, wall_s: float) -> dict:
    """Per-layer values of one traced repetition.

    busy_s counts a call only when no enclosing call has the same name;
    self_s is a call's duration minus that of its traced children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    values = {}
    for qualname in TRACED:
        values[f"{qualname}.calls"] = 0
        values[f"{qualname}.busy_s"] = 0.0
        values[f"{qualname}.self_s"] = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += end - start - child_time[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            values[f"{name}.busy_s"] += end - start
    values["graph_attack.epochs_per_attack"] = _ratio(
        values["graph_attack.loss_and_grads.calls"], values["graph_attack.train_gae.calls"]
    )
    values["graph_attack.skipped_ratio"] = _ratio(diagnostics["skipped"], diagnostics["attempts"])
    attacked = diagnostics["attempts"] - diagnostics["skipped"]
    values["graph_attack.constraint_ok_ratio"] = _ratio(diagnostics["constraint_ok"], attacked)
    values["graph_attack.uniform_fallback_ratio"] = _ratio(diagnostics["uniform_fallback"], attacked)
    for name in OUTPUT_FILES:
        path = out_dir / name
        values[_bytes_metric(name)] = path.stat().st_size if path.exists() else 0
    values["tracing.traced_wall_s"] = wall_s
    return values


def run_child(workload: str, seed: int, trace: int, out_dir: Path) -> dict:
    """Run one repetition in a fresh interpreter and return its timings."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--out", str(out_dir), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            [*cmd, "--t-spawn", repr(time.monotonic())],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionFailed(f"timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RepetitionFailed(f"exit code {proc.returncode}: {tail[0]}")
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RepetitionFailed(f"no result line from child: {exc}") from exc
    if not Path(sample["edgefl_file"]).resolve().is_relative_to(SRC):
        raise RepetitionFailed(f"imported edgefl from {sample['edgefl_file']}, not {SRC}")
    return sample


class OutputCheck:
    """Checks one run's repetitions: the same bytes every time, the
    expected rounds.csv shape, and the final-window accuracy and attack
    outcome counts recorded for the seed."""

    def __init__(self, workload: Workload, expected_accuracy: float, expected_counts: dict):
        self.workload = workload
        self.expected_accuracy = expected_accuracy
        self.expected_counts = expected_counts
        self.digests: dict[str, str] | None = None

    def problems(self, out_dir: Path, diagnostics: dict) -> list[str]:
        wl = self.workload
        found = [name for name in CHECKED_FILES if (out_dir / name).exists()]
        wanted = [n for n in CHECKED_FILES if n != "attack_diag.csv" or wl.attack_diag]
        if found != wanted:
            return [f"output files {found}, expected {wanted}"]
        issues = []
        with open(out_dir / "rounds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ROUNDS_CSV_COLUMNS:
            issues.append(f"rounds.csv header {rows[:1]}")
        if len(rows) - 1 != wl.rounds * wl.devices:
            issues.append(f"rounds.csv has {len(rows) - 1} rows, expected {wl.rounds * wl.devices}")
        summary = json.loads((out_dir / "summary.json").read_text())
        accuracy = summary["accuracy_last_window"]["mean"]
        if abs(accuracy - self.expected_accuracy) > ACCURACY_TOL:
            issues.append(
                f"final-window mean accuracy {accuracy!r}, reference "
                f"{self.expected_accuracy!r} +- {ACCURACY_TOL}"
            )
        if diagnostics != self.expected_counts:
            issues.append(f"attack outcome counts {diagnostics}, reference {self.expected_counts}")
        digests = {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in found}
        if self.digests is None:
            self.digests = digests
        else:
            differ = [n for n in found if digests[n] != self.digests[n]]
            if differ:
                issues.append(f"bytes differ from the first repetition: {differ}")
        return issues


def load_reference(name: str, workload: Workload, seed: int) -> tuple[int, float, dict]:
    """The config seed that benchmark seed ``seed`` runs, with the
    final-window accuracy and attack outcome counts it must reproduce.

    Any integer is a valid benchmark seed: it picks, cyclically, one of the
    recorded seeds on which the program completed. Seeds recorded as null
    (the program raised on them) are never run; see README.md.
    """
    entry = json.loads(REFERENCE.read_text())[name]
    if entry["rounds"] != workload.rounds:
        raise SystemExit(
            f"reference for {name} was recorded at {entry['rounds']} rounds, "
            f"the workload runs {workload.rounds}; run record_reference.py"
        )
    completed = [s for s, row in enumerate(entry["by_seed"]) if row is not None]
    config_seed = completed[seed % len(completed)]
    row = dict(zip(entry["fields"], entry["by_seed"][config_seed]))
    return config_seed, row.pop("accuracy"), {key: row[key] for key in DIAGNOSTIC_COUNTS}


def low_decile(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[0] if len(values) > 1 else values[0]


def end_to_end(plain: list[dict], probes: list[float]) -> tuple[dict, dict]:
    """The end-to-end values of a run and a note on how each was taken.

    setup_s: median over repetitions of setup time times PROBE_REF_S over
    the mean of the probes before and after it. wall_s: low decile of the
    repetition times times PROBE_REF_S over the low decile of the probe
    times; a low decile is the machine's fast moments, for the program and
    for the probe alike, and their ratio does not depend on how much of
    the run was slow.
    """
    setup = [s["setup_s"] for s in plain]
    wall = [s["wall_s"] for s in plain]
    values = {
        "setup_s": statistics.median(s["setup_s"] * s["calibration"] for s in plain),
        "wall_s": low_decile(wall) * PROBE_REF_S / low_decile(probes),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
    }
    n = len(plain)
    notes = {
        "setup_s": f"calibrated median of {n}; raw median {statistics.median(setup):.6g}",
        "wall_s": f"calibrated low decile of {n}; raw low decile {low_decile(wall):.6g}, "
                  f"raw median {statistics.median(wall):.6g}",
        "peak_rss_mb": f"median of {n}",
    }
    return values, notes


def calibration_probe() -> float:
    """Seconds taken by a fixed mix of pure-Python and small-array numpy
    work, the two kinds of work the program does at these sizes."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix, vector = rng.standard_normal((10, 10)), rng.standard_normal(10)
    start = time.perf_counter()
    total = 0
    for i in range(900_000):
        total += i * i
    for _ in range(6000):
        vector = np.tanh(matrix @ vector) + 0.1 * vector.sum()
    return time.perf_counter() - start


def environment(workload: str, seed: int, config_seed: int) -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "edgefl").glob("*.py")):
        source.update(path.name.encode())
        source.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": workload,
        "seed": seed,
        "config_seed": config_seed,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    missing = [p for p in (SRC / "edgefl" / "cli.py", ROOT / workload.config) if not p.exists()]
    if missing:
        print(f"cannot run: {', '.join(map(str, missing))} not found", file=sys.stderr)
        return 2
    config_seed, *expected = load_reference(args.workload, workload, args.seed)
    check = OutputCheck(workload, *expected)
    probes = [calibration_probe()]
    rep_dir = OUT / f"{args.workload}-seed{args.seed}-rep"

    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    attempted = 0
    deadline = time.monotonic() + args.seconds
    # In a traced run, even attempts are untraced and odd ones traced.
    while time.monotonic() < deadline or attempted < (2 if args.trace else 1):
        trace = args.trace and attempted % 2
        attempted += 1
        try:
            try:
                sample = run_child(args.workload, config_seed, trace, rep_dir)
            finally:
                probes.append(calibration_probe())
            sample["calibration"] = PROBE_REF_S / statistics.mean(probes[-2:])
            try:
                issues = check.problems(rep_dir, sample["diagnostics"])
            except (OSError, ValueError, LookupError, TypeError) as exc:
                issues = [f"unreadable output: {exc!r}"]
            if issues:
                raise RepetitionFailed("; ".join(issues))
        except RepetitionFailed as exc:
            failures.append(f"repetition {attempted}: {exc}")
            print(f"FAILED {failures[-1]}", file=sys.stderr)
            continue
        if trace:
            spans = json.loads((rep_dir / "spans.json").read_text())
            traced.append(layer_metrics(spans, sample["diagnostics"], rep_dir, sample["wall_s"]))
        else:
            plain.append(sample)
    shutil.rmtree(rep_dir, ignore_errors=True)

    if not plain or (args.trace and not traced):
        print(f"no repetition succeeded: {failures}", file=sys.stderr)
        return 1
    if args.trace:
        units = per_layer_units()
        values = {name: statistics.median(s[name] for s in traced) for name in traced[0]}
        values["tracing.untraced_wall_s"] = statistics.median(s["wall_s"] for s in plain)
        values["tracing.overhead_s"] = values["tracing.traced_wall_s"] - values["tracing.untraced_wall_s"]
        notes = {name: f"median of {len(traced)} traced, {len(plain)} untraced" for name in units}
    else:
        units = END_TO_END
        values, notes = end_to_end(plain, probes)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    env = environment(args.workload, args.seed, config_seed)
    env["calibration_probe_s"] = {
        "reference": PROBE_REF_S,
        "min": min(probes),
        "median": statistics.median(probes),
        "max": max(probes),
    }
    failed_frac = len(failures) / attempted
    print(f"workload {args.workload}  seed {args.seed}  config seed {config_seed}  "
          f"trace {args.trace}  repetitions {attempted}")
    for name, unit in units.items():
        print(f"{name:<48} {values[name]:>14.6g} {unit:<6} {notes[name]}")
    print(f"{'failed_frac':<48} {failed_frac:>14.6g} {'ratio':<6} {len(failures)} of {attempted}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "environment": env,
        "metrics": metrics,
        "failed_frac": failed_frac,
        "failures": failures,
        "calibration_probes_s": probes,
        "untraced_samples": plain,
        "traced_samples": traced,
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
