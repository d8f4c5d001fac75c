#!/usr/bin/env python3
"""Write BENCH_<label>.json at the repo root: a snapshot of the benchmark
on this checkout.

    python scripts/bench_snapshot.py --label main --seeds 5 6 7 --seconds 55

For every workload named in BENCHMARK.json and every seed, this runs

    python3 benchmarks/run.py --workload <w> --seed <s> --seconds <t> --trace 0

and reads the result file that run.py writes to benchmarks/out/. The
snapshot holds the git SHA, the machine and the BLAS, whether Python
could cache bytecode, and per workload the median, min and max over the
seeds of each end-to-end metric (wall_s, setup_s, peak_rss_mb) and of
the median calibration probe that run.py records beside them, which
tells a loaded machine from a slower checkout. It adds the median and
quartiles of the seconds per stage of run_simulation(cfg, stage_seconds)
followed by emit_outputs into a temporary directory ("emit"), run in
this process on the configs that benchmarks/workloads.py builds, because
the benchmark's child process passes no stage dict. The stage figures
are measured when the file is written, and "stage_seconds_measured"
says when: with --no-run they are not interleaved with another
checkout's runs.

--no-run runs no benchmark and reads the result files already in
benchmarks/out/, refusing any written from other src/edgefl sources. To compare
two checkouts, run one seed at a time in each, alternating, and then
write each snapshot with --no-run over all the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# In-process runs per seed and workload, after one untimed warm-up run.
STAGE_REPEATS = 3


def result_path(workload: str, seed: int) -> Path:
    return BENCH / "out" / f"{workload}-seed{seed}-trace0.json"


def run_benchmark(workload: str, seed: int, seconds: float) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )


def read_result(workload: str, seed: int, source_sha256: str) -> dict:
    path = result_path(workload, seed)
    result = json.loads(path.read_text())
    if result["environment"]["source_sha256"] != source_sha256:
        raise SystemExit(f"{path} was written from other sources; run without --no-run")
    return result


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def stage_seconds(workloads, name: str, seeds: list[int]) -> dict:
    """Median and quartiles of the seconds per stage over STAGE_REPEATS
    in-process runs per seed, each followed by its emit, measured now."""
    from edgefl.config import validate_config
    from edgefl.simulation import emit_outputs, run_simulation

    workload = workloads.WORKLOADS[name]
    text = (ROOT / workload.config).read_text()
    samples: list[dict[str, float]] = []
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in seeds:
            cfg = validate_config(text, workload.overrides_for(seed, Path(out_dir)))
            emit_outputs(run_simulation(cfg), cfg)
            for _ in range(STAGE_REPEATS):
                stages: dict[str, float] = {}
                emit_outputs(run_simulation(cfg, stages), cfg, stage_seconds=stages)
                samples.append(stages)
    seconds = {stage: [s[stage] for s in samples] for stage in samples[0]}
    return {
        "stage_seconds_median": {k: statistics.median(v) for k, v in seconds.items()},
        "stage_seconds_quartiles": {k: quartiles(v) for k, v in seconds.items()},
        "stage_seconds_measured": {
            "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "runs": len(samples),
            "interleaved": False,
        },
    }


def git_clean() -> bool | None:
    """Whether src/ and configs/ match the commit; None outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "configs"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() == ""
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--no-run", action="store_true",
                        help="read the existing result files instead of running the benchmark")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    from run import environment

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    # Without a bytecode cache every benchmark child compiles src/ again,
    # which setup_s then includes.
    bytecode = {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pycache_at_start": (ROOT / "src" / "edgefl" / "__pycache__").is_dir(),
    }
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if not args.no_run:
        for seed in args.seeds:
            for name in names:
                run_benchmark(name, seed, args.seconds)

    env = environment(names[0], args.seeds[0], args.seeds[0])
    per_workload = {}
    for name in names:
        results = [read_result(name, seed, env["source_sha256"]) for seed in args.seeds]
        per_workload[name] = {
            "seeds": args.seeds,
            "correct": all(not r["failures"] for r in results),
            "repetitions": sum(len(r["untraced_samples"]) for r in results),
            **{m: spread([r["metrics"][m]["value"] for r in results]) for m in END_TO_END},
            "calibration_probe_s": spread(
                [r["environment"]["calibration_probe_s"]["median"] for r in results]
            ),
            **stage_seconds(workloads, name, args.seeds),
        }

    snapshot = {
        "label": args.label,
        "written": started,
        "git_sha": env["git_sha"],
        "git_worktree_clean": git_clean(),
        "source_sha256": env["source_sha256"],
        "machine": {
            "cpu": cpu_model(),
            **{k: env[k] for k in ("nproc", "platform", "python", "numpy", "num_threads_env")},
        },
        "blas": env["blas"],
        "bytecode": bytecode,
        "workloads": per_workload,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
