"""Smoke test of the benchmark: every defined workload, including those
BENCHMARK.json does not list, at a one-second run length.

    python3 -m pytest -q benchmarks/test_smoke.py

It checks that each run emits every metric named in BENCHMARK.json with
its unit and that two traced runs give identical call counts. It lives
outside tests/, so the tier-1 suite does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _assert_emitted(result: dict, specs: list[dict]) -> None:
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_emits_every_metric_and_repeats_counts(workload):
    _assert_emitted(_run(workload, 0), SPEC["end_to_end"])
    first, second = _run(workload, 1), _run(workload, 1)
    _assert_emitted(first, SPEC["per_layer"])
    calls = {n: m["value"] for n, m in first["metrics"].items() if n.endswith(".calls")}
    assert calls == {n: m["value"] for n, m in second["metrics"].items() if n.endswith(".calls")}
    graph_calls = sum(v for n, v in calls.items() if n.startswith("graph_attack."))
    assert (graph_calls > 0) == (workload == "avgae_default")
