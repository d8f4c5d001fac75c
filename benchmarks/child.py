"""One repetition of a workload, in a fresh interpreter.

Drives the same public path as ``edgefl.cli.main``:
``validate_config`` -> ``run_simulation`` -> ``emit_outputs``, and prints
one JSON line with its timings. With ``--trace 1`` it first wraps the
public functions listed in ``workloads.TRACED``, keeps one span per call
in memory and writes them to ``spans.json`` in the output directory
after the run.

    python3 benchmarks/child.py --workload avgae_default --seed 0 \
        --out benchmarks/out/rep --trace 0 --t-spawn <time.monotonic()>
"""

import argparse
import functools
import json
import resource
import sys
import time
from pathlib import Path

from workloads import SRC, TRACED, WORKLOADS, diagnostic_counts


class Tracer:
    """Wraps module-level functions and records [name, start, end, parent]
    per call; parent is the index of the enclosing traced call or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, qualnames) -> None:
        """Replace every binding of each function in every loaded edgefl
        module, so ``from .x import f`` copies are traced too. A function
        that no longer exists is skipped and reads as zero calls."""
        modules = [m for n, m in sys.modules.items() if n == "edgefl" or n.startswith("edgefl.")]
        for qualname in qualnames:
            module_name, func_name = qualname.rsplit(".", 1)
            original = getattr(sys.modules.get(f"edgefl.{module_name}"), func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() just before the parent started this process")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out = Path(args.out)

    sys.path.insert(0, str(SRC))
    import edgefl.cli as cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(TRACED)

    text = (SRC.parent / workload.config).read_text()
    cfg = cli.validate_config(text, workload.overrides_for(args.seed, out))
    setup_s = time.monotonic() - args.t_spawn

    start = time.perf_counter()
    records = cli.run_simulation(cfg)
    elapsed = time.perf_counter() - start
    cli.emit_outputs(records, cfg, elapsed_seconds=elapsed)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        (out / "spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "diagnostics": diagnostic_counts(records),
        "edgefl_file": cli.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
