"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import ConfigError, validate_config
from .simulation import emit_outputs, run_simulation


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgefl",
        description="Deterministic federated-learning simulator with model poisoning attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation and write result files")
    sim.add_argument("--config", required=True, help="path to the YAML run config")
    sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    sim.add_argument("--out", default=None, help="override the output directory")
    sim.add_argument("--workers", type=int, default=None, help="worker threads per round")
    sim.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="override any config key by dotted path, e.g. training.learning_rate=0.05",
    )

    val = sub.add_parser("validate", help="validate a config file and exit")
    val.add_argument("--config", required=True, help="path to the YAML run config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1

    overrides = list(getattr(args, "override", []))
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    if getattr(args, "out", None) is not None:
        overrides.append(f"output_dir={args.out}")
    if getattr(args, "workers", None) is not None:
        overrides.append(f"workers={args.workers}")

    try:
        cfg = validate_config(text, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"config OK: {args.config}")
        return 0

    try:
        start = time.perf_counter()
        stage_seconds: dict[str, float] = {}
        records = run_simulation(cfg, stage_seconds)
        elapsed = time.perf_counter() - start
        written = emit_outputs(
            records, cfg, elapsed_seconds=elapsed, stage_seconds=stage_seconds
        )
    except Exception as exc:  # noqa: BLE001 - any failure here is a runtime error
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    final = records[-1]
    print(
        f"completed {len(records)} rounds; final test accuracy "
        f"{final.test_accuracy:.4f}; outputs in {written['rounds'].parent}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
