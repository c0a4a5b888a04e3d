#!/usr/bin/env python3
"""The repo benchmark: three default-scale workloads, checked and timed.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, each in
                                                   # a fresh process
    python3 perfbench/run.py --workload stream --seed 3 --seconds 3 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice in one process — untraced, then with the span tracer
installed — and prints the per-layer metrics.  ``--seconds`` is the
length of ``stream``'s closed-loop query phase; the set-up and map work
of every workload is a fixed amount that takes longer.  The stream==batch
identity check holds in either form: ``stream`` compares its final map
with the ``batch-w2`` map recorded for the same source, and builds that
map itself when no run has recorded it.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
A failed output check prints ``"correct": false`` with no metrics and
exits 1.  See ``perfbench/README.md`` for the workloads, the metrics
and the noise notes behind them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch and state the benchmark leaves in the checkout (gitignored).
OUT_DIR = ROOT / ".perfbench"
NAMES = ("batch-w2", "stream", "churn")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0, help="seeds the query stream")
    parser.add_argument(
        "--seconds", type=float, default=3.0, help="stream's query phase length"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process; metrics keyed by workload."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or child.returncode
        merged["correct"] = merged["correct"] and result["correct"] and not child.returncode
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    if not merged["correct"]:
        merged["metrics"] = {}
        status = status or 1
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import report  # the program is importable only from here on

    return report.run_and_report(
        args.workload, "default", args.seed, args.seconds, bool(args.trace), OUT_DIR
    )


if __name__ == "__main__":
    sys.exit(main())
