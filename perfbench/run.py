"""Benchmark of the actree library: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py                  # every workload, each in a fresh process
    python3 perfbench/run.py --workload dag-solve --seed 0 --trace 0

A single workload prints its metrics by name with their units, then as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones and writes the spans under
``perfbench/out/``. The program is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import SRC, WORKLOADS, Bench, Report

SHOWN_REASONS = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="accepted and ignored: each workload runs a fixed number of ops, "
                        "sized for the run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shrink", type=int, default=0,
                   help="halve every graph this many times (quick checks only)")
    return p.parse_args(argv)


def print_report(rep: Report) -> None:
    print(f"{rep.workload}  seed {rep.seed}  trace {int(rep.trace)}  inputs {rep.inputs}")
    print(f"inputs_sha256 {rep.digest}")
    for name, (value, unit) in rep.metrics.items():
        note = rep.notes.get(name, "")
        print(f"  {name:24} {value:<14.6g} {unit:6} {note}".rstrip())
    frac = rep.failed / rep.attempted
    print(f"  {'failed_frac':24} {frac:<14.6g} {'ratio':6} {rep.failed} of {rep.attempted} ops")
    if "spans" in rep.notes:
        print(rep.notes["spans"])
    for reason in rep.reasons[:SHOWN_REASONS]:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": rep.failed == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rep.metrics.items()},
    }))


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace), "--shrink", str(args.shrink)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "actree" / "__init__.py").is_file():
        print(f"run.py: the program is missing: no {SRC / 'actree'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print_report(Bench(args.workload, args.seed, bool(args.trace), args.shrink).run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
