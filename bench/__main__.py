"""``python -m bench run|compare`` (from the repo root; no ``PYTHONPATH`` needed).

``run`` with no ``--workload`` measures every workload and prints one table
each.  The driver's form, ``run --workload W --seed N --seconds S --trace 0|1``,
also prints the contract's JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from bench.compare import compare_files
from bench.metrics import MIN_REPEATS
from bench.runner import (
    BENCH_DIR, ROOT, BenchError, contract_line, format_entry, out_path, run_workload,
)
from bench.workloads import BY_NAME, WORKLOADS


def _run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    out_dir = Path(args.out)
    entries = {}
    for workload in workloads:
        seed = workload.seed if args.seed is None else args.seed
        if not workload.contract and seed != workload.seed:
            print(f"bench: {workload.name} is only correct on seed {workload.seed}",
                  file=sys.stderr)
            return 2
        entry = run_workload(
            workload, seed, out_dir,
            repeats=args.repeats, seconds=args.seconds, traced=bool(args.trace),
        )
        entries[workload.name] = entry
        print(format_entry(entry), flush=True)
    out_path(out_dir, "results.json").write_text(
        json.dumps({"schema": 1, "workloads": entries}, indent=1)
    )
    if args.workload:
        print(contract_line(entries[args.workload], bool(args.trace)))
    return 0 if all(entry["correct"] for entry in entries.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", choices=sorted(BY_NAME), help="default: all of them")
    run.add_argument("--seed", type=int, help="replaces the workload's default seed")
    run.add_argument("--repeats", type=int, default=MIN_REPEATS,
                     help="repeats per workload (fewest, when --seconds is given)")
    run.add_argument("--seconds", type=float,
                     help="keep repeating until this much wall time is measured")
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                     help="one untraced + one traced repeat; report per-layer metrics")
    run.add_argument("--out", default=str(BENCH_DIR / "out"),
                     help="the only directory written to (default: bench/out)")

    compare = commands.add_parser("compare", help="compare two results.json files")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.a, args.b)
    try:
        return _run(args)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
