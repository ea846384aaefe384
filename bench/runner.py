"""Run workloads: repeats in fresh worker processes, medians, tables, results.

One *repeat* is one ``bench/worker.py`` process (single-threaded,
``PYTHONHASHSEED=0``) doing materialize -> run -> check_invariants on a
sub-seed derived from ``--seed``.  Repeats of a contract workload use
*different* sub-seeds so that a reported median is steady across ``--seed``
values; a pinned (non-contract) workload repeats its one seed and its sim
metrics must then agree exactly.  A traced run does one untraced and one
traced repeat of the same sub-seed, whose sim metrics must agree exactly.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.measure import add_untraced_ratios
from bench.metrics import END_TO_END, MIN_REPEATS, PER_LAYER
from bench.workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: A worker that outlives this is a hung simulation (the contract allows 180 s).
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a metric: a failure)."""


def out_path(out_dir: Path, name: str) -> Path:
    """``out_dir/name``, refusing anything that would land outside ``out_dir``."""
    base = out_dir.resolve()
    path = (base / name).resolve()
    if base != path and base not in path.parents:
        raise BenchError(f"refusing to write {path} outside --out {base}")
    base.mkdir(parents=True, exist_ok=True)
    return path


def sub_seed(workload: Workload, seed: int, repeat: int) -> int:
    return seed * 1000 + repeat if workload.contract else seed


def _worker(workload: Workload, seed: int, trace_out: Optional[Path] = None) -> Dict[str, Any]:
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", workload.name, "--seed", str(seed)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:  # run() has killed and reaped it
        raise BenchError(f"{workload.name} seed {seed}: worker timed out") from error
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"{workload.name} seed {seed}: worker exited {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _sim_values(repeat: Dict[str, Any]) -> Dict[str, float]:
    return {m.name: repeat["end_to_end"][m.name] for m in END_TO_END if m.kind == "sim"}


def _entry(workload: Workload, seed: int, repeats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate untraced repeats into the contract's result object."""
    problems = [
        f"seed {r['seed']}: {check} failed {r['detail']}".rstrip()
        for r in repeats for check, ok in r["checks"].items() if not ok
    ]
    if not workload.contract and any(
        _sim_values(r) != _sim_values(repeats[0]) for r in repeats
    ):
        problems.append("sim metrics differ between repeats of the same seed")
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["issued"] for r in repeats),
        "failed": sum(r["unresolved"] for r in repeats),
        "metrics": {
            m.name: {
                "value": statistics.median(r["end_to_end"][m.name] for r in repeats),
                "unit": m.unit,
            }
            for m in END_TO_END
        },
        "tail": {
            "percentile": workload.tail_percentile,
            "samples": min(r["samples"] for r in repeats),
        },
        "repeats": repeats,
    }


def run_workload(
    workload: Workload,
    seed: int,
    out_dir: Path,
    repeats: int = MIN_REPEATS,
    seconds: Optional[float] = None,
    traced: bool = False,
) -> Dict[str, Any]:
    """Measure one workload; with ``seconds``, repeat until that much is measured."""
    if traced:
        repeats, seconds = 1, None
    outcomes: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(outcomes) < repeats or (
        seconds is not None and time.perf_counter() - started < seconds
    ):
        outcomes.append(_worker(workload, sub_seed(workload, seed, len(outcomes))))
    entry = _entry(workload, seed, outcomes)
    if traced:
        trace_file = out_path(out_dir, f"{workload.name}.trace.json")
        traced_repeat = _worker(workload, sub_seed(workload, seed, 0), trace_file)
        layers = traced_repeat["per_layer"]
        add_untraced_ratios(
            layers,
            traced_repeat["end_to_end"]["host_run_s"],
            outcomes[0]["end_to_end"]["host_run_s"],
        )
        if _sim_values(traced_repeat) != _sim_values(outcomes[0]):
            entry["problems"].append("tracing changed a sim metric")
            entry["correct"] = False
        entry["per_layer"] = {
            m.name: {"value": layers[m.name], "unit": m.unit} for m in PER_LAYER
        }
        entry["trace_file"] = trace_file.name
    return entry


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def format_entry(entry: Dict[str, Any]) -> str:
    """The workload's table: every end-to-end metric, then the layers if traced."""
    repeats = entry["repeats"]
    seeds = ", ".join(str(r["seed"]) for r in repeats)
    lines = [
        f"== {entry['workload']}  seed {entry['seed']} (repeat seeds {seeds})  "
        f"{'correct' if entry['correct'] else 'INCORRECT'}  "
        f"attempted {entry['attempted']} failed {entry['failed']}",
        f"  {'metric':<22}{'unit':<9}{'kind':<6}{'median':>12}  per-repeat values",
    ]
    tail = entry["tail"]
    for m in END_TO_END:
        values = "  ".join(_fmt(r["end_to_end"][m.name]) for r in repeats)
        note = (
            f"   [p{tail['percentile']}, n>={tail['samples']}]"
            if m.name == "sim_latency_tail_ms" else ""
        )
        lines.append(
            f"  {m.name:<22}{m.unit:<9}{m.kind:<6}"
            f"{_fmt(entry['metrics'][m.name]['value']):>12}  {values}{note}"
        )
    for problem in entry["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    if "per_layer" in entry:
        lines.append(f"  -- per layer (traced repeat, spans in {entry['trace_file']})")
        for name, metric in entry["per_layer"].items():
            lines.append(f"  {name:<36}{metric['unit']:<9}{_fmt(metric['value']):>14}")
    return "\n".join(lines)


def contract_line(entry: Dict[str, Any], traced: bool) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": entry["per_layer"] if traced else entry["metrics"],
    })
