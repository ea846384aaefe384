"""Compare two ``results.json`` files against the bounds in ``bench.metrics``.

Per workload x end-to-end metric: both medians, the ratio B/A (base A), and a
verdict.  ``sim`` metrics measured on the same repeat seeds must be *equal*:
any difference is ``sim-changed`` (the change altered simulated behaviour,
which a host-only speed-up must not), and is ``regressed`` as well when it is
worse by more than the bound or when ``sim_commit_share`` dropped at all.
Everything else is ``regressed`` when B is worse than A by more than the
bound, ``unresolved`` when either side's repeats spread wider than the bound
(so "no regression" cannot be told from noise), and ``ok`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

from bench.metrics import END_TO_END, EndToEnd

__all__ = ["compare", "compare_files"]


def _spread(entry: Dict[str, Any], name: str) -> float:
    values = [repeat["end_to_end"][name] for repeat in entry["repeats"]]
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def _verdict(metric: EndToEnd, a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, float, float]:
    base = a["metrics"][metric.name]["value"]
    new = b["metrics"][metric.name]["value"]
    worse_by = (new - base if metric.better == "lower" else base - new) / base if base else 0.0
    same_seeds = [r["seed"] for r in a["repeats"]] == [r["seed"] for r in b["repeats"]]
    if worse_by > metric.bound:
        verdict = "regressed"
    elif metric.kind == "sim" and same_seeds:
        if new == base:
            verdict = "ok"
        elif metric.name == "sim_commit_share" and new < base:
            verdict = "regressed"
        else:
            verdict = "sim-changed"
    elif max(_spread(a, metric.name), _spread(b, metric.name)) > metric.bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return verdict, base, new


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed, for two loaded result sets."""
    lines: List[str] = []
    regressed = False
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    for name in shared:
        lines.append(f"== {name}")
        lines.append(
            f"  {'metric':<22}{'unit':<9}{'kind':<6}{'A':>12}{'B':>12}"
            f"{'B/A':>9}{'bound':>7}  verdict"
        )
        for metric in END_TO_END:
            verdict, base, new = _verdict(metric, a["workloads"][name], b["workloads"][name])
            regressed |= verdict == "regressed"
            ratio = new / base if base else float("nan")
            lines.append(
                f"  {metric.name:<22}{metric.unit:<9}{metric.kind:<6}{base:>12.6g}{new:>12.6g}"
                f"{ratio:>9.4f}{metric.bound:>7.2f}  {verdict}"
            )
        for side, entry in (("A", a["workloads"][name]), ("B", b["workloads"][name])):
            if not entry["correct"]:
                regressed = True
                lines.append(f"  {side} is INCORRECT: {'; '.join(entry['problems'])}")
    for name in set(a["workloads"]) ^ set(b["workloads"]):
        lines.append(f"== {name}: in one file only, not compared")
    lines.append("RESULT: " + ("regressed" if regressed else "no regression") + " (ratios are B/A)")
    return lines, regressed


def compare_files(path_a: Path, path_b: Path) -> int:
    lines, regressed = compare(json.loads(path_a.read_text()), json.loads(path_b.read_text()))
    print("\n".join(lines))
    return 1 if regressed else 0
