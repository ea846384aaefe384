"""Formatting helpers for benchmark output.

Benchmarks print the same series the paper's figures plot — one line per
system variant, each a list of (throughput, latency) points — plus compact
summary tables.  Keeping the formatting here means every benchmark file
produces identically structured, easily diffable output.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.analysis.metrics import PerformanceSummary
from repro.scenarios.runner import LoadPoint

__all__ = [
    "format_load_series",
    "format_series_table",
    "format_summary_row",
    "format_mobile_table",
    "peak_throughput",
    "latency_at_peak",
]


def peak_throughput(points: Sequence[LoadPoint]) -> float:
    """Highest throughput reached across a load sweep."""
    return max((p.throughput_tps for p in points), default=0.0)


def latency_at_peak(points: Sequence[LoadPoint]) -> float:
    """Average latency at the highest-throughput point of a sweep."""
    if not points:
        return 0.0
    best = max(points, key=lambda p: p.throughput_tps)
    return best.avg_latency_ms


def format_load_series(label: str, points: Sequence[LoadPoint]) -> str:
    """One figure series: ``label: (tput tps, latency ms) ...``."""
    rendered = " ".join(
        f"({p.throughput_tps:8.1f} tps, {p.avg_latency_ms:7.2f} ms)" for p in points
    )
    return f"{label:>14}: {rendered}"


def format_series_table(series: Mapping[str, Sequence[LoadPoint]], title: str) -> str:
    """A whole figure: every system's throughput/latency curve plus peaks."""
    lines: List[str] = [title, "-" * len(title)]
    for label, points in series.items():
        lines.append(format_load_series(label, points))
    lines.append("")
    lines.append(f"{'system':>14} | {'peak tput (tps)':>16} | {'lat @ peak (ms)':>16} | {'abort rate':>10}")
    for label, points in series.items():
        best = max(points, key=lambda p: p.throughput_tps) if points else None
        if best is None:
            continue
        lines.append(
            f"{label:>14} | {best.throughput_tps:16.1f} | {best.avg_latency_ms:16.2f} | "
            f"{best.abort_rate:10.3f}"
        )
    return "\n".join(lines)


def format_summary_row(label: str, summary: PerformanceSummary) -> str:
    data = summary.as_dict()
    return (
        f"{label:>14}: {data['throughput_tps']:9.1f} tps  "
        f"avg {data['avg_latency_ms']:7.2f} ms  p95 {data['p95_latency_ms']:7.2f} ms  "
        f"committed {data['committed']:5d}  aborted {data['aborted']:4d}"
    )


def format_mobile_table(results: Mapping[str, PerformanceSummary], title: str) -> str:
    """Figure 9 / 11 style: one row per mobile-device percentage."""
    lines = [title, "-" * len(title)]
    baseline: float = 0.0
    for label, summary in results.items():
        if not baseline:
            baseline = summary.throughput_tps or 1.0
        drop = 100.0 * (1.0 - summary.throughput_tps / baseline) if baseline else 0.0
        lines.append(
            f"{label:>12}: {summary.throughput_tps:9.1f} tps  "
            f"avg {summary.avg_latency_ms:7.2f} ms  (drop vs 0% mobile: {drop:5.1f}%)"
        )
    return "\n".join(lines)
