"""Small reporting helpers: load-curve peaks and a one-line run summary."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.metrics import PerformanceSummary
from repro.scenarios.runner import LoadPoint

__all__ = ["format_summary_row", "peak_throughput", "latency_at_peak"]


def peak_throughput(points: Sequence[LoadPoint]) -> float:
    """Highest throughput reached across a load sweep."""
    return max((p.throughput_tps for p in points), default=0.0)


def latency_at_peak(points: Sequence[LoadPoint]) -> float:
    """Average latency at the highest-throughput point of a sweep."""
    if not points:
        return 0.0
    best = max(points, key=lambda p: p.throughput_tps)
    return best.avg_latency_ms


def format_summary_row(label: str, summary: PerformanceSummary) -> str:
    data = summary.as_dict()
    return (
        f"{label:>14}: {data['throughput_tps']:9.1f} tps  "
        f"avg {data['avg_latency_ms']:7.2f} ms  p95 {data['p95_latency_ms']:7.2f} ms  "
        f"committed {data['committed']:5d}  aborted {data['aborted']:4d}"
    )
