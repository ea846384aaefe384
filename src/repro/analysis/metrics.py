"""Performance metrics collected during a simulated run.

Latency is measured the way the paper measures it (§8): from the initiation of
a transaction to when it is committed to the blockchain of the height-1
domain(s).  Throughput counts committed transactions over the span between the
first issue and the last commit.  Transactions aborted by the optimistic
protocol (directly or through cascading) are tracked separately and excluded
from committed throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.types import TransactionId, TransactionKind
from repro.errors import ExperimentError

__all__ = ["TransactionRecord", "PerformanceSummary", "MetricsCollector"]


@dataclass
class TransactionRecord:
    """Lifecycle of one transaction as observed by the harness."""

    tid: TransactionId
    kind: TransactionKind
    issued_at: float
    committed_at: Optional[float] = None
    aborted_at: Optional[float] = None
    abort_reason: str = ""

    @property
    def latency_ms(self) -> Optional[float]:
        if self.committed_at is None:
            return None
        return self.committed_at - self.issued_at

    @property
    def is_committed(self) -> bool:
        return self.committed_at is not None and self.aborted_at is None

    @property
    def is_aborted(self) -> bool:
        return self.aborted_at is not None


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class PerformanceSummary:
    """Aggregate results of one run, in the units the paper plots."""

    committed: int
    aborted: int
    pending: int
    duration_ms: float
    throughput_tps: float
    avg_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    abort_rate: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "pending": self.pending,
            "duration_ms": round(self.duration_ms, 3),
            "throughput_tps": round(self.throughput_tps, 1),
            "avg_latency_ms": round(self.avg_latency_ms, 3),
            "p50_latency_ms": round(self.p50_latency_ms, 3),
            "p95_latency_ms": round(self.p95_latency_ms, 3),
            "p99_latency_ms": round(self.p99_latency_ms, 3),
            "abort_rate": round(self.abort_rate, 4),
        }


class MetricsCollector:
    """Records transaction lifecycles and computes run-level summaries."""

    def __init__(self) -> None:
        self._records: Dict[TransactionId, TransactionRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def record_issue(
        self, tid: TransactionId, kind: TransactionKind, issued_at: float
    ) -> None:
        if tid in self._records:
            raise ExperimentError(f"{tid} issued twice")
        self._records[tid] = TransactionRecord(tid=tid, kind=kind, issued_at=issued_at)

    def record_commit(self, tid: TransactionId, committed_at: float) -> None:
        record = self._records.get(tid)
        if record is None:
            # Nodes report every ledger commit; transactions that were not
            # issued through the harness (e.g. device-quorum batches) are
            # simply not tracked.
            return
        if record.committed_at is None:
            record.committed_at = committed_at

    def record_abort(self, tid: TransactionId, aborted_at: float, reason: str = "") -> None:
        record = self._records.get(tid)
        if record is None:
            # Cascaded aborts can reference dependents issued by other clients
            # that the harness never tracked; those are ignored.
            return
        record.aborted_at = aborted_at
        record.abort_reason = reason

    def record(self, tid: TransactionId) -> TransactionRecord:
        try:
            return self._records[tid]
        except KeyError as exc:
            raise ExperimentError(f"unknown transaction {tid}") from exc

    def records(self) -> List[TransactionRecord]:
        return list(self._records.values())

    def committed_records(self) -> List[TransactionRecord]:
        return [r for r in self._records.values() if r.is_committed]

    def summary(self) -> PerformanceSummary:
        """Aggregate the run; meaningful once the simulation has quiesced."""
        records = list(self._records.values())
        committed = [r for r in records if r.is_committed]
        aborted = [r for r in records if r.is_aborted]
        pending = [r for r in records if not r.is_committed and not r.is_aborted]
        latencies = [r.latency_ms for r in committed if r.latency_ms is not None]

        if committed:
            start = min(r.issued_at for r in records)
            end = max(r.committed_at for r in committed if r.committed_at is not None)
            duration = max(end - start, 1e-6)
            throughput = len(committed) / (duration / 1000.0)
        else:
            duration = 0.0
            throughput = 0.0

        def _avg(values: List[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        total_decided = len(committed) + len(aborted)
        return PerformanceSummary(
            committed=len(committed),
            aborted=len(aborted),
            pending=len(pending),
            duration_ms=duration,
            throughput_tps=throughput,
            avg_latency_ms=_avg(latencies),
            p50_latency_ms=_percentile(latencies, 0.50) if latencies else 0.0,
            p95_latency_ms=_percentile(latencies, 0.95) if latencies else 0.0,
            p99_latency_ms=_percentile(latencies, 0.99) if latencies else 0.0,
            abort_rate=(len(aborted) / total_decided) if total_decided else 0.0,
        )
