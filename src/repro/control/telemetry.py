"""The windowed telemetry bus the control plane reads its inputs from.

Every node with an adaptive :class:`~repro.control.policy.ControlPolicy` owns
one :class:`TelemetryBus`.  Producers — the consensus batcher, the
cross-domain coordinator, the execution-lane accounting — push raw
observations as the simulation runs; the control plane drains the bus once
per control interval with :meth:`TelemetryBus.snapshot`, which freezes the
window's aggregates and resets every metric for the next interval.

Per metric the bus keeps a :class:`MetricsWindow`: exact ``count``/``total``
for the whole window plus a fixed-capacity ring of the most recent raw
samples for ``mean``/``max`` (so a pathological interval cannot grow memory
without bound — the ring truncates, the counters never lie).  Everything is
driven off the simulated clock, so a run with controllers armed stays
bit-for-bit deterministic.

Metric names used by the built-in producers:

======================== ==========================================================
``batch.arrivals``        one observation per payload submitted to the batcher
``batch.queue_depth``     pending payloads after each submit (gauge)
``batch.fill``            entries per proposed batch, at flush time
``batch.decide_latency_ms`` propose -> decide latency of each batch (proposer only)
``group.fill``            members per flushed grouped-2PC exchange
``group.vote_rtt_ms``     group-prepare send -> participant vote receipt
``xdomain.forwards``      cross-domain transactions accepted for coordination
``xdomain.retries``       abort-retried coordination attempts (timeouts)
======================== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["WindowStats", "MetricsWindow", "TelemetrySnapshot", "TelemetryBus"]


@dataclass(frozen=True)
class WindowStats:
    """Aggregates of one metric over one control window.

    ``count``/``total`` are exact over the window; ``mean``/``maximum`` are
    computed over the ring's retained samples (the most recent ``capacity``
    observations), which is what a latency controller wants anyway.
    """

    count: int
    total: float
    mean: float
    maximum: float


class MetricsWindow:
    """Fixed-capacity ring buffer of raw samples plus exact window counters."""

    __slots__ = ("_capacity", "_samples", "_next", "_count", "_total")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise SimulationError(f"window capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._samples: list = []
        self._next = 0
        self._count = 0
        self._total = 0.0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Exact number of observations this window (ring truncation aside)."""
        return self._count

    @property
    def total(self) -> float:
        """Exact sum of observations this window."""
        return self._total

    def observe(self, value: float) -> None:
        self._count += 1
        self._total += value
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._capacity

    def values(self) -> Tuple[float, ...]:
        """Retained raw samples (ring order is irrelevant to the aggregates)."""
        return tuple(self._samples)

    def stats(self) -> WindowStats:
        retained = self._samples
        if retained:
            mean = sum(retained) / len(retained)
            maximum = max(retained)
        else:
            mean = 0.0
            maximum = 0.0
        return WindowStats(
            count=self._count, total=self._total, mean=mean, maximum=maximum
        )

    def reset(self) -> None:
        self._samples.clear()
        self._next = 0
        self._count = 0
        self._total = 0.0


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One drained control window: per-metric aggregates plus its time span.

    ``duration_ms`` spans the time since the plane's last real tick, which
    is longer than ``interval_ms`` after ticks the control clock skipped on
    an empty window; nothing in the controllers reads it.
    """

    at_ms: float
    duration_ms: float
    metrics: Mapping[str, WindowStats]

    def count(self, metric: str) -> int:
        stats = self.metrics.get(metric)
        return stats.count if stats is not None else 0

    def total(self, metric: str) -> float:
        stats = self.metrics.get(metric)
        return stats.total if stats is not None else 0.0

    def mean(self, metric: str) -> Optional[float]:
        """Window mean of ``metric``, ``None`` when nothing was observed."""
        stats = self.metrics.get(metric)
        if stats is None or stats.count == 0:
            return None
        return stats.mean

    def maximum(self, metric: str) -> Optional[float]:
        stats = self.metrics.get(metric)
        if stats is None or stats.count == 0:
            return None
        return stats.maximum

    def rate_per_ms(self, metric: str) -> float:
        """Observations of ``metric`` per simulated millisecond this window.

        Guards the zero-duration window (two snapshots at the same simulated
        instant): the rate is 0 instead of a division error.
        """
        if self.duration_ms <= 0:
            return 0.0
        return self.count(metric) / self.duration_ms


class TelemetryBus:
    """Per-node metric sink, drained once per control interval."""

    def __init__(self, window: int = 256) -> None:
        if window < 1:
            raise SimulationError(f"telemetry window must be >= 1, got {window}")
        self._window = window
        self._metrics: Dict[str, MetricsWindow] = {}
        self._window_started_ms = 0.0
        #: Nothing observed since the last snapshot (the control clock skips
        #: a plane whose window is empty).
        self.empty = True

    def observe(self, metric: str, value: float = 1.0) -> None:
        self.empty = False
        ring = self._metrics.get(metric)
        if ring is None:
            ring = self._metrics[metric] = MetricsWindow(self._window)
        ring.observe(value)

    def snapshot(self, at_ms: float) -> TelemetrySnapshot:
        """Freeze the current window's aggregates and start the next window."""
        stats = {
            name: ring.stats()
            for name, ring in self._metrics.items()
            if ring.count > 0
        }
        for ring in self._metrics.values():
            ring.reset()
        duration = at_ms - self._window_started_ms
        self._window_started_ms = at_ms
        self.empty = True
        return TelemetrySnapshot(
            at_ms=at_ms, duration_ms=max(duration, 0.0), metrics=stats
        )
