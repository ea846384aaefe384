"""CPU queue and execution-lane models for simulated nodes.

Each server node owns a :class:`CpuQueue`.  Handling a protocol message
occupies the node's CPU for a service time derived from the deployment's
:class:`~repro.common.config.NodeCostModel`; while the CPU is busy, newly
arriving work waits.  This is what makes throughput saturate (and latency
climb) as offered load grows — the behaviour the paper's throughput-versus-
latency plots exhibit.

Nodes additionally own an :class:`ExecutionLanes` budget modelling parallel
*state execution*: a decided batch's transactions are split by account-shard
footprint, every shard maps to a lane, and lanes with disjoint footprints run
concurrently — the batch's wall-clock execution span is the **max** over lane
serial costs, not their sum.  With ``lanes=1`` the budget is disabled and
execution charges nothing, bit-identical to the historical model where
applying decided transactions was free.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.errors import SimulationError

__all__ = ["CpuQueue", "ExecutionLanes"]


class CpuQueue:
    """FIFO single-server queue tracking when the CPU next becomes free."""

    def __init__(self) -> None:
        self._busy_until = 0.0
        self._busy_time_total = 0.0
        self._jobs = 0

    @property
    def busy_until(self) -> float:
        """Simulated time at which all queued work completes."""
        return self._busy_until

    @property
    def jobs_executed(self) -> int:
        return self._jobs

    def submit(self, arrival_ms: float, service_ms: float) -> float:
        """Enqueue a job arriving at ``arrival_ms`` needing ``service_ms``.

        Returns the completion time.  Jobs are served in arrival order; a job
        arriving while the CPU is idle starts immediately.
        """
        if service_ms < 0:
            raise SimulationError(f"negative service time: {service_ms}")
        if arrival_ms < 0:
            raise SimulationError(f"negative arrival time: {arrival_ms}")
        start = max(arrival_ms, self._busy_until)
        completion = start + service_ms
        self._busy_until = completion
        self._busy_time_total += service_ms
        self._jobs += 1
        return completion

    def utilisation(self, horizon_ms: float) -> float:
        """Fraction of ``horizon_ms`` the CPU spent busy (clamped to 1.0)."""
        if horizon_ms <= 0:
            return 0.0
        return min(1.0, self._busy_time_total / horizon_ms)


class ExecutionLanes:
    """Per-node parallel execution budget (lane completion = max over lanes).

    Shards map to lanes round-robin (``shard % lanes``) unless the control
    plane has pinned a shard elsewhere via :meth:`assign`; one charged unit of
    work is a mapping ``lane -> serial cost`` accumulated over a decided
    batch, and :meth:`span_of` returns the wall-clock span the batch occupies
    the node's executor — the busiest lane's serial cost.  The budget only
    does the lane accounting; the caller submits the span to the node's
    :class:`CpuQueue` so execution time actually delays later work.

    Besides the monotonic ``lane_busy_ms`` totals the budget keeps a
    *windowed* per-lane busy counter readable via :meth:`snapshot` and
    cleared via :meth:`reset_window`, which is what the control plane's
    per-interval imbalance measurement reads.
    """

    def __init__(self, lanes: int = 1) -> None:
        if lanes < 1:
            raise SimulationError(f"execution lanes must be >= 1, got {lanes}")
        self._lanes = lanes
        self._lane_busy_ms = [0.0] * lanes
        self._window_busy_ms = [0.0] * lanes
        self._assignments: Dict[int, int] = {}
        self._batches = 0
        self._serial_ms_total = 0.0
        self._span_ms_total = 0.0

    @property
    def lanes(self) -> int:
        return self._lanes

    @property
    def enabled(self) -> bool:
        """Whether execution is modelled at all (``lanes=1`` charges nothing)."""
        return self._lanes > 1

    @property
    def batches_charged(self) -> int:
        return self._batches

    @property
    def serial_ms_total(self) -> float:
        """Total execution work charged, as if run on one lane."""
        return self._serial_ms_total

    @property
    def span_ms_total(self) -> float:
        """Total wall-clock execution time after lane parallelism."""
        return self._span_ms_total

    @property
    def lane_busy_ms(self) -> Tuple[float, ...]:
        return tuple(self._lane_busy_ms)

    @property
    def assignments(self) -> Mapping[int, int]:
        """Controller-pinned shard -> lane overrides (round-robin otherwise)."""
        return dict(self._assignments)

    def lane_of(self, shard: int) -> int:
        """The lane executing ``shard``: a pinned assignment when the control
        plane has placed it, stable round-robin otherwise."""
        if shard < 0:
            raise SimulationError(f"negative shard: {shard}")
        pinned = self._assignments.get(shard)
        if pinned is not None:
            return pinned
        return shard % self._lanes

    def assign(self, shard: int, lane: int) -> None:
        """Pin ``shard`` to ``lane``, overriding round-robin placement.

        The caller (the control plane) is responsible for only re-pinning
        between execution windows; the budget itself is placement-agnostic.
        """
        if shard < 0:
            raise SimulationError(f"negative shard: {shard}")
        if not 0 <= lane < self._lanes:
            raise SimulationError(f"lane {lane} outside [0, {self._lanes})")
        if lane == shard % self._lanes:
            self._assignments.pop(shard, None)
        else:
            self._assignments[shard] = lane

    def snapshot(self) -> Tuple[float, ...]:
        """Per-lane busy time accumulated since the last :meth:`reset_window`."""
        return tuple(self._window_busy_ms)

    def reset_window(self) -> None:
        """Start a fresh control window (monotonic totals are untouched)."""
        for lane in range(self._lanes):
            self._window_busy_ms[lane] = 0.0

    def span_of(self, lane_costs: Mapping[int, float]) -> float:
        """Charge one unit of execution work; returns its wall-clock span.

        ``lane_costs`` maps lane index to the serial execution cost that
        landed on that lane.  Lanes run concurrently, so the span is the
        maximum over lanes; disjoint-footprint work therefore overlaps while
        same-lane work serialises.
        """
        span = 0.0
        for lane, cost in lane_costs.items():
            if not 0 <= lane < self._lanes:
                raise SimulationError(
                    f"lane {lane} outside [0, {self._lanes})"
                )
            if cost < 0:
                raise SimulationError(f"negative lane cost: {cost}")
            self._lane_busy_ms[lane] += cost
            self._window_busy_ms[lane] += cost
            self._serial_ms_total += cost
            if cost > span:
                span = cost
        if lane_costs:
            self._batches += 1
            self._span_ms_total += span
        return span

    def parallelism(self) -> float:
        """Achieved speedup over single-lane execution (serial / span)."""
        if self._span_ms_total <= 0:
            return 1.0
        return self._serial_ms_total / self._span_ms_total
