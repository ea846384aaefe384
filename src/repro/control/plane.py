"""The per-node control plane: wires telemetry, controllers, and actuators.

A :class:`ControlPlane` is registered as a protocol component on every node
of a deployment whose :class:`~repro.control.policy.ControlPolicy` is
adaptive.  On start it joins its simulator's :class:`ControlClock`, one
repeating timer on the *simulated* clock shared by every plane; every
``interval_ms`` a plane with something to do drains the node's telemetry
bus, runs the controllers, and applies their decisions:

* the consensus batcher's target size (``Batcher.resize``),
* the coordinator's grouped-2PC target size (``set_group_size``),
* the execution-lane shard map (``ExecutionLanes.assign``) — applied only
  between execution windows, so the span accounting of an in-flight decided
  batch (and with it commit order) is never perturbed.

Every applied change is recorded as a ``control:*`` trace event
(``control:batch``, ``control:group``, ``control:rebalance``, and the phase-2
``control:split``), which is what reporting, the invariant checker's control
passes, and the controller-determinism tests read back.

Phase 2 extends the loop (policy-gated, off by default): a lane rebalance
blocked repeatedly on a single-resident hot lane either splits that shard's
key range between execution windows or backs off exponentially instead of
re-evaluating the same dead end every interval.

A tick that would change nothing is skipped (:meth:`ControlPlane.idle`):
with an empty telemetry window and no lane work the controllers decide
exactly what they decided last time.  Skipping it keeps every decision, and
one clock firing the planes in join order keeps the event order of the timer
per node it replaces.

This module deliberately imports nothing from :mod:`repro.core`: the node is
duck-typed (the same host surface the consensus engines rely on), keeping the
dependency arrow pointing from the node layer into the control package.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.control.controllers import AdaptiveBatchController, LaneRebalancer
from repro.control.policy import ControlPolicy

__all__ = ["ControlClock", "ControlPlane"]


class ControlClock:
    """One repeating control timer firing every plane of a simulator in turn.

    Planes join in node start order, all at the deployment's start and with
    the deployment's one policy; the clock arms when the first one joins, so
    each firing takes the place the first plane's own timer had in the event
    order, and the planes tick in the order their timers fired.
    """

    def __init__(self, simulator: Any, interval_ms: float) -> None:
        self._simulator = simulator
        self._interval_ms = interval_ms
        self._planes: List[ControlPlane] = []
        self.fires = 0

    @classmethod
    def join(cls, plane: ControlPlane) -> ControlClock:
        """Add ``plane`` to its simulator's clock, arming one on first join."""
        simulator = plane.node.simulator
        clock = simulator.shared.get(cls)
        if clock is None:
            clock = simulator.shared[cls] = cls(simulator, plane.policy.interval_ms)
            clock._arm()
        clock._planes.append(plane)
        return clock

    def _arm(self) -> None:
        self._simulator.set_timer(self._interval_ms, self._fire)

    def _fire(self) -> None:
        # A wiped node's plane is gone for good, as is any timer chain the
        # generation guard of ``SaguaroNode.set_timer`` drops at a wipe
        # (test_recovery.py::test_lazy_propagation_resumes_after_a_wipe pins
        # what that costs lazy propagation).
        planes = self._planes = [p for p in self._planes if not p.wiped]
        if not planes:
            return
        self._arm()
        self.fires += 1
        for plane in planes:
            if not plane.idle():
                plane._tick()


class ControlPlane:
    """Drives one node's feedback loop at a fixed control interval."""

    def __init__(self, node: Any) -> None:
        self.node = node
        self.policy: ControlPolicy = node.config.control
        self._controller = AdaptiveBatchController(
            self.policy,
            batch_size=node.config.batch_size,
            group_size=node.config.xdomain_batch_size,
        )
        self._rebalancer = LaneRebalancer(self.policy)
        #: The coordinator component owning the grouped-2PC target size; it
        #: sets this itself when it joins the node (coordinator deployments).
        self.group_target: Optional[Any] = None
        self.clock: Optional[ControlClock] = None
        self._wipes = 0
        self._lane_work = False
        #: Until the first live tick the controller's clamped targets may
        #: differ from the actuators' configured sizes.
        self._synced = False
        self.lane_moves = 0
        # Phase 2 state: shard splitting.
        self.splits = 0
        self.rebalance_evals = 0
        self._blocked_streak = 0
        self._backoff_exp = 0
        self._rebalance_skip = 0

    # ------------------------------------------------------------------ component surface

    def on_start(self) -> None:
        node = self.node
        self._wipes = node.wiped_total
        self._lane_work = (
            self.policy.rebalance_lanes
            and node.lanes.enabled
            and node.state is not None
        )
        self.clock = ControlClock.join(self)

    # ------------------------------------------------------------------ the control loop

    @property
    def wiped(self) -> bool:
        """Whether the node was wiped since the plane started."""
        return self.node.wiped_total != self._wipes

    def idle(self) -> bool:
        """Whether a tick now would change nothing, so the clock skips it.

        An empty window decides the targets already applied; only lane work
        (the busy-window reset and the rebalance back-off) happens on every
        tick regardless.
        """
        return (
            self._synced and self.node.control_bus.empty and not self._lane_work
        )

    def _tick(self) -> None:
        if self.node.crashed:
            # A crashed node neither produces telemetry nor should act on the
            # stale window it accumulated before crashing; drain and move on.
            self.node.control_bus.snapshot(self.node.now())
            return
        self._synced = True
        snapshot = self.node.control_bus.snapshot(self.node.now())
        decision = self._controller.update(snapshot)
        self._apply_batch_target(decision)
        self._apply_group_target(decision)
        self._rebalance_lanes()

    # ------------------------------------------------------------------ actuators

    def _apply_batch_target(self, decision: Any) -> None:
        batcher = self.node.engine.batcher
        if decision.batch_size == batcher.batch_size:
            return
        previous = batcher.batch_size
        batcher.resize(decision.batch_size)
        self.node.record_trace(
            "control:batch",
            size_from=previous,
            size_to=decision.batch_size,
            arrivals=decision.arrivals,
            decide_latency_ms=decision.decide_latency_ms,
        )

    def _apply_group_target(self, decision: Any) -> None:
        coordinator = self.group_target
        if coordinator is None:
            return
        if decision.group_size == coordinator.group_size:
            return
        previous = coordinator.group_size
        coordinator.set_group_size(decision.group_size)
        self.node.record_trace(
            "control:group",
            size_from=previous,
            size_to=decision.group_size,
            forwards=decision.forwards,
            vote_rtt_ms=decision.vote_rtt_ms,
            retries=decision.retries,
        )

    def _rebalance_lanes(self) -> None:
        """Re-place hot shards using the *cumulative* write distribution.

        The windowed lane-busy readings (kept flowing for telemetry via
        ``snapshot``/``reset_window``) are too sparse to place shards by — a
        2 ms window holds a batch or two, so some lane always reads zero and
        a window-driven greedy would chase noise forever.  The cumulative
        per-shard write counts are the stationary signal: execution cost is
        charged per written key, so a lane's long-run load is exactly the
        write mass of its resident shards.  Balancing that converges — once
        the map is within ``imbalance_ratio`` the rebalancer goes quiet
        instead of thrashing the placement every interval.
        """
        node = self.node
        lanes = node.lanes
        if not self.policy.rebalance_lanes or not lanes.enabled:
            return
        if node.state is None or node.execution_window_open:
            return
        lanes.reset_window()  # keep the busy window aligned with control ticks
        if self._rebalance_skip > 0:
            # Backing off from a blocked placement: re-running the greedy
            # against the same single-resident hot lane every window is the
            # livelock this counter breaks.
            self._rebalance_skip -= 1
            return
        self.rebalance_evals += 1
        writes = node.state.shard_write_counts()
        assignment = [lanes.lane_of(shard) for shard in range(len(writes))]
        load = [0.0] * lanes.lanes
        for shard, count in enumerate(writes):
            load[assignment[shard]] += count
        for shard, from_lane, to_lane in self._rebalancer.rebalance(
            load, writes, assignment
        ):
            lanes.assign(shard, to_lane)
            self.lane_moves += 1
            node.record_trace(
                "control:rebalance",
                shard=shard,
                from_lane=from_lane,
                to_lane=to_lane,
                load_from=round(load[from_lane], 4),
                load_to=round(load[to_lane], 4),
            )
        blocked = self._rebalancer.blocked_shard
        if blocked is None:
            self._blocked_streak = 0
            self._backoff_exp = 0
            return
        self._blocked_streak += 1
        if (
            self.policy.split_shards
            and self._blocked_streak >= self.policy.split_after_blocked
            and node.state.split_count < self.policy.max_splits
        ):
            if getattr(node.engine, "_spec_records", None):
                # Speculated-but-undelivered slots hold shard footprints
                # computed under the current routing; re-routing keys out
                # from under them could miss a rollback conflict.  Try
                # again next window once the records drain.
                return
            child = node.state.split_shard(blocked)
            to_lane = min(range(lanes.lanes), key=lambda lane: load[lane])
            lanes.assign(child, to_lane)
            node.on_shards_split(blocked, child)
            self.splits += 1
            node.record_trace(
                "control:split",
                shard=blocked,
                child=child,
                to_lane=to_lane,
                streak=self._blocked_streak,
                writes_parent=node.state.shard_write_counts()[blocked],
                writes_child=node.state.shard_write_counts()[child],
            )
            self._blocked_streak = 0
            self._backoff_exp = 0
        else:
            # Splitting is off, exhausted, or not yet due: back off
            # exponentially instead of re-evaluating the same dead end.
            self._backoff_exp = min(self._backoff_exp + 1, 5)
            self._rebalance_skip = (1 << self._backoff_exp) - 1
