"""The discrete-event simulator driving every experiment.

Time is measured in **milliseconds** of simulated wall-clock time.  Nodes,
networks and clients schedule callbacks on a shared :class:`Simulator`; the
simulator executes them in time order until the queue drains or a bound is
reached.  Nothing in the library ever sleeps or reads the host clock, which
keeps runs fast and exactly reproducible.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.rng import RngRegistry

__all__ = ["SharedClock", "Simulator", "Timer"]


class Timer:
    """A cancellable timeout, used for protocol timers (view change, deadlock)."""

    __slots__ = ("_event",)

    def __init__(self, event: ScheduledEvent) -> None:
        self._event = event

    @property
    def active(self) -> bool:
        return not self._event.cancelled

    def cancel(self) -> None:
        self._event.cancel()


class Simulator:
    """Discrete-event loop with a virtual millisecond clock."""

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._rng = RngRegistry(seed)
        self._events_executed = 0
        #: Scratch space shared by everything this simulator drives (e.g. the
        #: ``SharedClock`` of each member kind and interval: the control
        #: planes', each height's lazy rounds'), so it lives exactly as long.
        self.shared: Dict[Any, Any] = {}

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def rng(self) -> RngRegistry:
        return self._rng

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(
        self,
        delay_ms: float,
        callback: Callable[..., Any],
        label: str = "",
        args: tuple = (),
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` ``delay_ms`` milliseconds from now."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay: {delay_ms}")
        return self._queue.push(self._now + delay_ms, callback, label, args)

    def schedule_at(
        self,
        time_ms: float,
        callback: Callable[..., Any],
        label: str = "",
        args: tuple = (),
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute simulated time ``time_ms``."""
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({time_ms} < {self._now})"
            )
        return self._queue.push(time_ms, callback, label, args)

    def set_timer(
        self, delay_ms: float, callback: Callable[[], Any], label: str = "timer"
    ) -> Timer:
        """Schedule a cancellable timer."""
        return Timer(self.schedule(delay_ms, callback, label))

    def run(
        self,
        until_ms: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Execute events until the queue drains or a bound is hit.

        ``until_ms`` bounds simulated time, ``max_events`` bounds the number of
        callbacks executed, and ``stop_when`` is evaluated after every event.
        Returns the simulated time at which the run stopped.
        """
        # Bind the queue methods once: this loop body runs hundreds of
        # thousands of times per experiment and repeated attribute lookups
        # are measurable at that volume.
        peek_time = self._queue.peek_time
        pop = self._queue.pop
        executed = 0
        while True:
            if stop_when is not None and stop_when():
                break
            next_time = peek_time()
            if next_time is None:
                break
            if until_ms is not None and next_time > until_ms:
                self._now = until_ms
                break
            event = pop()
            if event is None:
                break
            self._now = event.time
            event.callback(*event.args)
            self._events_executed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return self._now

    def run_until_idle(self, max_events: int = 5_000_000) -> float:
        """Run until no events remain (bounded by ``max_events`` as a backstop)."""
        final = self.run(max_events=max_events)
        if self._queue:
            raise SimulationError(
                f"simulation did not quiesce after {max_events} events"
            )
        return final


class SharedClock:
    """One repeating timer per simulator, member kind and interval.

    Periodic work every node has (a control plane's loop, a lazy-propagation
    round) runs off one clock per kind and interval instead of a timer per
    node.  Members join in node start order; the clock arms on the first
    join, so each firing takes the place the first member's own timer had,
    and it re-arms before ticking them in join order, as their own timers
    would have fired.  Two kinds never share a clock: that would reorder
    them.  A member has a ``node``, an ``idle()`` predicate and the tick
    method named at :meth:`join`, both looked up on every firing (a tracer or
    a test may replace them on the class).  A member whose node was wiped
    since it joined leaves for good; with no member left the clock stops.
    """

    def __init__(self, simulator: Simulator, interval_ms: float, tick: str) -> None:
        self._simulator = simulator
        self._interval_ms = interval_ms
        self._tick = tick
        #: ``(member, its node's wipe count at join)``, in join order.
        self._members: List[Tuple[Any, int]] = []
        #: Firings so far: the members' current round.
        self.fires = 0
        self._arm()

    @classmethod
    def join(cls, member: Any, interval_ms: float, tick: str) -> SharedClock:
        """Add ``member`` to its kind's clock at ``interval_ms``."""
        simulator, key = member.node.simulator, (type(member), interval_ms)
        clock = simulator.shared.get(key)
        if clock is None:
            clock = simulator.shared[key] = cls(simulator, interval_ms, tick)
        clock._members.append((member, member.node.wiped_total))
        return clock

    @staticmethod
    def stop_all(simulator: Simulator, kind: type) -> None:
        """Stop every clock of ``kind`` on ``simulator`` (to let a run quiesce)."""
        for key, clock in simulator.shared.items():
            if key[0] is kind:
                clock._timer.cancel()  # harmless once it fired or was cancelled

    def _arm(self) -> None:
        self._timer = self._simulator.set_timer(self._interval_ms, self._fire)

    def _fire(self) -> None:
        members = self._members = [
            m for m in self._members if m[0].node.wiped_total == m[1]
        ]
        if not members:
            return
        self._arm()
        self.fires += 1
        for member, _ in members:
            if not member.idle():
                getattr(member, self._tick)()
