"""Event queue primitives for the discrete-event simulator.

The queue is the hottest data structure in the whole system: every message
send, timer, round tick, and CPU completion passes through it twice (push and
pop).  :class:`EventQueue` is one binary heap of ``(time, sequence, event)``
tuples, so all ordering work happens in C, and it pops in exactly
``(time, sequence)`` order: ties fire in insertion order, which is what makes
a run's trace a function of its seed alone.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["ScheduledEvent", "EventQueue"]

#: Compact once at least this many cancelled events have built up (and they
#: make up at least half the physical queue).  Keeps long fault-heavy runs —
#: which cancel protocol timers constantly — from accumulating dead entries.
COMPACT_THRESHOLD = 64


@dataclass(slots=True, eq=False)
class ScheduledEvent:
    """A callback scheduled at a simulated time.

    The queue orders events by ``(time, sequence)`` so that ties are broken
    by insertion order, keeping runs deterministic; the event itself is
    identity-compared.  Slotted: the simulator allocates one of these per
    scheduled callback, so the per-instance dict is measurable overhead on
    the hot path.  ``args`` are passed to the callback when it fires, which
    lets hot callers (the network's delivery path) schedule a bound method
    plus argument instead of allocating a closure per message.
    """

    time: float
    sequence: int
    callback: Optional[Callable[..., Any]]
    label: str = ""
    cancelled: bool = False
    args: Tuple[Any, ...] = ()
    _queue: Optional["EventQueue"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Prevent the callback from running.

        The owning queue is notified so it can drop (or periodically compact
        away) the dead entry instead of carrying it until its fire time.  The
        callback and its arguments are let go: a protocol state often keeps
        its cancelled timer for good, and the closure would keep everything
        it captured alive with it.
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()


class EventQueue:
    """A binary heap of ``(time, sequence, event)`` tuples.

    The entries are plain tuples so every comparison of a heap sift runs in
    C, and ``sequence`` is unique so a comparison never reaches the event.
    Cancelled events stay in the heap until they surface at the head or a
    compaction sweeps them out; ``len`` and ``bool`` count live events only.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._counter = itertools.count()
        self._cancelled = 0  # cancelled events still sitting in the heap

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Physical heap length, including not-yet-compacted cancelled events."""
        return len(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        label: str = "",
        args: Tuple[Any, ...] = (),
    ) -> ScheduledEvent:
        """Schedule ``callback`` at simulated ``time``."""
        # One chained comparison rejects negative, infinite and NaN times: a
        # NaN compares false with everything and would otherwise sit in the
        # heap silently breaking its ordering.
        if not 0 <= time < inf:
            raise SimulationError(
                f"cannot schedule event at time {time}: need 0 <= time < inf"
            )
        sequence = next(self._counter)
        event = ScheduledEvent(time, sequence, callback, label, False, args, self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def pop(self) -> Optional[ScheduledEvent]:
        """Pop the earliest non-cancelled event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._queue = None
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            head = heap[0]
            if not head[2].cancelled:
                return head[0]
            heapq.heappop(heap)
            self._cancelled -= 1
        return None

    # -- cancellation bookkeeping ---------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= COMPACT_THRESHOLD
            and 2 * self._cancelled >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events (O(live) time)."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
