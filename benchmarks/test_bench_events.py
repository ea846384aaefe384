"""fig_events: raw simulator event-loop throughput (the speed-overhaul gate).

Two seeded microbenchmarks from :mod:`repro.sim.bench`.  Both are wall-clock
rates, so unlike the figures they have no row in ``BENCH_results.json``:

* the *queue storm* — a push/cancel/pop mix mimicking a real run's delay
  distribution, driven against both the calendar-queue :class:`EventQueue`
  and the retained legacy :class:`HeapEventQueue`.  Measuring both in the
  same process makes the comparison machine-independent: the rewrite itself
  must be a win, whatever the host.
* the *dispatch loop* — self-rescheduling no-op callbacks through
  ``Simulator.run``, the full peek/pop/dispatch cycle with no protocol work.
  Its raw capacity must be at least 3x the best *end-to-end* rate any figure
  ran at before the overhaul, i.e. the scheduler is no longer where figure
  runtime goes.
"""

from repro.sim.bench import queue_events_per_sec, simulator_events_per_sec
from repro.sim.events import EventQueue, HeapEventQueue

#: The best end-to-end events/second any figure recorded on the PR 6 tree.
PR6_BEST_FIGURE_RATE = 51_884


def test_event_loop_microbench():
    dispatch_rate = simulator_events_per_sec()
    wheel_rate = queue_events_per_sec(EventQueue)
    heap_rate = queue_events_per_sec(HeapEventQueue)
    assert wheel_rate > heap_rate, (
        f"calendar queue ({wheel_rate:,.0f} ops/s) is not faster than the "
        f"legacy heap ({heap_rate:,.0f} ops/s)"
    )
    assert dispatch_rate >= 3 * PR6_BEST_FIGURE_RATE, (
        f"dispatch loop sustains {dispatch_rate:,.0f} ev/s, below 3x the best "
        f"PR 6 figure rate ({PR6_BEST_FIGURE_RATE:,} ev/s)"
    )
