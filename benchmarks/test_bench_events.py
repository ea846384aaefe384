"""fig_events: raw simulator event-loop throughput (the speed-overhaul gate).

One microbenchmark from :mod:`repro.sim.bench`, a wall-clock rate, so unlike
the figures it has no row in ``BENCH_results.json``: the *dispatch loop* —
self-rescheduling no-op callbacks through ``Simulator.run``, the full
peek/pop/dispatch cycle with no protocol work.  Its raw capacity must be at
least 3x the best *end-to-end* rate any figure ran at before the overhaul,
i.e. the scheduler is not where figure runtime goes.
"""

from repro.sim.bench import simulator_events_per_sec

#: The best end-to-end events/second any figure recorded on the PR 6 tree.
PR6_BEST_FIGURE_RATE = 51_884


def test_event_loop_microbench():
    dispatch_rate = simulator_events_per_sec()
    assert dispatch_rate >= 3 * PR6_BEST_FIGURE_RATE, (
        f"dispatch loop sustains {dispatch_rate:,.0f} ev/s, below 3x the best "
        f"PR 6 figure rate ({PR6_BEST_FIGURE_RATE:,} ev/s)"
    )
