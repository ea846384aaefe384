"""Events/sec microbenchmark for the simulator's dispatch loop.

Shared by ``benchmarks/test_bench_events.py`` (which gates the loop at >=3x
the best pre-overhaul figure rate), ``python -m repro.faults.smoke perf``
(the CI perf-smoke step, which only prints the rate) and the repo
benchmark's ``sim.bare_dispatch_events_per_s`` layer metric.
"""

from __future__ import annotations

import random
import time
from typing import List

from repro.sim.simulator import Simulator

__all__ = ["simulator_events_per_sec"]


def simulator_events_per_sec(num_messages: int = 20_000, repeats: int = 3) -> float:
    """End-to-end events/sec through ``Simulator.run`` with chained callbacks.

    A ring of self-rescheduling callbacks exercises the full loop (peek, pop,
    dispatch, reschedule) without any protocol logic, isolating simulator
    overhead from application work.
    """
    best = 0.0
    for _ in range(repeats):
        sim = Simulator(seed=7)
        remaining = [num_messages]
        rng = random.Random(11)
        delays = [rng.uniform(0.05, 2.0) for _ in range(257)]

        def hop(slot: List[int] = remaining) -> None:
            slot[0] -= 1
            if slot[0] > 0:
                sim.schedule(delays[slot[0] % 257], hop, label="hop")

        for _ in range(8):
            sim.schedule(0.1, hop, label="hop")
            remaining[0] += 1
        start = time.perf_counter()
        sim.run_until_idle()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, sim.events_executed / elapsed)
    return best
