"""Events/sec microbenchmarks for the simulator's event queue.

The drivers here are shared by ``benchmarks/test_bench_events.py`` (which
gates the calendar queue against the legacy heap and the dispatch loop at
>=3x the best pre-overhaul figure rate) and by ``python -m repro.faults.smoke
perf`` (the CI perf-smoke step, with a more lenient gate to tolerate noisy
runners).

Both drivers replay a fixed, seeded storm of push/cancel/pop operations whose
delay mix mimics a real run: mostly sub-bucket network hops, some round-tick
scale delays, and a tail of far-future protocol timers that usually get
cancelled before firing.  Because the storm is identical for every queue
implementation, the measured ratio is a property of the queue alone and is
stable across machines.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Tuple

from repro.sim.simulator import Simulator

__all__ = [
    "make_storm",
    "replay_storm",
    "queue_events_per_sec",
    "simulator_events_per_sec",
]

#: Operation storm tuned to the delay mix observed in scenario runs: ~70%
#: network-hop delays inside one wheel bucket, ~25% round/batch timers within
#: the wheel horizon, ~5% far-future protocol timeouts (mostly cancelled).
_DELAY_MIX: Tuple[Tuple[float, float, float], ...] = (
    (0.70, 0.05, 5.0),
    (0.25, 5.0, 100.0),
    (0.05, 250.0, 5000.0),
)


def _noop() -> None:
    return None


def make_storm(
    num_events: int = 50_000, seed: int = 20230707
) -> List[Tuple[str, float]]:
    """Build a deterministic (op, value) storm.

    Ops are ``("push", delay_ms)``, ``("pop", 0)``, and ``("cancel", k)``
    where ``k`` selects one of the most recently pushed live far timers.
    The schedule keeps a realistic queue depth (a few hundred entries) by
    interleaving pops with pushes.
    """
    rng = random.Random(seed)
    ops: List[Tuple[str, float]] = []
    pending = 0
    for _ in range(num_events):
        roll = rng.random()
        cumulative = 0.0
        delay = _DELAY_MIX[-1][1]
        for weight, low, high in _DELAY_MIX:
            cumulative += weight
            if roll < cumulative:
                delay = rng.uniform(low, high)
                break
        ops.append(("push", delay))
        pending += 1
        if rng.random() < 0.04 and pending > 1:
            ops.append(("cancel", float(rng.randrange(1, min(pending, 64)))))
        while pending > 256 or (pending and rng.random() < 0.45):
            ops.append(("pop", 0.0))
            pending -= 1
    while pending:
        ops.append(("pop", 0.0))
        pending -= 1
    return ops


def replay_storm(queue, ops: List[Tuple[str, float]]) -> Tuple[int, float]:
    """Replay a storm against ``queue``; return (events_processed, seconds).

    ``queue`` is any object with the EventQueue push/pop/peek_time API.
    Simulated time advances to each popped event's time, mirroring what the
    simulator's run loop does.
    """
    now = 0.0
    recent: List = []
    processed = 0
    push = queue.push
    pop = queue.pop
    start = time.perf_counter()
    for op, value in ops:
        if op == "push":
            recent.append(push(now + value, _noop))
            if len(recent) > 64:
                del recent[:32]
            processed += 1
        elif op == "pop":
            event = pop()
            if event is not None:
                now = event.time
                processed += 1
        else:  # cancel
            index = int(value)
            if index <= len(recent):
                recent[-index].cancel()
    elapsed = time.perf_counter() - start
    return processed, elapsed


def queue_events_per_sec(
    queue_factory: Callable[[], object],
    num_events: int = 50_000,
    seed: int = 20230707,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` push+pop throughput for a queue implementation."""
    ops = make_storm(num_events, seed)
    best = 0.0
    for _ in range(repeats):
        processed, elapsed = replay_storm(queue_factory(), ops)
        if elapsed > 0:
            best = max(best, processed / elapsed)
    return best


def simulator_events_per_sec(
    queue_factory: Callable[[], object] = None,
    num_messages: int = 20_000,
    repeats: int = 3,
) -> float:
    """End-to-end events/sec through ``Simulator.run`` with chained callbacks.

    A ring of self-rescheduling callbacks exercises the full loop (peek, pop,
    dispatch, reschedule) without any protocol logic, isolating simulator
    overhead from application work.
    """
    best = 0.0
    for _ in range(repeats):
        queue = queue_factory() if queue_factory is not None else None
        sim = Simulator(seed=7, queue=queue)
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
