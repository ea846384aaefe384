"""Unit tests for the discrete-event simulator, CPU model, and RNG registry."""

import gc
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import events
from repro.sim.cpu import CpuQueue
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(5.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(9.0, lambda: order.append("c"))
        while queue:
            queue.pop().callback()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("first"))
        queue.push(1.0, lambda: order.append("second"))
        queue.pop().callback()
        queue.pop().callback()
        assert order == ["first", "second"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert queue.pop() is None
        assert len(queue) == 0

    @pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
    def test_negative_and_non_finite_times_rejected(self, time):
        # A heap would take a nan silently and lose its ordering.
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(time, lambda: None)
        assert len(queue) == 0 and queue.heap_size == 0

    def test_peek_time_ignores_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0


class TestEventQueueCompaction:
    """Cancelled timers must not accumulate in fault-heavy runs."""

    def test_mass_cancellation_keeps_the_heap_bounded(self):
        queue = EventQueue()
        events = [queue.push(float(i + 1), lambda: None) for i in range(1000)]
        for event in events:
            event.cancel()
        assert len(queue) == 0
        assert not queue
        # Compaction kicked in: the dead entries were dropped eagerly, not
        # carried until their fire times.
        assert queue.heap_size <= 64

    def test_live_events_survive_compaction_in_order(self):
        queue = EventQueue()
        keep = [queue.push(float(1000 + i), lambda i=i: i) for i in range(5)]
        cancel = [queue.push(float(i + 1), lambda: None) for i in range(500)]
        for event in cancel:
            event.cancel()
        assert len(queue) == len(keep)
        assert queue.peek_time() == 1000.0
        popped = [queue.pop().time for _ in range(len(keep))]
        assert popped == sorted(popped)
        assert queue.pop() is None

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        live = queue.push(1.0, lambda: None)
        dead = queue.push(2.0, lambda: None)
        dead.cancel()
        assert len(queue) == 1
        assert queue.pop() is live

    def test_cancel_after_pop_does_not_corrupt_bookkeeping(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is first
        popped.cancel()  # a timer firing then being cancelled later
        assert len(queue) == 1
        assert queue.pop() is not None
        assert len(queue) == 0

    def test_double_cancel_is_counted_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1


class TestEventQueueEdges:
    """Cancellations at the head, far-future timers, compaction across near
    and far times, and a randomized check against a sorted-list model."""

    def test_peek_time_drains_a_cancelled_run_at_the_head(self):
        queue = EventQueue()
        doomed = [queue.push(float(i), lambda: None) for i in range(1, 6)]
        survivor = queue.push(50.0, lambda: None)
        for event in doomed:
            event.cancel()
        assert queue.peek_time() == 50.0
        assert queue.pop() is survivor
        assert queue.peek_time() is None
        assert queue.pop() is None

    def test_cancelled_far_future_event_is_never_popped(self):
        queue = EventQueue()
        near = queue.push(1.0, lambda: None)
        far = queue.push(10_000.0, lambda: None)  # a protocol timeout
        far.cancel()
        assert queue.pop() is near
        assert queue.peek_time() is None
        assert queue.pop() is None

    def test_compaction_spans_near_and_far_times(self):
        queue = EventQueue()
        keep = [queue.push(t, lambda: None) for t in (0.5, 40.0, 9_000.0)]
        dead = []
        for i in range(300):
            dead.append(queue.push(0.1 + i * 0.4, lambda: None))  # network hops
            dead.append(queue.push(5_000.0 + i, lambda: None))  # far timers
        for event in dead:
            event.cancel()
        assert len(queue) == len(keep)
        # Compaction swept the dead entries out; at most one sub-threshold
        # batch of cancelled entries may still be queued.
        assert queue.heap_size <= 64 + len(keep)
        assert [queue.pop().time for _ in range(len(keep))] == [0.5, 40.0, 9_000.0]
        assert queue.pop() is None

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    st.one_of(
                        # equal times and far-future timers, then anything
                        st.sampled_from([0.0, 0.25, 1.0, 7.5, 10_000.0]),
                        st.floats(min_value=0.0, max_value=1e9),
                    ),
                ),
                st.tuples(st.just("cancel"), st.integers(min_value=0)),
                st.tuples(st.just("pop"), st.none()),
                st.tuples(st.just("peek"), st.none()),
            ),
            max_size=120,
        ),
        # 1 and 4 make every compaction branch reachable by a short sequence.
        threshold=st.sampled_from([1, 4, events.COMPACT_THRESHOLD]),
    )
    def test_random_ops_match_a_sorted_list_model(self, ops, threshold):
        queue = EventQueue()
        pushed = []  # every event ever returned, live or not
        live = []  # the model: sorted (time, sequence, event) of live events
        with mock.patch.object(events, "COMPACT_THRESHOLD", threshold):
            # The trailing pops drain whatever the drawn ops left queued.
            for op, value in ops + [("pop", None)] * (len(ops) + 1):
                if op == "push":
                    event = queue.push(value, lambda: None)
                    pushed.append(event)
                    live.append((value, event.sequence, event))
                    live.sort()
                elif op == "cancel" and pushed:
                    # May hit a live, an already cancelled or a popped event.
                    event = pushed[value % len(pushed)]
                    event.cancel()
                    live = [entry for entry in live if entry[2] is not event]
                elif op == "peek":
                    assert queue.peek_time() == (live[0][0] if live else None)
                elif op == "pop":
                    popped = queue.pop()
                    if live:
                        assert popped is live.pop(0)[2]
                        assert not popped.cancelled
                    else:
                        assert popped is None
                assert len(queue) == len(live)
                assert bool(queue) == bool(live)
                assert queue.heap_size >= len(live)
        assert queue.heap_size == 0

    def test_args_are_stored_and_dispatched(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda a, b: (a, b), args=(1, 2))
        assert queue.pop() is event
        assert event.callback(*event.args) == (1, 2)


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(10.0, lambda: times.append(sim.now))
        sim.schedule(3.0, lambda: times.append(sim.now))
        sim.run_until_idle()
        assert times == [3.0, 10.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(5.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run_until_idle()
        assert seen == [1.0, 6.0]

    def test_run_until_bound_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        stopped_at = sim.run(until_ms=50.0)
        assert stopped_at == 50.0
        assert sim.pending_events == 1

    def test_stop_when_predicate(self):
        sim = Simulator()
        counter = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda: counter.append(1))
        sim.run(stop_when=lambda: len(counter) >= 3)
        assert len(counter) == 3

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_with_args_dispatches_them(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b, sim.now)), args=("x", 2))
        sim.run_until_idle()
        assert seen == [("x", 2, 1.0)]

    def test_timer_cancellation_prevents_callback(self):
        sim = Simulator()
        fired = []
        timer = sim.set_timer(5.0, lambda: fired.append(1))
        timer.cancel()
        sim.run_until_idle()
        assert not fired
        assert not timer.active

    def test_cancelled_event_lets_go_of_its_callback(self):
        # A state that keeps its cancelled timer must not keep the closure.
        sim = Simulator()
        fired = []
        payload = ["captured"]

        def callback(arg):
            fired.append(arg)

        event = sim.schedule(5.0, callback, args=(payload,))
        assert callback in gc.get_referents(event)
        event.cancel()
        referents = gc.get_referents(event)
        assert callback not in referents
        assert not any(ref is payload for ref in referents)
        sim.run_until_idle()
        assert not fired

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        assert sim.events_executed == 4


class TestCpuQueue:
    def test_idle_cpu_starts_immediately(self):
        cpu = CpuQueue()
        assert cpu.submit(10.0, 2.0) == 12.0

    def test_busy_cpu_queues_work(self):
        cpu = CpuQueue()
        cpu.submit(0.0, 5.0)
        assert cpu.submit(1.0, 2.0) == 7.0

    def test_gap_between_jobs_leaves_cpu_idle(self):
        cpu = CpuQueue()
        cpu.submit(0.0, 1.0)
        assert cpu.submit(10.0, 1.0) == 11.0

    def test_utilisation_is_bounded(self):
        cpu = CpuQueue()
        cpu.submit(0.0, 5.0)
        assert cpu.utilisation(10.0) == pytest.approx(0.5)
        assert cpu.utilisation(2.0) == 1.0
        assert cpu.utilisation(0.0) == 0.0

    def test_negative_service_time_rejected(self):
        with pytest.raises(SimulationError):
            CpuQueue().submit(0.0, -1.0)

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 10)), min_size=1, max_size=50))
    def test_completions_are_monotonic_for_fifo_arrivals(self, jobs):
        cpu = CpuQueue()
        arrivals = sorted(arrival for arrival, _ in jobs)
        completions = []
        for arrival, (_, service) in zip(arrivals, jobs):
            completions.append(cpu.submit(arrival, service))
        assert completions == sorted(completions)


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("net")
        b = RngRegistry(42).stream("net")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_are_independent(self):
        registry = RngRegistry(42)
        net = registry.stream("net")
        workload = registry.stream("workload")
        assert [net.random() for _ in range(3)] != [workload.random() for _ in range(3)]

    def test_stream_is_cached(self):
        registry = RngRegistry(1)
        assert registry.stream("x") is registry.stream("x")

    def test_a_fresh_stream_is_the_named_stream_and_is_not_kept(self):
        registry = RngRegistry(42)
        fresh, kept = registry.fresh("client:c1"), RngRegistry(42).stream("client:c1")
        assert [fresh.random() for _ in range(5)] == [kept.random() for _ in range(5)]
        assert registry.fresh("client:c1") is not registry.fresh("client:c1")
        assert not registry._streams

    def test_spawned_registry_differs_from_parent(self):
        parent = RngRegistry(7)
        child = parent.spawn("rep-1")
        assert parent.stream("s").random() != child.stream("s").random()
