"""The self-tuning control plane: telemetry, controllers, wiring.

Six layers of coverage:

* unit tests for the windowed telemetry bus (:class:`MetricsWindow` ring
  semantics, :class:`TelemetryBus` snapshot-and-reset, zero-duration and
  missing-metric guards);
* unit tests for the pure controllers — the AIMD
  :class:`AdaptiveBatchController` (probe up while the target binds, back
  off multiplicatively on latency overrun, clamp to bounds) and the greedy
  :class:`LaneRebalancer` (deterministic, quiet when balanced, refuses
  moves that would just relocate the bottleneck);
* the :class:`ExecutionLanes` control surface the plane actuates
  (``snapshot``/``reset_window``/``assign``/``assignments``) and the
  :meth:`StateStore.shard_write_counts` heat measurement;
* the configuration surface: :class:`ControlPolicy` validation and JSON
  round-trip, the scenario field + builder ``.control()``, the
  ``execute_ms`` cost override, and the Zipf-skewed workload generator;
* end-to-end: adaptive-run determinism, ``control:*`` trace evidence (batch
  growth and lane moves), and every adversarial scenario passing full
  invariant checking with controllers armed;
* the control planes' :class:`SharedClock`: one firing per interval
  whatever the plane count, and the oracle for its skip predicate — ticking
  every plane on every firing (``ControlPlane.idle`` patched to ``False``)
  gives the same result, trace and event count as skipping the idle ones, on
  runs that exercise crashes, lanes, retries and wipes.

The golden pins (``policy="static"`` == the pre-control deployments, bit for
bit) live in ``tests/test_goldens.py``.
"""

import json

import pytest

from repro.common.config import WorkloadConfig
from repro.control.controllers import AdaptiveBatchController, LaneRebalancer
from repro.control.plane import ControlPlane
from repro.control.policy import CONTROL_POLICIES, ControlPolicy
from repro.control.telemetry import MetricsWindow, TelemetryBus
from repro.errors import ConfigurationError, SimulationError
from repro.ledger.state import StateStore
from repro.scenarios import Scenario, ScenarioRunner, materialize, registry
from repro.sim.cpu import ExecutionLanes
from repro.topology.builders import build_paper_figure1_tree
from repro.workloads.generator import WorkloadGenerator
from tests.conftest import run_digests


# ---------------------------------------------------------------------------
# Unit level: the windowed telemetry bus
# ---------------------------------------------------------------------------


def test_metrics_window_counters_are_exact_and_ring_truncates():
    window = MetricsWindow(capacity=4)
    for value in (1, 2, 3, 4, 5, 6):
        window.observe(value)
    # count/total are exact over the window; the ring keeps the last 4.
    assert window.count == 6
    assert window.total == 21
    assert sorted(window.values()) == [3, 4, 5, 6]
    stats = window.stats()
    assert stats.mean == pytest.approx(4.5)
    assert stats.maximum == 6
    window.reset()
    assert window.count == 0 and window.total == 0.0 and window.values() == ()


def test_metrics_window_rejects_nonpositive_capacity():
    with pytest.raises(SimulationError):
        MetricsWindow(capacity=0)
    with pytest.raises(SimulationError):
        TelemetryBus(window=0)


def test_bus_snapshot_freezes_aggregates_and_resets_the_window():
    bus = TelemetryBus()
    bus.observe("batch.fill", 2.0)
    bus.observe("batch.fill", 4.0)
    bus.observe("batch.arrivals")
    snapshot = bus.snapshot(at_ms=10.0)
    assert snapshot.duration_ms == 10.0
    assert snapshot.count("batch.fill") == 2
    assert snapshot.total("batch.fill") == 6.0
    assert snapshot.mean("batch.fill") == pytest.approx(3.0)
    assert snapshot.maximum("batch.fill") == 4.0
    assert snapshot.rate_per_ms("batch.arrivals") == pytest.approx(0.1)
    # The snapshot drained the window: the next one starts empty.
    empty = bus.snapshot(at_ms=10.0)
    assert empty.duration_ms == 0.0  # zero-length window, clamped not negative
    assert empty.count("batch.fill") == 0
    assert empty.mean("batch.fill") is None
    assert empty.rate_per_ms("batch.fill") == 0.0  # no division error


def test_snapshot_missing_metric_reads_as_silence():
    snapshot = TelemetryBus().snapshot(at_ms=5.0)
    assert snapshot.count("nope") == 0
    assert snapshot.total("nope") == 0.0
    assert snapshot.mean("nope") is None
    assert snapshot.maximum("nope") is None


# ---------------------------------------------------------------------------
# Unit level: the AIMD batch/group controller
# ---------------------------------------------------------------------------


def _snapshot(**metrics):
    """A one-window snapshot from explicit metric -> sample-list inputs."""
    bus = TelemetryBus()
    for metric, values in metrics.items():
        for value in values:
            bus.observe(metric.replace("__", "."), value)
    return bus.snapshot(at_ms=10.0)


def _controller(batch=4, group=2, **policy_kwargs):
    policy = ControlPolicy(policy="adaptive", **policy_kwargs)
    return AdaptiveBatchController(policy, batch_size=batch, group_size=group)


def test_batch_grows_additively_while_the_target_binds():
    controller = _controller(batch=4, batch_increase=8)
    decision = controller.update(
        _snapshot(
            batch__arrivals=[1] * 10,  # arrivals >= target: demand saturates
            batch__decide_latency_ms=[10.0],
        )
    )
    assert decision.batch_size == 12
    assert controller.batch_target == 12


def test_batch_grows_while_peak_fill_is_within_striking_distance():
    # A flushed batch at half the cap is still evidence the cap binds.
    controller = _controller(batch=16, batch_increase=8)
    grown = controller.update(
        _snapshot(batch__arrivals=[1], batch__fill=[8.0])
    )
    assert grown.batch_size == 24
    # ...but a cap more than twice the peak burst stops growing.
    controller = _controller(batch=32, batch_increase=8)
    held = controller.update(
        _snapshot(batch__arrivals=[1], batch__fill=[8.0], batch__queue_depth=[3.0])
    )
    assert held.batch_size == 32


def test_batch_grows_when_the_queue_peaks_at_the_target():
    controller = _controller(batch=8, batch_increase=4)
    decision = controller.update(
        _snapshot(batch__arrivals=[1], batch__queue_depth=[2.0, 9.0])
    )
    assert decision.batch_size == 12


def test_batch_backs_off_multiplicatively_on_latency_overrun():
    controller = _controller(batch=32, target_decide_latency_ms=50.0)
    decision = controller.update(
        _snapshot(
            batch__arrivals=[1] * 64,  # saturated AND slow: latency wins
            batch__decide_latency_ms=[120.0],
        )
    )
    assert decision.batch_size == 16


def test_batch_holds_without_traffic_and_respects_bounds():
    controller = _controller(batch=8)
    assert controller.update(_snapshot()).batch_size == 8  # silence: no change
    controller = _controller(batch=128, batch_max=128, batch_increase=8)
    grown = controller.update(_snapshot(batch__arrivals=[1] * 256))
    assert grown.batch_size == 128  # clamped at batch_max
    controller = _controller(batch=1, batch_min=1)
    shrunk = controller.update(
        _snapshot(batch__arrivals=[1], batch__decide_latency_ms=[999.0])
    )
    assert shrunk.batch_size == 1  # clamped at batch_min


def test_controller_clamps_seeded_targets_into_policy_bounds():
    controller = _controller(batch=500, group=99, batch_max=64, group_max=8)
    assert controller.batch_target == 64
    assert controller.group_target == 8


def test_group_follows_the_same_aimd_rule():
    controller = _controller(group=2, group_increase=2)
    grown = controller.update(_snapshot(xdomain__forwards=[1, 1, 1]))
    assert grown.group_size == 4
    controller = _controller(group=8)
    retried = controller.update(
        _snapshot(xdomain__forwards=[1], xdomain__retries=[1])
    )
    assert retried.group_size == 4  # any abort-retry is a congestion signal
    controller = _controller(group=8, target_vote_rtt_ms=100.0)
    slow = controller.update(
        _snapshot(xdomain__forwards=[1] * 16, group__vote_rtt_ms=[250.0])
    )
    assert slow.group_size == 4


def test_controller_is_deterministic_across_instances():
    windows = [
        dict(batch__arrivals=[1] * n, batch__decide_latency_ms=[float(5 * n)])
        for n in (1, 8, 32, 64, 2, 0)
    ]
    first = _controller()
    second = _controller()
    for metrics in windows:
        assert first.update(_snapshot(**metrics)) == second.update(
            _snapshot(**metrics)
        )


# ---------------------------------------------------------------------------
# Unit level: the greedy lane rebalancer
# ---------------------------------------------------------------------------


def _rebalancer(**policy_kwargs):
    return LaneRebalancer(ControlPolicy(policy="adaptive", **policy_kwargs))


def test_rebalancer_is_quiet_when_lanes_are_balanced():
    rebalancer = _rebalancer(imbalance_ratio=1.25)
    assert rebalancer.rebalance([10.0, 10.0], [5, 5], [0, 1]) == []
    assert rebalancer.rebalance([12.0, 10.0], [6, 5], [0, 1]) == []  # within ratio
    assert rebalancer.rebalance([0.0, 0.0], [0, 0], [0, 1]) == []  # idle node
    assert rebalancer.rebalance([10.0], [5], [0]) == []  # single lane


def test_rebalancer_moves_the_hottest_shard_to_the_idlest_lane():
    moves = _rebalancer().rebalance(
        [30.0, 2.0], [20, 10, 1, 1], [0, 0, 1, 1]
    )
    assert moves == [(0, 0, 1)]


def test_rebalancer_never_splits_a_single_resident_shard():
    # Lane 0 is hot because of exactly one shard: moving it whole would just
    # relocate the hotspot, so the rebalancer leaves the map alone.
    moves = _rebalancer().rebalance([30.0, 2.0], [29, 1, 1, 1], [0, 1, 1, 1])
    assert moves == []


def test_rebalancer_refuses_moves_that_relocate_the_bottleneck():
    # The hottest shard carries ~all of the busy lane: after the move the
    # target lane would be the new bottleneck, so no move is proposed.
    moves = _rebalancer().rebalance([20.0, 1.0], [19, 1], [0, 0])
    assert moves == []


def test_rebalancer_caps_moves_per_interval_and_breaks_ties_by_index():
    lane_busy = [40.0, 1.0, 1.0, 1.0]
    writes = [10, 10, 10, 10]
    assignment = [0, 0, 0, 0]
    one = _rebalancer(max_moves_per_interval=1).rebalance(
        lane_busy, writes, assignment
    )
    assert one == [(0, 0, 1)]  # equal heat: lowest shard and lane indices win
    many = _rebalancer(max_moves_per_interval=8).rebalance(
        lane_busy, writes, assignment
    )
    assert many[0] == (0, 0, 1)
    assert len(many) >= 2  # keeps going until balanced or guarded
    assert many == _rebalancer(max_moves_per_interval=8).rebalance(
        lane_busy, writes, assignment
    )  # deterministic


def test_rebalancer_rejects_mismatched_inputs():
    with pytest.raises(SimulationError):
        _rebalancer().rebalance([10.0, 1.0], [5, 5, 5], [0, 1])


# ---------------------------------------------------------------------------
# The actuation surfaces: ExecutionLanes windows/pins, shard write deltas
# ---------------------------------------------------------------------------


def test_lanes_windowed_busy_resets_independently_of_totals():
    lanes = ExecutionLanes(lanes=4)
    assert lanes.span_of({0: 3.0, 1: 1.0}) == 3.0
    assert lanes.snapshot() == (3.0, 1.0, 0.0, 0.0)
    assert lanes.lane_busy_ms == (3.0, 1.0, 0.0, 0.0)
    lanes.reset_window()
    assert lanes.snapshot() == (0.0, 0.0, 0.0, 0.0)  # window cleared...
    assert lanes.lane_busy_ms == (3.0, 1.0, 0.0, 0.0)  # ...totals kept
    lanes.span_of({1: 2.0})
    assert lanes.snapshot() == (0.0, 2.0, 0.0, 0.0)


def test_lanes_assign_pins_and_unpins_shards():
    lanes = ExecutionLanes(lanes=4)
    assert lanes.lane_of(5) == 1  # round-robin default
    lanes.assign(5, 3)
    assert lanes.lane_of(5) == 3
    assert lanes.assignments == {5: 3}
    lanes.assign(5, 1)  # back to the round-robin lane: pin evaporates
    assert lanes.assignments == {}
    with pytest.raises(SimulationError):
        lanes.assign(5, 4)  # lane out of range
    with pytest.raises(SimulationError):
        lanes.assign(-1, 0)


def test_shard_write_counts_measure_window_heat():
    store = StateStore("s", shards=4)
    for i in range(8):
        store.put(f"k{i}", i)
    baseline = store.shard_write_counts()
    assert sum(baseline) == 8
    store.put("k0", 99)
    store.put("k0", 100)
    deltas = [now - before for now, before in zip(store.shard_write_counts(), baseline)]
    assert sum(deltas) == 2
    assert deltas[store.shard_of("k0")] == 2


# ---------------------------------------------------------------------------
# The configuration surface: policy, scenario, builder, zipf workloads
# ---------------------------------------------------------------------------


def test_control_policy_validation():
    assert ControlPolicy().policy == "static"
    assert not ControlPolicy().enabled
    assert ControlPolicy(policy="adaptive").enabled
    for bad in (
        dict(policy="fuzzy"),
        dict(interval_ms=0),
        dict(window=0),
        dict(batch_min=0),
        dict(batch_max=0, batch_min=4),
        dict(batch_increase=0),
        dict(batch_decrease=1.0),
        dict(group_decrease=0.0),
        dict(target_decide_latency_ms=0),
        dict(target_vote_rtt_ms=-5),
        dict(imbalance_ratio=1.0),
        dict(max_moves_per_interval=0),
    ):
        with pytest.raises(ConfigurationError):
            ControlPolicy(**bad)
    assert "static" in CONTROL_POLICIES and "adaptive" in CONTROL_POLICIES


def test_control_policy_json_round_trip():
    policy = ControlPolicy(
        policy="adaptive", interval_ms=2.0, batch_increase=16, imbalance_ratio=2.0
    )
    assert ControlPolicy.from_dict(policy.to_dict()) == policy
    assert ControlPolicy.from_dict(json.loads(json.dumps(policy.to_dict()))) == policy
    with pytest.raises(ConfigurationError):
        ControlPolicy.from_dict({"policy": "adaptive", "warp_factor": 9})


def test_scenario_round_trips_control_zipf_and_execute_ms():
    scenario = (
        Scenario.build()
        .name("control-rt")
        .workload(num_transactions=40, zipf_skew=1.2)
        .control("adaptive", interval_ms=5.0)
        .sharding(state_shards=8, execution_lanes=4)
        .finish()
        .with_overrides(execute_ms=0.4)
    )
    assert scenario.control.policy == "adaptive"
    assert scenario.control.interval_ms == 5.0
    assert scenario.workload.zipf_skew == 1.2
    assert scenario.execute_ms == 0.4
    clone = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert clone == scenario
    assert "control" in scenario.describe() or scenario.control.enabled


def test_builder_control_defaults_to_adaptive_and_rejects_mixed_forms():
    assert Scenario.build().control().finish().control.policy == "adaptive"
    ready = ControlPolicy(policy="adaptive", interval_ms=3.0)
    assert Scenario.build().control(ready).finish().control is ready
    with pytest.raises(ConfigurationError):
        Scenario.build().control(ready, interval_ms=4.0)
    with pytest.raises(ConfigurationError):
        Scenario.build().control("fuzzy")


def test_execute_ms_overrides_both_cost_models():
    base = registry.get("zipf-sweep-b001")
    config = base.deployment_config(seed=0)
    assert config.crash_costs.execute_ms == base.execute_ms
    assert config.byzantine_costs.execute_ms == base.execute_ms
    untouched = registry.get("fig10a").deployment_config(seed=0)
    assert untouched.crash_costs.execute_ms != base.execute_ms
    with pytest.raises(ConfigurationError):
        base.with_overrides(execute_ms=-1.0)
    with pytest.raises(ConfigurationError):
        base.with_overrides(execute_ms=float("inf"))


def _zipf_workload(skew, n=400):
    hierarchy = build_paper_figure1_tree()
    config = WorkloadConfig(
        num_transactions=n, zipf_skew=skew, cross_domain_ratio=0.0, mobile_ratio=0.0
    )
    return WorkloadGenerator(hierarchy, config, num_clients=8).generate()


def test_zipf_skew_concentrates_senders_and_stays_deterministic():
    def top_share(workload):
        counts = {}
        for tx in workload.transactions:
            sender = tx.payload["sender"]
            counts[sender] = counts.get(sender, 0) + 1
        return max(counts.values()) / workload.num_transactions

    skewed, uniform = _zipf_workload(skew=1.5), _zipf_workload(skew=0.0)
    assert top_share(skewed) > 2 * top_share(uniform)
    again = _zipf_workload(skew=1.5)
    assert [t.payload for t in skewed.transactions] == [
        t.payload for t in again.transactions
    ]
    with pytest.raises(ConfigurationError):
        WorkloadConfig(zipf_skew=-0.1)


def test_zipf_sweep_family_is_registered():
    for size in registry.ZIPF_SWEEP_BATCHES:
        scenario = registry.get(f"zipf-sweep-b{size:03d}")
        assert scenario.batch_size == size
        assert not scenario.control.enabled
        assert scenario.workload.zipf_skew > 0
    adaptive = registry.get("zipf-sweep-adaptive")
    assert adaptive.control.enabled
    assert adaptive.workload.zipf_skew > 0
    assert adaptive.execution_lanes == registry.ZIPF_SWEEP_LANES


def test_control_smoke_mode_is_registered():
    from repro.faults.smoke import MODES

    assert "control" in MODES


# ---------------------------------------------------------------------------
# End to end: adaptive determinism, control:* evidence
# ---------------------------------------------------------------------------


def _adaptive_run():
    scenario = registry.get("zipf-sweep-adaptive").with_overrides(
        num_transactions=96, num_clients=12
    )
    return ScenarioRunner(check_invariants=True).execute(
        scenario, seed=scenario.seeds[0]
    )


def test_adaptive_run_is_deterministic():
    first, second = _adaptive_run(), _adaptive_run()
    assert first.run().to_dict() == second.run().to_dict()
    assert first.trace.to_json() == second.trace.to_json()


def test_adaptive_run_emits_control_evidence():
    run = _adaptive_run()
    decisions = run.trace.control_decisions()
    assert decisions  # the plane ticked and acted
    grew = [
        event
        for node in decisions.values()
        for event in node["batch"]
        if event.get("size_to") > event.get("size_from")
    ]
    assert grew  # the batch controller probed upward under load
    moves = [
        event for node in decisions.values() for event in node["rebalance"]
    ]
    assert moves  # hot shards were re-placed off the busiest lane
    for event in moves:
        assert event.get("from_lane") != event.get("to_lane")
        assert 0 <= event.get("to_lane") < registry.ZIPF_SWEEP_LANES
    assert run.summary.pending == 0


@pytest.mark.parametrize("name", registry.ADVERSARIAL_SCENARIOS)
def test_adversarial_scenarios_hold_invariants_with_controllers_armed(name):
    scenario = registry.get(name).with_overrides(
        control=ControlPolicy(policy="adaptive"),
        state_shards=8,
        execution_lanes=4,
    )
    run = ScenarioRunner(check_invariants=True).execute(
        scenario, seed=scenario.seeds[0]
    )
    assert run.summary.pending == 0


# ---------------------------------------------------------------------------
# The shared control clock and its skip predicate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig07a", "byz-equivocation", "lease-rejoin"])
def test_the_clock_fires_once_per_interval_whatever_the_plane_count(
    name, monkeypatch
):
    ticks = []
    tick = ControlPlane._tick
    monkeypatch.setattr(
        ControlPlane, "_tick", lambda plane: (ticks.append(plane), tick(plane))
    )
    scenario = registry.get(name).with_overrides(
        control=ControlPolicy(policy="adaptive", interval_ms=2.0)
    )
    deployment = materialize(scenario).deployment
    deployment.start()
    deployment.simulator.run(until_ms=21.0)
    planes = [node.control for node in deployment.nodes.values()]
    clocks = {id(plane.clock) for plane in planes}
    assert len(clocks) == 1 and len(planes) > 1
    assert planes[0].clock.fires == 10
    # Without clients every plane ticks once (to apply its clamped targets)
    # and then mostly idles: only lazy-propagation rounds feed a bus.
    assert {id(plane) for plane in ticks} == {id(plane) for plane in planes}
    assert len(ticks) < 2 * len(planes)


def test_the_first_firing_applies_clamped_targets_even_without_telemetry():
    scenario = registry.get("fig07a").with_overrides(
        batch_size=200,
        control=ControlPolicy(policy="adaptive", interval_ms=2.0, batch_max=128),
    )
    deployment = materialize(scenario).deployment
    deployment.start()
    deployment.simulator.run(until_ms=2.5)
    sizes = {node.engine.batcher.batch_size for node in deployment.nodes.values()}
    assert sizes == {128}


def _adaptive(interval_ms=2.0, **knobs):
    return ControlPolicy(policy="adaptive", interval_ms=interval_ms, **knobs)


#: (label, scenario, seed) — each exercises one reason a plane must not idle;
#: longest first, so the two workers finish together.
ORACLE_RUNS = [
    ("retries", registry.get("lease-rejoin").with_overrides(num_transactions=120), 1),
    (
        "lanes",
        registry.get("zipf-sweep-adaptive").with_overrides(num_transactions=96),
        None,
    ),
    (
        "crashes",
        registry.get("byz-partition-flap").with_overrides(control=_adaptive()),
        None,
    ),
    (
        "wipes",
        registry.get("churn-sweep").with_overrides(
            num_transactions=120, max_simulated_ms=5000.0, control=_adaptive()
        ),
        2023,
    ),
]


def oracle_cell(cell):
    """One run's digests, with the clock skipping idle planes or not."""
    scenario, seed, skip = cell
    if skip:
        return run_digests(scenario, seed)
    idle = ControlPlane.idle
    ControlPlane.idle = lambda plane: False  # tick every plane, every firing
    try:
        return run_digests(scenario, seed)
    finally:
        ControlPlane.idle = idle


def test_skipping_idle_planes_changes_nothing(two_workers):
    cells = [
        (scenario, seed, skip)
        for _, scenario, seed in ORACLE_RUNS
        for skip in (True, False)
    ]
    digests = list(two_workers.map(oracle_cell, cells))
    for index, (label, _, _) in enumerate(ORACLE_RUNS):
        skipping, ticking = digests[2 * index], digests[2 * index + 1]
        assert skipping == ticking, label
