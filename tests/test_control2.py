"""Control plane phase 2: conflict leases and shard splitting.

Four layers of coverage:

* the configuration surface: phase-2 :class:`ControlPolicy` knobs require an
  adaptive policy, reject degenerate values, and survive the JSON round trip;
* unit tests for :meth:`StateStore.split_shard` (stable re-hash of only the
  parent's keys, write-log carry-over in version order, nested splits, the
  ``verify_partition`` audit catching corruption) and for the
  :class:`LaneRebalancer`'s ``blocked_shard`` report (the plane's split-or-
  back-off signal);
* checker self-tests: forged ``control:lease`` / ``control:split`` traces
  that the ``lease-safety`` and ``split-partition`` invariant passes must
  flag (and legal traces they must not);
* end to end: the white-hot ``zipf-hot-split`` run splits and stays
  invariant-clean, the blocked rebalancer backs off exponentially instead of
  re-evaluating every window (a livelock once), and ``lease-rejoin``
  grants and adopts conflict leases.

The differential gate (every phase-2 knob off == the PR 9 tree, bit for bit,
on 10 static and 10 adaptive seeds) lives in ``tests/test_goldens.py``.
"""

import pytest

from repro.control.controllers import LaneRebalancer
from repro.control.policy import ControlPolicy
from repro.errors import ConfigurationError, StateError
from repro.faults import InvariantChecker, TraceRecorder
from repro.ledger.state import StateStore
from repro.scenarios import ScenarioRunner, registry
from tests.conftest import make_deployment


# ---------------------------------------------------------------------------
# Configuration surface
# ---------------------------------------------------------------------------


def test_phase2_knobs_require_an_adaptive_policy():
    for knob in ({"conflict_leases": True}, {"split_shards": True}):
        with pytest.raises(ConfigurationError):
            ControlPolicy(**knob)
    armed = ControlPolicy(policy="adaptive", conflict_leases=True, split_shards=True)
    assert armed.enabled


def test_phase2_knobs_reject_degenerate_values():
    bad = (
        {"conflict_leases": True, "lease_ms": 0.0},
        {"conflict_leases": True, "lease_ms": float("inf")},
        {"split_shards": True, "split_after_blocked": 0},
        {"split_shards": True, "max_splits": 0},
    )
    for kwargs in bad:
        with pytest.raises(ConfigurationError):
            ControlPolicy(policy="adaptive", **kwargs)


def test_phase2_policy_json_round_trip():
    policy = ControlPolicy(
        policy="adaptive",
        conflict_leases=True,
        lease_ms=123.0,
        split_shards=True,
        split_after_blocked=2,
        max_splits=5,
    )
    data = policy.to_dict()
    for key in ("conflict_leases", "lease_ms", "split_shards"):
        assert key in data
    assert ControlPolicy.from_dict(data) == policy


def test_control2_scenario_family_is_registered():
    for name in registry.CONTROL2_SCENARIOS:
        registry.get(name)
    split = registry.get("zipf-hot-split")
    nosplit = registry.get("zipf-hot-nosplit")
    assert split.control.split_shards and split.control.conflict_leases
    assert not nosplit.control.split_shards
    assert split.workload.zipf_skew == registry.ZIPF_HOT_SKEW
    lease = registry.get("lease-rejoin")
    assert lease.control.conflict_leases
    assert lease.topology.branching == 3
    assert lease.workload.involved_domains == 3


def test_control2_smoke_mode_is_registered():
    from repro.faults.smoke import MODES

    assert "control2" in MODES


# ---------------------------------------------------------------------------
# Unit level: StateStore.split_shard
# ---------------------------------------------------------------------------


def _warm_store(shards=2, keys=48):
    store = StateStore(shards=shards)
    for index in range(keys):
        store.put(f"acct/{index:03d}", float(index))
    return store


def _hottest_shard(store):
    counts = store.shard_write_counts()
    return counts.index(max(counts))


def test_split_shard_rehashes_only_the_parents_keys():
    store = _warm_store(shards=4)
    before = {key: store.shard_of(key) for key in store.keys()}
    parent = _hottest_shard(store)
    child = store.split_shard(parent)
    assert child == 4  # first split appends past the base slots
    assert store.shard_count == 5
    assert store.base_shards == 4 and store.split_count == 1
    moved = 0
    for key, old in before.items():
        new = store.shard_of(key)
        if old != parent:
            assert new == old  # foreign shards are untouched
        else:
            assert new in (parent, child)
            moved += new == child
    assert moved > 0  # the split actually spread the range
    assert store.verify_partition() == ()


def test_split_preserves_content_versions_and_write_counts():
    store = _warm_store(shards=2)
    values = {key: store.read(key) for key in store.keys()}
    version = store.version
    delta = list(store.delta_since(0).items())
    counts = store.shard_write_counts()
    child = store.split_shard(0)
    assert store.version == version  # the counter never rewinds
    for key, value in values.items():
        assert store.read(key) == value
    # Deltas are untouched, the parent's writes are shared between it and
    # the child, and every key now sits in the shard it routes to.
    assert list(store.delta_since(0).items()) == delta
    after = store.shard_write_counts()
    assert after[0] + after[child] == counts[0] and after[1] == counts[1]
    for shard in range(store.shard_count):
        for key in store.keys_of_shard(shard):
            assert store.shard_of(key) == shard
    assert child == 2


def test_nested_splits_keep_the_partition_sound():
    store = _warm_store(shards=2, keys=96)
    first = store.split_shard(_hottest_shard(store))
    second = store.split_shard(first)  # split the child again
    third = store.split_shard(_hottest_shard(store))
    assert (first, second, third) == (2, 3, 4)
    assert store.split_count == 3 and store.shard_count == 5
    assert store.verify_partition() == ()
    store.put("acct/fresh", 1.0)  # post-split writes route consistently
    assert store.verify_partition() == ()


def test_split_rejects_out_of_range_shards():
    store = _warm_store()
    with pytest.raises(StateError):
        store.split_shard(99)
    with pytest.raises(StateError):
        store.split_shard(-1)


def test_verify_partition_catches_a_misrouted_key():
    store = _warm_store(shards=2)
    store.split_shard(0)
    donor = next(
        shard for shard in range(store.shard_count) if store.keys_of_shard(shard)
    )
    recipient = (donor + 1) % store.shard_count
    key = store.keys_of_shard(donor)[-1]
    store._key_writes[recipient][key] = store._key_writes[donor].pop(key)
    problems = store.verify_partition()
    assert problems  # the audit sees through the corrupted bookkeeping


# ---------------------------------------------------------------------------
# Unit level: the rebalancer's blocked-shard report
# ---------------------------------------------------------------------------


def test_rebalancer_reports_the_blocked_single_resident_shard():
    rebalancer = LaneRebalancer(ControlPolicy(policy="adaptive"))
    # Lane 0 is hot because of exactly one shard: no move helps, so the
    # rebalancer stays quiet but *reports* the shard for split-or-back-off.
    assert rebalancer.rebalance([30.0, 2.0], [29, 1, 1, 1], [0, 1, 1, 1]) == []
    assert rebalancer.blocked_shard == 0
    # A balanced call clears the report.
    assert rebalancer.rebalance([10.0, 10.0], [5, 5], [0, 1]) == []
    assert rebalancer.blocked_shard is None


# ---------------------------------------------------------------------------
# Checker self-tests: forged phase-2 traces
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quiet_deployment():
    """An unexecuted deployment: real hierarchy/nodes, empty ledgers."""
    return make_deployment()


def _forge(deployment):
    domain = deployment.hierarchy.height1_domains()[0]
    nodes = [node.address for node in deployment.nodes_of(domain.id)]
    return domain.id.name, nodes, TraceRecorder()


def _lease(trace, at, domain, node, action, tid, **extra):
    trace.record(
        "control:lease", at_ms=at, domain=domain, node=node,
        tid=tid, action=action, coordinator="D19", **extra,
    )


class TestLeaseSafetyPass:
    def test_legal_lifecycle_passes(self, quiet_deployment):
        domain, nodes, trace = _forge(quiet_deployment)
        node = nodes[0]
        _lease(trace, 1.0, domain, node, "grant", "t1", lease_ms=50.0)
        trace.record("handoff:prepared", at_ms=2.0, domain=domain, node=node,
                     tid="t1", slot=7)
        trace.record("handoff:group-prepared", at_ms=2.0, domain=domain,
                     node=node, gid=5, slot=7, tids=["t2"])
        _lease(trace, 2.0, domain, node, "adopt", "t1", gid=5, slot=7)
        _lease(trace, 3.0, domain, node, "grant", "t2", lease_ms=50.0)
        _lease(trace, 4.0, domain, node, "expire", "t2")
        _lease(trace, 5.0, domain, node, "grant", "t3", lease_ms=50.0)
        _lease(trace, 6.0, domain, node, "drop", "t3")
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert "lease-safety" in report.checks_run
        assert not report.of("lease-safety")

    def test_resolution_without_a_grant_is_flagged(self, quiet_deployment):
        domain, nodes, trace = _forge(quiet_deployment)
        _lease(trace, 1.0, domain, nodes[0], "expire", "t1")
        _lease(trace, 2.0, domain, nodes[0], "adopt", "t2", gid=1, slot=3)
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert len(report.of("lease-safety")) == 2

    def test_stacked_grant_is_flagged(self, quiet_deployment):
        domain, nodes, trace = _forge(quiet_deployment)
        _lease(trace, 1.0, domain, nodes[0], "grant", "t1", lease_ms=50.0)
        _lease(trace, 2.0, domain, nodes[0], "grant", "t1", lease_ms=50.0)
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert report.of("lease-safety")

    def test_adoption_without_a_prepared_vote_is_flagged(self, quiet_deployment):
        domain, nodes, trace = _forge(quiet_deployment)
        _lease(trace, 1.0, domain, nodes[0], "grant", "t1", lease_ms=50.0)
        _lease(trace, 2.0, domain, nodes[0], "adopt", "t1", gid=5, slot=7)
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert any(
            "handoff:prepared" in violation.detail
            for violation in report.of("lease-safety")
        )

    def test_adoption_on_the_wrong_slot_is_flagged(self, quiet_deployment):
        domain, nodes, trace = _forge(quiet_deployment)
        node = nodes[0]
        _lease(trace, 1.0, domain, node, "grant", "t1", lease_ms=50.0)
        trace.record("handoff:prepared", at_ms=2.0, domain=domain, node=node,
                     tid="t1", slot=7)
        trace.record("handoff:group-prepared", at_ms=2.0, domain=domain,
                     node=node, gid=5, slot=9, tids=["t2"])
        _lease(trace, 2.0, domain, node, "adopt", "t1", gid=5, slot=7)
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert any(
            "slot" in violation.detail for violation in report.of("lease-safety")
        )


def _split(trace, at, domain, node, parent, child):
    trace.record("control:split", at_ms=at, domain=domain, node=node,
                 shard=parent, child=child, to_lane=0, streak=2,
                 writes_parent=10, writes_child=10)


class TestSplitPartitionPass:
    def test_wellformed_replicated_splits_pass(self, quiet_deployment):
        domain, nodes, trace = _forge(quiet_deployment)
        for node in nodes[:2]:
            _split(trace, 1.0, domain, node, 0, 2)
            _split(trace, 2.0, domain, node, 2, 3)
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert "split-partition" in report.checks_run
        assert not report.of("split-partition")

    def test_child_index_reuse_and_self_split_are_flagged(self, quiet_deployment):
        domain, nodes, trace = _forge(quiet_deployment)
        _split(trace, 1.0, domain, nodes[0], 0, 2)
        _split(trace, 2.0, domain, nodes[0], 1, 2)  # reused child index
        _split(trace, 3.0, domain, nodes[0], 3, 3)  # parent == child
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert len(report.of("split-partition")) == 2

    def test_replica_split_divergence_is_flagged_when_fault_free(
        self, quiet_deployment
    ):
        domain, nodes, trace = _forge(quiet_deployment)
        _split(trace, 1.0, domain, nodes[0], 0, 2)
        _split(trace, 2.0, domain, nodes[0], 2, 3)
        _split(trace, 1.0, domain, nodes[1], 1, 2)  # different history
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert any(
            "prefix" in violation.detail
            for violation in report.of("split-partition")
        )

    def test_replica_divergence_is_excused_under_faults(self, quiet_deployment):
        domain, nodes, trace = _forge(quiet_deployment)
        _split(trace, 1.0, domain, nodes[0], 0, 2)
        _split(trace, 1.0, domain, nodes[1], 1, 2)
        trace.record("fault:wipe", at_ms=0.5, domain=domain, node=nodes[1])
        report = InvariantChecker(quiet_deployment, trace=trace).check()
        assert not report.of("split-partition")


# ---------------------------------------------------------------------------
# End to end: splitting, back-off, leases
# ---------------------------------------------------------------------------


def _hot_run(name, **overrides):
    scenario = registry.get(name).with_overrides(
        num_transactions=300, **overrides
    )
    return ScenarioRunner(check_invariants=True).execute(scenario, seed=1)


def test_white_hot_run_splits_and_passes_invariants():
    run = _hot_run("zipf-hot-split")
    splits = run.trace.events("control:split")
    assert splits  # the blocked hot shard actually split
    for event in splits:
        assert event.get("shard") != event.get("child")
    # Replicas of one domain split identically (checker proves the prefix
    # rule; the full-equality case must hold here — no faults, no stragglers).
    by_node = {}
    for event in splits:
        by_node.setdefault(event.node, []).append(
            (event.get("shard"), event.get("child"))
        )
    domains = {}
    for node, sequence in by_node.items():
        domains.setdefault(node.split("/")[0], set()).add(tuple(sequence))
    assert all(len(histories) == 1 for histories in domains.values())
    assert run.summary.pending == 0


def test_blocked_rebalancer_backs_off_instead_of_livelocking():
    run = _hot_run("zipf-hot-nosplit")
    assert not run.trace.events("control:split")  # knob off -> no splits
    blocked = [
        (node, node.control)
        for node in run.deployment.nodes.values()
        if node.control is not None and node.control._blocked_streak > 0
    ]
    assert blocked  # the white-hot shard blocked the single-resident guard
    for node, plane in blocked:
        windows = node.simulator.now / plane.policy.interval_ms
        # Exponential back-off engaged and capped; without it the plane
        # would re-run the identical no-op evaluation every window.
        assert plane._backoff_exp == 5
        assert plane.rebalance_evals < windows / 8
        assert plane.splits == 0
