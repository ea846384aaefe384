"""Sharded state stores & parallel execution lanes: semantics, knobs.

Five layers of coverage:

* unit tests for the sharded :class:`~repro.ledger.state.StateStore`
  (stable key→shard hash, per-shard write counts, ``delta_since`` equal
  to an unsharded store's, empty shards);
* unit tests for :class:`~repro.sim.cpu.ExecutionLanes` (span = max over
  lanes, lane accounting, the ``lanes=1`` no-op);
* the scenario-spec surface (validation, JSON round-trip, builder
  ``.sharding()``, sweeps, the registered ``shard-sweep`` family);
* node-level lane charging edge cases: a transaction spanning every shard,
  and the optimistic protocol's undo crossing shards;
* a randomized differential test asserting sharded and unsharded runs agree
  on every outcome.

The golden pins (``state_shards=1, execution_lanes=1`` == the pre-change seed,
bit for bit) live in ``tests/test_goldens.py``.
"""

import json

import pytest

from repro.common.config import DeploymentConfig
from repro.common.types import CrossDomainProtocol, DomainId
from repro.errors import SimulationError, StateError
from repro.ledger.state import StateStore, shard_of_key
from repro.scenarios import ScenarioRunner, registry
from repro.sim.cpu import ExecutionLanes

D01 = DomainId(0, 1)
D11, D12 = DomainId(1, 1), DomainId(1, 2)


# ---------------------------------------------------------------------------
# Unit level: sharded StateStore
# ---------------------------------------------------------------------------


def _mirrored_stores(shards, writes):
    """The same write sequence applied to an unsharded and a sharded store."""
    plain, sharded = StateStore("plain"), StateStore("sharded", shards=shards)
    for key, value in writes:
        plain.put(key, value)
        sharded.put(key, value)
    return plain, sharded


def _random_writes(count=200, keys=40, seed=7):
    import random

    rng = random.Random(seed)
    return [
        (f"acct:{rng.randrange(keys):03d}", rng.randrange(1_000))
        for _ in range(count)
    ]


def test_shard_of_is_stable_and_in_range():
    store = StateStore("s", shards=8)
    for key in ("a", "acct:001", "hours:driver-7", ""):
        shard = store.shard_of(key)
        assert 0 <= shard < 8
        assert shard == store.shard_of(key)  # deterministic
        assert shard == shard_of_key(key, 8)  # module-level hash agrees
    assert shard_of_key("anything", 1) == 0
    single = StateStore("one")
    assert single.shard_count == 1 and single.shard_of("anything") == 0


def test_shards_of_returns_sorted_distinct_footprint():
    store = StateStore("s", shards=16)
    keys = [f"k{i}" for i in range(64)]
    footprint = store.shards_of(keys)
    assert footprint == tuple(sorted(set(store.shard_of(k) for k in keys)))
    assert store.shards_of(()) == ()


@pytest.mark.parametrize("shards", [2, 5, 16])
def test_delta_matches_unsharded(shards):
    """Any shard count reproduces the unsharded store's deltas."""
    plain, sharded = _mirrored_stores(shards, _random_writes())
    assert sharded.version == plain.version
    assert sharded.snapshot() == plain.snapshot()
    for since in (0, 1, 57, plain.version - 1, plain.version):
        # Same keys, same values, same (latest-write) order.
        assert list(sharded.delta_since(since).items()) == list(
            plain.delta_since(since).items()
        )
    assert list(sharded.keys()) == list(plain.keys())


def test_per_shard_write_counts_partition_the_writes():
    writes = _random_writes()
    _, sharded = _mirrored_stores(8, writes)
    counts = sharded.shard_write_counts()
    assert sum(counts) == sharded.version == len(writes)
    assert counts == tuple(
        sum(sharded.shard_of(key) == index for key, _ in writes) for index in range(8)
    )
    for index in range(8):
        assert all(sharded.shard_of(k) == index for k in sharded.keys_of_shard(index))
    assert sorted(k for i in range(8) for k in sharded.keys_of_shard(i)) == sorted(
        sharded.keys()
    )
    assert sharded.verify_partition() == ()


def test_empty_shard_domains_are_harmless():
    """More shards than keys: empty shards contribute nothing anywhere."""
    store = StateStore("sparse", shards=64)
    store.put("only", 1)
    store.put("keys", 2)
    occupied = {store.shard_of("only"), store.shard_of("keys")}
    for shard in range(64):
        expected = (
            tuple(k for k in ("only", "keys") if store.shard_of(k) == shard)
            if shard in occupied
            else ()
        )
        assert store.keys_of_shard(shard) == expected
    assert store.delta_since(0) == {"only": 1, "keys": 2}
    assert sum(store.shard_write_counts()) == 2


def test_restore_spans_shards_and_keeps_delta_semantics():
    _, sharded = _mirrored_stores(4, _random_writes(count=30, keys=10))
    snapshot = sharded.snapshot()
    version = sharded.version
    sharded.put("acct:000", -1)
    sharded.put("extra", 99)
    sharded.restore(snapshot)
    assert sharded.snapshot() == snapshot
    delta = sharded.delta_since(version)
    # Every key disturbed after the snapshot shows its restored value.
    assert delta["acct:000"] == snapshot["acct:000"]
    assert delta["extra"] is None and "extra" not in sharded


def test_state_store_validates_shard_arguments():
    with pytest.raises(StateError):
        StateStore("bad", shards=0)
    store = StateStore("s", shards=4)
    with pytest.raises(StateError):
        store.keys_of_shard(4)
    with pytest.raises(StateError):
        store.delta_since(99)


# ---------------------------------------------------------------------------
# Unit level: ExecutionLanes
# ---------------------------------------------------------------------------


def test_execution_lanes_span_is_max_over_lanes():
    lanes = ExecutionLanes(4)
    assert lanes.enabled
    span = lanes.span_of({0: 1.0, 1: 3.0, 3: 2.0})
    assert span == 3.0
    assert lanes.serial_ms_total == 6.0
    assert lanes.span_ms_total == 3.0
    assert lanes.lane_busy_ms == (1.0, 3.0, 0.0, 2.0)
    assert lanes.batches_charged == 1
    assert lanes.parallelism() == 2.0


def test_execution_lanes_single_lane_is_disabled_and_serial():
    lanes = ExecutionLanes(1)
    assert not lanes.enabled
    assert lanes.span_of({0: 2.5}) == 2.5  # still accounts if charged
    assert lanes.parallelism() == 1.0


def test_execution_lanes_lane_of_round_robin_and_validation():
    lanes = ExecutionLanes(4)
    assert [lanes.lane_of(s) for s in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    with pytest.raises(SimulationError):
        ExecutionLanes(0)
    with pytest.raises(SimulationError):
        lanes.lane_of(-1)
    with pytest.raises(SimulationError):
        lanes.span_of({4: 1.0})
    with pytest.raises(SimulationError):
        lanes.span_of({0: -1.0})
    assert lanes.span_of({}) == 0.0
    assert lanes.batches_charged == 0


# ---------------------------------------------------------------------------
# Spec surface
# ---------------------------------------------------------------------------


def test_sharding_sweeps_through_overrides():
    base = registry.get("fig07a")
    derived = base.with_overrides(state_shards=4, execution_lanes=2)
    assert derived.state_shards == 4 and derived.execution_lanes == 2
    assert base.state_shards == 1  # default untouched


def test_shard_sweep_family_is_registered():
    assert registry.get("shard-sweep").state_shards == 1
    for shards in registry.SHARD_SWEEP_SIZES:
        scenario = registry.get(f"shard-sweep-s{shards:03d}")
        assert scenario.state_shards == shards
        assert scenario.execution_lanes == registry.SHARD_SWEEP_LANES
        assert scenario.batch_size > 1  # the execution-bound regime


def test_shard_smoke_mode_is_registered_and_well_formed():
    from repro.faults import smoke

    assert "shard" in smoke.MODES
    scenarios = smoke.MODES["shard"]()
    assert scenarios
    for scenario in scenarios:
        assert scenario.state_shards > 1 and scenario.execution_lanes > 1


# ---------------------------------------------------------------------------
# Node level: lane charging edge cases
# ---------------------------------------------------------------------------


def _sharded_deployment(protocol=CrossDomainProtocol.COORDINATOR, **knobs):
    from repro.common.config import DomainSpec, HierarchySpec
    from repro.core.system import SaguaroDeployment
    from repro.topology.builders import build_tree
    from repro.topology.regions import placement_for_profile
    from repro.workloads.micropayment import MicropaymentApplication

    config = DeploymentConfig(
        hierarchy=HierarchySpec(default_spec=DomainSpec()),
        protocol=protocol,
        seed=11,
        **knobs,
    )
    hierarchy = build_tree(config.hierarchy)
    placement_for_profile(hierarchy, config.latency_profile)
    return SaguaroDeployment(
        config, MicropaymentApplication(accounts_per_domain=32), hierarchy
    )


def _keys_covering_all_shards(state):
    """One existing key per shard (skipping shards with no accounts)."""
    chosen = {}
    for key in state.keys():
        chosen.setdefault(state.shard_of(key), key)
    return chosen


def test_transaction_spanning_all_shards_occupies_every_lane():
    deployment = _sharded_deployment(state_shards=4, execution_lanes=4)
    node = deployment.primary_node_of(D11)
    per_shard = _keys_covering_all_shards(node.state)
    assert len(per_shard) == 4, "expected accounts in every shard"
    from repro.common.types import TransactionId, TransactionKind
    from repro.ledger.transaction import Transaction

    spanning = Transaction(
        tid=TransactionId(number=77_001),
        kind=TransactionKind.INTERNAL,
        involved_domains=(D11,),
        payload={"op": "noop"},
        read_keys=tuple(per_shard.values()),
        write_keys=(),
    )
    busy_before = node.cpu.busy_until
    node.execute_once(spanning)
    assert node.lanes.batches_charged == 1
    # The footprint covers all 4 shards, so all 4 lanes carry work and the
    # span is one per-key charge plus the per-transaction verify.
    assert all(ms > 0 for ms in node.lanes.lane_busy_ms)
    expected_span = node.costs.execute_ms + node.costs.verify_ms
    assert node.lanes.span_ms_total == pytest.approx(expected_span)
    assert node.lanes.serial_ms_total == pytest.approx(
        4 * node.costs.execute_ms + node.costs.verify_ms
    )
    assert node.cpu.busy_until == pytest.approx(busy_before + expected_span, abs=1e-9)


def test_execution_is_free_with_single_lane():
    deployment = _sharded_deployment(state_shards=4, execution_lanes=1)
    node = deployment.primary_node_of(D11)
    from tests.conftest import internal_transfer

    busy_before = node.cpu.busy_until
    node.execute_once(internal_transfer(D11))
    assert node.cpu.busy_until == busy_before  # bit-identical: no charge
    assert node.lanes.batches_charged == 0


def test_optimistic_undo_crosses_shards():
    """Rolling back an optimistic victim restores keys in *different* shards."""
    from repro.core.messages import OptimisticOrder
    from repro.core.optimistic import OptimisticCrossDomainProtocol

    deployment = _sharded_deployment(
        protocol=CrossDomainProtocol.OPTIMISTIC, state_shards=8, execution_lanes=8
    )
    node = deployment.primary_node_of(D11)
    component = next(
        c for c in node.components if isinstance(c, OptimisticCrossDomainProtocol)
    )
    # Two *local* accounts living in distinct shards: the rollback must then
    # restore keys across two different shards of the same store.
    from repro.common.types import TransactionKind
    from repro.ledger.transaction import Transaction
    from repro.workloads.micropayment import account_key
    from tests.conftest import make_tid

    sender, recipient = next(
        (account_key(D11, i), account_key(D11, j))
        for i in range(8)
        for j in range(8)
        if i != j
        and node.state.shard_of(account_key(D11, i))
        != node.state.shard_of(account_key(D11, j))
    )
    tx = Transaction(
        tid=make_tid(),
        kind=TransactionKind.CROSS_DOMAIN,
        involved_domains=(D11, D12),
        payload={"op": "transfer", "sender": sender, "recipient": recipient, "amount": 5.0},
        read_keys=(sender, recipient),
        write_keys=(sender, recipient),
    )
    assert len(node.state.shards_of(tx.write_keys)) == 2
    before = {key: node.state.get(key) for key in tx.write_keys}
    component._decided_order(
        OptimisticOrder(transaction=tx, initiator_domain=D11, client_address="probe")
    )
    assert tx.tid in component.pending_transactions()
    # The taint index spans both shards the transaction wrote, and the
    # balances actually moved before the rollback.
    assert len(component._root_shards[tx.tid]) == 2
    assert node.state.get(sender) == before[sender] - 5.0
    assert node.state.get(recipient) == before[recipient] + 5.0
    component._abort_locally(tx.tid, reason="test")
    after = {key: node.state.get(key) for key in tx.write_keys}
    assert after == before
    # Undo cleanup cleared the per-shard taint index completely.
    assert tx.tid not in component._root_shards
    assert all(
        tx.tid not in owners
        for bucket in component._tainted_by_shard.values()
        for owners in bucket.values()
    )


# ---------------------------------------------------------------------------
# Randomized differential: sharded == unsharded, outcome for outcome
# ---------------------------------------------------------------------------

#: ~10 seeds spread across an internal-heavy figure, the wide-area figure,
#: and a hostile fault-plan scenario.
_DIFFERENTIAL_CASES = [
    ("fig07a", seed) for seed in (2023, 2024, 2025, 2026)
] + [
    ("fig10a", seed) for seed in (2023, 2024, 2025)
] + [
    ("byz-equivocation", seed) for seed in (2023, 2024, 2025)
]


@pytest.mark.parametrize("name,seed", _DIFFERENTIAL_CASES)
def test_sharded_and_unsharded_runs_agree(name, seed):
    """state_shards>1 must not change any outcome: same commits, same aborts,
    same final balances, and the sharded run passes full invariant checking."""
    base = registry.get(name).with_overrides(
        num_transactions=24, num_clients=4, seed=seed
    )
    runner = ScenarioRunner()
    plain = runner.execute(base)
    sharded = runner.execute(base.with_overrides(state_shards=8))
    assert json.dumps(plain.run().to_dict(), sort_keys=True) == json.dumps(
        sharded.run().to_dict(), sort_keys=True
    )
    for domain in plain.deployment.hierarchy.height1_domains():
        plain_state = plain.deployment.state_of(domain.id)
        sharded_state = sharded.deployment.state_of(domain.id)
        assert sharded_state.snapshot() == plain_state.snapshot()
        assert sharded_state.shard_count == 8
    sharded.check_invariants()
