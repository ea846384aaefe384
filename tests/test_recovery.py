"""Durable crash recovery: WAL, checkpoints, catch-up, and the churn sweep.

Covers the durability subsystem end to end:

* :mod:`repro.recovery.wal` unit behavior — record validation, truncation
  semantics, deterministic state roots, and checkpoint certification
  (including forgeries);
* the state root a store maintains from its write log, against a full
  re-hash: random histories (a Hypothesis property test) and, in real churn
  and speculative runs, every checkpoint a replica certifies, plus a pin over
  ``churn-sweep``'s checkpoint digests;
* the capped exponential gap-recovery backoff in the consensus engine;
* idempotent ``crash``/``wipe``/``recover`` at the node level (traced no-ops);
* the :class:`~repro.recovery.catchup.RecoveryManager` peer rotation and
  timeout backoff when every peer is dead;
* recovery under adversity — wiping a PBFT primary mid-batch, wiping a node
  again while it is catching up, and a 10-seed durability on/off
  differential on fig07a and fig10a;
* ``time_to_rejoin_ms`` reporting on :class:`RunResult`;
* the ``recovery-safety`` invariant pass, against both real churn runs and
  hand-forged traces that must be flagged;
* finding E, pinned red: lazy propagation stops for good at a wipe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.base import GAP_RECOVERY_MAX_MS, GAP_RECOVERY_MS
from repro.crypto.merkle import EMPTY_ROOT
from repro.errors import RecoveryError, StateError
from repro.faults import FaultAction, FaultPlan
from repro.faults.invariants import InvariantChecker
from repro.faults.trace import TraceRecorder
from repro.ledger.state import StateStore
from repro.recovery import (
    CATCHUP_TIMEOUT_MAX_MS,
    CATCHUP_TIMEOUT_MS,
    WalRecord,
    WriteAheadLog,
    checkpoint_digest,
    state_root_of,
)
from repro.scenarios import ScenarioRunner, registry
from repro.scenarios.runner import RunResult, materialize
from tests.conftest import checkpoints_rehashed, internal_transfer


def _durable_scenario(**overrides):
    """A small paced scenario with durability armed (no faults by default)."""
    defaults = dict(num_transactions=48, num_clients=4)
    defaults.update(overrides)
    return registry.get("churn-sweep-nofault").with_overrides(**defaults)


def _height1_node(deployment, domain_index: int = 0, node_index: int = 1):
    domain = deployment.hierarchy.height1_domains()[domain_index]
    return deployment.nodes_of(domain.id)[node_index]


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_unknown_record_kind_is_rejected(self):
        with pytest.raises(RecoveryError, match="unknown WAL record kind"):
            WalRecord(kind="gossip", slot=1)

    def test_negative_sync_cost_is_rejected(self):
        with pytest.raises(RecoveryError, match="sync_ms"):
            WriteAheadLog("D11/n0", sync_ms=-1.0)

    def test_truncate_drops_covered_records_only(self):
        wal = WriteAheadLog("D11/n0")
        wal.append(WalRecord(kind="append", position=1, payload="e1"))
        wal.append(WalRecord(kind="commit-vote", slot=1, view=0, digest=b"a"))
        wal.append(WalRecord(kind="decide", slot=1, payload="p1"))
        wal.append(WalRecord(kind="view-vote", view=2))
        wal.append(WalRecord(kind="decide", slot=2, payload="p2"))
        wal.append(WalRecord(kind="append", position=3, payload="e3"))
        dropped = wal.truncate_through(slot=1, ledger_length=2)
        # The append at position 1, and the slot-1 vote and decide, are
        # covered by the checkpoint; the view vote, the slot-2 decide, and
        # the position-3 append survive.
        assert dropped == 3
        assert [r.kind for r in wal.records()] == ["view-vote", "decide", "append"]
        assert wal.appended_total == 6
        assert wal.truncated_total == 3
        assert len(wal) == 3

    def test_view_votes_survive_truncation_and_report_highest(self):
        wal = WriteAheadLog("D11/n0")
        assert wal.highest_view_vote() == 0
        wal.append(WalRecord(kind="view-vote", view=1))
        wal.append(WalRecord(kind="view-vote", view=3))
        wal.truncate_through(slot=10_000, ledger_length=10_000)
        assert wal.highest_view_vote() == 3


class TestStateRoot:
    def test_empty_snapshot_has_the_empty_root(self):
        assert state_root_of({}) == EMPTY_ROOT

    def test_root_is_insertion_order_independent(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"z": 3, "x": 1, "y": 2}
        assert state_root_of(a) == state_root_of(b)

    def test_root_is_value_sensitive(self):
        assert state_root_of({"x": 1}) != state_root_of({"x": 2})


def _assert_root_matches(store: StateStore) -> bytes:
    root = store.state_root()
    assert root == state_root_of(store.snapshot())
    return root


#: One step of a random store history (see :func:`_apply`).
_STEP = st.tuples(
    st.sampled_from(
        ["put", "increment", "create", "withdraw", "remove", "restore", "split", "root"]
    ),
    st.sampled_from([f"k{i}" for i in range(9)]),
    st.one_of(st.none(), st.integers(-3, 50), st.floats(0, 20), st.text(max_size=3)),
)


def _apply(store: StateStore, step, saved: list) -> None:
    """Apply one step; invalid ones (overdraft, missing key, ...) are skipped
    by the store's own errors, exactly as callers see them."""
    op, key, value = step
    number = value if isinstance(value, (int, float)) else 1
    index = int(abs(number))
    try:
        if op == "put":
            store.put(key, value)
            saved.append(store.snapshot())
        elif op == "increment":
            store.increment(key, number)
        elif op == "create":
            store.create_account(key, abs(number))
        elif op == "withdraw":
            store.withdraw(key, abs(number))
        elif op == "remove":
            store.remove(key)
        elif op == "restore":
            store.restore(saved[index % len(saved)] if saved else {})
        elif op == "split":
            store.split_shard(index % store.shard_count)
        else:
            _assert_root_matches(store)
    except StateError:
        pass


class TestIncrementalStateRoot:
    """``StateStore.state_root`` follows the write log; ``state_root_of`` over
    the store's snapshot (a full re-hash) is its oracle at every call."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_STEP, max_size=60), st.integers(1, 4))
    def test_random_histories_match_a_full_rehash(self, steps, shards):
        store = StateStore(shards=shards)
        saved: list = []
        for step in steps:
            _apply(store, step, saved)
        _assert_root_matches(store)

    def test_empty_store_has_the_empty_root(self):
        store = StateStore()
        assert _assert_root_matches(store) == EMPTY_ROOT
        store.put("x", 1)
        store.remove("x")
        assert _assert_root_matches(store) == EMPTY_ROOT

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 8, 9])
    def test_every_leaf_count_and_each_single_leaf_change(self, count):
        store = StateStore()
        for index in range(count):
            store.put(f"k{index}", index)
        _assert_root_matches(store)
        for index in range(count):
            store.put(f"k{index}", -index - 1)
            _assert_root_matches(store)

    def test_key_removed_and_recreated_between_two_roots(self):
        store = StateStore(shards=2)
        for index in range(5):
            store.put(f"k{index}", index)
        before = _assert_root_matches(store)
        store.remove("k2")
        store.put("k2", 2)
        assert _assert_root_matches(store) == before
        store.remove("k4")
        store.put("k4", "back")
        assert _assert_root_matches(store) != before

    def test_insertions_and_removals_between_roots(self):
        store = StateStore()
        for index in range(6):
            store.put(f"k{index}", index)
        _assert_root_matches(store)
        store.remove("k0")
        store.put("k9", 9)
        store.put("k3", None)
        _assert_root_matches(store)
        store.restore({"k1": 1})
        _assert_root_matches(store)


# ---------------------------------------------------------------------------
# Certified checkpoints (built by a real durable run)
# ---------------------------------------------------------------------------


class TestCheckpointCertification:
    @pytest.fixture(scope="class")
    def checkpointed_node(self):
        run = materialize(_durable_scenario(checkpoint_interval=4))
        run.run()
        for index in range(4):
            node = _height1_node(run.deployment, domain_index=index, node_index=0)
            if node.durable_checkpoint is not None:
                return node
        pytest.fail("no domain reached a checkpoint")

    def test_genuine_checkpoint_verifies(self, checkpointed_node):
        node = checkpointed_node
        checkpoint = node.durable_checkpoint
        assert checkpoint.slot % 4 == 0 and checkpoint.slot > 0
        assert checkpoint.verify(node.keystore, node.domain.node_names)

    def test_forged_snapshot_is_rejected(self, checkpointed_node):
        node = checkpointed_node
        forged = dataclasses.replace(
            node.durable_checkpoint,
            snapshot={"account:stolen": 1_000_000.0},
        )
        assert not forged.verify(node.keystore, node.domain.node_names)

    def test_missing_certificate_is_rejected(self, checkpointed_node):
        node = checkpointed_node
        bare = dataclasses.replace(node.durable_checkpoint, certificate=None)
        assert not bare.verify(node.keystore, node.domain.node_names)

    def test_certificate_bound_to_wrong_slot_is_rejected(self, checkpointed_node):
        node = checkpointed_node
        shifted = dataclasses.replace(
            node.durable_checkpoint, slot=node.durable_checkpoint.slot + 1
        )
        assert not shifted.verify(node.keystore, node.domain.node_names)

    def test_digest_binds_domain_slot_and_root(self, checkpointed_node):
        checkpoint = checkpointed_node.durable_checkpoint
        original = checkpoint_digest(
            checkpoint.domain, checkpoint.slot, checkpoint.state_root
        )
        assert original != checkpoint_digest(
            checkpoint.domain, checkpoint.slot + 1, checkpoint.state_root
        )
        assert original != checkpoint_digest(
            checkpoint.domain, checkpoint.slot, b"\x00" * 32
        )


# ---------------------------------------------------------------------------
# Checkpoint roots in real runs: the from-scratch root is the oracle
# ---------------------------------------------------------------------------

#: sha256 over every ``recovery:checkpoint`` event's (node, slot, digest) of
#: ``churn-sweep`` seed 1, recorded while checkpoints still re-hashed every
#: key.  How the root is computed must never move it.
CHURN_SWEEP_CHECKPOINTS_SHA256 = (
    "2254ffc844d67f3c1f3d6cf958cb311a6cfba152529a3a3edad91e8d15e6e5e7"
)


class TestCheckpointRoots:
    @pytest.mark.parametrize("name", ["churn-sweep", "churn-sweep-primaries"])
    def test_every_root_equals_a_full_rehash(self, name):
        """Wipes, catch-up adoption and ``restore_from_checkpoint`` all run
        between checkpoints here."""
        _, checked = checkpoints_rehashed(registry.get(name), seed=1)
        assert checked > 50

    def test_speculative_durable_run_and_its_rollback(self):
        """Speculation applies slots out of order between checkpoints.  Its
        rollback (a ``put`` back for a key that existed, a ``remove`` for one
        the speculation created) does not fire in these runs — a rollback
        needs a late gap slot whose footprint overlaps a speculated one — so
        it is driven by hand on a checkpointed replica afterwards."""
        scenario = registry.get("pipeline-sweep-on").with_overrides(
            num_transactions=120, num_clients=24, durability=True,
            checkpoint_interval=4,
        )
        run, checked = checkpoints_rehashed(scenario, seed=1)
        assert checked > 50
        assert run.trace.events("spec:deliver"), "speculation never fired"

        node = _height1_node(run.deployment, node_index=0)
        state, slot = node.state, node.durable_checkpoint.slot
        before = state.snapshot()
        existing = sorted(before)[0]
        transaction = internal_transfer(node.domain.id)
        undo = {existing: (True, before[existing]), "spec:created": (False, None)}
        state.put(existing, -1.0)
        state.put("spec:created", 1.0)
        speculated = node.take_checkpoint(slot + 1, 0)
        assert speculated.state_root == state_root_of(speculated.snapshot)
        node.speculative_unwind(transaction, undo)
        unwound = node.take_checkpoint(slot + 2, 0)
        assert unwound.snapshot == before
        assert unwound.state_root == state_root_of(before)

    def test_churn_sweep_checkpoint_digests_are_pinned(self):
        run = materialize(registry.get("churn-sweep"), 1)
        run.run()
        events = run.trace.events("recovery:checkpoint")
        assert len(events) > 50
        cuts = json.dumps([(e.node, e.slot, e.digest) for e in events])
        assert (
            hashlib.sha256(cuts.encode()).hexdigest()
            == CHURN_SWEEP_CHECKPOINTS_SHA256
        )


# ---------------------------------------------------------------------------
# Gap-recovery backoff (satellite: replaces the fixed 150 ms retry)
# ---------------------------------------------------------------------------


class TestGapRecoveryBackoff:
    def test_gap_queries_back_off_150_to_1200_capped(self):
        run = materialize(_durable_scenario())
        node = _height1_node(run.deployment)
        engine = node.engine
        delays = []
        real_set_timer = node.set_timer

        def capturing(delay_ms, callback):
            delays.append(delay_ms)
            return real_set_timer(delay_ms, callback)

        node.set_timer = capturing
        # Decide slot 2 while slot 1 is missing: a delivery gap opens.
        engine._log.record(2, internal_transfer(node.domain.id))
        engine._maybe_arm_gap_recovery()
        assert delays == [GAP_RECOVERY_MS]
        # Each query for the same stuck head doubles the wait, capped.
        for _ in range(4):
            engine._recover_gap()
        assert delays == [150.0, 300.0, 600.0, 1200.0, 1200.0]
        assert delays[-1] == GAP_RECOVERY_MAX_MS

    def test_backoff_resets_when_the_gap_head_advances(self):
        run = materialize(_durable_scenario())
        node = _height1_node(run.deployment)
        engine = node.engine
        delays = []
        real_set_timer = node.set_timer
        node.set_timer = lambda d, cb: delays.append(d) or real_set_timer(d, cb)
        engine._log.record(2, internal_transfer(node.domain.id))
        engine._maybe_arm_gap_recovery()
        engine._recover_gap()
        assert delays[-1] == 2 * GAP_RECOVERY_MS
        # A different stuck head is a fresh gap: probe at the base rate again.
        engine._gap_head = 99
        engine._recovery_timer.cancel()
        engine._recovery_timer = None
        engine._maybe_arm_gap_recovery()
        assert delays[-1] == GAP_RECOVERY_MS


# ---------------------------------------------------------------------------
# Idempotent crash / wipe / recover (satellite: traced no-ops)
# ---------------------------------------------------------------------------


class TestIdempotentFaults:
    def _noops(self, trace):
        return [
            (event.get("action"), event.get("reason"))
            for event in trace.events("fault:noop")
        ]

    def test_double_crash_is_a_traced_noop(self):
        run = materialize(_durable_scenario())
        node = _height1_node(run.deployment)
        node.crash()
        node.crash()
        assert self._noops(run.trace) == [("crash", "already-crashed")]
        assert node.crashed

    def test_recover_without_crash_is_a_traced_noop(self):
        run = materialize(_durable_scenario())
        node = _height1_node(run.deployment)
        node.recover()
        assert self._noops(run.trace) == [("recover", "not-crashed")]
        assert not node.crashed

    def test_double_recover_is_a_traced_noop(self):
        run = materialize(_durable_scenario())
        node = _height1_node(run.deployment)
        node.crash()
        node.recover()
        node.recover()
        assert self._noops(run.trace) == [("recover", "not-crashed")]

    def test_wipe_while_crashed_is_a_traced_noop(self):
        run = materialize(_durable_scenario())
        node = _height1_node(run.deployment)
        node.crash()
        node.wipe()
        assert self._noops(run.trace) == [("wipe", "already-crashed")]
        assert node.wiped_total == 0

    def test_wipe_discards_volatile_state_but_keeps_the_wal(self):
        run = materialize(_durable_scenario())
        run.run()
        node = _height1_node(run.deployment)
        assert len(node.ledger) > 0
        appended_before = node.wal.appended_total
        node.wipe()
        assert node.crashed
        assert len(node.ledger) == 0
        assert node.wal.appended_total == appended_before
        assert node.wiped_total == 1


# ---------------------------------------------------------------------------
# Catch-up peer rotation and timeout backoff
# ---------------------------------------------------------------------------


class TestCatchUpRotation:
    def test_dead_peers_rotate_with_capped_backoff_then_rejoin(self):
        run = materialize(_durable_scenario())
        deployment = run.deployment
        node = _height1_node(deployment, node_index=2)
        peers = [
            peer
            for peer in deployment.nodes_of(node.domain.id)
            if peer.address != node.address
        ]
        for peer in peers:
            peer.crash()
        node.wipe()
        node.recover()
        manager = node.recovery
        assert manager.active
        first_queries = manager.queries_sent
        assert first_queries == 1
        # With every peer dead each query times out; attempts rotate peers
        # and the per-attempt timeout doubles up to the cap.
        deployment.simulator.run(until_ms=deployment.simulator.now + 2000.0)
        assert manager.active  # still trying — nobody can answer
        assert manager.queries_sent >= 5
        assert manager._timeout_ms == CATCHUP_TIMEOUT_MAX_MS
        # One peer coming back is enough: it answers (nothing decided), the
        # recovering node learns it is already caught up, and rejoins.
        peers[0].recover()
        deployment.simulator.run(until_ms=deployment.simulator.now + 2000.0)
        assert not manager.active
        assert not manager.pending
        assert manager.recoveries_completed == 1
        assert len(run.trace.events("recovery:rejoin")) == 1

    def test_timeouts_start_at_the_base_value(self):
        assert CATCHUP_TIMEOUT_MS == 50.0
        assert CATCHUP_TIMEOUT_MAX_MS == 400.0


# ---------------------------------------------------------------------------
# Recovery under adversity (satellite 3)
# ---------------------------------------------------------------------------


class TestRecoveryUnderAdversity:
    def test_wiping_the_pbft_primary_mid_batch_recovers(self):
        plan = FaultPlan(
            name="wipe-primary",
            actions=(
                FaultAction(
                    kind="wipe", at_ms=60.0, domain="D11", node=0, until_ms=160.0
                ),
            ),
        )
        scenario = _durable_scenario(
            num_transactions=96,
            num_clients=8,
            batch_size=4,
            batch_timeout_ms=2.0,
            fault_plan=plan,
        )
        run = ScenarioRunner(check_invariants=True).execute(scenario)
        assert run.summary is not None
        assert run.summary.committed == 96
        assert run.summary.pending == 0
        rejoined = {e.node for e in run.trace.events("recovery:rejoin")}
        assert "D11/n0" in rejoined

    def test_wipe_during_catchup_restarts_recovery(self):
        # The second wipe lands 0.2 ms after the first recover — while the
        # first catch-up exchange is still in flight — so the first attempt
        # is abandoned and the recovery after the second outage must redo
        # replay and catch-up from scratch.
        plan = FaultPlan(
            name="wipe-during-catchup",
            actions=(
                FaultAction(
                    kind="wipe", at_ms=50.0, domain="D12", node=1, until_ms=120.0
                ),
                FaultAction(
                    kind="wipe", at_ms=120.2, domain="D12", node=1, until_ms=200.0
                ),
            ),
        )
        scenario = _durable_scenario(
            num_transactions=96, num_clients=8, fault_plan=plan
        )
        run = ScenarioRunner(check_invariants=True).execute(scenario)
        assert run.summary is not None
        assert run.summary.committed == 96
        wipes = [e for e in run.trace.events("fault:wipe") if e.node == "D12/n1"]
        rejoins = [
            e for e in run.trace.events("recovery:rejoin") if e.node == "D12/n1"
        ]
        assert len(wipes) == 2
        assert rejoins, "the node never completed recovery"
        assert rejoins[-1].at_ms > 200.0

    @pytest.mark.parametrize("figure", ["fig07a", "fig10a"])
    def test_durability_off_vs_on_outcomes_match_across_seeds(self, figure):
        runner = ScenarioRunner(check_invariants=True, parallel=2)
        base = registry.get(figure).with_overrides(
            num_transactions=24, num_clients=4, seeds=tuple(range(10))
        )
        durable = base.with_overrides(
            durability=True, wal_sync_ms=0.05, checkpoint_interval=8
        )
        for off, on in zip(runner.run(base), runner.run(durable)):
            assert on.seed == off.seed
            assert on.summary.committed == off.summary.committed, off.seed
            assert on.summary.aborted == off.summary.aborted, off.seed
            assert on.summary.pending == off.summary.pending, off.seed


# ---------------------------------------------------------------------------
# time_to_rejoin_ms reporting (satellite 4)
# ---------------------------------------------------------------------------


class TestTimeToRejoinReporting:
    def test_no_fault_run_reports_nothing(self):
        run = materialize(_durable_scenario())
        result = run.run()
        assert result.time_to_rejoin_ms == ()
        assert "time_to_rejoin_ms" not in result.to_dict()

    def test_wipe_run_reports_the_outage_and_round_trips(self):
        plan = FaultPlan(
            name="one-wipe",
            actions=(
                FaultAction(
                    kind="wipe", at_ms=40.0, domain="D13", node=2, until_ms=90.0
                ),
            ),
        )
        run = materialize(_durable_scenario(num_transactions=96, fault_plan=plan))
        result = run.run()
        assert len(result.time_to_rejoin_ms) == 1
        node, delta = result.time_to_rejoin_ms[0]
        assert node == "D13/n2"
        # The delta covers the whole outage (50 ms) plus the catch-up.
        assert 50.0 <= delta < 500.0
        payload = result.to_dict()
        assert payload["time_to_rejoin_ms"] == [[node, delta]] or payload[
            "time_to_rejoin_ms"
        ] == [(node, delta)]
        assert RunResult.from_dict(payload) == result


# ---------------------------------------------------------------------------
# The churn sweep (tentpole acceptance) and the recovery-safety invariant
# ---------------------------------------------------------------------------


class TestChurnSweep:
    def test_every_replica_is_wiped_and_every_wipe_rejoins(self):
        run = ScenarioRunner(check_invariants=True).execute(
            registry.get("churn-sweep")
        )
        assert run.summary is not None
        assert run.summary.committed == 128
        assert run.summary.pending == 0
        trace = run.trace
        wiped = {e.node for e in trace.events("fault:wipe")}
        every_replica = {
            node.address
            for domain in run.deployment.hierarchy.height1_domains()
            for node in run.deployment.nodes_of(domain.id)
        }
        assert wiped == every_replica
        assert len(trace.events("fault:wipe")) == 17
        assert len(trace.events("recovery:rejoin")) == 17

    def test_recovery_safety_is_among_the_checks_run(self):
        run = ScenarioRunner(check_invariants=False).execute(
            registry.get("churn-sweep-primaries")
        )
        report = InvariantChecker(run.deployment, trace=run.trace).check()
        assert "recovery-safety" in report.checks_run
        assert report.ok, [str(v) for v in report.violations]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="finding E: a wipe drops the lazy-propagation round timer for good",
)
def test_lazy_propagation_resumes_after_a_wipe():
    """Parents keep receiving the ledgers of children whose replicas were wiped.

    The generation guard of ``SaguaroNode.set_timer`` disarms the
    self-re-arming round timer of ``LazyPropagation`` at a wipe and nothing
    re-arms it at rejoin, so once every replica of a height-1 domain has
    been wiped its parent hears no more blocks from it.  Rounds with nothing
    new are not sent, so the pin counts content, not rounds: without faults
    every entry of each child's ledger reaches its parent's DAG; under churn
    71-74 of each child's 75 never do.
    """

    def missing_from_parents(name):
        run = materialize(registry.get(name).with_overrides(num_transactions=300))
        run.run()
        deployment = run.deployment
        missing = {}
        for child in deployment.hierarchy.height1_domains():
            dag = deployment.primary_node_of(
                deployment.hierarchy.parent_of(child.id).id
            ).dag
            ledger = deployment.ledger_of(child.id).committed_order()
            assert ledger, child.id.name
            missing[child.id.name] = sum(tid not in dag for tid in ledger)
        return missing

    baseline = missing_from_parents("churn-sweep-nofault")
    assert set(baseline.values()) == {0}, baseline
    churned = missing_from_parents("churn-sweep")
    assert set(churned.values()) == {0}, churned


class TestRecoverySafetyOnForgedTraces:
    """The checker must *flag* broken recoveries, not just pass clean ones."""

    def _checker(self, forged: TraceRecorder) -> InvariantChecker:
        run = materialize(_durable_scenario())
        return InvariantChecker(run.deployment, trace=forged)

    def _trace(self) -> TraceRecorder:
        return TraceRecorder()

    def test_rejoin_without_any_recovery_is_flagged(self):
        forged = self._trace()
        forged.record("recovery:rejoin", at_ms=10.0, domain="D11", node="D11/n0")
        report = self._checker(forged).check()
        assert any(
            "without replay" in str(v) for v in report.of("recovery-safety")
        )

    def test_catchup_before_replay_is_flagged(self):
        forged = self._trace()
        forged.record("fault:wipe", at_ms=5.0, domain="D11", node="D11/n0")
        forged.record("recovery:catchup", at_ms=9.0, domain="D11", node="D11/n0")
        report = self._checker(forged).check()
        assert any(
            "before any replay" in str(v) for v in report.of("recovery-safety")
        )

    def test_recovered_node_that_never_rejoins_is_flagged(self):
        forged = self._trace()
        forged.record("fault:wipe", at_ms=5.0, domain="D11", node="D11/n0")
        forged.record("fault:recover", at_ms=20.0, domain="D11", node="D11/n0")
        forged.record("recovery:replay", at_ms=20.0, domain="D11", node="D11/n0")
        report = self._checker(forged).check()
        assert any(
            "never reached recovery:rejoin" in str(v)
            for v in report.of("recovery-safety")
        )

    def test_conflicting_votes_across_a_wipe_are_flagged(self):
        forged = self._trace()
        forged.record("fault:wipe", at_ms=5.0, domain="D11", node="D11/n0")
        forged.record(
            "commit-vote", at_ms=8.0, domain="D11", node="D11/n0",
            slot=3, view=0, digest=b"payload-one",
        )
        forged.record(
            "commit-vote", at_ms=9.0, domain="D11", node="D11/n0",
            slot=3, view=0, digest=b"payload-two",
        )
        report = self._checker(forged).check()
        assert any(
            "2 different payloads" in str(v) for v in report.of("recovery-safety")
        )

    def test_a_legal_recovery_sequence_is_clean(self):
        forged = self._trace()
        node = "D11/n0"
        forged.record("fault:wipe", at_ms=5.0, domain="D11", node=node)
        forged.record("fault:recover", at_ms=20.0, domain="D11", node=node)
        forged.record("recovery:replay", at_ms=20.0, domain="D11", node=node)
        forged.record("recovery:catchup", at_ms=21.0, domain="D11", node=node)
        forged.record("recovery:rejoin", at_ms=22.0, domain="D11", node=node)
        report = self._checker(forged).check()
        assert report.of("recovery-safety") == []
