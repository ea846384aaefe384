"""Speculative out-of-order execution with in-order commit (the PR 8 tentpole).

Four halves, mirroring the sharding test layout:

* :class:`Batch` caches its declared keys and speculability at construction;
* :class:`DecisionLog` unit behavior — ordered release, gap bookkeeping,
  payload lookups, and the speculation window (marks and watermarks);
* randomized differential — speculation on vs off must agree outcome for
  outcome on fault-free scenarios (no stalls, so nothing to speculate past);
* hostile runs with speculation armed pass full invariant checking, and the
  speculation-safety invariant *catches* forged wrong-speculation traces
  (otherwise "passing" means nothing).

``speculation=False`` staying bit-identical to the pre-change seed is pinned in
``tests/test_goldens.py``.
"""

import json
from dataclasses import dataclass

import pytest

from types import SimpleNamespace

from repro.common.types import DomainId, FailureModel, TransactionKind
from repro.consensus.base import Batch, DecisionLog
from repro.faults import InvariantChecker, TraceRecorder
from repro.faults.plan import FaultAction, FaultPlan
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction
from repro.scenarios import ScenarioRunner, registry
from tests.conftest import cross_transfer, internal_transfer, make_tid
from tests.test_consensus import _Bus, _FakeHost, _make_domain

D11 = DomainId(1, 1)
D12 = DomainId(1, 2)


@dataclass(frozen=True)
class _Entry:
    """A minimal consensus submission: just the transaction it carries."""

    transaction: Transaction


# ---------------------------------------------------------------------------
# Batch: declared keys and speculability are cached at construction
# ---------------------------------------------------------------------------


class TestBatchFootprint:
    def test_declared_keys_cached_and_deduplicated(self):
        a = internal_transfer(D11, 0, 1)
        b = internal_transfer(D11, 1, 2)
        batch = Batch((_Entry(a), _Entry(b)))
        assert batch.speculable
        expected = tuple(
            dict.fromkeys(
                a.read_keys + a.write_keys + b.read_keys + b.write_keys
            )
        )
        assert batch.declared_keys == expected
        # The attributes are plain cached tuples/bools, not recomputed views.
        assert batch.declared_keys is batch.declared_keys

    def test_cross_domain_entry_disables_speculation(self):
        a = internal_transfer(D11)
        x = cross_transfer((D11, D12))
        batch = Batch((_Entry(a), _Entry(x)))
        assert not batch.speculable
        # The cross entry's keys still count toward the declared footprint.
        for key in x.read_keys:
            assert key in batch.declared_keys

    def test_opaque_entry_disables_speculation(self):
        batch = Batch((_Entry(internal_transfer(D11)), "opaque-payload"))
        assert not batch.speculable


# ---------------------------------------------------------------------------
# DecisionLog: ordered release, gaps, and the speculation window
# ---------------------------------------------------------------------------


class TestDecisionLog:
    def _log(self):
        delivered = []
        log = DecisionLog(lambda slot, payload: delivered.append((slot, payload)))
        return log, delivered

    def test_in_order_decisions_deliver_immediately(self):
        log, delivered = self._log()
        log.record(1, "a")
        log.record(2, "b")
        assert delivered == [(1, "a"), (2, "b")]
        assert log.delivered_count == 2
        assert log.commit_watermark == 2
        assert log.next_slot_to_deliver == 3
        assert not log.has_gap
        assert log.pending_slots() == ()

    def test_out_of_order_slots_wait_for_the_gap(self):
        log, delivered = self._log()
        log.record(3, "c")
        log.record(2, "b")
        assert delivered == []
        assert log.has_gap
        assert log.pending_slots() == (2, 3)
        assert log.is_decided(2) and log.is_decided(3)
        assert not log.is_decided(1)
        log.record(1, "a")
        assert delivered == [(1, "a"), (2, "b"), (3, "c")]
        assert not log.has_gap
        assert log.delivered_count == 3

    def test_record_is_idempotent(self):
        log, delivered = self._log()
        log.record(1, "a")
        log.record(1, "a-again")
        log.record(2, "b")
        log.record(2, "b-again")
        assert delivered == [(1, "a"), (2, "b")]

    def test_payload_of_boundaries(self):
        log, _ = self._log()
        log.record(1, "a")
        log.record(3, "c")
        assert log.payload_of(0) is None
        assert log.payload_of(1) == "a"  # delivered: indexed lookup
        assert log.payload_of(2) is None  # undecided gap
        assert log.payload_of(3) == "c"  # decided, undelivered
        assert log.payload_of(4) is None

    def test_speculation_window_marks_and_watermarks(self):
        log, _ = self._log()
        log.record(1, "a")
        log.record(3, "c")
        log.record(4, "d")
        assert log.spec_watermark == log.commit_watermark == 1
        log.mark_speculated(3)
        log.mark_speculated(4)
        assert log.is_speculated(3) and log.is_speculated(4)
        assert log.speculated_slots == (3, 4)
        assert log.spec_watermark == 4
        log.unmark_speculated(4)
        assert log.speculated_slots == (3,)
        assert log.spec_watermark == 3
        log.unmark_speculated(3)
        log.unmark_speculated(3)  # unmarking twice is harmless
        assert log.speculated_slots == ()
        assert log.spec_watermark == log.commit_watermark == 1


# ---------------------------------------------------------------------------
# Engine white-box: speculate-then-commit and the rollback path
# ---------------------------------------------------------------------------


class _SpecHost(_FakeHost):
    """A consensus host with a state store and the speculation hooks.

    ``speculative_execute`` writes a per-transaction marker into the store
    (capturing per-key undo exactly like the real node layer), so the tests
    can observe out-of-order application and its unwinding directly.
    """

    def __init__(self, domain, index, bus):
        self.state = StateStore(name=f"spec-host-{index}", shards=8)
        self.config = SimpleNamespace(
            speculation=True, batch_size=1, batch_timeout_ms=1.0
        )
        self.unwound = []
        super().__init__(domain, index, bus)

    def speculative_execute(self, transaction):
        undo = {}
        for key in transaction.write_keys:
            undo[key] = (key in self.state, self.state.get(key))
            self.state.put(key, f"spec:{transaction.tid.name}")
        return undo

    def speculative_unwind(self, transaction, undo):
        self.unwound.append(transaction.tid)
        for key, (existed, old_value) in undo.items():
            if existed:
                self.state.put(key, old_value)
            else:
                self.state.remove(key)


def _key_tx(domain_id, key):
    return Transaction(
        tid=make_tid(),
        kind=TransactionKind.INTERNAL,
        involved_domains=(domain_id,),
        payload={"op": "set", "key": key},
        read_keys=(key,),
        write_keys=(key,),
    )


def _seed_pending(engine, slot, payload):
    """Plant ``payload`` as the engine's best-known payload of an undecided
    slot, whatever replica-side store the engine keeps it in."""
    for attr in ("_payloads", "_accepted_payload", "_proposals"):
        store = getattr(engine, attr, None)
        if store is not None:
            store[slot] = payload


@pytest.mark.parametrize(
    "model", [FailureModel.CRASH, FailureModel.BYZANTINE]
)
class TestSpeculativeEngine:
    def _host(self, model):
        bus = _Bus()
        domain = _make_domain(model)
        host = _SpecHost(domain, 1, bus)  # a replica: decisions come to it
        state = host.state
        keys = iter("abcdefghijklmnop")
        first = next(keys)
        second = next(
            k for k in keys if state.shards_of((k,)) != state.shards_of((first,))
        )
        return host, domain.id, first, second

    def test_disjoint_slot_speculates_and_commits_in_order(self, model):
        host, domain_id, key_a, key_b = self._host(model)
        engine = host.engine
        batch1 = Batch((_Entry(_key_tx(domain_id, key_a)),))
        batch2 = Batch((_Entry(_key_tx(domain_id, key_b)),))
        _seed_pending(engine, 1, batch1)
        engine._record_decision(2, batch2)
        # Slot 2 ran out of order: state applied, delivery still held back.
        assert engine._log.is_speculated(2)
        assert host.state.get(key_b) is not None
        assert host.decisions == []
        engine._record_decision(1, batch1)
        # The gap closed: both slots delivered in order, speculation resolved.
        assert [slot for slot, _ in host.decisions] == [1, 2]
        assert not engine._log.is_speculated(2)
        assert engine._spec_records == {}
        assert host.unwound == []

    def test_overlapping_decided_payload_rolls_the_speculation_back(self, model):
        host, domain_id, key_a, key_b = self._host(model)
        engine = host.engine
        pending = Batch((_Entry(_key_tx(domain_id, key_a)),))
        speculated = Batch((_Entry(_key_tx(domain_id, key_b)),))
        _seed_pending(engine, 1, pending)
        engine._record_decision(2, speculated)
        assert engine._log.is_speculated(2)
        # Slot 1 decides with a DIFFERENT payload than the scan saw (an
        # equivocation outcome) that overlaps the speculated footprint.
        decided = Batch((_Entry(_key_tx(domain_id, key_b)),))
        engine._record_decision(1, decided)
        # The speculation was unwound before in-order delivery took over.
        assert host.unwound == [speculated.entries[0].transaction.tid]
        assert host.state.get(key_b) != (
            f"spec:{speculated.entries[0].transaction.tid.name}"
        )
        assert [slot for slot, _ in host.decisions] == [1, 2]
        assert engine._spec_records == {}
        assert not engine._log.is_speculated(2)

    def test_overlapping_pending_footprint_blocks_speculation(self, model):
        host, domain_id, key_a, _ = self._host(model)
        engine = host.engine
        pending = Batch((_Entry(_key_tx(domain_id, key_a)),))
        overlapping = Batch((_Entry(_key_tx(domain_id, key_a)),))
        _seed_pending(engine, 1, pending)
        engine._record_decision(2, overlapping)
        assert not engine._log.is_speculated(2)
        assert host.state.get(key_a) is None

    def test_unknown_pending_payload_blocks_speculation(self, model):
        host, domain_id, _, key_b = self._host(model)
        engine = host.engine
        batch2 = Batch((_Entry(_key_tx(domain_id, key_b)),))
        # No pending payload seeded for slot 1: its footprint is unknown
        # (universal), so nothing past it may run early.
        engine._record_decision(2, batch2)
        assert not engine._log.is_speculated(2)
        assert host.state.get(key_b) is None


# ---------------------------------------------------------------------------
# Randomized differential: speculation on == off on fault-free runs
# ---------------------------------------------------------------------------

#: ~10 seeds spread across an internal-heavy figure, the wide-area figure,
#: and the batched+sharded sweep point (wide batches never speculate; the
#: knob must still be a no-op there).
_DIFFERENTIAL_CASES = (
    [("fig07a", seed) for seed in (2023, 2024, 2025)]
    + [("fig10a", seed) for seed in (2023, 2024)]
    + [("shard-sweep-s016", seed) for seed in (2023, 2024, 2025, 2026, 2027)]
)


@pytest.mark.parametrize("name,seed", _DIFFERENTIAL_CASES)
def test_speculation_on_and_off_agree(name, seed):
    """Without decision gaps there is nothing to speculate past, so arming
    speculation must not change any outcome: same results, same balances,
    and the armed run passes full invariant checking."""
    base = registry.get(name).with_overrides(
        num_transactions=24, num_clients=4, seed=seed
    )
    runner = ScenarioRunner()
    off = runner.execute(base)
    on = runner.execute(base.with_overrides(speculation=True))
    assert json.dumps(off.run().to_dict(), sort_keys=True) == json.dumps(
        on.run().to_dict(), sort_keys=True
    )
    for domain in off.deployment.hierarchy.height1_domains():
        off_state = off.deployment.state_of(domain.id)
        on_state = on.deployment.state_of(domain.id)
        assert on_state.snapshot() == off_state.snapshot()
    on.check_invariants()


# ---------------------------------------------------------------------------
# Adversity: hostile runs with speculation armed stay invariant-clean
# ---------------------------------------------------------------------------


class TestSpeculationUnderAdversity:
    @pytest.mark.parametrize("name", ["byz-equivocation", "byz-partition-flap"])
    def test_hostile_runs_pass_invariants_with_speculation_on(self, name):
        scenario = registry.get(name).with_overrides(
            speculation=True, state_shards=64, batch_size=4, batch_timeout_ms=2.0
        )
        run = ScenarioRunner(check_invariants=True).execute(scenario)
        assert run.summary is not None
        assert run.summary.pending == 0
        # The fault plan actually fired: its arming left trace evidence.
        assert run.trace.events_with_prefix("fault:")

    @pytest.mark.parametrize(
        "label,extra",
        [
            (
                "equivocate",
                (
                    FaultAction(
                        kind="equivocate", at_ms=10.0, domain="D11", until_ms=800.0
                    ),
                ),
            ),
            (
                "crash",
                (
                    FaultAction(kind="crash", at_ms=100.0, domain="D12", node=2),
                    FaultAction(kind="recover", at_ms=500.0, domain="D12", node=2),
                ),
            ),
        ],
    )
    def test_adversary_mid_speculation_stays_invariant_clean(self, label, extra):
        """Stalls keep opening gaps (so speculation genuinely fires) while the
        adversary equivocates or crashes nodes mid-speculation."""
        base = registry.get("pipeline-sweep-on").with_overrides(
            num_transactions=120, num_clients=24
        )
        plan = FaultPlan(
            name=f"pipeline-{label}", actions=base.fault_plan.actions + extra
        )
        run = ScenarioRunner(check_invariants=True).execute(
            base.with_overrides(name=f"pipeline-{label}", fault_plan=plan)
        )
        assert run.summary is not None
        assert run.summary.pending == 0
        assert run.trace.events("spec:deliver"), "speculation never fired"
        # Every speculation resolved: commits + rollbacks account for them.
        delivers = len(run.trace.events("spec:deliver"))
        resolved = len(run.trace.events("spec:commit")) + len(
            run.trace.events("spec:rollback")
        )
        assert resolved == delivers


# ---------------------------------------------------------------------------
# Checker self-tests: forged wrong-speculation traces must be caught
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def spec_run():
    """One executed, invariant-checked speculative run (stalled slots force
    real spec events), shared by the self-tests below."""
    scenario = registry.get("pipeline-sweep-on").with_overrides(
        num_transactions=60, num_clients=12
    )
    run = ScenarioRunner().execute(scenario)
    report = run.check_invariants()
    assert report.ok
    assert run.trace.events_with_prefix("spec:"), "speculation never fired"
    return run


class TestSpeculationSafetySelfTest:
    """Forge spec traces against a real deployment; expect violations."""

    def _forged(self, run):
        deployment = run.deployment
        domain = deployment.hierarchy.height1_domains()[0]
        node = deployment.nodes_of(domain.id)[0].address
        return deployment, domain.id.name, node, TraceRecorder()

    def test_real_speculative_run_passes_the_safety_check(self, spec_run):
        report = InvariantChecker(
            spec_run.deployment, trace=spec_run.trace
        ).check()
        assert "speculation-safety" in report.checks_run
        assert not report.of("speculation-safety")

    def test_double_speculative_delivery_is_detected(self, spec_run):
        deployment, domain, node, trace = self._forged(spec_run)
        trace.record("spec:deliver", at_ms=1.0, domain=domain, node=node, slot=4)
        trace.record("spec:deliver", at_ms=2.0, domain=domain, node=node, slot=4)
        report = InvariantChecker(deployment, trace=trace).check()
        assert any(
            "without a rollback" in v.detail
            for v in report.of("speculation-safety")
        )

    def test_rollback_without_open_speculation_is_detected(self, spec_run):
        deployment, domain, node, trace = self._forged(spec_run)
        trace.record("spec:rollback", at_ms=1.0, domain=domain, node=node, slot=4)
        report = InvariantChecker(deployment, trace=trace).check()
        assert any(
            "rollback without an open speculation" in v.detail
            for v in report.of("speculation-safety")
        )

    def test_commit_without_open_speculation_is_detected(self, spec_run):
        deployment, domain, node, trace = self._forged(spec_run)
        trace.record("spec:commit", at_ms=1.0, domain=domain, node=node, slot=4)
        report = InvariantChecker(deployment, trace=trace).check()
        assert any(
            "commit without an open speculation" in v.detail
            for v in report.of("speculation-safety")
        )

    def test_rollback_after_in_order_delivery_is_detected(self, spec_run):
        deployment, domain, node, trace = self._forged(spec_run)
        trace.record("spec:deliver", at_ms=1.0, domain=domain, node=node, slot=4)
        trace.record("batch-decide", at_ms=2.0, domain=domain, node=node, slot=4)
        trace.record("spec:rollback", at_ms=3.0, domain=domain, node=node, slot=4)
        report = InvariantChecker(deployment, trace=trace).check()
        assert any(
            "after the slot's in-order delivery" in v.detail
            for v in report.of("speculation-safety")
        )

    def test_tampered_replica_state_fails_the_replay(self, spec_run):
        deployment, domain, node_address, trace = self._forged(spec_run)
        # A legal (deliver, commit) pair arms the check without exempting
        # any node from the serial-replay comparison.
        trace.record(
            "spec:deliver", at_ms=1.0, domain=domain, node=node_address, slot=4
        )
        trace.record(
            "spec:commit", at_ms=2.0, domain=domain, node=node_address, slot=4
        )
        target = deployment.nodes_of(
            deployment.hierarchy.height1_domains()[0].id
        )[1]
        key = sorted(target.state.snapshot())[0]
        original = target.state.get(key)
        try:
            target.state.put(key, original + 777.0)
            report = InvariantChecker(deployment, trace=trace).check()
            assert any(
                "serial in-order replay" in v.detail
                for v in report.of("speculation-safety")
            )
        finally:
            target.state.put(key, original)

    def test_dangling_speculation_exempts_only_that_node(self, spec_run):
        deployment, domain, node_address, trace = self._forged(spec_run)
        # An unresolved speculation on one node: its state legitimately holds
        # uncommitted effects, so tampering with it must NOT be flagged...
        trace.record(
            "spec:deliver", at_ms=1.0, domain=domain, node=node_address, slot=9
        )
        dangling = deployment.nodes_of(
            deployment.hierarchy.height1_domains()[0].id
        )[0]
        assert dangling.address == node_address
        key = sorted(dangling.state.snapshot())[0]
        original = dangling.state.get(key)
        try:
            dangling.state.put(key, original + 777.0)
            report = InvariantChecker(deployment, trace=trace).check()
            assert not any(
                dangling.address in v.detail
                for v in report.of("speculation-safety")
            )
        finally:
            dangling.state.put(key, original)
