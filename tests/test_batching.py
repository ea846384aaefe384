"""The batched ordering core: Batcher mechanics, spec knobs, safety.

Three layers of coverage:

* unit tests for :class:`~repro.consensus.base.Batch` /
  :class:`~repro.consensus.base.Batcher` (size trigger, timeout trigger,
  ``batch_size=1`` passthrough, deposed-primary drop, timer hygiene);
* the scenario-spec surface (validation, JSON round-trip, builder, sweeps);
* adversarial coverage: every registered ``byz-*`` fault-plan scenario runs
  with ``batch_size > 1`` under full invariant checking (including the new
  batch-atomicity invariant).

The golden pins (``batch_size=1`` == the pre-refactor engines, bit for bit)
live in ``tests/test_goldens.py``.
"""

import json

import pytest

from repro.common.config import DeploymentConfig
from repro.consensus.base import Batch, Batcher, payload_digest_of
from repro.errors import ConsensusError, NotPrimaryError
from repro.scenarios import ScenarioRunner, registry
from repro.sim.simulator import Simulator


# ---------------------------------------------------------------------------
# Unit level: Batch
# ---------------------------------------------------------------------------


def test_batch_digest_is_order_sensitive_and_stable():
    first = Batch(("a", "b"))
    second = Batch(("a", "b"))
    reordered = Batch(("b", "a"))
    assert first.canonical_bytes() == second.canonical_bytes()
    assert first == second
    assert first.canonical_bytes() != reordered.canonical_bytes()
    assert len(first) == 2
    assert list(first) == ["a", "b"]
    assert len(first.entry_ids) == 2
    assert first.entry_ids[0] == payload_digest_of("a").hex()[:16]


def test_empty_batch_is_rejected():
    with pytest.raises(ConsensusError):
        Batch(())


def test_batch_transaction_ids_flatten_nested_batches():
    class _Tid:
        def __init__(self, name):
            self.name = name

    class _Tx:
        def __init__(self, name):
            self.tid = _Tid(name)

    class _Single:
        def __init__(self, name):
            self.transaction = _Tx(name)

    class _Many:
        def __init__(self, *names):
            self.transactions = tuple(_Tx(name) for name in names)

    batch = Batch((_Single("t1"), _Many("t2", "t3"), _Single("t4")))
    assert batch.transaction_ids() == ("t1", "t2", "t3", "t4")


# ---------------------------------------------------------------------------
# Unit level: Batcher driven by a stub engine on a real simulator
# ---------------------------------------------------------------------------


class _StubEngine:
    """Just enough engine surface for the Batcher: propose + timers + trace."""

    def __init__(self, simulator, primary=True):
        self.simulator = simulator
        self.is_primary = primary
        self.proposed = []

        class _Domain:
            name = "D11"

        self.domain = _Domain()

        class _Host:
            address = "D11:n0"

            def set_timer(host_self, delay_ms, callback):
                return simulator.set_timer(delay_ms, callback)

        self._host = _Host()

    def propose(self, payload):
        self.proposed.append(payload)
        return len(self.proposed)

    def _trace(self, kind, slot, **detail):
        pass


def test_batcher_size_one_is_direct_passthrough():
    simulator = Simulator()
    engine = _StubEngine(simulator)
    batcher = Batcher(engine, batch_size=1)
    assert batcher.submit("p1") == 1
    assert engine.proposed == ["p1"]  # raw payload, no Batch wrapper
    assert batcher.pending_count == 0


def test_batcher_flushes_when_batch_fills():
    simulator = Simulator()
    engine = _StubEngine(simulator)
    batcher = Batcher(engine, batch_size=3, batch_timeout_ms=50.0)
    assert batcher.submit("p1") is None
    assert batcher.submit("p2") is None
    assert batcher.submit("p3") == 1
    assert engine.proposed == [Batch(("p1", "p2", "p3"))]
    assert batcher.flush_counts == (1, 0)
    # The armed timeout must have been cancelled: nothing left to run.
    simulator.run_until_idle()
    assert engine.proposed == [Batch(("p1", "p2", "p3"))]


def test_batcher_flushes_underfilled_batch_on_timeout():
    simulator = Simulator()
    engine = _StubEngine(simulator)
    batcher = Batcher(engine, batch_size=32, batch_timeout_ms=5.0)
    batcher.submit("p1")
    batcher.submit("p2")
    assert engine.proposed == []
    simulator.run_until_idle()
    assert engine.proposed == [Batch(("p1", "p2"))]
    assert batcher.flush_counts == (0, 1)


def test_batcher_rejects_submissions_on_non_primary():
    simulator = Simulator()
    engine = _StubEngine(simulator, primary=False)
    batcher = Batcher(engine, batch_size=4)
    with pytest.raises(NotPrimaryError):
        batcher.submit("p1")


def test_batcher_drops_pending_payloads_when_deposed():
    simulator = Simulator()
    engine = _StubEngine(simulator)
    batcher = Batcher(engine, batch_size=8, batch_timeout_ms=5.0)
    batcher.submit("p1")
    engine.is_primary = False  # view change before the timeout fires
    simulator.run_until_idle()
    assert engine.proposed == []
    assert batcher.pending_count == 0


def test_batcher_validates_its_knobs():
    engine = _StubEngine(Simulator())
    with pytest.raises(ConsensusError):
        Batcher(engine, batch_size=0)
    with pytest.raises(ConsensusError):
        Batcher(engine, batch_size=2, batch_timeout_ms=0.0)


def test_batch_timeout_timers_do_not_leak_heap_entries():
    """Re-armed batch timeouts must not accumulate dead events (satellite).

    Every size-triggered flush cancels the pending timeout; over a long run
    the simulator heap must stay bounded instead of carrying one cancelled
    timer per batch.
    """
    simulator = Simulator()
    engine = _StubEngine(simulator)
    batcher = Batcher(engine, batch_size=4, batch_timeout_ms=5.0)
    for round_number in range(2_000):
        for item in range(4):
            batcher.submit(f"p{round_number}:{item}")
    assert len(engine.proposed) == 2_000
    # 2000 armed-then-cancelled timers: the compacting queue must have
    # dropped almost all of them (bound is the compaction threshold, not
    # the number of batches).
    assert simulator._queue.heap_size < 200


# ---------------------------------------------------------------------------
# Spec surface
# ---------------------------------------------------------------------------


def test_batch_size_sweeps_through_overrides():
    base = registry.get("fig07a")
    derived = base.with_overrides(batch_size=8, batch_timeout_ms=2.0)
    assert derived.batch_size == 8
    assert derived.batch_timeout_ms == 2.0
    assert base.batch_size == 1  # default untouched


def test_batch_sweep_family_is_registered():
    assert registry.get("batch-sweep").batch_size == 1
    for size in registry.BATCH_SWEEP_SIZES:
        scenario = registry.get(f"batch-sweep-b{size:03d}")
        assert scenario.batch_size == size
        assert scenario.workload.cross_domain_ratio == 0.0


# ---------------------------------------------------------------------------
# Adversarial: byz-* fault plans with batching + full invariant checking
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", registry.ADVERSARIAL_SCENARIOS)
def test_adversarial_scenarios_stay_safe_with_batching(name):
    scenario = registry.get(name).with_overrides(
        num_transactions=32, num_clients=6, batch_size=2, batch_timeout_ms=2.0
    )
    run = ScenarioRunner(check_invariants=True).execute(scenario)
    assert run.summary is not None
    report = run.check_invariants()
    assert report.ok
    assert "batch-atomicity" in report.checks_run


def test_batched_equivocation_storm_stays_fixed():
    """byz-equivocation at ``batch_size=2`` is the historical event storm.

    A replica that adopted the equivocating primary's forged payload used to
    refuse the honest decide echo forever; the stuck transaction kept the
    closed-loop client (and with it the whole run) alive to the simulated-time
    cap, and the block-propagation rounds amplified the idle time into ~7M
    events over ~150 wall seconds.  With the f+1 distinct-echo override the
    run completes in milliseconds.  Gate events-per-committed-transaction so
    any regression on the storming path fails loudly instead of timing out CI:
    the fixed run measures ~330 events/tx, the storm measured ~65,000.
    """
    scenario = registry.get("byz-equivocation").with_overrides(
        num_transactions=32, num_clients=6, batch_size=2, batch_timeout_ms=2.0
    )
    run = ScenarioRunner(check_invariants=True).execute(scenario)
    summary = run.summary
    assert summary is not None and summary.committed > 0
    assert summary.pending == 0
    events_per_tx = len(run.trace) / summary.committed
    assert events_per_tx < 2000, (
        f"byz-equivocation @ batch_size=2 regressed: "
        f"{events_per_tx:.0f} trace events per committed transaction"
    )
    # The storm's signature was a wedged replica re-querying forever: the
    # honest echoes must win within a handful of observations per forgery.
    kinds = run.trace.kinds()
    assert kinds.get("echo-adopt", 0) > 0
    assert kinds.get("equivocation-observed", 0) < 200


def test_batched_run_emits_batch_events_and_checks_atomicity():
    scenario = registry.get("fig07a").with_overrides(
        num_transactions=48, num_clients=8, batch_size=8
    )
    run = ScenarioRunner(check_invariants=True).execute(scenario)
    kinds = run.trace.kinds()
    assert kinds.get("batch-propose", 0) > 0
    assert kinds.get("batch-decide", 0) > 0
    sizes = [event.get("size") for event in run.trace.events("batch-decide")]
    assert any(size and size > 1 for size in sizes)
    report = run.check_invariants()
    assert report.ok and "batch-atomicity" in report.checks_run


def test_batch_atomicity_checker_flags_torn_batches():
    """Self-test: forged traces with torn batches must be caught.

    Two forgeries over one real batched run: (a) a batch whose decide-time
    appends happened in the wrong order (its ``tids`` reversed), and (b) a
    batch whose appends interleave with a foreign append (an unrelated
    same-node append retimed into the middle of the batch's run).
    """
    from repro.faults.invariants import InvariantChecker
    from repro.faults.trace import TraceRecorder

    scenario = registry.get("fig07a").with_overrides(
        num_transactions=48, num_clients=8, batch_size=8
    )
    run = ScenarioRunner().execute(scenario)

    def decide_time_appends(event):
        tids = set(event.get("tids", ()))
        return [
            e for e in run.trace.events("append")
            if e.node == event.node and e.at_ms == event.at_ms and e.tid in tids
        ]

    tearable = [
        event
        for event in run.trace.events("batch-decide")
        if len(decide_time_appends(event)) >= 2
    ]
    assert tearable, "expected a batch with >= 2 decide-time appends"
    target = tearable[0]

    def replay(mutate):
        forged = TraceRecorder()
        for event in run.trace:
            kwargs = {
                "domain": event.domain,
                "node": event.node,
                "tid": event.tid,
                "slot": event.slot,
                "view": event.view,
                "digest": event.digest,
            }
            detail = dict(event.detail)
            at_ms = mutate(event, kwargs, detail)
            forged.record(event.kind, at_ms=at_ms, **kwargs, **detail)
        return InvariantChecker(run.deployment, trace=forged).check()

    # (a) wrong order: the batch claims the reverse append order.
    def reverse_tids(event, kwargs, detail):
        if event is target:
            detail["tids"] = list(reversed(detail["tids"]))
        return event.at_ms

    report = replay(reverse_tids)
    assert report.of("batch-atomicity")

    # (b) interleave: retime a foreign append into the batch's instant.
    foreign = next(
        e for e in run.trace.events("append")
        if e.node == target.node
        and e.at_ms != target.at_ms
        and e.tid not in set(target.get("tids", ()))
    )
    batch_appends = decide_time_appends(target)
    middle = batch_appends[0]  # after the first batch append

    def retime_foreign(event, kwargs, detail):
        if event is foreign:
            return target.at_ms
        return event.at_ms

    # Rebuild with the foreign append moved between the batch's appends: the
    # recorder preserves arrival order, so re-record it right after the first
    # batch append instead of at its original position.
    forged = TraceRecorder()
    for event in run.trace:
        if event is foreign:
            continue
        detail = dict(event.detail)
        forged.record(
            event.kind, at_ms=event.at_ms, domain=event.domain, node=event.node,
            tid=event.tid, slot=event.slot, view=event.view, digest=event.digest,
            **detail,
        )
        if event is middle:
            forged.record(
                "append", at_ms=target.at_ms, domain=foreign.domain,
                node=foreign.node, tid=foreign.tid, slot=foreign.slot,
                view=foreign.view, digest=foreign.digest, **dict(foreign.detail),
            )
    report = InvariantChecker(run.deployment, trace=forged).check()
    assert report.of("batch-atomicity")


def test_deposed_primary_drop_clears_component_dedup_state():
    """A dropped (never-proposed) payload must unblock future retransmissions.

    The primary buffers an internal order, is deposed before the batch
    flushes, and the batcher drops the buffer: the internal protocol's
    in-flight marker must be cleared so the node, if re-elected, re-proposes
    the client's retransmission instead of swallowing it.
    """
    from repro.common.config import DeploymentConfig, DomainSpec, HierarchySpec
    from repro.common.types import CrossDomainProtocol, DomainId
    from repro.core.internal import InternalTransactionProtocol
    from repro.core.messages import ClientRequest
    from repro.core.system import SaguaroDeployment
    from repro.topology.builders import build_tree
    from repro.topology.regions import placement_for_profile
    from repro.workloads.micropayment import MicropaymentApplication

    config = DeploymentConfig(
        hierarchy=HierarchySpec(default_spec=DomainSpec()),
        protocol=CrossDomainProtocol.COORDINATOR,
        batch_size=8,
        batch_timeout_ms=5.0,
        seed=11,
    )
    hierarchy = build_tree(config.hierarchy)
    placement_for_profile(hierarchy, config.latency_profile)
    deployment = SaguaroDeployment(
        config, MicropaymentApplication(accounts_per_domain=8), hierarchy
    )
    domain = DomainId(height=1, index=1)
    primary = deployment.primary_node_of(domain)
    internal = next(
        c for c in primary.components if isinstance(c, InternalTransactionProtocol)
    )
    from repro.common.types import TransactionId, TransactionKind
    from repro.ledger.transaction import Transaction
    from repro.workloads.micropayment import account_key

    sender, recipient = account_key(domain, 0), account_key(domain, 1)
    transaction = Transaction(
        tid=TransactionId(number=99_001),
        kind=TransactionKind.INTERNAL,
        involved_domains=(domain,),
        payload={"op": "transfer", "sender": sender, "recipient": recipient, "amount": 1.0},
        read_keys=(sender, recipient),
        write_keys=(sender, recipient),
    )
    request = ClientRequest(
        transaction=transaction, client_address="probe", issued_at=0.0
    )
    assert internal.handle_message(request, "probe")
    assert transaction.tid in internal._in_flight
    assert primary.engine.batcher.pending_count == 1
    # Depose the primary before the batch timeout fires.
    primary.engine._view = 1
    assert not primary.engine.is_primary
    deployment.simulator.run(until_ms=50.0)
    assert primary.engine.batcher.pending_count == 0
    assert transaction.tid not in internal._in_flight
    drops = deployment.trace.events("batch-drop")
    assert drops and drops[0].get("size") == 1


def test_smoke_rejects_unknown_mode():
    from repro.faults import smoke

    assert smoke.main("bogus") == 2


def test_batched_runs_are_deterministic():
    """Same scenario + seed with batching on ⇒ bit-identical runs."""
    scenario = registry.get("batch-sweep-b032").with_overrides(
        num_transactions=48, num_clients=8
    )
    runner = ScenarioRunner()
    first = runner.execute(scenario)
    second = runner.execute(scenario)
    assert json.dumps(first.run().to_dict(), sort_keys=True) == json.dumps(
        second.run().to_dict(), sort_keys=True
    )
    assert first.trace.to_json() == second.trace.to_json()


# ---------------------------------------------------------------------------
# The indexed batch-atomicity pass against the full-stream scan
# ---------------------------------------------------------------------------


def _batch_atomicity_naive(checker):
    """The pre-index scan: every ``batch-decide`` walks its node's whole
    append stream.  The oracle the checker's indexed pass must agree with."""
    from repro.faults.invariants import InvariantViolation

    violations = []
    appends_by_node = {}
    batch_decides = []
    for seq, event in enumerate(checker.trace):
        if event.kind == "batch-decide":
            batch_decides.append((seq, event))
        if event.kind != "append" or event.node is None:
            continue
        appends_by_node.setdefault(event.node, []).append(
            (seq, event.at_ms, event.tid)
        )
    claimed = {}
    for decide_seq, event in batch_decides:
        batch_tids = [tid for tid in event.get("tids", ()) if tid]
        if not batch_tids or event.node is None:
            continue
        tid_set = set(batch_tids)
        node_appends = appends_by_node.get(event.node, [])
        taken = claimed.setdefault(event.node, set())
        positions = [
            (index, tid)
            for index, (seq, at_ms, tid) in enumerate(node_appends)
            if at_ms == event.at_ms
            and tid in tid_set
            and seq > decide_seq
            and index not in taken
        ]
        if not positions:
            continue
        taken.update(index for index, _ in positions)
        indices = [index for index, _ in positions]
        if indices != list(range(indices[0], indices[0] + len(indices))):
            violations.append(
                InvariantViolation(
                    invariant="batch-atomicity",
                    domain=event.domain,
                    detail=(
                        f"{event.node}: appends of batch "
                        f"{(event.digest or '')[:12]} (slot {event.slot}) "
                        f"interleave with other appends at positions "
                        f"{indices}"
                    ),
                )
            )
            continue
        appended_order = [tid for _, tid in positions]
        expected_order = [tid for tid in batch_tids if tid in set(appended_order)]
        if appended_order != expected_order:
            violations.append(
                InvariantViolation(
                    invariant="batch-atomicity",
                    domain=event.domain,
                    detail=(
                        f"{event.node}: batch {(event.digest or '')[:12]} "
                        f"(slot {event.slot}) appended out of batch order: "
                        f"{appended_order} != {expected_order}"
                    ),
                )
            )
    return violations


def _batch_atomicity_agrees(deployment, trace):
    """Run both scans over ``trace``; they must report the same violations."""
    from repro.faults.invariants import InvariantChecker

    checker = InvariantChecker(deployment, trace=trace)
    indexed = [str(v) for v in checker._check_batch_atomicity()]
    assert indexed == [str(v) for v in _batch_atomicity_naive(checker)]
    return indexed


def _fields(event, **changes):
    """``event`` as ``TraceRecorder.record`` keyword arguments, ``changes``
    applied."""
    return {
        "at_ms": event.at_ms, "domain": event.domain, "node": event.node,
        "tid": event.tid, "slot": event.slot, "view": event.view,
        "digest": event.digest, **dict(event.detail), **changes,
    }


def _rerecord(trace, rewrite):
    """A copy of ``trace`` re-recorded event by event through ``rewrite``.

    ``rewrite(event, fields)`` returns the ``(kind, fields)`` pairs to record
    in the event's place: ``[]`` drops it, several insert events after it.
    """
    from repro.faults.trace import TraceRecorder

    forged = TraceRecorder()
    for event in trace:
        for kind, recorded in rewrite(event, _fields(event)):
            forged.record(kind, **recorded)
    return forged


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("fig07a", {"num_transactions": 48, "num_clients": 8, "batch_size": 8}),
        ("shard-sweep-s016", {"num_transactions": 96}),
        ("byz-equivocation", {"num_transactions": 32, "num_clients": 6,
                              "batch_size": 2, "batch_timeout_ms": 2.0}),
        ("churn-sweep", {"batch_size": 4}),
    ],
)
def test_indexed_batch_atomicity_matches_the_full_scan(name, overrides):
    """The per-instant index reports exactly the full scan's violations, on
    the registry run and on traces forged from it: a foreign append
    interleaved into a batch, a batch whose appends are out of its order,
    duplicate tids (inside one batch, every batch decided twice, one batch
    decided again in reverse), and an append of a batch's tid recorded just
    before the batch's decide."""
    run = ScenarioRunner().execute(registry.get(name).with_overrides(**overrides))
    trace, deployment = run.trace, run.deployment
    assert not _batch_atomicity_agrees(deployment, trace)

    def decide_time_appends(event):
        tids = set(event.get("tids", ()))
        return [
            e for e in trace.events("append")
            if e.node == event.node and e.at_ms == event.at_ms and e.tid in tids
        ]

    tearable = [
        event for event in trace.events("batch-decide")
        if len(decide_time_appends(event)) >= 2
    ]
    assert tearable, "expected a batch with >= 2 decide-time appends"
    target = tearable[len(tearable) // 2]
    first_append, *_, last_append = decide_time_appends(target)
    foreign = next(
        e for e in trace.events("append")
        if e.node == target.node and e.tid not in set(target.get("tids", ()))
    )

    def interleave(event, fields):
        if event is foreign:
            return []
        if event is first_append:
            moved = _fields(foreign, at_ms=target.at_ms)
            return [(event.kind, fields), ("append", moved)]
        return [(event.kind, fields)]

    def reorder(event, fields):
        if event is target:
            fields["tids"] = tuple(reversed(fields["tids"]))
        return [(event.kind, fields)]

    def duplicate_inside(event, fields):
        if event is target:
            fields["tids"] = fields["tids"] + fields["tids"][:1]
        return [(event.kind, fields)]

    def decided_twice(event, fields):
        copies = 2 if event.kind == "batch-decide" else 1
        return [(event.kind, dict(fields))] * copies

    def redecided_reversed(event, fields):
        if event is target:
            again = {**fields, "tids": tuple(reversed(fields["tids"]))}
            return [(event.kind, fields), (event.kind, again)]
        return [(event.kind, fields)]

    def early_append(event, fields):
        if event is target:
            return [("append", _fields(last_append)), (event.kind, fields)]
        return [(event.kind, fields)]

    flagged = {}
    for forge in (interleave, reorder, duplicate_inside, decided_twice,
                  redecided_reversed, early_append):
        flagged[forge.__name__] = _batch_atomicity_agrees(
            deployment, _rerecord(trace, forge)
        )
    assert flagged["interleave"] and flagged["reorder"]
