"""Integration tests: internal transactions and lazy propagation (§4, §5)."""

import pytest

from repro.common.types import ClientId, DomainId, SequenceNumber, TransactionStatus
from repro.core.lazy import SHARED_ROUND_ABORTS, LazyPropagation
from repro.core.messages import BlockOrder, BlockPropagate
from repro.errors import LedgerError, StateError
from repro.ledger.abstraction import SummarizedView
from repro.ledger.block import BlockMessage
from repro.ledger.dag import DagLedger
from repro.ledger.transaction import CommittedEntry
from repro.scenarios import materialize, registry
from tests.conftest import (
    height1_ids,
    internal_transfer,
    make_deployment,
    make_tid,
)

D01 = DomainId(0, 1)
D11 = DomainId(1, 1)
D21 = DomainId(2, 1)
D31 = DomainId(3, 1)

#: ``quick_rounds()``: height-1 rounds every 10 ms, height-2 every 20 ms.
INTERVAL_MS = 10.0


def _run_internal_workload(deployment, per_domain=6):
    """Issue ``per_domain`` internal transfers in every height-1 domain."""
    transactions = []
    for leaf in deployment.hierarchy.leaf_domains():
        client = ClientId(home=leaf.id, index=1)
        domain = deployment.hierarchy.parent_height1_of_leaf(leaf.id).id
        for i in range(per_domain):
            transactions.append(
                internal_transfer(domain, sender_index=i, recipient_index=i + 1, client=client)
            )
    summary = deployment.run_workload(transactions, drain_ms=400.0)
    return transactions, summary


class TestInternalTransactions:
    def test_all_internal_transactions_commit(self, coordinator_deployment):
        transactions, summary = _run_internal_workload(coordinator_deployment)
        assert summary.committed == len(transactions)
        assert summary.aborted == 0

    def test_every_replica_has_the_same_ledger(self, coordinator_deployment):
        _run_internal_workload(coordinator_deployment)
        for domain in coordinator_deployment.hierarchy.height1_domains():
            ledgers = [
                node.ledger.committed_order()
                for node in coordinator_deployment.nodes_of(domain.id)
            ]
            assert all(order == ledgers[0] for order in ledgers)
            assert len(ledgers[0]) == 6

    def test_ledgers_verify_their_hash_chains(self, coordinator_deployment):
        _run_internal_workload(coordinator_deployment)
        for domain in coordinator_deployment.hierarchy.height1_domains():
            for node in coordinator_deployment.nodes_of(domain.id):
                assert node.ledger.verify_integrity()

    def test_transfers_applied_to_state(self, coordinator_deployment):
        transactions, _ = _run_internal_workload(coordinator_deployment)
        state = coordinator_deployment.state_of(D11)
        # Money is conserved within the domain.
        total = sum(
            state.balance(f"acct:D11:{i}") for i in range(32)
        )
        assert total == pytest.approx(32 * 1_000_000.0)

    def test_replicas_state_matches_primary(self, coordinator_deployment):
        _run_internal_workload(coordinator_deployment)
        for domain in coordinator_deployment.hierarchy.height1_domains():
            nodes = coordinator_deployment.nodes_of(domain.id)
            snapshots = [node.state.snapshot() for node in nodes]
            assert all(snapshot == snapshots[0] for snapshot in snapshots)

    def test_byzantine_domains_also_commit(self, byzantine_deployment):
        transactions, summary = _run_internal_workload(byzantine_deployment, per_domain=3)
        assert summary.committed == len(transactions)

    def test_latency_is_recorded_for_each_commit(self, coordinator_deployment):
        _, summary = _run_internal_workload(coordinator_deployment)
        assert summary.avg_latency_ms > 0
        assert summary.p95_latency_ms >= summary.p50_latency_ms


class TestLazyPropagation:
    def test_block_messages_reach_parents_and_root(self, coordinator_deployment):
        transactions, _ = _run_internal_workload(coordinator_deployment)
        root = coordinator_deployment.primary_node_of(
            coordinator_deployment.hierarchy.root.id
        )
        assert len(root.dag) == len(transactions)

    def test_height2_dags_only_hold_their_subtrees(self, coordinator_deployment):
        _run_internal_workload(coordinator_deployment)
        d21 = coordinator_deployment.primary_node_of(DomainId(2, 1)).dag
        for vertex in d21.transactions():
            domains = set(vertex.entry.transaction.involved_domains)
            assert domains <= {DomainId(1, 1), DomainId(1, 2)}

    def test_dag_replicas_agree(self, coordinator_deployment):
        _run_internal_workload(coordinator_deployment)
        for domain in coordinator_deployment.hierarchy.domains_at_height(2):
            dags = [
                sorted(v.tid.number for v in node.dag.transactions())
                for node in coordinator_deployment.nodes_of(domain.id)
            ]
            assert all(d == dags[0] for d in dags)

    def test_root_summary_aggregates_exchanged_volume(self, coordinator_deployment):
        transactions, _ = _run_internal_workload(coordinator_deployment)
        expected_volume = sum(t.payload["amount"] for t in transactions)
        total = coordinator_deployment.root_summary().aggregate_sum("volume:")
        assert total == pytest.approx(expected_volume)

    def test_commit_statuses_in_parent_dag(self, coordinator_deployment):
        _run_internal_workload(coordinator_deployment)
        root_dag = coordinator_deployment.primary_node_of(
            coordinator_deployment.hierarchy.root.id
        ).dag
        statuses = {v.entry.status for v in root_dag.transactions()}
        assert statuses == {TransactionStatus.COMMITTED}


def _blocks_sent(deployment):
    return deployment.network.stats.per_payload_type.get("BlockPropagate", 0)


def _idle_deployment(until_ms=55.0):
    """A started deployment run idle past its genesis rounds (h1 at 10 ms, h2 at 20 ms)."""
    deployment = make_deployment()
    deployment.start()
    deployment.simulator.run(until_ms=until_ms)
    return deployment


def _dag(deployment, domain):
    return deployment.primary_node_of(domain).dag


class TestSendRule:
    """A lazy round is sent only when it carries something new."""

    def test_idle_deployment_sends_no_block_after_its_genesis_round(self):
        deployment = _idle_deployment(until_ms=25.0)
        # Round 1 ships each domain's genesis volume counters, and nothing else
        # ever changes.
        genesis = _blocks_sent(deployment)
        assert genesis > 0
        deployment.simulator.run(until_ms=200.0)
        deployment.stop_rounds()
        assert _blocks_sent(deployment) == genesis
        assert _dag(deployment, D21).rounds_received_from(D11) == 1
        assert _dag(deployment, D31).rounds_received_from(D21) == 1

    def test_round_holding_one_entry_reaches_the_parent_within_one_interval(self):
        deployment = _idle_deployment()
        tx = internal_transfer(D11, client=ClientId(home=D01, index=1))
        for client in deployment.create_clients([tx]):
            client.start()
        simulator = deployment.simulator
        ledger = deployment.ledger_of(D11)
        simulator.run(until_ms=200.0, stop_when=lambda: tx.tid in ledger)
        committed_at = simulator.now
        dag = _dag(deployment, D21)
        simulator.run(until_ms=200.0, stop_when=lambda: tx.tid in dag)
        deployment.stop_rounds()
        assert tx.tid in dag
        assert simulator.now - committed_at < INTERVAL_MS
        # It rode the first round after its commit; rounds 2-5 were skipped.
        assert dag.vertex(tx.tid).rounds[D11] == 6
        assert dag.rounds_received_from(D11) == 6

    def _abort_in_d11(self, deployment):
        tid = make_tid()
        primary = deployment.primary_node_of(D11)
        primary.shared.setdefault(SHARED_ROUND_ABORTS, []).append(tid)
        return tid

    def test_height1_round_carrying_only_an_abort_is_sent(self):
        deployment = _idle_deployment()
        tid = self._abort_in_d11(deployment)
        deployment.simulator.run(until_ms=70.0)
        deployment.stop_rounds()
        dag = _dag(deployment, D21)
        assert dag.is_aborted(tid)
        assert dag.rounds_received_from(D11) == 6

    def test_summary_round_whose_aborted_set_grew_is_sent(self):
        deployment = _idle_deployment()
        tid = self._abort_in_d11(deployment)
        # D21 learns the abort at ~61 ms and ships its cumulative set at 80 ms.
        deployment.simulator.run(until_ms=90.0)
        deployment.stop_rounds()
        root = _dag(deployment, D31)
        assert root.is_aborted(tid)
        assert root.rounds_received_from(D21) == 4

    def test_unchanged_summary_round_is_not_sent(self):
        deployment = _idle_deployment()
        self._abort_in_d11(deployment)
        deployment.simulator.run(until_ms=90.0)
        sent = _blocks_sent(deployment)
        # D21's aborted set is still the one it shipped at 80 ms.
        deployment.simulator.run(until_ms=300.0)
        deployment.stop_rounds()
        assert _blocks_sent(deployment) == sent
        assert _dag(deployment, D31).rounds_received_from(D21) == 4

    def test_round_numbers_with_gaps_integrate(self):
        first, second = (
            internal_transfer(D11, sender_index=i, recipient_index=i + 1) for i in (0, 2)
        )
        blocks = [
            BlockMessage.build(
                domain=D11,
                round_number=round_number,
                entries=(
                    CommittedEntry(
                        transaction=tx, sequence=SequenceNumber.multi([(D11, position)])
                    ),
                ),
                state_delta={"volume:D11": 5.0 * position},
            )
            for round_number, position, tx in ((2, 1, first), (7, 2, second))
        ]
        dag, view = DagLedger(D21), SummarizedView(D21)
        for block in blocks:
            dag.integrate_block(block, D11)
            view.merge_delta(D11, block.state_delta, block.round_number)
        assert dag.rounds_received_from(D11) == 7
        assert dag.vertex(second.tid).parents == {first.tid}
        assert view.value(D11, "volume:D11") == 10.0
        # A gap is not a licence to go backwards.
        with pytest.raises(LedgerError):
            dag.integrate_block(blocks[0], D11)
        with pytest.raises(StateError):
            view.merge_delta(D11, {}, 5)


def test_parent_dag_holds_every_child_entry():
    """Every committed entry of a height-1 ledger reaches every replica of
    its parent's DAG (finding G, closed).

    These three runs lost entries while each block was sent once: at every
    D21 replica ``byz-leader-silence`` seed 1 missed 3 of D11's 14 entries
    (the silent primary kept building blocks the adversary swallowed),
    ``byz-partition-flap`` seed 2 missed 5 of 14, and ``byz-equivocation``
    seed 1 missed 8 of 11 (the backup promoted to D11's primary numbered its
    blocks from round 1 again, and D21 dropped them as duplicates).  Blocks
    are now acknowledged and re-sent, and a promoted backup covers its whole
    ledger.
    """
    missing = {}
    for name, seed in (
        ("byz-leader-silence", 1),
        ("byz-partition-flap", 2),
        ("byz-equivocation", 1),
    ):
        run = materialize(registry.get(name), seed)
        run.run()
        deployment = run.deployment
        for child in deployment.hierarchy.height1_domains():
            parent = deployment.hierarchy.parent_of(child.id).id
            ledger = deployment.ledger_of(child.id).committed_order()
            assert ledger, (name, child.id.name)
            for node in deployment.nodes_of(parent):
                lost = sum(tid not in node.dag for tid in ledger)
                if lost:
                    missing[(name, child.id.name, node.address)] = lost
    assert not missing, missing


def _lazy(node):
    return next(c for c in node.components if isinstance(c, LazyPropagation))


def _entries(deployment, domain, count):
    """``count`` committed entries of ``domain``'s ledger, issued and run."""
    transactions = [
        internal_transfer(domain, sender_index=i, recipient_index=i + 1,
                          client=ClientId(home=D01, index=1))
        for i in range(count)
    ]
    for client in deployment.create_clients(transactions):
        client.start()
    ledger = deployment.ledger_of(domain)
    deployment.simulator.run(
        until_ms=deployment.simulator.now + 500.0,
        stop_when=lambda: all(tx.tid in ledger for tx in transactions),
    )
    return ledger.entries_between(1, len(ledger))


class TestAcknowledgedBlocks:
    """Blocks are named by position, acknowledged, and re-sent."""

    def test_a_swallowed_tail_block_is_resent_and_integrated_once(self):
        deployment = _idle_deployment()
        primary = deployment.primary_node_of(D11)
        send, swallowed = primary.send, []

        def swallow_first_block_with_entries(address, message):
            if isinstance(message, BlockPropagate) and message.block.entries:
                if not swallowed or swallowed[0] is message:
                    swallowed.append(message)
                    return
            send(address, message)

        primary.send = swallow_first_block_with_entries
        (entry,) = _entries(deployment, D11, 1)
        simulator = deployment.simulator
        timeout = deployment.config.timers.cross_domain_timeout_ms
        simulator.run(until_ms=simulator.now + timeout / 2)
        parents = deployment.nodes_of(D21)
        assert swallowed and all(entry.tid not in n.dag for n in parents)
        simulator.run(until_ms=simulator.now + timeout * 1.5)
        deployment.stop_rounds()
        assert _lazy(primary).resends == 1
        lost_round = swallowed[0].block.round_number
        for node in parents:
            vertex = node.dag.vertex(entry.tid)
            (round_number,) = vertex.rounds.values()  # integrated once
            assert round_number > lost_round
            assert node.dag.position_from(D11) == 1
        assert _lazy(primary)._acked == 1 and not _lazy(primary)._unacked

    def test_a_lost_abort_only_block_is_resent(self):
        """An abort-only block ends where the block before it ended, so the
        next block's acknowledged position does not settle it: its round
        does, and a lost one is re-sent with its aborts."""
        deployment = _idle_deployment()
        primary = deployment.primary_node_of(D11)
        send, swallowed = primary.send, []

        def swallow_the_abort_only_block(address, message):
            if isinstance(message, BlockPropagate) and message.block.aborted:
                if not swallowed or swallowed[0] is message:
                    swallowed.append(message)
                    return
            send(address, message)

        primary.send = swallow_the_abort_only_block
        tid = make_tid()
        primary.shared.setdefault(SHARED_ROUND_ABORTS, []).append(tid)
        simulator = deployment.simulator
        simulator.run(until_ms=simulator.now + 20.0)
        assert swallowed and not swallowed[0].block.entries
        (entry,) = _entries(deployment, D11, 1)
        parents = deployment.nodes_of(D21)
        timeout = deployment.config.timers.cross_domain_timeout_ms
        lost_round = swallowed[0].block.round_number
        (lost,) = [s for s in _lazy(primary)._unacked if s.round == lost_round]
        simulator.run(until_ms=lost.sent_at + timeout / 2)
        # The entry's block was integrated and acknowledged past the lost one.
        assert all(entry.tid in n.dag and not n.dag.is_aborted(tid) for n in parents)
        assert _lazy(primary)._acked == 1 and _lazy(primary)._unacked == [lost]
        simulator.run(until_ms=simulator.now + timeout * 1.5)
        deployment.stop_rounds()
        assert _lazy(primary).resends == 1 and not _lazy(primary)._unacked
        assert all(n.dag.is_aborted(tid) for n in parents)

    def test_a_promoted_backups_overlapping_block_adds_only_the_suffix(self):
        deployment = _idle_deployment()
        entries = _entries(deployment, D11, 3)
        deployment.simulator.run(until_ms=deployment.simulator.now + 100.0)
        deployment.stop_rounds()
        backup = next(n for n in deployment.nodes_of(D11) if not n.is_primary)
        lazy = _lazy(backup)
        # A backup never built a block, so its first one covers its whole
        # ledger with the exact delta since version 0.
        block = lazy._build_height1_block(lazy._position, lazy._base, ())
        assert (block.start, block.end) == (0, 3)
        assert block.entries == tuple(backup.ledger.entries_between(1, 3))
        assert block.transaction_ids == tuple(e.tid for e in entries)
        abstraction = backup.application.abstraction()
        assert block.state_delta == abstraction(backup.state.delta_since(0))
        # A parent that holds the first two entries (from the old primary)
        # adds the third alone, and tells the optimistic protocol only that.
        parent = DagLedger(D21)
        node = deployment.nodes_of(D21)[1]
        node.dag, node.summary = parent, SummarizedView(D21)
        integrated = []
        node.notify_block_integrated = lambda b, child: integrated.append(b)
        lazy_parent = _lazy(node)
        first = BlockMessage.build(
            domain=D11, round_number=3, entries=block.entries[:2]
        )
        lazy_parent.on_decide(1, BlockOrder(block=first, child_domain=D11))
        promoted = BlockMessage.build(
            domain=D11, round_number=9, entries=block.entries,
            state_delta=block.state_delta,
        )
        lazy_parent.on_decide(2, BlockOrder(block=promoted, child_domain=D11))
        assert [v.tid for v in parent.transactions()] == [e.tid for e in entries]
        assert [v.rounds for v in parent.transactions()] == [
            {D11: 3}, {D11: 3}, {D11: 9}
        ]
        assert parent.position_from(D11) == 3
        assert [b.transaction_ids for b in integrated] == [
            first.transaction_ids, (entries[2].tid,)
        ]
        assert node.summary.value(D11, "volume:D11") == block.state_delta["volume:D11"]
        # A block starting past the held position adds nothing.
        past = BlockMessage.build(
            domain=D11, round_number=12, entries=block.entries[2:], start=5
        )
        lazy_parent.on_decide(3, BlockOrder(block=past, child_domain=D11))
        assert parent.position_from(D11) == 3 and len(integrated) == 2
        # Replicas may append non-conflicting commits in different orders: a
        # promoted backup's ledger holds the parent's second entry third.
        def at(entry, position):
            sequence = SequenceNumber.multi([(D11, position)])
            return CommittedEntry(transaction=entry.transaction, sequence=sequence)

        node.dag = reordered = DagLedger(D21)
        node.summary = SummarizedView(D21)
        old = BlockMessage.build(
            domain=D11, round_number=3, entries=(at(entries[0], 1), at(entries[1], 2))
        )
        new = BlockMessage.build(
            domain=D11, round_number=9,
            entries=(at(entries[0], 1), at(entries[2], 2), at(entries[1], 3)),
        )
        lazy_parent.on_decide(4, BlockOrder(block=old, child_domain=D11))
        lazy_parent.on_decide(5, BlockOrder(block=new, child_domain=D11))
        assert len(reordered) == 3 and reordered.position_from(D11) == 3
        assert reordered.vertex(entries[1].tid).entry.position_in(D11) == 2
        assert integrated[-1].transaction_ids == (entries[2].tid,)

    def test_a_stale_block_is_acknowledged_but_not_integrated(self):
        deployment = _idle_deployment()
        (entry,) = _entries(deployment, D11, 1)
        deployment.simulator.run(until_ms=deployment.simulator.now + 100.0)
        parent = deployment.primary_node_of(D21)
        dag, lazy_parent = parent.dag, _lazy(parent)
        assert dag.position_from(D11) == 1
        held = (len(dag), dag.rounds_received_from(D11))
        backup = next(n for n in deployment.nodes_of(D11) if not n.is_primary)
        submitted = []
        parent.engine.submit = submitted.append
        stale = BlockMessage.build(domain=D11, round_number=1, entries=(entry,))
        lazy_parent.handle_message(
            BlockPropagate(block=stale, child_domain=D11), backup.address
        )
        # A decided replay of the same round is a no-op too.
        lazy_parent.on_decide(
            99, BlockOrder(block=stale, child_domain=D11, sender=backup.address)
        )
        deployment.simulator.run(until_ms=deployment.simulator.now + 50.0)
        deployment.stop_rounds()
        assert submitted == []
        assert (len(dag), dag.rounds_received_from(D11)) == held
        assert dag.vertex(entry.tid).rounds[D11] > 1
        assert _lazy(backup)._acked == 1
