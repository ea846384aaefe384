"""Integration tests: internal transactions and lazy propagation (§4, §5)."""

import pytest

from repro.common.types import ClientId, DomainId, SequenceNumber, TransactionStatus
from repro.core.lazy import SHARED_ROUND_ABORTS
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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="finding G: lazy propagation never resends a block a child lost",
)
def test_parent_dag_holds_every_child_entry():
    """Every committed entry of a height-1 ledger reaches every replica of
    its parent's DAG.

    Lazy propagation sends each round's block once and moves its cursor on,
    so a block that never arrives is never sent again.  Today, at every D21
    replica: ``byz-leader-silence`` seed 1 misses 3 of D11's 14 entries (the
    silent primary keeps building blocks the adversary swallows),
    ``byz-partition-flap`` seed 2 misses 5 of 14, and ``byz-equivocation``
    seed 1 misses 8 of 11 after D11 moves to view 1 (D21 has integrated D11
    only through round 2; that cause is not isolated yet).
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
