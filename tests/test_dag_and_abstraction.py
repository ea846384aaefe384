"""Tests for DAG ledgers, block messages, abstraction functions, and views."""

import pytest
from hypothesis import given, strategies as st

from repro.common.types import (
    DomainId,
    SequenceNumber,
    TransactionId,
    TransactionKind,
    TransactionStatus,
)
from repro.errors import LedgerError, StateError
from repro.ledger.abstraction import (
    PrefixSumAbstraction,
    SelectKeysAbstraction,
    SummarizedView,
    identity_abstraction,
)
from repro.ledger.block import BlockMessage
from repro.ledger.chain import LinearLedger
from repro.ledger.dag import DagLedger, deterministic_abort_choice
from repro.ledger.transaction import CommittedEntry, Transaction

D11, D12, D13, D21 = DomainId(1, 1), DomainId(1, 2), DomainId(1, 3), DomainId(2, 1)
D14 = DomainId(1, 4)


def _internal(number, domain):
    return Transaction(
        tid=TransactionId(number=number),
        kind=TransactionKind.INTERNAL,
        involved_domains=(domain,),
    )


def _cross(number, domains):
    return Transaction(
        tid=TransactionId(number=number),
        kind=TransactionKind.CROSS_DOMAIN,
        involved_domains=tuple(domains),
    )


def _entry(transaction, positions):
    return CommittedEntry(
        transaction=transaction, sequence=SequenceNumber.multi(positions)
    )


def _block(domain, round_number, entries, **kwargs):
    return BlockMessage.build(
        domain=domain, round_number=round_number, entries=tuple(entries), **kwargs
    )


class TestBlockMessage:
    def test_merkle_root_verifies(self):
        entries = [_entry(_internal(i, D11), [(D11, i)]) for i in range(1, 4)]
        block = _block(D11, 1, entries)
        assert block.verify_merkle_root()
        assert not block.is_empty
        assert len(block.transaction_ids) == 3

    def test_empty_block_still_valid(self):
        block = _block(D11, 1, [])
        assert block.is_empty
        assert block.verify_merkle_root()

    def test_size_grows_with_entries(self):
        small = _block(D11, 1, [_entry(_internal(1, D11), [(D11, 1)])])
        large = _block(D11, 1, [_entry(_internal(i, D11), [(D11, i)]) for i in range(1, 9)])
        assert large.size_kb > small.size_kb

    def test_round_number_must_be_positive(self):
        with pytest.raises(LedgerError):
            _block(D11, 0, [])


class TestDagLedger:
    def test_internal_entries_form_a_chain_per_child(self):
        dag = DagLedger(D21)
        entries = [_entry(_internal(i, D11), [(D11, i)]) for i in range(1, 4)]
        dag.integrate_block(_block(D11, 1, entries), D11)
        assert len(dag) == 3
        order = dag.topological_order()
        assert [t.number for t in order] == [1, 2, 3]

    def test_cross_domain_transaction_appears_once(self):
        dag = DagLedger(D21)
        shared = _cross(5, (D11, D12))
        dag.integrate_block(_block(D11, 1, [_entry(shared, [(D11, 1)])]), D11)
        dag.integrate_block(_block(D12, 1, [_entry(shared, [(D12, 3)])]), D12)
        assert len(dag) == 1
        vertex = dag.vertex(shared.tid)
        assert vertex.fully_reported
        assert vertex.entry.position_in(D11) == 1
        assert vertex.entry.position_in(D12) == 3

    def test_stale_round_rejected(self):
        dag = DagLedger(D21)
        dag.integrate_block(_block(D11, 2, []), D11)
        with pytest.raises(LedgerError):
            dag.integrate_block(_block(D11, 1, []), D11)

    def test_tampered_block_rejected(self):
        dag = DagLedger(D21)
        block = _block(D11, 1, [_entry(_internal(1, D11), [(D11, 1)])])
        tampered = BlockMessage(
            domain=block.domain,
            round_number=block.round_number,
            entries=block.entries,
            merkle_root=b"\x00" * 32,
        )
        with pytest.raises(LedgerError):
            dag.integrate_block(tampered, D11)

    def test_consistent_cross_domain_order_reports_no_inconsistency(self):
        dag = DagLedger(D21)
        a, b = _cross(1, (D11, D12)), _cross(2, (D11, D12))
        dag.integrate_block(
            _block(D11, 1, [_entry(a, [(D11, 1)]), _entry(b, [(D11, 2)])]), D11
        )
        dag.integrate_block(
            _block(D12, 1, [_entry(a, [(D12, 5)]), _entry(b, [(D12, 6)])]), D12
        )
        assert dag.find_order_inconsistencies() == []

    def test_opposite_orders_detected_and_victim_deterministic(self):
        dag = DagLedger(D21)
        a, b = _cross(1, (D11, D12)), _cross(2, (D11, D12))
        dag.integrate_block(
            _block(D11, 1, [_entry(a, [(D11, 1)]), _entry(b, [(D11, 2)])]), D11
        )
        dag.integrate_block(
            _block(D12, 1, [_entry(b, [(D12, 1)]), _entry(a, [(D12, 2)])]), D12
        )
        conflicts = dag.find_order_inconsistencies()
        assert len(conflicts) == 1
        assert conflicts[0].victim == a.tid  # lowest id aborts (paper's rule)
        assert deterministic_abort_choice(a.tid, b.tid) == a.tid

    def test_single_shared_domain_is_not_an_inconsistency(self):
        dag = DagLedger(D21)
        a, b = _cross(1, (D11, D12)), _cross(2, (D12, D13))
        dag.integrate_block(_block(D12, 1, [_entry(a, [(D12, 1)]), _entry(b, [(D12, 2)])]), D12)
        dag.integrate_block(_block(D11, 1, [_entry(a, [(D11, 1)])]), D11)
        dag.integrate_block(_block(D13, 1, [_entry(b, [(D13, 1)])]), D13)
        assert dag.find_order_inconsistencies() == []

    def test_pending_cross_domain_lists_partially_reported(self):
        dag = DagLedger(D21)
        shared = _cross(9, (D11, D12))
        dag.integrate_block(_block(D11, 1, [_entry(shared, [(D11, 1)])]), D11)
        assert [v.tid for v in dag.pending_cross_domain()] == [shared.tid]

    def test_mark_aborted_flips_status(self):
        dag = DagLedger(D21)
        shared = _cross(9, (D11, D12))
        dag.integrate_block(_block(D11, 1, [_entry(shared, [(D11, 1)])]), D11)
        dag.mark_aborted(shared.tid)
        assert shared.tid in dag.aborted()
        assert dag.vertex(shared.tid).entry.status is TransactionStatus.ABORTED
        assert dag.committed_count() == 0

    def test_aborted_list_in_block_is_applied(self):
        dag = DagLedger(D21)
        shared = _cross(9, (D11, D12))
        dag.integrate_block(
            _block(D11, 1, [_entry(shared, [(D11, 1)])], aborted=(shared.tid,)), D11
        )
        assert shared.tid in dag.aborted()


def _all_pairs_scan(dag, restrict_to=None):
    """The consistency check as it was before the domain-pair index.

    Every candidate against every non-aborted cross-domain vertex of the
    ledger, both in insertion order — quadratic in ledger length, which is why
    it left ``src/``; it stays here as the oracle the indexed
    ``find_order_inconsistencies`` must match element for element.
    """
    others = [
        v for v in dag.transactions() if v.is_cross_domain and not dag.is_aborted(v.tid)
    ]
    if restrict_to is None:
        candidates = others
    else:
        wanted = set(restrict_to)
        candidates = [v for v in others if v.tid in wanted]
    inconsistencies = []
    seen_pairs = set()
    for left in candidates:
        for right in others:
            if left.tid == right.tid:
                continue
            pair = frozenset((left.tid, right.tid))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            conflict = dag._compare_pair(left, right)
            if conflict is not None:
                inconsistencies.append(conflict)
    return inconsistencies


class TestConsistencyIndex:
    """The indexed check equals the all-pairs scan and reads only what can conflict."""

    CHILDREN = (D11, D12, D13, D14)

    @given(st.data())
    def test_indexed_check_equals_all_pairs_scan(self, data):
        involved = data.draw(
            st.lists(
                st.sets(st.sampled_from(self.CHILDREN), min_size=1, max_size=3),
                max_size=10,
            )
        )
        transactions = [
            _cross(number, sorted(domains))
            if len(domains) > 1
            else _internal(number, *domains)
            for number, domains in enumerate(involved, start=1)
        ]
        # Each child appends its transactions in an order of its own and
        # reports them a few per round; rounds of different children interleave.
        queues = {}
        for child in self.CHILDREN:
            mine = [tx for tx in transactions if child in tx.involved_domains]
            local_order = data.draw(st.permutations(mine)) if mine else []
            queues[child] = [
                _entry(tx, [(child, position)])
                for position, tx in enumerate(local_order, start=1)
            ]
        rounds = dict.fromkeys(self.CHILDREN, 0)
        dag = DagLedger(D21)
        tids = [tx.tid for tx in transactions]
        while any(queues.values()):
            child = data.draw(st.sampled_from([c for c in self.CHILDREN if queues[c]]))
            take = data.draw(st.integers(min_value=1, max_value=3))
            entries, queues[child] = queues[child][:take], queues[child][take:]
            rounds[child] += 1
            aborted = data.draw(st.lists(st.sampled_from(tids), max_size=2, unique=True))
            if data.draw(st.booleans()):
                for tid in aborted:  # decided locally, before the block arrives
                    dag.mark_aborted(tid)
                aborted = []
            block = _block(child, rounds[child], entries, aborted=tuple(aborted))
            dag.integrate_block(block, child)
            touched = block.transaction_ids
            assert dag.find_order_inconsistencies(restrict_to=touched) == _all_pairs_scan(
                dag, restrict_to=touched
            )
            assert dag.find_order_inconsistencies() == _all_pairs_scan(dag)

    @staticmethod
    def _count_comparisons(monkeypatch):
        calls = []
        compare_pair = DagLedger._compare_pair

        def counting(self, left, right):
            calls.append((left.tid, right.tid))
            return compare_pair(self, left, right)

        monkeypatch.setattr(DagLedger, "_compare_pair", counting)
        return calls

    @staticmethod
    def _report(dag, child, round_number, transactions, first_position=1):
        block = _block(
            child,
            round_number,
            [
                _entry(tx, [(child, position)])
                for position, tx in enumerate(transactions, start=first_position)
            ],
        )
        dag.integrate_block(block, child)
        return block.transaction_ids

    def test_block_sharing_no_domain_pair_with_the_ledger_compares_nothing(
        self, monkeypatch
    ):
        dag = DagLedger(D21)
        # 2,000 vertices; half of them share one domain (never two) with the block.
        history = [
            _cross(number, (D11, D12) if number % 2 else (D12, D13))
            for number in range(1, 2001)
        ]
        self._report(dag, D12, 1, history)
        calls = self._count_comparisons(monkeypatch)
        touched = self._report(dag, D13, 1, [_cross(5000, (D13, D14))])
        assert dag.find_order_inconsistencies(restrict_to=touched) == []
        assert calls == []

    def test_block_is_compared_only_with_vertices_sharing_its_domain_pair(
        self, monkeypatch
    ):
        sharing = 40
        dag = DagLedger(D21)
        history = [
            _cross(number, (D13, D14) if number <= sharing else (D11, D12))
            for number in range(1, 2001)
        ]
        self._report(dag, D13, 1, history[:sharing])
        self._report(dag, D11, 1, history[sharing:])
        calls = self._count_comparisons(monkeypatch)
        new = [_cross(5000, (D13, D14)), _cross(5001, (D13, D14))]
        touched = self._report(dag, D13, 2, new, first_position=sharing + 1)
        assert dag.find_order_inconsistencies(restrict_to=touched) == []
        # Each new transaction meets the 40 that share its pair, and the two
        # meet each other once: nothing near the 2,000 vertices of the ledger.
        assert 0 < len(calls) <= len(new) * sharing + 1


class TestAbstractions:
    def test_identity_passes_everything(self):
        delta = {"a": 1, "b": "x"}
        assert identity_abstraction(delta) == delta

    def test_select_keys_filters_by_prefix(self):
        abstraction = SelectKeysAbstraction(prefixes=("hours:",))
        result = abstraction({"hours:alice": 3, "acct:bob": 10})
        assert result == {"hours:alice": 3}

    def test_prefix_sum_reduces_to_totals(self):
        abstraction = PrefixSumAbstraction(prefixes=("acct:",))
        result = abstraction({"acct:a": 10, "acct:b": 5, "other": 7})
        assert result == {"sum:acct:": 15}


class TestSummarizedView:
    def test_merge_and_aggregate(self):
        view = SummarizedView(D21)
        view.merge_delta(D11, {"volume:D11": 10.0}, round_number=1)
        view.merge_delta(D12, {"volume:D12": 5.0}, round_number=1)
        view.merge_delta(D11, {"volume:D11": 25.0}, round_number=2)
        assert view.aggregate_sum("volume:") == 30.0
        assert view.value(D11, "volume:D11") == 25.0
        assert set(view.children) == {D11, D12}

    def test_round_regression_rejected(self):
        view = SummarizedView(D21)
        view.merge_delta(D11, {"x": 1}, round_number=2)
        with pytest.raises(StateError):
            view.merge_delta(D11, {"x": 2}, round_number=2)

    def test_aggregate_matches_flattened_keys(self):
        """Queries still work one level up where keys carry a child prefix."""
        root = SummarizedView(DomainId(3, 1))
        root.merge_delta(D21, {"D11/volume:D11": 7.0, "D12/volume:D12": 3.0}, 1)
        assert root.aggregate_sum("volume:") == 10.0

    def test_aggregate_by_key(self):
        view = SummarizedView(D21)
        view.merge_delta(D11, {"hours:alice": 10.0}, 1)
        view.merge_delta(D12, {"hours:alice": 4.0, "hours:bob": 2.0}, 1)
        totals = view.aggregate_by_key("hours:")
        assert totals["hours:alice"] == 14.0
        assert totals["hours:bob"] == 2.0

    def test_cursor_deltas_capture_changes_only(self):
        view = SummarizedView(D21)
        view.merge_delta(D11, {"volume:D11": 5.0}, 1)
        cursor = view.cursor()
        assert view.own_abstract_delta(cursor) == {}
        view.merge_delta(D11, {"volume:D11": 9.0}, 2)
        delta = view.own_abstract_delta(cursor)
        assert delta == {"D11/volume:D11": 9.0}
