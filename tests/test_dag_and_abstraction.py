"""Tests for DAG ledgers, block messages, abstraction functions, and views."""

import tracemalloc
from collections import deque

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
from repro.ledger.dag import DagLedger, _edges, deterministic_abort_choice
from repro.ledger.transaction import CommittedEntry, Transaction

D11, D12, D13, D21 = DomainId(1, 1), DomainId(1, 2), DomainId(1, 3), DomainId(2, 1)
D14, D31 = DomainId(1, 4), DomainId(3, 1)


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


class _SetVertex:
    """A vertex as it was before the flat record: two sets and a dict."""

    def __init__(self, entry, ordinal):
        self.entry = entry
        self.ordinal = ordinal
        self.parents = set()
        self.reported_by = set()
        self.rounds = {}

    @property
    def tid(self):
        return self.entry.tid

    @property
    def is_cross_domain(self):
        return len(self.entry.transaction.involved_domains) > 1

    @property
    def fully_reported(self):
        return self.reported_by.issuperset(self.entry.transaction.involved_domains)


class _SetDag:
    """``DagLedger``'s vertex logic as it was before the flat record.

    It left ``src/`` because a parent domain paid two sets and a dict per
    transaction; it stays here as the oracle the flat record must match.
    """

    _compare_pair = DagLedger._compare_pair

    def __init__(self):
        self._vertices = {}
        self._order = []
        self._last_from_child = {}
        self._rounds_from_child = {}
        self._aborted = set()

    def integrate_block(self, block, child):
        if block.round_number < self._rounds_from_child.get(child, 0) + 1:
            raise LedgerError("stale round")
        previous = self._last_from_child.get(child)
        for entry in block.entries:
            tid = entry.tid
            vertex = self._vertices.get(tid)
            if vertex is None:
                vertex = _SetVertex(entry, len(self._order))
                self._vertices[tid] = vertex
                self._order.append(tid)
            else:
                merged = vertex.entry.sequence.merged_with(entry.sequence)
                vertex.entry = vertex.entry.with_sequence(merged)
            vertex.reported_by.update(entry.sequence.domains)
            vertex.rounds[child] = block.round_number
            if previous is not None and previous != tid:
                vertex.parents.add(previous)
            previous = tid
        self._last_from_child[child] = previous
        self._rounds_from_child[child] = block.round_number
        for tid in block.aborted:
            self.mark_aborted(tid)

    def mark_aborted(self, tid):
        self._aborted.add(tid)
        vertex = self._vertices.get(tid)
        if vertex is not None and vertex.entry.status is not TransactionStatus.ABORTED:
            vertex.entry = vertex.entry.with_status(TransactionStatus.ABORTED)

    def transactions(self):
        return [self._vertices[tid] for tid in self._order]

    def is_aborted(self, tid):
        return tid in self._aborted

    def pending_cross_domain(self):
        return [
            v
            for v in self.transactions()
            if v.is_cross_domain and not v.fully_reported and v.tid not in self._aborted
        ]

    def topological_order(self):
        in_degree = {tid: 0 for tid in self._order}
        children = {tid: [] for tid in self._order}
        for tid, vertex in self._vertices.items():
            for parent in vertex.parents:
                if parent in in_degree:
                    in_degree[tid] += 1
                    children[parent].append(tid)
        ready = deque(tid for tid in self._order if in_degree[tid] == 0)
        result = []
        while ready:
            current = ready.popleft()
            result.append(current)
            for child in children[current]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(result) != len(self._order):
            raise LedgerError("cycle")  # a repeated report can close one
        return result


def _same_vertices(flat, reference):
    assert [v.tid for v in flat.transactions()] == reference._order
    for vertex, expected in zip(flat.transactions(), reference.transactions()):
        assert vertex.entry == expected.entry
        # Only a cross-domain vertex keeps its ordinal (the consistency check
        # reads it); every vertex's place is its index in ``transactions()``.
        if vertex.is_cross_domain:
            assert vertex.ordinal == expected.ordinal
        else:
            assert not hasattr(vertex, "ordinal")
        assert vertex.parents == expected.parents
        assert len(_edges(vertex._parents)) == len(expected.parents)  # each edge once
        assert vertex.reported_by == expected.reported_by
        assert list(vertex.rounds.items()) == list(expected.rounds.items())
        assert vertex.fully_reported == expected.fully_reported


class TestFlatVertex:
    """The flat vertex record answers exactly what the set-based one did."""

    HEIGHT1 = (D11, D12, D13, D14)

    @given(st.data())
    def test_flat_vertices_equal_the_set_based_oracle(self, data):
        # A height-2 parent hears height-1 children about their own entries;
        # the root hears height-2 children, each speaking for the height-1
        # domains below it (so a reporting child is not an involved domain).
        root = data.draw(st.booleans())
        width = data.draw(st.integers(min_value=2, max_value=4))
        if root:
            children = [DomainId(2, index) for index in range(1, width + 1)]
            below = {child: [] for child in children}
            for position, domain in enumerate(self.HEIGHT1):
                below[children[position % width]].append(domain)
        else:
            children = list(self.HEIGHT1[:width])
            below = {child: [child] for child in children}
        domains = [d for child in children for d in below[child]]
        involved = data.draw(
            st.lists(
                st.sets(st.sampled_from(domains), min_size=1, max_size=3),
                max_size=12,
            )
        )
        transactions = [
            _cross(number, sorted(ds)) if len(ds) > 1 else _internal(number, *ds)
            for number, ds in enumerate(involved, start=1)
        ]
        tids = [tx.tid for tx in transactions]
        # Each child reports its transactions in an order of its own.  A
        # report may carry only some of the child's parts (the rest follows
        # in a later report), and an earlier report may be repeated.
        positions = {}
        queues = {}
        for child in children:
            mine = [
                tx
                for tx in transactions
                if any(d in below[child] for d in tx.involved_domains)
            ]
            reports = []
            for tx in data.draw(st.permutations(mine)) if mine else []:
                parts = []
                for domain in tx.involved_domains:
                    if domain in below[child]:
                        positions[domain] = positions.get(domain, 0) + 1
                        parts.append((domain, positions[domain]))
                split = len(parts) > 1 and data.draw(st.booleans())
                if split:
                    reports.append(_entry(tx, parts[:1]))
                reports.append(_entry(tx, parts))
                if data.draw(st.integers(0, 5)) == 5:
                    reports.append(data.draw(st.sampled_from(reports)))
            queues[child] = reports
        flat, reference = DagLedger(D31 if root else D21), _SetDag()
        rounds = dict.fromkeys(children, 0)
        while any(queues.values()):
            child = data.draw(st.sampled_from([c for c in children if queues[c]]))
            take = data.draw(st.integers(min_value=1, max_value=3))
            entries, queues[child] = queues[child][:take], queues[child][take:]
            if data.draw(st.integers(0, 5)) == 5:  # an empty round first
                entries, queues[child] = [], entries + queues[child]
            if rounds[child] and data.draw(st.integers(0, 7)) == 7:
                stale = _block(child, rounds[child], entries)
                for dag in (flat, reference):
                    with pytest.raises(LedgerError):
                        dag.integrate_block(stale, child)
            rounds[child] += data.draw(st.integers(min_value=1, max_value=3))
            aborted = data.draw(st.lists(st.sampled_from(tids), max_size=2, unique=True))
            if aborted and data.draw(st.booleans()):
                for tid in aborted:  # decided locally, before the block arrives
                    flat.mark_aborted(tid)
                    reference.mark_aborted(tid)
                aborted = []
            block = _block(child, rounds[child], entries, aborted=tuple(aborted))
            flat.integrate_block(block, child)
            reference.integrate_block(block, child)
            _same_vertices(flat, reference)
            assert [v.tid for v in flat.pending_cross_domain()] == [
                v.tid for v in reference.pending_cross_domain()
            ]
            try:
                expected_order = reference.topological_order()
            except LedgerError:
                with pytest.raises(LedgerError):
                    flat.topological_order()
            else:
                assert flat.topological_order() == expected_order
            touched = block.transaction_ids
            assert flat.find_order_inconsistencies(
                restrict_to=touched
            ) == _all_pairs_scan(reference, restrict_to=touched)
            assert flat.find_order_inconsistencies() == _all_pairs_scan(reference)

    def test_bytes_per_vertex(self):
        """A parent domain's ledger costs what its vertices hold, not three
        containers each.  2,000 vertices from two children (every tenth one a
        cross-domain transaction both report, so merged), Python 3.11: 925 B
        per vertex with two sets and a dict, 236 B as one flat record.  The
        bound is 45 % of the former."""
        blocks = []
        per_child = {D11: [], D12: []}
        for number in range(1, 2001):
            if number % 10 == 0:
                tx = _cross(number, (D11, D12))
                reporters = (D11, D12)
            else:
                reporters = (D11 if number % 2 else D12,)
                tx = _internal(number, reporters[0])
            for child in reporters:
                per_child[child].append(
                    _entry(tx, [(child, len(per_child[child]) + 1)])
                )
        for round_number in range(1, 21):
            for child, entries in per_child.items():
                chunk = len(entries) // 20
                block = _block(
                    child,
                    round_number,
                    entries[(round_number - 1) * chunk : round_number * chunk],
                )
                assert block.verify_merkle_root()  # warm the entries' digests
                blocks.append((block, child))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dag = DagLedger(D21)
            for block, child in blocks:
                dag.integrate_block(block, child)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(dag) == 2000
        assert grown / len(dag) <= 0.45 * 925


def test_root_dag_cycle_between_transactions_sharing_one_domain():
    """``fig07a`` at 40 transactions, seed 1: the root's DAG holds a 2-cycle
    and no order inconsistency.

    tx15 {D11, D13} and tx25 {D11, D14} reach the root through both height-2
    domains.  D21's block lists them in D11's ledger order (tx15 first), so
    the root records tx15 -> tx25; D22's block lists them in the order D22
    integrated its children's blocks (D14's tx25 before D13's tx15), so the
    root also records tx25 -> tx15.  The two transactions share one
    height-1 domain only, so no relative order is owed between them (§6
    compares orders over a shared *pair*): the cycle is expected, and
    ``topological_order`` reports it.  Pinned so that the vertex record
    provably keeps exactly these edges.
    """
    from repro.scenarios import materialize, registry

    run = materialize(registry.get("fig07a").with_overrides(num_transactions=40), 1)
    run.run()
    nodes = run.deployment.nodes
    root = nodes["D31/n0"].dag
    tx15, tx25 = (
        next(v for v in root.transactions() if v.tid.name.startswith(prefix))
        for prefix in ("tx15@", "tx25@")
    )
    assert tx15.entry.transaction.overlap_with(tx25.entry.transaction) == (D11,)
    assert tx15.tid in tx25.parents and tx25.tid in tx15.parents
    d11 = nodes["D11/n0"].ledger
    assert d11.position_of(tx15.tid) < d11.position_of(tx25.tid)
    d22_order = [v.tid for v in nodes["D22/n0"].dag.transactions()]
    assert d22_order.index(tx25.tid) < d22_order.index(tx15.tid)
    with pytest.raises(LedgerError, match="cycle"):
        root.topological_order()
    assert root.find_order_inconsistencies() == []


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
