"""Integration tests for the coordinator-based cross-domain protocol (§4)."""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from bench.workloads import BY_NAME
from repro.common.types import ClientId, DomainId, FailureModel, TransactionStatus
from repro.core.coordinator import (
    CoordinatorCrossDomainProtocol,
    _InFlightTable,
    _overlaps_in_two,
    _ParticipantState,
    _ParticipantTable,
    _Vote,
)
from repro.core.messages import (
    CoordinatorAbortOrder,
    CoordinatorCommitOrder,
    CrossAbort,
    CrossCommit,
    CrossForward,
    CrossPrepare,
    ParticipantPrepareOrder,
)
from repro.scenarios import ScenarioRunner, materialize, registry
from tests.conftest import (
    cross_transfer,
    internal_transfer,
    make_deployment,
    retained_state,
    settled_2pc_state,
    stuck_cross_domain_state,
)

D01, D02, D03, D04 = (DomainId(0, i) for i in range(1, 5))
D11, D12, D13, D14 = (DomainId(1, i) for i in range(1, 5))
D21, D22 = DomainId(2, 1), DomainId(2, 2)


def _client(leaf: DomainId, index: int = 1) -> ClientId:
    return ClientId(home=leaf, index=index)


def _component_of(node) -> CoordinatorCrossDomainProtocol:
    for component in node.components:
        if isinstance(component, CoordinatorCrossDomainProtocol):
            return component
    raise AssertionError("coordinator component missing")


def _coordinator_component(deployment, domain_id):
    return _component_of(deployment.primary_node_of(domain_id))


class TestSingleCrossDomainTransaction:
    def test_committed_on_every_involved_domain(self, coordinator_deployment):
        tx = cross_transfer((D11, D12), client=_client(D01))
        summary = coordinator_deployment.run_workload([tx], drain_ms=300.0)
        assert summary.committed == 1
        for domain in (D11, D12):
            for node in coordinator_deployment.nodes_of(domain):
                assert tx.tid in node.ledger
                assert (
                    node.ledger.entry_of(tx.tid).status is TransactionStatus.COMMITTED
                )

    def test_not_committed_on_uninvolved_domains(self, coordinator_deployment):
        tx = cross_transfer((D11, D12), client=_client(D01))
        coordinator_deployment.run_workload([tx], drain_ms=300.0)
        for domain in (D13, D14):
            assert tx.tid not in coordinator_deployment.ledger_of(domain)

    def test_lca_domain_acts_as_coordinator(self, coordinator_deployment):
        tx = cross_transfer((D11, D12), client=_client(D01))
        coordinator_deployment.run_workload([tx], drain_ms=300.0)
        assert tx.tid in _coordinator_component(
            coordinator_deployment, D21
        ).coordinated_transactions()
        assert tx.tid not in _coordinator_component(
            coordinator_deployment, coordinator_deployment.hierarchy.root.id
        ).coordinated_transactions()

    def test_far_domains_are_coordinated_by_the_root(self, coordinator_deployment):
        tx = cross_transfer((D11, D13), client=_client(D01))
        coordinator_deployment.run_workload([tx], drain_ms=300.0)
        assert tx.tid in _coordinator_component(
            coordinator_deployment, coordinator_deployment.hierarchy.root.id
        ).coordinated_transactions()

    def test_transfer_effects_split_across_domains(self, coordinator_deployment):
        tx = cross_transfer((D11, D12), sender_index=0, recipient_index=1, amount=25.0,
                            client=_client(D01))
        coordinator_deployment.run_workload([tx], drain_ms=300.0)
        assert coordinator_deployment.state_of(D11).balance("acct:D11:0") == 1_000_000 - 25
        assert coordinator_deployment.state_of(D12).balance("acct:D12:1") == 1_000_000 + 25

    def test_three_domain_transaction_commits(self, coordinator_deployment):
        tx = cross_transfer((D11, D12, D13), client=_client(D01))
        summary = coordinator_deployment.run_workload([tx], drain_ms=400.0)
        assert summary.committed == 1
        for domain in (D11, D12, D13):
            assert tx.tid in coordinator_deployment.ledger_of(domain)

    def test_multipart_sequence_number_recorded_in_parent_dag(self, coordinator_deployment):
        tx = cross_transfer((D11, D12), client=_client(D01))
        coordinator_deployment.run_workload([tx], drain_ms=400.0)
        dag = coordinator_deployment.primary_node_of(D21).dag
        vertex = dag.vertex(tx.tid)
        assert vertex.fully_reported
        assert vertex.entry.position_in(D11) is not None
        assert vertex.entry.position_in(D12) is not None

    def test_byzantine_cross_domain_commit(self):
        deployment = make_deployment(failure_model=FailureModel.BYZANTINE)
        tx = cross_transfer((D11, D12), client=_client(D01))
        summary = deployment.run_workload([tx], drain_ms=400.0)
        assert summary.committed == 1


class TestConcurrentCrossDomainTransactions:
    def _mixed_workload(self):
        transactions = []
        clients = [_client(D01), _client(D02), _client(D03), _client(D04)]
        pairs = [(D11, D12), (D12, D11), (D13, D14), (D11, D13), (D12, D14)]
        for i in range(30):
            pair = pairs[i % len(pairs)]
            transactions.append(
                cross_transfer(
                    pair,
                    sender_index=i % 4,
                    recipient_index=(i + 1) % 4,
                    client=clients[i % len(clients)],
                )
            )
        for i in range(10):
            transactions.append(
                internal_transfer(D11, sender_index=i, recipient_index=i + 1,
                                  client=clients[0])
            )
        return transactions

    def test_everything_commits_under_concurrency(self, coordinator_deployment):
        transactions = self._mixed_workload()
        summary = coordinator_deployment.run_workload(transactions, drain_ms=500.0)
        assert summary.committed == len(transactions)
        assert summary.aborted == 0

    def test_overlapping_domains_agree_on_relative_order(self, coordinator_deployment):
        """Lemma 4.3: conflicting transactions commit in the same order everywhere."""
        transactions = self._mixed_workload()
        coordinator_deployment.run_workload(transactions, drain_ms=500.0)
        cross = [t for t in transactions if len(t.involved_domains) > 1]
        for i, first in enumerate(cross):
            for second in cross[i + 1 :]:
                shared = set(first.involved_domains) & set(second.involved_domains)
                if len(shared) < 2:
                    continue
                orders = set()
                for domain in shared:
                    ledger = coordinator_deployment.ledger_of(domain)
                    orders.add(ledger.relative_order(first.tid, second.tid))
                assert len(orders) == 1, (first.tid, second.tid, orders)

    def test_replica_ledgers_match_primary_under_concurrency(self, coordinator_deployment):
        transactions = self._mixed_workload()
        coordinator_deployment.run_workload(transactions, drain_ms=500.0)
        for domain in (D11, D12, D13, D14):
            orders = [
                node.ledger.committed_order()
                for node in coordinator_deployment.nodes_of(domain)
            ]
            assert all(order == orders[0] for order in orders)

    def test_cross_domain_transactions_counted_once(self, coordinator_deployment):
        transactions = self._mixed_workload()
        coordinator_deployment.run_workload(transactions, drain_ms=500.0)
        assert (
            coordinator_deployment.total_committed_transactions()
            == len(transactions)
        )


class TestLostCommitOrderRecovery:
    def test_commit_query_reorders_a_lost_commit(self, coordinator_deployment):
        """A prepared-everywhere transaction whose CoordinatorCommitOrder was
        lost (e.g. dropped from a deposed primary's batch buffer) is
        re-ordered when a participant's commit query reaches the primary."""
        from repro.core.coordinator import _CoordinationState
        from repro.core.messages import CommitQuery, CoordinatorCommitOrder

        component = _coordinator_component(coordinator_deployment, D21)
        node = component.node
        transaction = cross_transfer((D11, D12), client=_client(D01))
        state = _CoordinationState(
            transaction=transaction,
            origin_domain=D11,
            client_address="probe",
        )
        state.coordinator_sequence = 1
        state.prepared_parts = {D11: 3, D12: 4}
        state.all_prepared = True
        component._coord[transaction.tid] = state

        query = CommitQuery(
            tid=transaction.tid,
            participant_domain=D11,
            coordinator_sequence=1,
            participant_sequence=3,
            request_digest=transaction.request_digest,
            sender="D11:n0",
        )
        assert component.handle_message(query, "D11:n0")
        # batch_size=1 ⇒ the retried commit was proposed immediately into a slot.
        assert node.engine.batcher.pending_count == 0
        assert transaction.tid in {
            p.tid for p in node.engine._proposals.values()
            if isinstance(p, CoordinatorCommitOrder)
        }


class TestInFlightTable:
    """The conflict table against the scans of every state that it replaced."""

    DOMAINS = tuple(DomainId(1, i) for i in range(1, 6))

    @given(st.data())
    def test_overlapping_equals_naive_scan(self, data):
        """``overlapping`` is the naive scan of the live states, *as a list*:
        the coordinator turns it into ``after=`` dependencies, so order counts."""
        table = _InFlightTable()
        live, retired = [], []
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            step = data.draw(st.sampled_from(("add", "add", "retire", "re-add", "re-retire")))
            if step == "retire" and live:
                state = live.pop(data.draw(st.integers(0, len(live) - 1)))
                table.discard(state)
                retired.append(state)
            elif step == "re-add" and (live or retired):
                # A live state keeps its place; a retired one re-enters last.
                state = data.draw(st.sampled_from(live + retired))
                table.add(state)
                if state in retired:
                    retired.remove(state)
                    live.append(state)
            elif step == "re-retire" and retired:
                table.discard(data.draw(st.sampled_from(retired)))  # a no-op
            else:
                domains = data.draw(
                    st.lists(st.sampled_from(self.DOMAINS), min_size=2, max_size=4, unique=True)
                )
                state = SimpleNamespace(transaction=cross_transfer(domains))
                table.add(state)
                live.append(state)
            assert len(table) == len(live)
            for probe in live + retired:
                transaction = probe.transaction
                naive = [s for s in live if _overlaps_in_two(s.transaction, transaction)]
                assert [s.transaction.tid for s in table.overlapping(transaction)] == [
                    s.transaction.tid for s in naive
                ]

    @given(st.data())
    def test_participant_questions_equal_the_scans(self, data):
        """``precedes`` and ``driven_elsewhere`` answer what the scans of the
        live states did, under adds, commits and re-votes (a re-vote is a
        discard and an add, as ``_record_prepared`` makes it)."""
        table = _ParticipantTable()
        live = []

        def vote():
            return _Vote(data.draw(st.sampled_from((D21, D22))), 1, data.draw(st.integers(1, 9)))

        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            step = data.draw(st.sampled_from(("add", "add", "retire", "re-vote")))
            if step == "retire" and live:
                table.discard(live.pop(data.draw(st.integers(0, len(live) - 1))))
            elif step == "re-vote" and live:
                state = data.draw(st.sampled_from(live))
                table.discard(state)
                state.vote = vote()
                table.add(state)
            else:
                domains = data.draw(
                    st.lists(st.sampled_from(self.DOMAINS), min_size=2, max_size=4, unique=True)
                )
                state = _ParticipantState(transaction=cross_transfer(domains), vote=vote())
                table.add(state)
                live.append(state)
            for probe in live:
                overlapping = [
                    s for s in live if _overlaps_in_two(s.transaction, probe.transaction)
                ]
                assert table.precedes(probe) == any(
                    s.participant_sequence < probe.participant_sequence for s in overlapping
                )
                for coordinator in (D21, D22, None):
                    assert table.driven_elsewhere(probe.transaction, coordinator) == any(
                        coordinator is None or s.coordinator_domain != coordinator
                        for s in overlapping
                    )
        for state in list(live):
            table.discard(state)
        assert not table._entries and not table._by_pair
        assert not table._sequences and not table._drivers

    @pytest.mark.parametrize(
        "workload, transactions",
        [("wan-cross-grouped", 400), ("wan-control-adaptive", 240), ("wan-contention-lease", None)],
    )
    def test_participant_questions_equal_the_scans_on_every_call(
        self, monkeypatch, workload, transactions
    ):
        """On whole runs, every answer equals the scan it replaced: the scans
        of the live states that ``overlapping`` lists."""
        calls = Counter()
        precedes, driven_elsewhere = _ParticipantTable.precedes, _ParticipantTable.driven_elsewhere

        def checked_precedes(table, state):
            answer = precedes(table, state)
            assert answer == any(
                other.participant_sequence < state.participant_sequence
                for other in table.overlapping(state.transaction)
            )
            calls["precedes", answer] += 1
            return answer

        def checked_driven_elsewhere(table, transaction, coordinator_domain):
            answer = driven_elsewhere(table, transaction, coordinator_domain)
            assert answer == any(
                coordinator_domain is None or other.coordinator_domain != coordinator_domain
                for other in table.overlapping(transaction)
            )
            calls["driven_elsewhere", answer] += 1
            return answer

        monkeypatch.setattr(_ParticipantTable, "precedes", checked_precedes)
        monkeypatch.setattr(_ParticipantTable, "driven_elsewhere", checked_driven_elsewhere)
        spec = BY_NAME[workload]
        run = materialize(spec.scenario(transactions), spec.seed)
        run.run()
        assert run.summary.pending == 0
        assert calls["precedes", False] and calls["driven_elsewhere", False], calls
        if workload == "wan-contention-lease":  # contended: every answer comes up
            assert len(calls) == 4, calls

    def test_a_re_voted_state_is_re_keyed(self, coordinator_deployment):
        """A live state whose transaction is ordered again (a later attempt
        decided before the first is resolved) takes its new participant
        sequence in the table: an overlapping state ordered in between no
        longer waits for it, and is waited for."""
        component = _coordinator_component(coordinator_deployment, D11)
        first = cross_transfer((D11, D12), client=_client(D01))
        between = cross_transfer((D12, D11), client=_client(D02))
        for slot, transaction, attempt in ((5, first, 1), (7, between, 1), (9, first, 2)):
            order = ParticipantPrepareOrder(
                transaction=transaction, coordinator_domain=D21, coordinator_sequence=attempt
            )
            component.on_decide(slot, order)
        re_voted, middle = component._part[first.tid], component._part[between.tid]
        assert (re_voted.participant_sequence, middle.participant_sequence) == (9, 7)
        assert not component._must_defer_commit(middle)
        assert component._must_defer_commit(re_voted)

    def test_conflict_questions_touch_only_live_entries(self, coordinator_deployment):
        """2,000 committed and 3 in-flight transactions on one domain pair:
        the commit-deferral and participation-hold questions read the 3."""
        component = _coordinator_component(coordinator_deployment, D11)
        states = []
        for slot in range(1, 2004):
            transaction = cross_transfer((D11, D12), client=_client(D01))
            order = ParticipantPrepareOrder(
                transaction=transaction, coordinator_domain=D21, coordinator_sequence=slot
            )
            component.on_decide(slot, order)
            states.append(component._part[transaction.tid])
        committed, live = states[:2000], states[2000:]
        for state in committed:
            commit = CrossCommit(
                tid=state.transaction.tid,
                coordinator_domain=D21,
                sequence_parts=((D11, state.participant_sequence),),
                request_digest=state.transaction.request_digest,
            )
            component.handle_message(commit, "D21:n0")
        assert all(state.committed for state in committed)

        touched = set()

        class Watched(_ParticipantState):
            def __getattribute__(self, name):
                touched.add(id(self))
                return super().__getattribute__(name)

        for state in states:
            state.__class__ = Watched
        newcomer = cross_transfer((D12, D11), client=_client(D02))
        root = coordinator_deployment.hierarchy.root.id
        assert component._must_defer_commit(live[2])
        assert not component._must_defer_commit(live[0])
        assert component._conflicts_with_inflight_participation(newcomer, root)
        assert not component._conflicts_with_inflight_participation(newcomer, D21)
        settled_reads = len(touched - {id(state) for state in live})
        assert settled_reads == 0, f"{settled_reads} settled states were read"


@pytest.mark.parametrize(
    "name, group_size", [("fig10a", 1), ("fig10a", 8), ("fig07a", 1), ("fig07a", 8)]
)
def test_nothing_stuck_once_every_transaction_resolved(name, group_size):
    """Quiescence: with nothing pending, no coordinator component on any
    replica still holds an in-flight state, a queued or held prepare, or a
    deferred commit."""
    scenario = registry.get(name).with_overrides(num_clients=16, xdomain_batch_size=group_size)
    run = ScenarioRunner().execute(scenario)
    assert run.summary.pending == 0 and run.summary.committed > 0
    stuck = stuck_cross_domain_state(run.deployment)
    assert stuck == dict.fromkeys(stuck, 0)


def test_settled_states_let_go_of_their_timer_callbacks():
    """``retained_state`` on ``xbatch-sweep-g008`` at 200 transactions, with
    nothing pending: no coordinator, participant or group state outlives its
    decision, and the compact records that answer for it hold no timer or
    closure.  Every coordinator replica keeps one outcome per transaction it
    coordinated and every participant replica one vote per transaction it
    committed, and both read as committed."""
    scenario = registry.get("xbatch-sweep-g008").with_overrides(num_transactions=200)
    run = ScenarioRunner().execute(scenario)
    assert run.summary.pending == 0 and run.summary.committed == 200
    assert settled_2pc_state(run.deployment) == {"states": 0, "groups": 0, "holding": 0}
    totals = Counter()
    for counts in retained_state(run.deployment).values():
        totals.update(counts)
    assert totals["coordinator._groups"] == 0
    components = [
        (node, component)
        for node in run.deployment.nodes.values()
        for component in node.components
        if isinstance(component, CoordinatorCrossDomainProtocol)
    ]
    records = [
        (component, tid)
        for _, component in components
        for tid in (*component._coord, *component._part)
    ]
    assert len(records) == totals["coordinator._coord"] + totals["coordinator._part"]
    assert records and all(
        component.outcome_of(tid) is TransactionStatus.COMMITTED
        for component, tid in records
    )
    assert len({tid for _, tid in records}) == 200
    for node, component in components:
        if node.is_height1:
            assert set(component._part) == {
                record.entry.tid
                for record in node.ledger
                if record.entry.transaction.is_cross_domain
            }


class TestOrderedOutcomes:
    """Commit and abort of one attempt are both ordered; the first decided wins."""

    @pytest.mark.parametrize("first", ["commit", "abort", "retry"])
    def test_first_decided_outcome_wins_on_every_replica(self, first):
        """Three coordinator replicas decide a commit order and an abort order
        for the same attempt, in both orders.  Every replica keeps the first
        decided outcome, every participant replica applies exactly one, and a
        late prepare of the aborted attempt is refused — queued or decided."""
        deployment = make_deployment(latency_profile="wide-area")
        coordinators = [_component_of(n) for n in deployment.nodes_of(D21)]
        participants = {d: _coordinator_component(deployment, d) for d in (D11, D12)}
        assert len(coordinators) == 3
        transaction = cross_transfer((D11, D12), client=_client(D01))
        tid = transaction.tid
        forward = CrossForward(transaction=transaction, origin_domain=D11, client_address="probe")
        assert _coordinator_component(deployment, D21).handle_message(forward, "probe")
        # Both participants order the prepare; their votes are a wide-area hop away.
        while not all(tid in p._part for p in participants.values()):
            deployment.simulator.run(until_ms=deployment.simulator.now + 1.0)
        sequence = coordinators[0]._coord[tid].coordinator_sequence
        assert all(c._coord[tid].coordinator_sequence == sequence for c in coordinators)
        assert not any(c._coord[tid].prepared_parts for c in coordinators)
        commit = CoordinatorCommitOrder(
            tid=tid,
            sequence_parts=tuple(
                (domain, p._part[tid].participant_sequence) for domain, p in participants.items()
            ),
            request_digest=transaction.request_digest,
        )
        abort = CoordinatorAbortOrder(members=((tid, sequence),), will_retry=first == "retry")
        orders = (commit, abort) if first == "commit" else (abort, commit)
        for coordinator in coordinators:
            for slot, order in enumerate(orders, start=1000):
                coordinator.on_decide(slot, order)
        deployment.simulator.run(until_ms=deployment.simulator.now + 3_000.0)

        # A retried attempt is followed by a second one, which commits.
        committed = first != "abort"
        outcome = TransactionStatus.COMMITTED if committed else TransactionStatus.ABORTED
        attempts = [
            event.get("attempt")
            for event in deployment.trace.events("handoff:prepare")
            if event.tid == tid.name
        ]
        assert attempts == ([1, 2] if first == "retry" else [1])
        for coordinator in coordinators:
            assert coordinator.outcome_of(tid) is outcome
            assert not len(coordinator._coord_live)
        for domain in (D11, D12):
            for node in deployment.nodes_of(domain):
                appended = sum(e.transaction.tid == tid for e in node.ledger.entries())
                assert appended == int(committed)
                assert _component_of(node).outcome_of(tid) is outcome

        participant = participants[D11]
        votes = len(deployment.trace.events("handoff:prepared"))
        late = CrossPrepare(
            transaction=transaction,
            coordinator_domain=D21,
            coordinator_sequence=sequence,
            request_digest=transaction.request_digest,
        )
        decided_late = ParticipantPrepareOrder(
            transaction=transaction, coordinator_domain=D21, coordinator_sequence=sequence
        )
        assert participant.handle_message(late, "D21:n0")
        participant.on_decide(5000, decided_late)
        if first == "commit":
            # The committed attempt's duplicate prepare is answered, not re-ordered.
            assert len(deployment.trace.events("handoff:prepared")) == votes + 1
        else:
            assert len(deployment.trace.events("handoff:prepared")) == votes
        assert tid not in participant._part_pending and not participant._part_queue
        assert participant.outcome_of(tid) is outcome

    def test_a_held_prepare_is_kept_once_per_transaction(self, coordinator_deployment):
        """A retransmitted or retried prepare replaces the held copy; a stale
        one is dropped; the abort of the held attempt purges it."""
        participant = _coordinator_component(coordinator_deployment, D11)
        transaction = cross_transfer((D11, D12), client=_client(D01))
        never_ordered = cross_transfer((D11, D12), client=_client(D02)).tid

        def prepare(sequence):
            return CrossPrepare(
                transaction=transaction,
                coordinator_domain=D21,
                coordinator_sequence=sequence,
                request_digest=transaction.request_digest,
                after=(never_ordered,),
            )

        for sequence in (5, 5, 9, 7):  # a retransmission, a retry, a stale copy
            assert participant.handle_message(prepare(sequence), "D21:n0")
        held = [p for copies in participant._waiting_on_dependency.values() for p in copies]
        assert [(p.transaction.tid, p.coordinator_sequence) for p in held] == [
            (transaction.tid, 9)
        ]
        abort = CrossAbort(
            coordinator_domain=D21, members=((transaction.tid, 9),), will_retry=True
        )
        assert participant.handle_message(abort, "D21:n0")
        assert not participant._waiting_on_dependency
        # An order of the aborted attempt that consensus decides late casts no vote.
        late = ParticipantPrepareOrder(
            transaction=transaction, coordinator_domain=D21, coordinator_sequence=9
        )
        participant.on_decide(100, late)
        assert transaction.tid not in participant._part

    def test_a_finally_aborted_dependency_resolves(self, coordinator_deployment):
        participant = _coordinator_component(coordinator_deployment, D11)
        dependency = cross_transfer((D11, D12), client=_client(D02))
        waiting = cross_transfer((D11, D12), client=_client(D01))
        prepare = CrossPrepare(
            transaction=waiting,
            coordinator_domain=D21,
            coordinator_sequence=7,
            request_digest=waiting.request_digest,
            after=(dependency.tid,),
        )
        assert participant.handle_message(prepare, "D21:n0")
        assert waiting.tid not in participant._part_pending
        final = CrossAbort(coordinator_domain=D21, members=((dependency.tid, 3),))
        assert participant.handle_message(final, "D21:n0")
        assert not participant._waiting_on_dependency
        assert waiting.tid in participant._part_pending  # proposed
