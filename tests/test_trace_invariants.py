"""TraceRecorder behavior and InvariantChecker verdicts.

Two halves: every registry scenario must *pass* invariant checking (the
acceptance bar for the fault subsystem), and the checker must *catch* seeded
violations (otherwise "passing" means nothing).
"""

import pytest

from repro.common.types import TransactionStatus
from repro.errors import ConfigurationError, InvariantViolationError
from repro.faults import InvariantChecker, TraceRecorder
from repro.scenarios import ScenarioRunner, registry
from tests.conftest import cross_transfer, make_deployment


def _small(scenario):
    return scenario.with_overrides(num_transactions=32, num_clients=4)


def _cross_domain_order_naive(checker):
    """The pre-index O(cross²) pairwise scan: the oracle the checker's
    indexed ``cross-order`` pass must agree with."""
    violations = []
    positions, transactions, ordered_tids = checker._collect_cross_positions()
    for i, first in enumerate(ordered_tids):
        for second in ordered_tids[i + 1 :]:
            violation = checker._compare_cross_pair(
                first, second, positions, transactions
            )
            if violation is not None:
                violations.append(violation)
    return violations


@pytest.fixture(scope="module")
def checked_run():
    """One executed, invariant-checked small figure run, shared by tests."""
    runner = ScenarioRunner()
    run = runner.execute(_small(registry.get("fig08a")))
    run.check_invariants()
    return run


class TestTraceRecorder:
    def test_run_records_every_protocol_stage(self, checked_run):
        kinds = checked_run.trace.kinds()
        for expected in ("propose", "prepare-vote", "commit-vote", "decide",
                         "append", "certify", "handoff:forward",
                         "handoff:prepare", "handoff:prepared", "handoff:commit"):
            assert kinds.get(expected, 0) > 0, expected

    def test_trace_json_round_trip(self, checked_run):
        trace = checked_run.trace
        restored = TraceRecorder.from_json(trace.to_json())
        assert list(restored) == list(trace)

    def test_json_round_trip_gives_back_equal_events(self):
        """A list detail is stored as a tuple, and read back as one."""
        recorder = TraceRecorder()
        recorder.record("batch-decide", at_ms=1.0, node="D11/n0",
                        tids=["tx1@D01/c1", "tx2@D01/c1"], size=2)
        recorder.record("append", at_ms=2.0, node="D11/n0", involved=("D11",))
        restored = TraceRecorder.from_json(recorder.to_json())
        assert list(restored) == list(recorder)
        assert restored.events()[0].get("tids") == ("tx1@D01/c1", "tx2@D01/c1")
        assert restored.to_json() == recorder.to_json()

    def test_an_event_is_numbered_by_its_place_in_the_trace(self):
        """Events store no ``seq``; the JSON form writes each one's index, and
        a JSON trace whose events are out of their numbered order is refused."""
        recorder = TraceRecorder()
        for at_ms in (1.0, 2.0, 3.0):
            recorder.record("propose", at_ms=at_ms, node="D11/n0")
        assert not any(hasattr(event, "seq") for event in recorder)
        data = recorder.to_dict()
        assert [entry["seq"] for entry in data["events"]] == [0, 1, 2]
        data["events"][0], data["events"][1] = data["events"][1], data["events"][0]
        with pytest.raises(ConfigurationError, match="numbered"):
            TraceRecorder.from_dict(data)

    def test_equal_details_are_one_object(self):
        recorder = TraceRecorder()
        for node in ("D11/n0", "D11/n1"):
            recorder.record("append", at_ms=1.0, node=node, status="committed",
                            involved=["D11", "D12"])
        recorder.record("append", at_ms=1.0, node="D11/n2", status="committed",
                        involved=["D11"])
        first, second, other = recorder
        assert first.detail is second.detail
        assert other.detail is not first.detail
        assert first.get("involved") == ("D11", "D12")
        loaded_first, loaded_second, _ = TraceRecorder.from_json(recorder.to_json())
        assert loaded_first.detail is loaded_second.detail

    def test_shared_details_are_the_events_own_tuples(self, checked_run):
        """One tuple per distinct detail, held by its events: the table keeps
        no second copy, also of a detail recorded only once."""
        trace = checked_run.trace
        distinct = {event.detail for event in trace if event.detail}
        assert len(trace._details) == len(distinct)
        for event in trace:
            if event.detail:
                assert trace._details[event.detail] is event.detail

    def test_detail_with_a_dict_value_is_still_recorded(self):
        recorder = TraceRecorder()
        for at_ms in (1.0, 2.0):
            recorder.record("custom", at_ms=at_ms, meta={"lanes": [1, 2]}, count=3)
        first, second = recorder
        assert first.get("meta") == {"lanes": [1, 2]} and first.get("count") == 3
        assert second.detail == first.detail
        assert list(TraceRecorder.from_json(recorder.to_json())) == list(recorder)

    def test_disabled_recorder_records_nothing(self):
        recorder = TraceRecorder(enabled=False)
        recorder.record("propose", at_ms=1.0, domain="D11", node="D11/n0")
        assert len(recorder) == 0

    def test_events_filters_by_kind_and_prefix(self, checked_run):
        trace = checked_run.trace
        decides = trace.events("decide")
        assert decides and all(e.kind == "decide" for e in decides)
        handoffs = trace.events_with_prefix("handoff:")
        assert handoffs and all(e.kind.startswith("handoff:") for e in handoffs)


class TestRegistryScenariosPassChecking:
    """Acceptance: every figure scenario is a *checked* execution."""

    @pytest.mark.parametrize("name", registry.PAPER_FIGURES)
    def test_paper_figure_passes_invariants(self, name):
        runner = ScenarioRunner(check_invariants=True)
        run = runner.execute(registry.get(name))
        assert run.summary is not None and run.summary.pending == 0

    @pytest.mark.parametrize("name", registry.ADVERSARIAL_SCENARIOS)
    def test_adversarial_scenario_passes_invariants(self, name):
        runner = ScenarioRunner(check_invariants=True)
        run = runner.execute(registry.get(name))
        assert run.summary is not None and run.summary.pending == 0
        # The fault plan actually fired: its arming left trace evidence.
        assert run.trace.events_with_prefix("fault:")


class TestCheckerCatchesSeededViolations:
    """Checker self-tests: corrupt a run (or a trace) and expect violations."""

    def test_tampered_replica_ledger_is_detected(self):
        runner = ScenarioRunner()
        run = runner.execute(_small(registry.get("fig07a")))
        domain = run.deployment.hierarchy.height1_domains()[0]
        replica = run.deployment.nodes_of(domain.id)[1]
        records = replica.ledger._records
        assert records, "expected committed entries on the replica"
        record = records[0]
        forged_tx = record.entry.transaction
        forged_tx = type(forged_tx)(
            tid=forged_tx.tid,
            kind=forged_tx.kind,
            involved_domains=forged_tx.involved_domains,
            payload={**dict(forged_tx.payload), "amount": 1_000_000.0},
            read_keys=forged_tx.read_keys,
            write_keys=forged_tx.write_keys,
            client=forged_tx.client,
        )
        records[0] = type(record)(
            entry=type(record.entry)(
                transaction=forged_tx,
                sequence=record.entry.sequence,
                status=record.entry.status,
                commit_time_ms=record.entry.commit_time_ms,
            ),
            block_hash=record.block_hash,
        )
        report = InvariantChecker(run.deployment).check()
        assert not report.ok
        # Both see it: the forged object differs in content from the other
        # replicas' (shared) transaction, and no longer matches its block hash.
        assert report.of("replica-consistency") and report.of("chain-integrity")
        with pytest.raises(InvariantViolationError):
            report.raise_if_violated()

    def _synthetic_trace(self, deployment):
        domain = deployment.hierarchy.height1_domains()[0]
        nodes = [n.address for n in deployment.nodes_of(domain.id)]
        return domain, nodes, TraceRecorder()

    def test_decide_without_quorum_votes_is_detected(self, checked_run):
        deployment = checked_run.deployment
        domain, nodes, trace = self._synthetic_trace(deployment)
        trace.record("commit-vote", at_ms=1.0, domain=domain.id.name,
                     node=nodes[0], slot=1, digest=b"\x01")
        trace.record("decide", at_ms=2.0, domain=domain.id.name,
                     node=nodes[0], slot=1, digest=b"\x01")
        report = InvariantChecker(deployment, trace=trace).check()
        assert report.of("decide-quorum")

    def test_conflicting_decides_are_detected(self, checked_run):
        deployment = checked_run.deployment
        domain, nodes, trace = self._synthetic_trace(deployment)
        for node, digest in ((nodes[0], b"\x01"), (nodes[1], b"\x02")):
            for voter in nodes[:3]:
                trace.record("commit-vote", at_ms=1.0, domain=domain.id.name,
                             node=voter, slot=1, digest=digest)
            trace.record("decide", at_ms=2.0, domain=domain.id.name,
                         node=node, slot=1, digest=digest)
        report = InvariantChecker(deployment, trace=trace).check()
        assert report.of("conflicting-decide")

    def test_understrength_certificate_is_detected(self, checked_run):
        deployment = checked_run.deployment
        domain, nodes, trace = self._synthetic_trace(deployment)
        trace.record("certify", at_ms=1.0, domain=domain.id.name, node=nodes[0],
                     digest=b"\x03", signers=[nodes[0]], required=1)
        report = InvariantChecker(deployment, trace=trace).check()
        # required=1 understates the Byzantine domain's 2f+1 certificate size.
        assert report.of("certificate-quorum")

    def test_foreign_signer_in_certificate_is_detected(self, checked_run):
        deployment = checked_run.deployment
        domain, nodes, trace = self._synthetic_trace(deployment)
        signers = list(nodes[:-1]) + ["intruder/n9"]
        trace.record("certify", at_ms=1.0, domain=domain.id.name, node=nodes[0],
                     digest=b"\x04", signers=signers, required=len(signers))
        report = InvariantChecker(deployment, trace=trace).check()
        assert any(
            "outside the domain" in v.detail
            for v in report.of("certificate-quorum")
        )

    def test_broken_cross_domain_atomicity_is_detected(self):
        deployment = make_deployment()
        domains = [d.id for d in deployment.hierarchy.height1_domains()]
        transaction = cross_transfer(domains[:2])
        # Seed the violation: committed on the first involved domain only.
        for node in deployment.nodes_of(domains[0]):
            node.ledger.append_transaction(
                transaction, status=TransactionStatus.COMMITTED, commit_time_ms=1.0
            )
        report = InvariantChecker(deployment).check()
        assert report.of("cross-atomicity")

    def test_forged_cross_domain_order_violation_is_caught_by_indexed_path(self):
        """Self-test for the participant-set-indexed cross-order check.

        Forge the classic ordering violation — two cross-domain transactions
        over the same two domains committed in opposite orders — and assert
        the indexed path still catches it, with exactly the violations the
        naive O(cross²) pairwise scan reports.
        """
        deployment = make_deployment()
        domains = [d.id for d in deployment.hierarchy.height1_domains()]
        first = cross_transfer(domains[:2], sender_index=0, recipient_index=1)
        second = cross_transfer(domains[:2], sender_index=2, recipient_index=3)
        orders = {domains[0]: (first, second), domains[1]: (second, first)}
        for domain_id, (early, late) in orders.items():
            for node in deployment.nodes_of(domain_id):
                for tx in (early, late):
                    node.ledger.append_transaction(
                        tx, status=TransactionStatus.COMMITTED, commit_time_ms=1.0
                    )
        checker = InvariantChecker(deployment)
        indexed = checker._check_cross_domain_order()
        assert indexed, "the forged ordering violation must be flagged"
        assert any(
            first.tid.name in v.detail and second.tid.name in v.detail
            for v in indexed
        )
        report = checker.check()
        assert report.of("replica-consistency")

    def test_indexed_cross_order_check_matches_naive_scan(self):
        """Equivalence: indexed and naive scans agree, clean or violated.

        One real multi-cross run (nothing to flag) and the forged-violation
        deployment (something to flag) must produce identical violation sets.
        """
        def violations_agree(checker):
            indexed = {str(v) for v in checker._check_cross_domain_order()}
            naive = {str(v) for v in _cross_domain_order_naive(checker)}
            assert indexed == naive
            return indexed

        run = ScenarioRunner().execute(
            registry.get("fig07b").with_overrides(num_transactions=32, num_clients=6)
        )
        assert not violations_agree(InvariantChecker(run.deployment))

        deployment = make_deployment()
        domains = [d.id for d in deployment.hierarchy.height1_domains()]
        first = cross_transfer(domains[:2], sender_index=0, recipient_index=1)
        second = cross_transfer(domains[:2], sender_index=2, recipient_index=3)
        # A third transaction over a *disjoint* pair: shares no domain pair
        # with the violators, so neither scan may pair it with them.
        third = cross_transfer(domains[2:4], sender_index=4, recipient_index=5)
        orders = {
            domains[0]: (first, second),
            domains[1]: (second, first),
            domains[2]: (third,),
            domains[3]: (third,),
        }
        for domain_id, txs in orders.items():
            for node in deployment.nodes_of(domain_id):
                for tx in txs:
                    node.ledger.append_transaction(
                        tx, status=TransactionStatus.COMMITTED, commit_time_ms=1.0
                    )
        flagged = violations_agree(InvariantChecker(deployment))
        assert flagged and all(third.tid.name not in v for v in flagged)

    def test_cross_order_check_matches_naive_on_random_ledgers(self):
        """The per-bucket sort that skips the pair walk never hides a pair.

        Random commit orders of two- and three-domain transactions over three
        domains, some committed on only part of their domains: the indexed
        check must return exactly the naive scan's violations — both when
        every bucket is in order (the walk is skipped) and when only a third
        shared domain disagrees.
        """
        import random

        rng = random.Random(18)
        outcomes = set()
        for _ in range(40):
            deployment = make_deployment()
            domains = [d.id for d in deployment.hierarchy.height1_domains()][:3]
            txs = [
                cross_transfer(rng.sample(domains, rng.choice((2, 3))), 2 * i, 2 * i + 1)
                for i in range(5)
            ]
            shuffle = rng.random() < 0.7
            for domain_id in domains:
                mine = [
                    tx for tx in txs
                    if domain_id in tx.involved_domains and rng.random() < 0.85
                ]
                if shuffle:
                    rng.shuffle(mine)
                for node in deployment.nodes_of(domain_id):
                    for tx in mine:
                        node.ledger.append_transaction(
                            tx, status=TransactionStatus.COMMITTED, commit_time_ms=1.0
                        )
            checker = InvariantChecker(deployment)
            indexed = sorted(str(v) for v in checker._check_cross_domain_order())
            naive = sorted(str(v) for v in _cross_domain_order_naive(checker))
            assert indexed == naive
            outcomes.add(bool(indexed))
        assert outcomes == {True, False}

    def test_unfinished_transaction_fails_liveness_when_expected(self):
        deployment = make_deployment()
        domains = [d.id for d in deployment.hierarchy.height1_domains()]
        transaction = cross_transfer(domains[:2])
        deployment.metrics.record_issue(transaction.tid, transaction.kind, 1.0)
        report = InvariantChecker(deployment).check(expect_liveness=True)
        assert report.of("liveness")
        # ... but liveness is not asserted by default.
        assert InvariantChecker(deployment).check().ok
