"""The invariant checker against its reference (``tests/reference_invariants.py``).

The trace passes keep a first-seen value per key, settle batches as their
instant passes and replay each distinct ledger once; the reference keeps a set
per key, holds every batch and replays every replica.  Both must return the
same report — the same violations, in the same order, with the same text, and
the same ``checks_run`` — on:

* the six contract workloads of ``bench/workloads.py`` at 120 transactions,
  each on ten sub-seeds (the first repeat of ``--seed 1`` … ``--seed 10``);
* ``wan-contention-lease`` (``lease-rejoin`` seed 4, the lease pass's run)
  and ``pipeline-sweep-on`` (speculation's replay);
* every ``tests/regressions/*.json`` case;
* traces seeded with each violation the rewritten passes look for: a wiped
  node's second digest for one (kind, slot, view), a second decide digest in
  one slot, a decide left with quorum − 1 votes, a foreign append inside a
  batch, a node whose clock steps back, rejoined replicas whose state was
  edited, and a rejoined replica one committed transaction ahead of the
  others of its domain.
"""

import json
from pathlib import Path

import pytest

from bench.workloads import BY_NAME, WORKLOADS
from repro.common.types import TransactionStatus
from repro.faults.invariants import InvariantChecker
from repro.scenarios import Scenario, materialize, registry
from tests.conftest import internal_transfer
from tests.reference_invariants import ReferenceChecker
from tests.test_batching import _fields, _rerecord

CONTRACT = [workload.name for workload in WORKLOADS if workload.contract]
SUB_SEEDS = [seed * 1000 for seed in range(1, 11)]
REGRESSIONS = sorted((Path(__file__).parent / "regressions").glob("*.json"))


def _report(checker_class, deployment, trace, expect_liveness):
    report = checker_class(deployment, trace=trace).check(expect_liveness=expect_liveness)
    return report.violations, report.checks_run


def reports(deployment, trace, expect_liveness=False):
    """``(checker report, reference report)`` as (violations, checks_run)."""
    return tuple(
        _report(checker_class, deployment, trace, expect_liveness)
        for checker_class in (InvariantChecker, ReferenceChecker)
    )


def _run_reports(job):
    """One run's two reports (module level: it runs in a worker process).

    ``job`` is ``("workload", name, transactions, seed)``, ``("registry",
    name, seed)`` or ``("case", path)``."""
    if job[0] == "workload":
        _, name, transactions, seed = job
        run = materialize(BY_NAME[name].scenario(transactions), seed)
    elif job[0] == "registry":
        run = materialize(registry.get(job[1]), job[2])
    else:
        case = json.loads(Path(job[1]).read_text(encoding="utf-8"))
        run = materialize(Scenario.from_dict(case["scenario"]), case["seed"])
    run.run()
    # A simulated trace keeps each node's events in time order, so the batch
    # pass settles as it goes and never falls back to holding every batch.
    assert InvariantChecker(run.deployment, trace=run.trace)._batch_violations(True) is not None
    return reports(run.deployment, run.trace, run.expect_liveness())


def test_equal_reports_on_the_contract_workloads_and_the_regression_cases(two_workers):
    jobs = [("workload", name, 120, seed) for name in CONTRACT for seed in SUB_SEEDS]
    jobs.append(("workload", "wan-contention-lease", None, BY_NAME["wan-contention-lease"].seed))
    jobs.append(("registry", "pipeline-sweep-on", 1))  # speculation's replay
    jobs += [("case", str(path)) for path in REGRESSIONS]
    assert len(CONTRACT) == 6 and len(REGRESSIONS) >= 10
    seen_checks = set()
    for job, (mine, reference) in zip(jobs, two_workers.map(_run_reports, jobs)):
        assert mine == reference, job
        seen_checks.update(mine[1])
    # The runs reach every pass the reference differs in.
    assert {
        "decide-quorum", "batch-atomicity", "recovery-safety", "lease-safety", "speculation-safety"
    } <= seen_checks


# ---------------------------------------------------------------------------
# seeded violations


@pytest.fixture(scope="module")
def churn_run():
    """A batched churn run: PBFT votes, batches, wipes and rejoins."""
    run = materialize(registry.get("churn-sweep").with_overrides(batch_size=4), 1)
    run.run()
    return run


def _found(deployment, trace, invariant):
    """The two checkers agree on ``trace``, and find ``invariant`` broken."""
    mine, reference = reports(deployment, trace)
    assert mine == reference
    return [violation for violation in mine[0] if violation.invariant == invariant]


def test_a_clean_run_is_clean_under_both(churn_run):
    mine, reference = reports(churn_run.deployment, churn_run.trace)
    assert mine == reference and mine[0] == []
    assert "recovery-safety" in mine[1] and "batch-atomicity" in mine[1]


def test_a_wiped_node_voting_a_second_digest(churn_run):
    trace = churn_run.trace
    wiped = {event.node for event in trace.events("fault:wipe")}
    targets = [
        event for event in trace
        if event.kind in ("prepare-vote", "commit-vote") and event.node in wiped
        and event.slot is not None and event.view is not None
    ]
    first, last = targets[0], targets[-1]

    def equivocate(event, fields):
        if event is first or event is last:
            again = {**fields, "digest": "f" * 64}
            return [(event.kind, fields), (event.kind, again), (event.kind, dict(fields))]
        return [(event.kind, fields)]

    found = _found(churn_run.deployment, _rerecord(trace, equivocate), "recovery-safety")
    assert len(found) == 2 and all("2 different payloads" in str(v) for v in found)


def test_two_decide_digests_in_one_slot(churn_run):
    trace = churn_run.trace
    decides = trace.events("decide")
    targets = {id(decides[0]): "e" * 64, id(decides[len(decides) // 2]): "d" * 64}

    def conflict(event, fields):
        if id(event) in targets:
            return [(event.kind, fields), (event.kind, {**fields, "digest": targets[id(event)]})]
        return [(event.kind, fields)]

    forged = _rerecord(trace, conflict)
    assert len(_found(churn_run.deployment, forged, "conflicting-decide")) == 2
    assert len(_found(churn_run.deployment, forged, "decide-quorum")) == 2


def test_a_decide_with_one_vote_short_of_quorum(churn_run):
    trace = churn_run.trace
    deployment = churn_run.deployment
    decide = trace.events("decide")[len(trace.events("decide")) // 3]
    quorum = InvariantChecker(deployment)._server_domains[decide.domain].quorum
    voters = []
    for event in trace:
        if (
            event.kind == "commit-vote" and event.domain == decide.domain
            and event.slot == decide.slot and event.digest == decide.digest
            and event.node not in voters
        ):
            voters.append(event.node)
    dropped = set(voters[quorum - 1:])

    def starve(event, fields):
        if (
            event.kind == "commit-vote" and event.domain == decide.domain
            and event.slot == decide.slot and event.node in dropped
        ):
            return []
        return [(event.kind, fields)]

    found = _found(deployment, _rerecord(trace, starve), "decide-quorum")
    assert found and all(f"only {quorum - 1} cast vote(s)" in v.detail for v in found)


def _tearable_batch(trace):
    """A batch with two or more decide-time appends, and those appends."""
    for decide in trace.events("batch-decide"):
        tids = set(decide.get("tids", ()))
        appends = [
            e for e in trace.events("append")
            if e.node == decide.node and e.at_ms == decide.at_ms and e.tid in tids
        ]
        if len(appends) >= 2:
            return decide, appends
    raise AssertionError("expected a batch with >= 2 decide-time appends")


def test_a_foreign_append_inside_a_batch(churn_run):
    trace = churn_run.trace
    decide, appends = _tearable_batch(trace)

    def interleave(event, fields):
        if event is appends[0]:
            foreign = {**fields, "tid": "forged@D11/c0"}
            return [(event.kind, fields), ("append", foreign)]
        return [(event.kind, fields)]

    found = _found(churn_run.deployment, _rerecord(trace, interleave), "batch-atomicity")
    assert len(found) == 1 and "interleave" in found[0].detail


def test_a_node_clock_stepping_back(churn_run):
    """Settling by instant needs each node's events in time order; a forged
    trace without it is judged as the reference judges it."""
    trace = churn_run.trace
    decide, appends = _tearable_batch(trace)
    later = next(
        e for e in trace.events("append") if e.node == decide.node and e.at_ms > decide.at_ms
    )

    def step_back(event, fields):
        if event is later:
            # A batch tid appended again at the batch's instant, after a later one.
            return [(event.kind, fields), ("append", _fields(appends[-1]))]
        return [(event.kind, fields)]

    forged = _rerecord(trace, step_back)
    checker = InvariantChecker(churn_run.deployment, trace=forged)
    assert checker._batch_violations(settle=True) is None
    assert InvariantChecker(churn_run.deployment)._batch_violations(settle=True) == []
    assert _found(churn_run.deployment, forged, "batch-atomicity")


def _rejoined(run):
    """The replicas whose last recovery completed, by address."""
    latest = {}
    for event in run.trace:
        if event.kind in ("recovery:rejoin", "fault:wipe"):
            latest[event.node] = event.kind
    return sorted(node for node, kind in latest.items() if kind == "recovery:rejoin")


def test_rejoined_replicas_with_edited_state():
    run = materialize(registry.get("churn-sweep"), 2)
    run.run()
    rejoined = _rejoined(run)
    edited = [run.deployment.node(rejoined[0]), run.deployment.node(rejoined[-1])]
    for node in edited:
        node.state.put("forged-key", node.address)
    found = _found(run.deployment, run.trace, "recovery-safety")
    assert sorted(v.detail.split(":")[0] for v in found) == sorted(n.address for n in edited)


def test_rejoined_replicas_holding_different_ledgers():
    """A replica one committed transaction ahead of its domain's other
    rejoined replicas gets its own replay, and no replica is blamed."""
    run = materialize(registry.get("churn-sweep"), 2)
    run.run()
    rejoined = [run.deployment.node(address) for address in _rejoined(run)]
    ahead = next(
        node for node in rejoined
        if sum(other.domain.id == node.domain.id for other in rejoined) >= 2
    )
    transaction = internal_transfer(ahead.domain.id)
    ahead.ledger.append_transaction(
        transaction, status=TransactionStatus.COMMITTED, commit_time_ms=ahead.simulator.now
    )
    run.deployment.application.execute(transaction, ahead.state, ahead.domain.id)
    assert not _found(run.deployment, run.trace, "recovery-safety")
