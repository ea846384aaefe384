"""Batch-aware cross-domain commit: knobs, grouped 2PC, failure paths.

Four layers of coverage:

* the scenario-spec surface for the ``xdomain_batch_size`` /
  ``xdomain_batch_timeout_ms`` knobs (validation, JSON round-trip, builder,
  sweeps, registry family);
* grouped end-to-end runs: group events on the trace, aggregated exchanges,
  full invariant checking including the group-atomicity invariant;
* grouped 2PC failure paths: a participant that never orders the group's
  part, a coordinator deposed mid-group (batch drop → ``on_submission_dropped``
  → re-group and retry), and a mixed group where one member aborts while its
  siblings commit;
* adversarial coverage: every ``byz-*`` fault-plan scenario with grouping on.

The golden pins (``xdomain_batch_size=1`` == the pre-grouping coordinator, bit
for bit) live in ``tests/test_goldens.py``.
"""

import json

import pytest

from repro.common.config import DeploymentConfig
from repro.common.types import ClientId, CrossDomainProtocol, DomainId, TransactionStatus
from repro.core.coordinator import CoordinatorCrossDomainProtocol
from repro.core.messages import (
    CoordinatorPrepareOrder,
    CrossForward,
    GroupCrossPrepared,
    GroupPrepareOrder,
)
from repro.errors import ConsensusError
from repro.scenarios import ScenarioRunner, registry
from tests.conftest import cross_transfer, make_deployment

D01, D02 = DomainId(0, 1), DomainId(0, 2)
D11, D12, D13, D14 = (DomainId(1, i) for i in range(1, 5))
D21 = DomainId(2, 1)


def _coordinator_component(deployment, domain_id) -> CoordinatorCrossDomainProtocol:
    node = deployment.primary_node_of(domain_id)
    for component in node.components:
        if isinstance(component, CoordinatorCrossDomainProtocol):
            return component
    raise AssertionError("coordinator component missing")


# ---------------------------------------------------------------------------
# Spec surface
# ---------------------------------------------------------------------------


def test_xdomain_knobs_sweep_through_overrides():
    base = registry.get("fig10a")
    derived = base.with_overrides(xdomain_batch_size=8, xdomain_batch_timeout_ms=2.0)
    assert derived.xdomain_batch_size == 8
    assert derived.xdomain_batch_timeout_ms == 2.0
    assert base.xdomain_batch_size == 1  # default untouched
    swept = ScenarioRunner().sweep  # sweeps resolve the knob by name
    assert callable(swept)


def test_xbatch_sweep_family_is_registered():
    base = registry.get("xbatch-sweep")
    assert base.xdomain_batch_size == 1
    assert base.latency_profile == "wide-area"
    assert base.workload.cross_domain_ratio == 1.0
    for size in registry.XBATCH_SWEEP_SIZES:
        scenario = registry.get(f"xbatch-sweep-g{size:03d}")
        assert scenario.xdomain_batch_size == size


def test_submit_group_rejects_non_group_payloads():
    deployment = make_deployment()
    primary = deployment.primary_node_of(D11)
    with pytest.raises(ConsensusError):
        primary.engine.submit_group("not a group payload")


# ---------------------------------------------------------------------------
# Grouped end-to-end
# ---------------------------------------------------------------------------


def test_grouped_run_commits_and_checks_group_atomicity():
    scenario = registry.get("fig10a").with_overrides(
        num_clients=16, xdomain_batch_size=8
    )
    run = ScenarioRunner(check_invariants=True).execute(scenario)
    assert run.summary is not None
    assert run.summary.pending == 0
    kinds = run.trace.kinds()
    assert kinds.get("handoff:group-prepare", 0) > 0
    assert kinds.get("handoff:group-vote", 0) > 0
    assert kinds.get("handoff:group-commit", 0) > 0
    exchanges = run.trace.group_exchanges()
    assert exchanges
    # Every exchange's commit is a subset of its membership.
    multi_member = 0
    for (_, gid), events in exchanges.items():
        members = set(events["prepare"][0].get("tids", ()))
        if len(members) > 1:
            multi_member += 1
        for event in events["commit"]:
            assert set(event.get("tids", ())) <= members
    assert multi_member > 0  # grouping actually aggregated transactions
    report = run.check_invariants()
    assert report.ok
    assert "group-atomicity" in report.checks_run


def test_grouped_runs_are_deterministic():
    scenario = registry.get("fig10a").with_overrides(
        num_transactions=48, num_clients=8, xdomain_batch_size=4
    )
    runner = ScenarioRunner()
    first = runner.execute(scenario)
    second = runner.execute(scenario)
    assert json.dumps(first.run().to_dict(), sort_keys=True) == json.dumps(
        second.run().to_dict(), sort_keys=True
    )
    assert first.trace.to_json() == second.trace.to_json()


@pytest.mark.parametrize("name", registry.ADVERSARIAL_SCENARIOS)
def test_adversarial_scenarios_stay_safe_with_grouping(name):
    scenario = registry.get(name).with_overrides(
        num_transactions=32, num_clients=6,
        xdomain_batch_size=4, xdomain_batch_timeout_ms=5.0,
    )
    run = ScenarioRunner(check_invariants=True).execute(scenario)
    assert run.summary is not None
    report = run.check_invariants()
    assert report.ok
    assert "group-atomicity" in report.checks_run


def test_smoke_xbatch_mode_is_table_driven():
    from repro.faults import smoke

    assert set(smoke.MODES) >= {"default", "batch", "xbatch"}
    scenarios = smoke.MODES["xbatch"]()
    assert any(s.xdomain_batch_size > 1 for s in scenarios)
    assert smoke.main("bogus") == 2


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------


def _forward(transaction, origin=D11) -> CrossForward:
    return CrossForward(
        transaction=transaction, origin_domain=origin, client_address="probe"
    )


def test_deposed_coordinator_drops_group_and_regroup_retries():
    """Batch drop → ``on_submission_dropped`` → re-group and retry.

    The coordinator groups two cross-domain transactions and submits the
    group into its (batched) consensus engine; it is deposed before the
    engine batch flushes, so the batcher drops the unproposed group payload.
    The drop notification must clear the members' dedup state, and the node,
    re-elected, must re-group retransmitted forwards into a fresh group.
    """
    from repro.common.config import DomainSpec, HierarchySpec
    from repro.core.system import SaguaroDeployment
    from repro.topology.builders import build_tree
    from repro.topology.regions import placement_for_profile
    from repro.workloads.micropayment import MicropaymentApplication

    config = DeploymentConfig(
        hierarchy=HierarchySpec(default_spec=DomainSpec()),
        protocol=CrossDomainProtocol.COORDINATOR,
        batch_size=8,
        batch_timeout_ms=5.0,
        xdomain_batch_size=2,
        xdomain_batch_timeout_ms=5.0,
        seed=11,
    )
    hierarchy = build_tree(config.hierarchy)
    placement_for_profile(hierarchy, config.latency_profile)
    deployment = SaguaroDeployment(
        config, MicropaymentApplication(accounts_per_domain=8), hierarchy
    )
    component = _coordinator_component(deployment, D21)
    primary = component.node
    first = cross_transfer((D11, D12), client=ClientId(home=D01, index=1))
    second = cross_transfer((D11, D12), client=ClientId(home=D02, index=1))
    assert component.handle_message(_forward(first), "probe")
    assert component.handle_message(_forward(second), "probe")
    # The group filled (size 2) and was submitted into the engine batcher.
    assert first.tid in component._coord_pending
    assert len(component._group_pending) == 1
    assert primary.engine.batcher.pending_count == 1
    # Deposed before the engine batch flushes: the group payload is dropped.
    primary.engine._view = 1
    assert not primary.engine.is_primary
    deployment.simulator.run(until_ms=50.0)
    assert primary.engine.batcher.pending_count == 0
    assert not component._group_pending
    assert first.tid not in component._coord_pending
    assert second.tid not in component._coord_pending
    drops = deployment.trace.events("batch-drop")
    assert drops and drops[0].get("size") == 1
    # Re-elected: retransmitted forwards re-group into a fresh group.
    primary.engine._view = 0
    assert primary.engine.is_primary
    assert component.handle_message(_forward(first), "probe")
    assert component.handle_message(_forward(second), "probe")
    assert len(component._group_pending) == 1
    regrouped = next(iter(component._group_pending.values()))
    assert {m.transaction.tid for m in regrouped.members} == {first.tid, second.tid}


def test_mixed_group_one_member_aborts_while_siblings_commit(monkeypatch):
    """Per-member outcomes: a member whose votes never complete is finally
    aborted while its fully-prepared sibling commits, in one exchange.

    Driven coordinator-side with forged votes (the wide-area latencies keep
    the real participants' votes out of the window): the sibling's votes
    arrive from both participants, the victim's never do, and the group
    timer must commit exactly the prepared member.
    """
    import repro.core.coordinator as coordinator_module

    monkeypatch.setattr(coordinator_module, "MAX_ATTEMPTS", 1)
    deployment = make_deployment(latency_profile="wide-area")
    # Rebuild the component view with grouping on: patch the knobs directly
    # (the deployment was built ungrouped; grouping is per-component state).
    component = _coordinator_component(deployment, D21)
    component._group_size = 2
    component._group_timeout_ms = 5.0
    survivor = cross_transfer((D11, D12), client=ClientId(home=D01, index=1))
    victim = cross_transfer((D11, D12), client=ClientId(home=D02, index=1))
    assert component.handle_message(_forward(survivor), "probe")
    assert component.handle_message(_forward(victim), "probe")
    # Let the coordinator's internal consensus decide the group prepare (the
    # participants are a wide-area round trip away, so their real votes
    # cannot arrive before the short cross-domain timer below).
    deployment.simulator.run(until_ms=40.0)
    groups = component.coordinated_groups()
    assert len(groups) == 1
    gid = groups[0]
    state = component._groups[gid]
    assert set(component.group_members(gid)) == {survivor.tid, victim.tid}
    # Forge both participants' aggregated votes for the survivor only.
    for participant, seq in ((D11, 7), (D12, 9)):
        message = GroupCrossPrepared(
            group_id=gid,
            participant_domain=participant,
            coordinator_sequence=state.coordinator_sequence,
            participant_sequence=seq,
            tids=(survivor.tid,),
        )
        assert component.handle_message(message, "probe")
    # Fire the group timer early (before the real wide-area votes land): the
    # survivor's commit and the victim's final abort are both ordered.
    component._on_deadlock_timeout(state)
    deployment.simulator.run(until_ms=deployment.simulator.now + 60.0)
    for node in deployment.nodes_of(D21):
        replica = next(
            c for c in node.components if isinstance(c, CoordinatorCrossDomainProtocol)
        )
        assert replica.outcome_of(survivor.tid) is TransactionStatus.COMMITTED
        assert replica.outcome_of(victim.tid) is TransactionStatus.ABORTED
    commit_events = deployment.trace.events("handoff:group-commit")
    assert commit_events and commit_events[0].get("tids") == (survivor.tid.name,)
    abort_events = deployment.trace.events("handoff:abort")
    assert abort_events and abort_events[0].get("tids") == (victim.tid.name,)
    assert abort_events[0].get("gid") == gid
    assert abort_events[0].get("will_retry") is False


def test_participant_that_never_orders_the_group_part_aborts_cleanly():
    """A participant domain that never orders the group's part (crashed past
    its fault tolerance) must final-abort the members after the retries are
    exhausted — and safety (cross-atomicity per member) must hold."""
    from repro.common.config import TimerConfig
    from repro.faults import FaultAction, FaultPlan

    quick = TimerConfig(
        request_timeout_ms=400.0,
        cross_domain_timeout_ms=120.0,
        deadlock_backoff_ms=10.0,
        commit_query_timeout_ms=150.0,
        view_change_timeout_ms=4_000.0,  # beyond the run: D12 stays down
    )
    scenario = registry.get("fig07a").with_overrides(
        num_transactions=24,
        num_clients=6,
        cross_domain_ratio=0.4,
        xdomain_batch_size=4,
        xdomain_batch_timeout_ms=5.0,
        timers=quick,
        fault_plan=FaultPlan(
            actions=tuple(
                FaultAction(kind="crash", at_ms=0.5, domain="D12", node=index)
                for index in range(3)
            )
        ),
        max_simulated_ms=8_000.0,
    )
    run = ScenarioRunner().execute(scenario)
    assert run.summary is not None
    # Cross-domain transactions involving D12 can never prepare there; after
    # MAX_ATTEMPTS grouped retries they must be finally aborted, not wedged.
    assert run.summary.aborted > 0
    report = run.check_invariants(expect_liveness=False)
    assert report.ok
    aborts = [
        event
        for event in run.trace.events("handoff:abort")
        if event.get("gid") is not None and event.get("will_retry") is False
    ]
    assert aborts


# ---------------------------------------------------------------------------
# Group-atomicity checker self-test (forged traces)
# ---------------------------------------------------------------------------


def _replay_without(run, drop_predicate, mutate=None):
    from repro.faults.invariants import InvariantChecker
    from repro.faults.trace import TraceRecorder

    forged = TraceRecorder()
    for event in run.trace:
        if drop_predicate(event):
            continue
        detail = dict(event.detail)
        if mutate is not None:
            mutate(event, detail)
        forged.record(
            event.kind, at_ms=event.at_ms, domain=event.domain, node=event.node,
            tid=event.tid, slot=event.slot, view=event.view, digest=event.digest,
            **detail,
        )
    return InvariantChecker(run.deployment, trace=forged).check()


def _grouped_run_with_multi_member_commit():
    scenario = registry.get("fig10a").with_overrides(
        num_clients=16, xdomain_batch_size=8
    )
    run = ScenarioRunner().execute(scenario)
    for event in run.trace.events("handoff:group-commit"):
        if len(event.get("tids", ())) >= 2:
            return run, event
    raise AssertionError("expected a multi-member group commit")


def test_group_atomicity_checker_flags_commit_without_votes():
    run, commit = _grouped_run_with_multi_member_commit()
    gid = commit.get("gid")
    victim = commit.get("tids")[0]

    def drop_victim_votes(event):
        return (
            event.kind == "handoff:group-vote"
            and event.get("gid") == gid
            and victim in event.get("tids", ())
        )

    report = _replay_without(run, drop_victim_votes)
    found = report.of("group-atomicity")
    assert found and any("without prepared votes" in str(v) for v in found)


def test_group_atomicity_checker_flags_dropped_prepared_member():
    run, commit = _grouped_run_with_multi_member_commit()
    gid = commit.get("gid")
    victim = commit.get("tids")[0]

    def strip_victim_from_commit(event, detail):
        if event.kind == "handoff:group-commit" and event.get("gid") == gid:
            detail["tids"] = [tid for tid in detail.get("tids", []) if tid != victim]

    report = _replay_without(run, lambda event: False, strip_victim_from_commit)
    found = report.of("group-atomicity")
    assert found and any("left uncommitted" in str(v) for v in found)
