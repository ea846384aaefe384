"""Type-keyed dispatch: every payload class has its receiver, and a payload
nobody takes is dropped visibly.

* **Receiver coverage.**  On coordinator, optimistic, AHL and SharPer
  deployments (each once with crash-only and once with Byzantine domains,
  so both engines are built), every message class of
  ``core/messages.py``, ``consensus/messages.py`` and
  ``baselines/sharper.py`` has a receiver on some node, exactly one per
  node and hook kind, except ``ClientRequest``, whose ordered receiver
  tuple is pinned per deployment kind and height.
* **Subclasses route by their own type.**  ``GroupParticipantPrepareOrder
  WithLeases`` reaches the same hooks as the order it extends, and AHL's
  committee component takes exactly the coordinator's types.
* **The drop rule.**  An unknown payload delivered to a height-1 and a
  height-2 node leaves one ``node:unhandled`` event each and changes no
  ledger, state, DAG, result or routing table; the forged payloads an
  equivocating primary gets decided show up the same way, at the decide
  hook, with every invariant still holding.
"""

import inspect
from dataclasses import dataclass, is_dataclass

import pytest

from repro.baselines import sharper
from repro.baselines.ahl import AhlReferenceCommitteeProtocol
from repro.baselines.deployment import AHL, SHARPER, BaselineDeployment
from repro.common.config import DeploymentConfig, DomainSpec, HierarchySpec
from repro.common.types import CrossDomainProtocol, FailureModel
from repro.errors import ConfigurationError
from repro.consensus import messages as consensus_messages
from repro.consensus.messages import SlotStatusQuery
from repro.core import messages as core_messages
from repro.core.coordinator import CoordinatorCrossDomainProtocol
from repro.core.internal import InternalTransactionProtocol
from repro.core.lazy import LazyPropagation
from repro.core.messages import (
    ClientRequest,
    GroupParticipantPrepareOrder,
    GroupParticipantPrepareOrderWithLeases,
)
from repro.core.mobile import MobileConsensusProtocol
from repro.core.node import _EngineRoute
from repro.core.optimistic import OptimisticCrossDomainProtocol
from repro.scenarios import ScenarioRunner, materialize, registry
from repro.workloads.micropayment import MicropaymentApplication
from tests.conftest import make_deployment

#: Classes of those modules that never reach a server node as a payload.
NOT_NODE_PAYLOADS = {
    core_messages.ClientReply,  # delivered to edge devices, not servers
    core_messages.AdoptedMember,  # a member record inside a group order
    consensus_messages.ConsensusMessage,  # the engines' common base class
}


def _message_classes():
    classes = []
    for module in (core_messages, consensus_messages, sharper):
        for name in module.__all__:
            cls = getattr(module, name)
            if inspect.isclass(cls) and is_dataclass(cls):
                classes.append(cls)
    return [cls for cls in classes if cls not in NOT_NODE_PAYLOADS]


def _baseline(system, failure_model):
    spec = DomainSpec(failure_model=failure_model, faults=1)
    config = DeploymentConfig(hierarchy=HierarchySpec(default_spec=spec), seed=3)
    return BaselineDeployment(
        system=system,
        config=config,
        application=MicropaymentApplication(accounts_per_domain=16),
        shard_spec=spec,
    )


DEPLOYMENTS = {
    "coordinator": lambda model: make_deployment(failure_model=model),
    "optimistic": lambda model: make_deployment(
        protocol=CrossDomainProtocol.OPTIMISTIC, failure_model=model
    ),
    "ahl": lambda model: _baseline(AHL, model),
    "sharper": lambda model: _baseline(SHARPER, model),
}

_MODELS = (FailureModel.CRASH, FailureModel.BYZANTINE)

#: ``ClientRequest``'s receivers, by deployment kind and height-1 or not:
#: the mobile protocol must see an INTERNAL request from a device whose state
#: is still away before the internal protocol does.
CLIENT_REQUEST_RECEIVERS = {
    ("coordinator", True): (
        MobileConsensusProtocol,
        CoordinatorCrossDomainProtocol,
        InternalTransactionProtocol,
    ),
    ("coordinator", False): (CoordinatorCrossDomainProtocol,),
    ("optimistic", True): (
        MobileConsensusProtocol,
        OptimisticCrossDomainProtocol,
        InternalTransactionProtocol,
    ),
    ("optimistic", False): (OptimisticCrossDomainProtocol,),
    ("ahl", True): (AhlReferenceCommitteeProtocol, InternalTransactionProtocol),
    ("ahl", False): (AhlReferenceCommitteeProtocol,),
    ("sharper", True): (
        sharper.SharperCrossShardProtocol,
        InternalTransactionProtocol,
    ),
    ("sharper", False): (),  # the idle root hosts no component
}


def _tables(node):
    """The node's routes as ``{hook kind: {type: receivers tuple}}``."""
    return {
        "wire": dict(node._wire),
        "decide": {t: (r,) for t, r in node._decided.items()},
        "dropped": {t: (r,) for t, r in node._dropped.items()},
    }


@pytest.fixture(scope="module")
def built():
    return {
        (kind, model): build(model)
        for kind, build in DEPLOYMENTS.items()
        for model in _MODELS
    }


def test_every_message_class_has_exactly_one_receiver(built):
    travels = {cls: set() for cls in _message_classes()}
    for deployment in built.values():
        for node in deployment.nodes.values():
            for hook, table in _tables(node).items():
                for payload_type, receivers in table.items():
                    if payload_type is not ClientRequest:
                        assert len(receivers) == 1, (node, hook, payload_type)
                    if payload_type in travels:
                        travels[payload_type].add(hook)
    assert not [cls for cls, hooks in travels.items() if not hooks]
    for cls, hooks in travels.items():
        # A payload a batcher can drop is one that consensus orders.
        assert hooks != {"dropped"}, cls
        if "dropped" in hooks:
            assert "decide" in hooks, cls


def test_engine_messages_reach_the_current_engine():
    node = next(iter(make_deployment().nodes.values()))
    for payload_type in node.engine.wire:
        (receiver,) = node._wire[payload_type]
        assert isinstance(receiver, _EngineRoute)
    node.wipe()  # rebuilds the engine; the route must follow it
    seen = []
    node.engine.handle_message = lambda message, sender: seen.append(message) or True
    query = SlotStatusQuery(domain=node.domain.id, view=0, slot=1, sender="probe")
    (route,) = node._wire[SlotStatusQuery]
    assert route.handle_message(query, "probe")
    assert seen == [query]


def test_a_second_receiver_of_a_type_is_refused():
    deployment = make_deployment()
    height1 = next(n for n in deployment.nodes.values() if n.is_height1)
    with pytest.raises(ConfigurationError):
        height1.register_component(LazyPropagation(height1))


def test_client_request_receivers_are_pinned(built):
    for (kind, _), deployment in built.items():
        for node in deployment.nodes.values():
            receivers = node._wire.get(ClientRequest, ())
            expected = CLIENT_REQUEST_RECEIVERS[(kind, node.is_height1)]
            assert tuple(type(r) for r in receivers) == expected, (kind, node)


def test_subclasses_route_by_their_own_type(built):
    leased, plain = GroupParticipantPrepareOrderWithLeases, GroupParticipantPrepareOrder
    assert issubclass(leased, plain)
    for hook in ("decided", "dropped"):
        table = getattr(CoordinatorCrossDomainProtocol, hook)
        assert table[leased] == table[plain]
    node = next(iter(built["coordinator", FailureModel.CRASH].nodes.values()))
    assert node._decided[leased] is node._decided[plain]
    assert node._dropped[leased] is node._dropped[plain]

    assert issubclass(AhlReferenceCommitteeProtocol, CoordinatorCrossDomainProtocol)
    for hook in ("wire", "decided", "dropped"):
        assert getattr(AhlReferenceCommitteeProtocol, hook) == getattr(
            CoordinatorCrossDomainProtocol, hook
        )
    for node in built["ahl", FailureModel.CRASH].nodes.values():
        (committee,) = [
            c for c in node.components if isinstance(c, AhlReferenceCommitteeProtocol)
        ]
        for payload_type in CoordinatorCrossDomainProtocol.decided:
            assert node._decided[payload_type] is committee


def test_fan_out_hooks_reach_only_the_components_defining_them(built):
    for deployment in built.values():
        for node in deployment.nodes.values():
            for hook, receivers in node._fan_out.items():
                assert receivers == tuple(
                    c for c in node.components if hasattr(c, hook)
                ), (node, hook)
    coordinator = next(iter(built["coordinator", FailureModel.CRASH].nodes.values()))
    assert coordinator._fan_out["on_transaction_appended"] == ()


# ---------------------------------------------------------------------------
# The drop rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stray:
    """A payload no component or engine declares."""

    note: str = "unknown"


def _snapshot(deployment):
    """Per node: ledger entries, state, and DAG vertices in order (height-2+)."""
    return {
        address: (
            tuple(node.ledger.entries()) if node.ledger is not None else None,
            node.state.snapshot() if node.state is not None else None,
            [(v.entry, v.parents, v.rounds) for v in node.dag.transactions()]
            if node.dag is not None
            else None,
        )
        for address, node in deployment.nodes.items()
    }


def _run(stray_at=None):
    scenario = registry.get("fig07a").with_overrides(num_transactions=40)
    run = materialize(scenario, 1)
    deployment = run.deployment
    targets = [
        deployment.nodes_of(deployment.hierarchy.height1_domains()[0].id)[0],
        deployment.nodes_of(deployment.hierarchy.root.id)[0],
    ]
    assert [node.domain.height for node in targets] == [1, deployment.hierarchy.root.height]
    tables = {node.address: (_tables(node), dict(node._fan_out)) for node in targets}
    if stray_at is not None:
        for node in targets:
            deployment.simulator.schedule_at(
                stray_at, node._process, "process", (Stray(), "probe")
            )
    result = run.run()
    for node in targets:
        assert (_tables(node), dict(node._fan_out)) == tables[node.address]
    return run, result, targets


def test_an_unknown_payload_is_traced_and_changes_nothing():
    clean, clean_result, _ = _run()
    run, result, targets = _run(stray_at=20.0)
    events = run.trace.events("node:unhandled")
    assert [(e.node, e.get("hook"), e.get("payload_type"), e.get("sender")) for e in events] == [
        (node.address, "wire", "Stray", "probe") for node in targets
    ]
    assert not clean.trace.events("node:unhandled")
    assert result.summary.pending == 0
    assert result.to_dict() == clean_result.to_dict()
    assert _snapshot(run.deployment) == _snapshot(clean.deployment)


def test_forged_decisions_show_at_the_decide_hook():
    scenario = registry.get("byz-equivocation").with_overrides(num_transactions=60)
    run = ScenarioRunner(check_invariants=True).execute(scenario, seed=1)
    events = run.trace.events("node:unhandled")
    assert len(events) == 8
    assert {(e.get("hook"), e.get("payload_type")) for e in events} == {
        ("decide", "ForgedPayload")
    }
    assert all(e.slot is not None for e in events)
    assert run.summary.pending == 0
