"""Shared fixtures and helpers for the Saguaro test suite."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import multiprocessing
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest

from repro.common.config import (
    DeploymentConfig,
    DomainSpec,
    HierarchySpec,
    RoundConfig,
    TimerConfig,
    WorkloadConfig,
)
from repro.common.types import (
    ClientId,
    CrossDomainProtocol,
    DomainId,
    FailureModel,
    TransactionId,
    TransactionKind,
)
from repro.core.coordinator import (
    CoordinatorCrossDomainProtocol,
    _CoordinationState,
    _ParticipantState,
)
from repro.core.internal import InternalTransactionProtocol
from repro.core.mobile import MobileConsensusProtocol
from repro.core.node import SaguaroNode
from repro.core.optimistic import OptimisticCrossDomainProtocol
from repro.core.system import SaguaroDeployment
from repro.faults.invariants import InvariantChecker
from repro.ledger.transaction import Transaction
from repro.recovery import state_root_of
from repro.scenarios import Scenario, materialize
from repro.sim.events import ScheduledEvent
from repro.sim.simulator import Timer
from repro.topology.builders import build_paper_figure1_tree, build_tree
from repro.topology.regions import placement_for_profile
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.micropayment import MicropaymentApplication, account_key


# ---------------------------------------------------------------------------
# Identifiers and transactions
# ---------------------------------------------------------------------------

_TID_COUNTER = itertools.count(10_000)


def make_tid(client: Optional[ClientId] = None) -> TransactionId:
    return TransactionId(number=next(_TID_COUNTER), origin=client)


def internal_transfer(
    domain: DomainId,
    sender_index: int = 0,
    recipient_index: int = 1,
    amount: float = 5.0,
    client: Optional[ClientId] = None,
) -> Transaction:
    sender = account_key(domain, sender_index)
    recipient = account_key(domain, recipient_index)
    return Transaction(
        tid=make_tid(client),
        kind=TransactionKind.INTERNAL,
        involved_domains=(domain,),
        payload={"op": "transfer", "sender": sender, "recipient": recipient, "amount": amount},
        read_keys=(sender, recipient),
        write_keys=(sender, recipient),
        client=client,
    )


def cross_transfer(
    domains: Sequence[DomainId],
    sender_index: int = 0,
    recipient_index: int = 1,
    amount: float = 5.0,
    client: Optional[ClientId] = None,
) -> Transaction:
    sender = account_key(domains[0], sender_index)
    recipient = account_key(domains[1], recipient_index)
    return Transaction(
        tid=make_tid(client),
        kind=TransactionKind.CROSS_DOMAIN,
        involved_domains=tuple(domains),
        payload={"op": "transfer", "sender": sender, "recipient": recipient, "amount": amount},
        read_keys=(sender, recipient),
        write_keys=(sender, recipient),
        client=client,
    )


# ---------------------------------------------------------------------------
# Deployments
# ---------------------------------------------------------------------------


def quick_rounds() -> RoundConfig:
    return RoundConfig(height1_interval_ms=10.0)


def make_deployment(
    protocol: CrossDomainProtocol = CrossDomainProtocol.COORDINATOR,
    failure_model: FailureModel = FailureModel.CRASH,
    latency_profile: str = "nearby-eu",
    faults: int = 1,
    clients: Optional[Dict[ClientId, DomainId]] = None,
    seed: int = 11,
) -> SaguaroDeployment:
    """A paper-Figure-1 deployment with the micropayment application."""
    spec = DomainSpec(failure_model=failure_model, faults=faults)
    config = DeploymentConfig(
        hierarchy=HierarchySpec(default_spec=spec),
        protocol=protocol,
        latency_profile=latency_profile,
        rounds=quick_rounds(),
        seed=seed,
    )
    hierarchy = build_tree(config.hierarchy)
    placement_for_profile(hierarchy, latency_profile)
    application = MicropaymentApplication(accounts_per_domain=32)
    for client, home in (clients or {}).items():
        application.register_client(client, home)
    return SaguaroDeployment(config, application, hierarchy)


def height1_ids(deployment: SaguaroDeployment) -> List[DomainId]:
    return [d.id for d in deployment.hierarchy.height1_domains()]


def check_peak(run, checker_class=InvariantChecker):
    """``(report, bytes)``: ``checker_class``'s ``check()`` of an executed
    scenario run, and tracemalloc's peak during it over its starting level."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        checker = checker_class(run.deployment, trace=run.trace)
        report = checker.check(expect_liveness=run.expect_liveness())
        return report, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def run_until_done(deployment: SaguaroDeployment, extra_ms: float = 200.0) -> None:
    """Run the simulator until quiet plus a fixed drain, then stop rounds."""
    deployment.start()
    deployment.simulator.run(until_ms=deployment.simulator.now + extra_ms)
    deployment.stop_rounds()


# ---------------------------------------------------------------------------
# Whole runs, in canonical form (picklable, so two workers can share them)
# ---------------------------------------------------------------------------


def run_canonical(
    scenario: Scenario, seed: Optional[int] = None
) -> Tuple[str, str, int, Dict[str, int]]:
    """Run one seed: (result json, trace json, events executed, trace kinds)."""
    run = materialize(scenario, seed)
    result = run.run()
    return (
        json.dumps(result.to_dict(), sort_keys=True),
        run.trace.to_json(),
        run.deployment.simulator.events_executed,
        run.trace.kinds(),
    )


def run_digests(
    scenario: Scenario, seed: Optional[int] = None
) -> Tuple[str, str, int, Dict[str, int]]:
    """:func:`run_canonical` with the two JSON documents as sha256 digests."""
    result_json, trace_json, events_executed, kinds = run_canonical(scenario, seed)
    return (
        hashlib.sha256(result_json.encode()).hexdigest(),
        hashlib.sha256(trace_json.encode()).hexdigest(),
        events_executed,
        kinds,
    )


#: Participant-side holdings: what a height-1 domain must have let go of once
#: every transaction is resolved (ROADMAP item 1(a)'s quiescence question).
PARTICIPANT_HOLDINGS = (
    "part_live",
    "part_pending",
    "part_queue",
    "waiting_on_dependency",
    "deferred_commits",
)


def stuck_cross_domain_state(deployment: SaguaroDeployment) -> Dict[str, int]:
    """What every coordinator component still holds at the end of a run.

    ``coord_live`` counts the in-flight coordinator states on primaries and
    ``coord_live_replicas`` the same on the other replicas (they only learn
    outcomes that are ordered through consensus); ``waiting_on_dependency``
    counts held prepares, not the transactions they wait for.
    """
    counts = dict.fromkeys(
        ("coord_live", "coord_live_replicas", "coord_pending") + PARTICIPANT_HOLDINGS, 0
    )
    for node in deployment.nodes.values():
        for component in node.components:
            if not isinstance(component, CoordinatorCrossDomainProtocol):
                continue
            coord = "coord_live" if node.is_primary else "coord_live_replicas"
            counts[coord] += len(component._coord_live)
            counts["coord_pending"] += len(component._coord_pending)
            counts["part_live"] += len(component._part_live)
            counts["part_pending"] += len(component._part_pending)
            counts["part_queue"] += len(component._part_queue)
            counts["waiting_on_dependency"] += sum(
                len(held) for held in component._waiting_on_dependency.values()
            )
            counts["deferred_commits"] += len(component._deferred_commits)
    return counts


def _holds_timer_or_closure(value) -> bool:
    """Whether ``value`` refers to a timer, an event or a callable, directly
    or through the tuples it holds."""
    for referent in gc.get_referents(value):
        if isinstance(referent, tuple):
            if _holds_timer_or_closure(referent):
                return True
        elif isinstance(referent, (Timer, ScheduledEvent)) or (
            callable(referent) and not isinstance(referent, type)
        ):
            return True
    return False


def settled_2pc_state(deployment: SaguaroDeployment) -> Dict[str, int]:
    """Decided 2PC state still kept whole, summed over every coordinator
    component of ``deployment``.

    ``states`` counts coordinator and participant states that are no longer
    in flight; ``groups`` counts grouped exchanges with no member left in
    them; ``holding`` counts the compact outcome records (``_coord``,
    ``_part``, ``_pgroups``) that refer to a timer, an event or a closure.
    All three are 0 on a run with nothing pending.
    """
    counts = dict.fromkeys(("states", "groups", "holding"), 0)
    for node in deployment.nodes.values():
        for component in node.components:
            if not isinstance(component, CoordinatorCrossDomainProtocol):
                continue
            records = [
                *component._coord.values(),
                *component._part.values(),
                *component._pgroups.values(),
            ]
            for record in records:
                if isinstance(record, (_CoordinationState, _ParticipantState)):
                    counts["states"] += not record.in_flight
                elif _holds_timer_or_closure(record):
                    counts["holding"] += 1
            counts["groups"] += sum(
                not component._live_group_members(group)
                for group in component._groups.values()
            )
    return counts


#: The tables each protocol component keeps beside the ledger, one entry per
#: transaction (mobile: per device, ``_buffered`` per device with requests
#: waiting), under the label ``retained_state`` reports them by.
RETAINED_TABLES = (
    (
        "coordinator",
        CoordinatorCrossDomainProtocol,
        ("_coord", "_part", "_client_of", "_groups", "_pgroups"),
    ),
    (
        "internal",
        InternalTransactionProtocol,
        ("_in_flight", "_suspicion_timers"),
    ),
    (
        "optimistic",
        OptimisticCrossDomainProtocol,
        (
            "_pending",
            "_dependents",
            "_root_shards",
            "_proposed",
            "_client_of",
            "_append_order",
            "_decisions_sent",
        ),
    ),
    (
        "mobile",
        MobileConsensusProtocol,
        ("_visiting", "_buffered", "_querying", "_pending_forward"),
    ),
)


def retained_state(deployment: SaguaroDeployment) -> Dict[str, Dict[str, int]]:
    """What every node still keeps outside its ledger at the end of a run.

    Maps each node address to ``{"<label>.<table>": entries}`` over
    ``RETAINED_TABLES`` (components a node does not run are absent).  Unlike
    :func:`stuck_cross_domain_state` this counts settled state too: it is
    the per-transaction memory a retirement watermark would shrink.
    """
    retained = {}
    for node in deployment.nodes.values():
        counts = {}
        for component in node.components:
            for label, kind, tables in RETAINED_TABLES:
                if isinstance(component, kind):
                    for table in tables:
                        counts[f"{label}.{table}"] = len(getattr(component, table))
        retained[node.address] = counts
    return retained


def checkpoints_rehashed(scenario: Scenario, seed: Optional[int] = None):
    """Run ``scenario`` with every checkpoint's root checked from scratch.

    ``SaguaroNode.take_checkpoint`` is wrapped so that each certified root
    must equal ``state_root_of`` over the checkpoint's own snapshot — a full
    re-encode, re-digest and re-Merkle of every key.  Returns the finished
    run and the number of checkpoints checked.
    """
    checked = []
    original = SaguaroNode.take_checkpoint

    def take_checkpoint(node, slot, view):
        checkpoint = original(node, slot, view)
        if checkpoint is not None:
            assert checkpoint.state_root == state_root_of(checkpoint.snapshot), (
                node.address,
                slot,
            )
            checked.append(checkpoint)
        return checkpoint

    with mock.patch.object(SaguaroNode, "take_checkpoint", take_checkpoint):
        run = materialize(scenario, seed)
        run.run()
    return run, len(checked)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def two_workers():
    """A two-process pool for tests whose runs are independent of each other."""
    with ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        yield pool



@pytest.fixture
def figure1_hierarchy():
    hierarchy = build_paper_figure1_tree()
    placement_for_profile(hierarchy, "nearby-eu")
    return hierarchy


@pytest.fixture
def coordinator_deployment() -> SaguaroDeployment:
    return make_deployment(CrossDomainProtocol.COORDINATOR)


@pytest.fixture
def optimistic_deployment() -> SaguaroDeployment:
    return make_deployment(CrossDomainProtocol.OPTIMISTIC)


@pytest.fixture
def byzantine_deployment() -> SaguaroDeployment:
    return make_deployment(failure_model=FailureModel.BYZANTINE)
