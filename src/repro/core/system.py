"""The deployment facade: build a Saguaro network, run workloads, read results.

:class:`SaguaroDeployment` wires every substrate together — simulator, network
latency model, hierarchy, server nodes with their protocol components, and
clients — from a single :class:`~repro.common.config.DeploymentConfig`.  It is
the entry point used by the examples, the tests, and the benchmark harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import MetricsCollector, PerformanceSummary
from repro.common.config import DeploymentConfig
from repro.common.types import ClientId, CrossDomainProtocol, DomainId
from repro.core.application import Application, KeyValueApplication
from repro.core.client import EdgeDeviceClient
from repro.core.coordinator import CoordinatorCrossDomainProtocol
from repro.core.device import DeviceBatchProtocol
from repro.core.internal import InternalTransactionProtocol
from repro.core.lazy import LazyPropagation
from repro.core.mobile import MobileConsensusProtocol
from repro.core.node import SaguaroNode
from repro.core.optimistic import OptimisticCrossDomainProtocol
from repro.crypto.keys import KeyStore
from repro.errors import ConfigurationError, UnknownDomainError
from repro.faults.trace import TraceRecorder
from repro.ledger.chain import LinearLedger, SharedPositions
from repro.ledger.state import StateStore
from repro.ledger.abstraction import SummarizedView
from repro.ledger.transaction import Transaction
from repro.sim.latency import latency_profile
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.topology.builders import build_tree
from repro.topology.hierarchy import Hierarchy
from repro.topology.regions import placement_for_profile

__all__ = ["SaguaroDeployment"]

#: Hard wall on simulated time per run, as a runaway backstop (ms).
DEFAULT_MAX_SIMULATED_MS = 600_000.0


class SaguaroDeployment:
    """A fully wired, simulated Saguaro network."""

    def __init__(
        self,
        config: Optional[DeploymentConfig] = None,
        application: Optional[Application] = None,
        hierarchy: Optional[Hierarchy] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.config = config or DeploymentConfig()
        self.application = application or KeyValueApplication()
        self.simulator = Simulator(seed=self.config.seed)
        self.network = Network(
            self.simulator, latency_profile(self.config.latency_profile)
        )
        self.keystore = KeyStore(seed=self.config.seed)
        self.metrics = MetricsCollector()
        #: Every run records an ordered protocol event trace; pass a disabled
        #: ``TraceRecorder(enabled=False)`` to opt out.
        self.trace = trace if trace is not None else TraceRecorder()

        if hierarchy is None:
            hierarchy = build_tree(self.config.hierarchy)
            placement_for_profile(hierarchy, self.config.latency_profile)
        self.hierarchy = hierarchy

        self.nodes: Dict[str, SaguaroNode] = {}
        self.clients: Dict[str, EdgeDeviceClient] = {}
        self._started = False
        self._workload_ran = False
        #: Every node's lazy-propagation component (none on the baselines).
        self._rounds: List[LazyPropagation] = []
        self._build_nodes()

    # ------------------------------------------------------------------ construction

    def _build_nodes(self) -> None:
        for domain in self.hierarchy.server_domains():
            shared = SharedPositions() if domain.height == 1 else None
            for node_id in domain.node_ids:
                node = SaguaroNode(
                    node_id=node_id,
                    domain=domain,
                    hierarchy=self.hierarchy,
                    network=self.network,
                    simulator=self.simulator,
                    config=self.config,
                    application=self.application,
                    keystore=self.keystore,
                    metrics=self.metrics,
                    trace=self.trace,
                    shared_positions=shared,
                )
                self._register_components(node)
                self.nodes[node.address] = node

    def _register_components(self, node: SaguaroNode) -> None:
        """Attach protocol components; registration order is the order a
        client request is offered to its receivers in."""
        self._rounds.append(node.register_component(LazyPropagation(node)))
        if node.is_height1:
            node.register_component(MobileConsensusProtocol(node))
        if self.config.protocol is CrossDomainProtocol.COORDINATOR:
            node.register_component(CoordinatorCrossDomainProtocol(node))
        else:
            node.register_component(OptimisticCrossDomainProtocol(node))
        if node.is_height1:
            node.register_component(InternalTransactionProtocol(node))
            node.register_component(DeviceBatchProtocol(node))

    # ------------------------------------------------------------------ lookups

    def node(self, address: str) -> SaguaroNode:
        try:
            return self.nodes[address]
        except KeyError as exc:
            raise UnknownDomainError(f"unknown node {address!r}") from exc

    def nodes_of(self, domain_id: DomainId) -> List[SaguaroNode]:
        return [self.nodes[name] for name in self.hierarchy.domain(domain_id).node_names]

    def primary_node_of(self, domain_id: DomainId) -> SaguaroNode:
        return self.nodes[self.hierarchy.domain(domain_id).primary.name]

    def ledger_of(self, domain_id: DomainId) -> LinearLedger:
        """The (primary replica's copy of the) linear ledger of a height-1 domain."""
        ledger = self.primary_node_of(domain_id).ledger
        if ledger is None:
            raise ConfigurationError(f"{domain_id} is not a height-1 domain")
        return ledger

    def state_of(self, domain_id: DomainId) -> StateStore:
        state = self.primary_node_of(domain_id).state
        if state is None:
            raise ConfigurationError(f"{domain_id} is not a height-1 domain")
        return state

    def summary_of(self, domain_id: DomainId) -> SummarizedView:
        summary = self.primary_node_of(domain_id).summary
        if summary is None:
            raise ConfigurationError(f"{domain_id} is not an internal domain")
        return summary

    def root_summary(self) -> SummarizedView:
        return self.summary_of(self.hierarchy.root.id)

    def client(self, client_id: ClientId) -> EdgeDeviceClient:
        return self.clients[client_id.name]

    # ------------------------------------------------------------------ running

    def start(self) -> None:
        """Arm round timers and mark the deployment live (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.start()

    def create_clients(
        self,
        transactions: Sequence[Transaction],
        stagger_ms: float = 0.25,
        think_time_ms: float = 0.5,
    ) -> List[EdgeDeviceClient]:
        """Create one closed-loop client per distinct issuing edge device."""
        per_client: Dict[ClientId, List[Transaction]] = {}
        for transaction in transactions:
            if transaction.client is None:
                raise ConfigurationError(f"{transaction.tid} has no issuing client")
            per_client.setdefault(transaction.client, []).append(transaction)
        created: List[EdgeDeviceClient] = []
        for position, (client_id, queue) in enumerate(sorted(per_client.items())):
            if client_id.name in self.clients:
                raise ConfigurationError(f"client {client_id} already created")
            client = EdgeDeviceClient(
                client_id=client_id,
                hierarchy=self.hierarchy,
                network=self.network,
                simulator=self.simulator,
                metrics=self.metrics,
                timers=self.config.timers,
                transactions=queue,
                start_delay_ms=position * stagger_ms,
                think_time_ms=think_time_ms,
            )
            self.clients[client_id.name] = client
            created.append(client)
        return created

    def run_workload(
        self,
        transactions: Sequence[Transaction],
        max_simulated_ms: float = DEFAULT_MAX_SIMULATED_MS,
        drain_ms: Optional[float] = None,
        think_time_ms: float = 0.5,
    ) -> PerformanceSummary:
        """Run ``transactions`` through the deployment and summarise the result.

        The run proceeds until every client has finished its queue (or the
        simulated-time backstop is hit), then continues for ``drain_ms`` so
        that lazy propagation and optimistic decisions settle before round
        timers are stopped and the summary is computed.

        A deployment is single-shot: one workload per instance.  Re-running
        would reuse drained clients, advanced ledgers, and a non-zero clock,
        so the results would be meaningless.
        """
        if self._workload_ran:
            raise ConfigurationError(
                "run_workload() has already been called on this deployment; "
                "a deployment is single-shot — build a fresh one per run "
                "(repro.scenarios.ScenarioRunner does this automatically)"
            )
        if self.clients:
            raise ConfigurationError(
                f"run_workload() creates its own clients, but {len(self.clients)} "
                "client(s) were already created via create_clients(); either "
                "drive the simulator manually for those clients or build a "
                "fresh deployment for run_workload()"
            )
        self._workload_ran = True
        self.start()
        clients = self.create_clients(transactions, think_time_ms=think_time_ms)
        for client in clients:
            client.start()

        # Evaluated after every event, so it must not rescan the clients: a
        # finished client never restarts, so drop finished ones off the tail.
        waiting = list(clients)

        def _all_clients_done() -> bool:
            while waiting and waiting[-1].done:
                waiting.pop()
            return not waiting

        self.simulator.run(until_ms=max_simulated_ms, stop_when=_all_clients_done)

        if drain_ms is None:
            drain_ms = self._default_drain_ms()
        self.simulator.run(until_ms=self.simulator.now + drain_ms)
        self.stop_rounds()
        return self.metrics.summary()

    def _default_drain_ms(self) -> float:
        top_height = self.hierarchy.root.height
        per_level = sum(
            self.config.rounds.interval_for_height(h) for h in range(1, top_height + 1)
        )
        return 3.0 * per_level + 4.0 * self.config.timers.commit_query_timeout_ms

    def stop_rounds(self) -> None:
        """Stop lazy-propagation round timers so the event queue can drain."""
        for rounds in self._rounds:
            rounds.stop()

    #: Whether this deployment's protocols guarantee that conflicting
    #: cross-domain transactions commit in the same relative order on every
    #: overlapping domain (the paper's consistency property, Lemma 4.3).  The
    #: invariant checker asserts cross-domain conflict order only when this
    #: holds; simplified baselines may opt out.
    guarantees_cross_order = True

    # ------------------------------------------------------------------ reporting helpers

    def total_committed_transactions(self) -> int:
        """Committed entries across all height-1 ledgers (cross-domain counted once)."""
        seen = set()
        for domain in self.hierarchy.height1_domains():
            for entry in self.ledger_of(domain.id).entries():
                seen.add(entry.tid)
        return len(seen)

    def describe(self) -> str:
        lines = [
            f"Saguaro deployment — protocol={self.config.protocol.value}, "
            f"profile={self.config.latency_profile}",
            self.hierarchy.describe(),
            f"server nodes: {len(self.nodes)}, clients: {len(self.clients)}",
        ]
        return "\n".join(lines)
