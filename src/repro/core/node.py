"""Simulated Saguaro server nodes.

A :class:`SaguaroNode` is one server of a (height >= 1) domain.  It is a
network endpoint, a consensus-engine host, and the place where the protocol
components (internal transactions, coordinator-based cross-domain consensus,
optimistic consensus, lazy propagation, mobile consensus) plug in.

Height-1 nodes hold the full blockchain ledger and blockchain state of their
domain and execute transactions; height-2+ nodes hold the DAG-structured
summarized ledger and the summarized view (§3, §5).
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.metrics import MetricsCollector
from repro.common.config import DeploymentConfig
from repro.common.types import DomainId, NodeId, TransactionId, TransactionStatus
from repro.consensus import ConsensusEngine, engine_for
from repro.control.plane import ControlPlane
from repro.control.telemetry import TelemetryBus
from repro.core.application import Application, ExecutionResult
from repro.core.messages import ClientReply, ClientRequest
from repro.crypto.certificates import QuorumCertificate, Signer
from repro.crypto.keys import KeyStore
from repro.errors import ConfigurationError, RecoveryError
from repro.faults.behaviors import AdversaryControls
from repro.faults.trace import TraceRecorder
from repro.ledger.chain import LinearLedger, SharedPositions
from repro.ledger.dag import DagLedger
from repro.ledger.abstraction import SummarizedView
from repro.ledger.state import StateStore
from repro.ledger.transaction import CommittedEntry, Transaction
from repro.recovery import (
    Checkpoint,
    RecoveryManager,
    WalRecord,
    WriteAheadLog,
    checkpoint_digest,
)
from repro.sim.cpu import CpuQueue, ExecutionLanes
from repro.sim.network import Envelope, Network
from repro.sim.simulator import Simulator, Timer
from repro.topology.domain import Domain
from repro.topology.hierarchy import Hierarchy

__all__ = ["ProtocolComponent", "SaguaroNode"]


class ProtocolComponent:
    """Base class for protocol logic hosted by a :class:`SaguaroNode`.

    A component declares once, per hook kind, the payload types it takes:
    a tuple of types, or a ``{type: method name}`` dict its hook dispatches
    through when it takes several.

    * ``wire``: messages from other endpoints, routed to
      ``handle_message(payload, sender)``, which returns whether it took the
      message;
    * ``decided``: payloads the domain's consensus ordered, routed to
      ``on_decide(slot, payload)``;
    * ``dropped``: payloads this node submitted that its batcher dropped
      unproposed (a deposed primary flushing its buffer), routed to
      ``on_submission_dropped(payload)`` to clear in-flight dedup state so a
      retransmission can be re-submitted.  A group payload (grouped
      cross-domain 2PC) is dropped as one unit, so its handler clears every
      member.  A type nobody declares here needs no clean-up.

    The node routes each payload by ``type(payload)``, never by subclass.
    Each type has one receiver per node, except :class:`ClientRequest`,
    offered to its receivers in registration order until one takes it.  A
    wire message or decided payload nobody takes is traced as
    ``node:unhandled`` and dropped.  The fan-out hooks ``on_start()``,
    ``on_block_integrated(block, child_domain)`` (height-2+ nodes, after a
    child block enters the DAG, §5), ``on_transaction_appended(entry)``
    (height-1 nodes, after any local append) and ``on_shards_split(parent,
    child)`` reach only the components that define them.
    """

    wire: Iterable[type] = ()
    decided: Iterable[type] = ()
    dropped: Iterable[type] = ()

    def __init__(self, node: "SaguaroNode") -> None:
        self.node = node


#: Hooks a component receives only if it defines them, in registration order.
_FAN_OUT_HOOKS = (
    "on_start",
    "on_block_integrated",
    "on_transaction_appended",
    "on_shards_split",
)


class _EngineRoute:
    """Wire receiver of the consensus engine's message types.

    :meth:`SaguaroNode.wipe` rebuilds the engine, so the route looks it up
    on every message instead of holding the one it was built with.
    """

    __slots__ = ("node",)

    def __init__(self, node: "SaguaroNode") -> None:
        self.node = node

    def handle_message(self, payload: Any, sender: str) -> bool:
        return self.node.engine.handle_message(payload, sender)


class SaguaroNode:
    """One simulated server node of a Saguaro domain."""

    def __init__(
        self,
        node_id: NodeId,
        domain: Domain,
        hierarchy: Hierarchy,
        network: Network,
        simulator: Simulator,
        config: DeploymentConfig,
        application: Application,
        keystore: KeyStore,
        metrics: Optional[MetricsCollector] = None,
        trace: Optional[TraceRecorder] = None,
        shared_positions: Optional[SharedPositions] = None,
    ) -> None:
        if domain.is_leaf:
            raise ConfigurationError("leaf domains host edge devices, not servers")
        self._node_id = node_id
        self._domain = domain
        self.hierarchy = hierarchy
        self.network = network
        self.simulator = simulator
        self.config = config
        self.application = application
        self.keystore = keystore
        self.metrics = metrics
        self.trace = trace
        #: What this height-1 domain's replicas compute identically per
        #: ledger position, shared by every ledger this node builds.
        self.shared_positions = shared_positions
        #: Byzantine-behavior switchboard; inert unless a fault plan arms it.
        self.adversary = AdversaryControls()

        self.cpu = CpuQueue()
        #: Background executor for *speculative* out-of-order execution: the
        #: work happens off the protocol path (on otherwise-idle lanes during
        #: a head-of-line stall), so it must not delay message handling the
        #: way delivery-time execution deliberately does.  In-order commit
        #: waits for it via :meth:`finish_speculation`.  Never used unless
        #: the deployment arms ``speculation``.
        self.spec_cpu = CpuQueue()
        #: Parallel-execution budget: decided work is split by account-shard
        #: footprint and disjoint lanes overlap (inert at execution_lanes=1).
        self.lanes = ExecutionLanes(config.execution_lanes)
        self._lane_costs: Optional[Dict[int, float]] = None
        self.costs = config.costs_for(domain.failure_model)
        self.signer = Signer(keystore, self.address)
        #: Telemetry sink of the self-tuning control plane.  Created *before*
        #: the engine so the batcher can capture it at construction; ``None``
        #: on static deployments, which keeps every producer path inert.
        self.control_bus: Optional[TelemetryBus] = (
            TelemetryBus(config.control.window) if config.control.enabled else None
        )
        #: The durable side of the node — what an amnesia crash (``wipe``)
        #: cannot destroy.  The WAL exists only on durable deployments; the
        #: recovery manager always exists (a wiped node recovers through
        #: peer catch-up even without a WAL, it just replays nothing).
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog(self.address, config.wal_sync_ms)
            if config.durability
            else None
        )
        self.durable_checkpoint: Optional[Checkpoint] = None
        self.recovery = RecoveryManager(self)
        self._wipe_generation = 0
        self._wiped_total = 0
        self.engine: ConsensusEngine = engine_for(self)

        self.ledger: Optional[LinearLedger] = None
        self.state: Optional[StateStore] = None
        self.dag: Optional[DagLedger] = None
        self.summary: Optional[SummarizedView] = None
        if domain.height == 1:
            self.ledger = LinearLedger(domain.id, shared_positions)
            self.state = StateStore(name=self.address, shards=config.state_shards)
            application.initialize_domain(domain, self.state)
        else:
            self.dag = DagLedger(domain.id)
            self.summary = SummarizedView(domain.id)

        self.components: List[ProtocolComponent] = []
        #: Payload routes, one table per hook kind (see ``ProtocolComponent``).
        self._wire: Dict[type, Tuple[Any, ...]] = dict.fromkeys(
            self.engine.wire, (_EngineRoute(self),)
        )
        self._decided: Dict[type, ProtocolComponent] = {}
        self._dropped: Dict[type, ProtocolComponent] = {}
        self._fan_out: Dict[str, Tuple[Any, ...]] = dict.fromkeys(_FAN_OUT_HOOKS, ())
        #: The node's control-plane feedback loop (adaptive policies only).
        #: Registered as a component so ``start()`` arms its interval timer.
        self.control: Optional[ControlPlane] = None
        if config.control.enabled:
            self.control = ControlPlane(self)
            self.register_component(self.control)
        #: Scratch space shared between protocol components on the same node
        #: (e.g. the optimistic protocol exposes per-round aborts and
        #: dependency lists here for the lazy-propagation component).
        self.shared: Dict[str, Any] = {}
        self._executed: Set[TransactionId] = set()
        self._crashed = False

        network.register(self)

    # ------------------------------------------------------------------ identity

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def address(self) -> str:
        return self._node_id.name

    @property
    def region(self) -> str:
        return self._domain.region

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def is_primary(self) -> bool:
        return self.engine.is_primary

    @property
    def is_height1(self) -> bool:
        return self._domain.height == 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SaguaroNode {self.address} h={self._domain.height}>"

    # ------------------------------------------------------------------ lifecycle

    def register_component(self, component: ProtocolComponent) -> ProtocolComponent:
        """Add ``component`` to the routes it declares (see ``ProtocolComponent``)."""
        self.components.append(component)
        for payload_type in getattr(component, "wire", ()):
            receivers = self._wire.get(payload_type, ())
            if receivers and payload_type is not ClientRequest:
                raise ConfigurationError(f"two receivers of {payload_type.__name__}")
            self._wire[payload_type] = receivers + (component,)
        for table, kind in ((self._decided, "decided"), (self._dropped, "dropped")):
            for payload_type in getattr(component, kind, ()):
                if payload_type in table:
                    raise ConfigurationError(f"two receivers of {payload_type.__name__}")
                table[payload_type] = component
        for hook, receivers in self._fan_out.items():
            if hasattr(component, hook):
                self._fan_out[hook] = receivers + (component,)
        return component

    def start(self) -> None:
        for component in self._fan_out["on_start"]:
            component.on_start()

    def crash(self) -> None:
        """Simulate a crash: the network stops delivering to/from this node.

        Crashing an already-crashed node is a traced no-op — fault plans and
        schedules may race (two plans targeting one node, a wipe window
        overlapping a crash window) and a duplicate crash must not disturb
        the first one's recovery bookkeeping.
        """
        if self._crashed:
            self.record_trace("fault:noop", action="crash", reason="already-crashed")
            return
        self._crashed = True
        self.network.crash(self.address)
        self.recovery.note_crashed()

    def wipe(self) -> None:
        """Amnesia crash: crash plus loss of every volatile structure.

        Engine state (vote tallies, decision log, view), the ledger, the
        state store, and the execution-dedup set are all rebuilt empty; the
        durable store — WAL and latest checkpoint — and the node's network
        identity survive.  Timers armed before the wipe are disarmed by the
        generation guard in :meth:`set_timer`, so nothing belonging to the
        discarded engine can fire into the rebuilt one.
        """
        if self._crashed:
            self.record_trace("fault:noop", action="wipe", reason="already-crashed")
            return
        self._crashed = True
        self.network.crash(self.address)
        self._wipe_generation += 1
        self._wiped_total += 1
        self.cpu = CpuQueue()
        self.spec_cpu = CpuQueue()
        self.lanes = ExecutionLanes(self.config.execution_lanes)
        self._lane_costs = None
        self.shared = {}
        self._executed = set()
        if self._domain.height == 1:
            self.ledger = LinearLedger(self._domain.id, self.shared_positions)
            self.state = StateStore(
                name=self.address, shards=self.config.state_shards
            )
            self.application.initialize_domain(self._domain, self.state)
        else:
            self.dag = DagLedger(self._domain.id)
            self.summary = SummarizedView(self._domain.id)
        self.engine = engine_for(self)
        self.recovery.note_wiped()

    def recover(self) -> None:
        """Rejoin the network; a wiped node also starts its recovery run.

        Recovering a live node is a traced no-op (see :meth:`crash`).
        """
        if not self._crashed:
            self.record_trace("fault:noop", action="recover", reason="not-crashed")
            return
        self._crashed = False
        self.network.recover(self.address)
        if self.recovery.pending:
            self.recovery.begin()

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def wiped_total(self) -> int:
        """How many amnesia crashes this node has suffered."""
        return self._wiped_total

    # ------------------------------------------------------------------ endpoint

    def deliver(self, envelope: Envelope) -> None:
        """Network entry point: queue CPU work, then process the payload."""
        if self._crashed:
            return
        payload = envelope.payload
        cost = self._service_cost(payload)
        completion = self.cpu.submit(self.simulator.now, cost)
        self.simulator.schedule_at(
            completion, self._process, "process", (payload, envelope.sender)
        )

    def _service_cost(self, payload: Any) -> float:
        verifications = getattr(payload, "verify_count", 1)
        return self.costs.base_handling_ms + self.costs.verify_ms * verifications

    def _process(self, payload: Any, sender: str) -> None:
        if self._crashed:
            return
        for receiver in self._wire.get(type(payload), ()):
            if receiver.handle_message(payload, sender):
                return
        self._unhandled("wire", payload, sender=sender)

    def _unhandled(self, hook: str, payload: Any, **where: Any) -> None:
        """Drop a payload no receiver took, leaving a trace event behind."""
        self.record_trace(
            "node:unhandled", hook=hook, payload_type=type(payload).__name__, **where
        )

    # ------------------------------------------------------------------ consensus host

    @property
    def hosted_domain(self) -> Domain:
        return self._domain

    def domain_peer_addresses(self) -> List[str]:
        return [n.name for n in self._domain.node_ids if n != self._node_id]

    def send_protocol_message(self, to_address: str, message: Any) -> None:
        self.send(to_address, message)

    def now(self) -> float:
        return self.simulator.now

    def set_timer(self, delay_ms: float, callback: Callable[[], None]) -> Timer:
        # Timers are bound to the wipe generation that armed them: one armed
        # before an amnesia crash captured structures the wipe discarded, so
        # firing it into the rebuilt engine would act on ghost state.
        generation = self._wipe_generation

        def guarded() -> None:
            if self._wipe_generation == generation:
                callback()

        return self.simulator.set_timer(delay_ms, guarded)

    def consensus_decided(self, slot: int, payload: Any) -> None:
        receiver = self._decided.get(type(payload))
        if receiver is None:
            self._unhandled("decide", payload, slot=slot)
        else:
            receiver.on_decide(slot, payload)

    def consensus_submission_dropped(self, payload: Any) -> None:
        """The batcher dropped an unproposed payload (node was deposed)."""
        receiver = self._dropped.get(type(payload))
        if receiver is not None:
            receiver.on_submission_dropped(payload)

    def notify_block_integrated(self, block: Any, child_domain: DomainId) -> None:
        """Fan a freshly integrated child block out to the components taking it."""
        for component in self._fan_out["on_block_integrated"]:
            component.on_block_integrated(block, child_domain)

    # ------------------------------------------------------------------ messaging helpers

    def send(self, to_address: str, message: Any, rng: Optional[Random] = None) -> None:
        message = self.adversary.outbound(self, to_address, message)
        if message is None:
            return
        self.network.send(self.address, to_address, message, rng=rng)

    # ------------------------------------------------------------------ tracing

    def record_trace(self, kind: str, **fields: Any) -> None:
        """Append one event to the deployment's run trace (no-op without one)."""
        if self.trace is not None:
            self.trace.record(
                kind,
                at_ms=self.simulator.now,
                domain=self._domain.id.name,
                node=self.address,
                **fields,
            )

    def nodes_of(self, domain_id: DomainId) -> List[str]:
        return self.hierarchy.domain(domain_id).node_names

    def primary_address_of(self, domain_id: DomainId) -> str:
        """Address of the (view-0) primary of another domain."""
        return self.hierarchy.domain(domain_id).primary.name

    def multicast_domain(self, domain_id: DomainId, message: Any) -> None:
        """Send ``message`` to every node of ``domain_id`` (excluding self)."""
        for address in self.nodes_of(domain_id):
            if address != self.address:
                self.send(address, message)

    def multicast_domains(self, domain_ids: List[DomainId], message: Any) -> None:
        for domain_id in domain_ids:
            self.multicast_domain(domain_id, message)

    def certify(self, payload_digest: bytes) -> QuorumCertificate:
        """Assemble the certificate this domain attaches to outbound messages.

        Crash-only domains certify with the primary's signature alone; a
        Byzantine domain needs ``2f + 1`` signatures (§4).  In the simulation
        the primary assembles the certificate directly from the key store —
        the signatures stand for the commit votes collected during internal
        consensus, so no extra message round is charged, but receivers still
        pay the verification cost for every contained signature.
        """
        required = self._domain.certificate_size
        contributions: Dict[str, bytes] = {}
        for node_name in self._domain.node_names[:required]:
            contributions[node_name] = self.keystore.sign(node_name, payload_digest)
        certificate = self.signer.certify(payload_digest, contributions, required)
        self.record_trace(
            "certify",
            digest=payload_digest,
            signers=list(certificate.signers),
            required=required,
        )
        return certificate

    def reply_to_client(
        self,
        client_address: str,
        transaction: Transaction,
        success: bool,
        result: Optional[Dict[str, Any]] = None,
    ) -> None:
        reply = ClientReply(
            tid=transaction.tid,
            success=success,
            responder=self.address,
            result=result,
        )
        self.send(client_address, reply)

    # ------------------------------------------------------------------ ledger & execution

    def append_and_execute(
        self,
        transaction: Transaction,
        status: TransactionStatus = TransactionStatus.COMMITTED,
    ) -> CommittedEntry:
        """Append ``transaction`` to this height-1 ledger and execute it once."""
        if self.ledger is None or self.state is None:
            raise ConfigurationError(f"{self.address} is not a height-1 node")
        record = self.ledger.append_transaction(
            transaction, status=status, commit_time_ms=self.simulator.now
        )
        position = self.ledger.position_of(transaction.tid)
        if self.wal is not None:
            self.wal.append(
                WalRecord(kind="append", position=position, payload=record.entry)
            )
            if self.wal.sync_ms > 0:
                self.cpu.submit(self.simulator.now, self.wal.sync_ms)
        self.record_trace(
            "append",
            tid=transaction.tid,
            slot=position,
            status=status.value,
            tx_kind=transaction.kind.value,
            involved=[d.name for d in transaction.involved_domains],
        )
        self.execute_once(transaction)
        for component in self._fan_out["on_transaction_appended"]:
            component.on_transaction_appended(record.entry)
        return record.entry

    def execute_once(self, transaction: Transaction) -> Optional[ExecutionResult]:
        """Execute a transaction against local state at most once."""
        if self.state is None:
            return None
        if transaction.tid in self._executed:
            return None
        self._executed.add(transaction.tid)
        result = self.application.execute(transaction, self.state, self._domain.id)
        self._charge_execution(transaction)
        return result

    def has_executed(self, tid: TransactionId) -> bool:
        return tid in self._executed

    # ------------------------------------------------------------------ speculation

    def speculative_execute(
        self, transaction: Transaction
    ) -> Optional[Dict[str, Tuple[bool, Any]]]:
        """Execute ``transaction`` out of order, capturing per-key undo.

        Returns ``{key: (existed, old_value)}`` over the declared write keys
        — enough to restore the store exactly — or ``None`` when nothing ran
        (not a height-1 node, or already executed; the commit-time delivery
        dedups through the same ``_executed`` set, so a surviving
        speculation costs nothing extra at its in-order turn).
        """
        if self.state is None or transaction.tid in self._executed:
            return None
        undo = {
            key: (key in self.state, self.state.get(key))
            for key in transaction.write_keys
        }
        self.execute_once(transaction)
        return undo

    def speculative_unwind(
        self, transaction: Transaction, undo: Dict[str, Tuple[bool, Any]]
    ) -> None:
        """Roll one speculated transaction back: restore state, re-arm dedup."""
        if self.state is None:
            return
        for key, (existed, value) in undo.items():
            if existed:
                self.state.put(key, value)
            elif key in self.state:
                self.state.remove(key)
        self._executed.discard(transaction.tid)

    def begin_speculative_window(self) -> bool:
        """Open a lane accumulator whose span lands on the background executor.

        Same lane accounting as :meth:`begin_execution_window`, but
        :meth:`close_speculative_window` books the span on ``spec_cpu``
        instead of the protocol CPU — speculative execution overlaps with
        message handling rather than queueing in front of it.
        """
        return self.begin_execution_window()

    def close_speculative_window(self) -> float:
        """Submit the accumulated span to the background executor.

        Returns the simulated time the speculative execution *completes*;
        the engine stores it so the slot's in-order commit can wait out any
        unfinished tail via :meth:`finish_speculation`.
        """
        costs, self._lane_costs = self._lane_costs, None
        span = self.lanes.span_of(costs) if costs else 0.0
        if span > 0:
            return self.spec_cpu.submit(self.simulator.now, span)
        return self.simulator.now

    def finish_speculation(self, completion_ms: float) -> None:
        """In-order commit of a speculated slot: join its background work.

        If the speculative execution has not finished yet (the gap closed
        faster than the executor drained), the protocol CPU *waits* until it
        does — a zero-service job arriving at the completion instant pushes
        ``busy_until`` to it without charging any CPU work, so commits of
        several speculated slots in one release burst all join the same
        background interval instead of re-paying it.
        """
        if completion_ms > self.simulator.now:
            self.cpu.submit(completion_ms, 0.0)

    # ------------------------------------------------------------------ execution lanes

    def _charge_execution(self, transaction: Transaction) -> None:
        """Account one executed transaction against the node's execution lanes.

        The transaction's declared keys give its shard footprint; each
        shard's share (``execute_ms`` per declared access to a key living
        there) lands on that shard's lane.  Inside an open execution window
        (a decided batch being
        unpacked) shares accumulate and are charged as one spanned unit when
        the window closes; outside a window (e.g. a cross-domain commit
        applying on message receipt) the transaction is charged immediately.
        Inert at ``execution_lanes=1`` — execution stays free, bit-identical
        to the pre-lane model.
        """
        if not self.lanes.enabled or self.state is None:
            return
        # Every declared access pays: reads validate, writes apply.  Charges
        # land on the lane of the key's shard, so a transaction's execution
        # cost is split across (only) the lanes its footprint names.
        accesses = tuple(transaction.read_keys) + tuple(transaction.write_keys)
        per_lane: Dict[int, float] = {}
        if accesses:
            for key in accesses:
                lane = self.lanes.lane_of(self.state.shard_of(key))
                per_lane[lane] = per_lane.get(lane, 0.0) + self.costs.execute_ms
        else:
            per_lane[0] = self.costs.execute_ms
        # Executing a request also verifies its client signature — work the
        # ordering path never charged (it verifies the batch digest, not the
        # per-request signatures).  It rides the transaction's first lane.
        first_lane = min(per_lane)
        per_lane[first_lane] += self.costs.verify_ms
        if self._lane_costs is not None:
            for lane, cost in per_lane.items():
                self._lane_costs[lane] = self._lane_costs.get(lane, 0.0) + cost
        else:
            self._submit_execution_span(per_lane)

    def _submit_execution_span(self, lane_costs: Dict[int, float]) -> None:
        span = self.lanes.span_of(lane_costs)
        if span > 0:
            # Execution occupies the node: later message handling queues
            # behind it, which is what makes execution cost visible in
            # throughput once ordering stops being the bottleneck.
            self.cpu.submit(self.simulator.now, span)

    @property
    def execution_window_open(self) -> bool:
        """Whether a decided batch is mid-unpack (lane accumulator open).

        The control plane checks this before touching the shard -> lane map:
        re-pinning inside a window would split one batch's accounting across
        two placements.
        """
        return self._lane_costs is not None

    def begin_execution_window(self) -> bool:
        """Open a per-batch lane accumulator; returns whether one was opened."""
        if not self.lanes.enabled or self._lane_costs is not None:
            return False
        self._lane_costs = {}
        return True

    def close_execution_window(self) -> None:
        """Charge everything executed since :meth:`begin_execution_window`."""
        costs, self._lane_costs = self._lane_costs, None
        if costs:
            self._submit_execution_span(costs)

    # ------------------------------------------------------------------ durability & recovery

    def take_checkpoint(self, slot: int, view: int) -> Optional[Checkpoint]:
        """Cut, certify, and install a durable checkpoint at delivered ``slot``.

        Called by the engine every ``checkpoint_interval`` delivered slots on
        durable deployments.  The cut binds the full state snapshot to its
        Merkle root, certifies ``(domain, slot, root)`` with a quorum
        certificate, and truncates every WAL record the cut now covers.  The
        root is maintained from the state store's write log, so only the
        keys written since the previous checkpoint are re-hashed;
        :meth:`Checkpoint.verify` still recomputes it from the snapshot.
        """
        if self.wal is None or self.ledger is None or self.state is None:
            return None
        snapshot = self.state.snapshot()
        root = self.state.state_root()
        certificate = self.certify(checkpoint_digest(self._domain.id, slot, root))
        checkpoint = Checkpoint(
            domain=self._domain.id,
            slot=slot,
            view=view,
            state_root=root,
            snapshot=snapshot,
            ledger=tuple(self.ledger.entries()),
            delivery_seq=self.engine.delivery_seq,
            certificate=certificate,
        )
        self.durable_checkpoint = checkpoint
        dropped = self.wal.truncate_through(slot, len(self.ledger))
        if self.wal.sync_ms > 0:
            self.cpu.submit(self.simulator.now, self.wal.sync_ms)
        self.record_trace(
            "recovery:checkpoint",
            slot=slot,
            digest=root,
            wal_dropped=dropped,
            ledger_length=len(self.ledger),
        )
        return checkpoint

    def restore_from_checkpoint(
        self, checkpoint: Checkpoint, adopt: bool = False
    ) -> None:
        """Install a checkpoint wholesale: state, ledger prefix, engine cursor.

        Used for the node's *own* checkpoint during WAL replay, and (with
        ``adopt=True``) for a verified peer checkpoint during catch-up, which
        additionally becomes this node's durable checkpoint and truncates the
        WAL records it covers.
        """
        if self.ledger is None or self.state is None:
            raise RecoveryError(f"{self.address} is not a height-1 node")
        if checkpoint.domain != self._domain.id:
            raise RecoveryError(
                f"{self.address}: checkpoint for {checkpoint.domain.name}, "
                f"not {self._domain.id.name}"
            )
        self.state.restore(checkpoint.snapshot)
        self.ledger = LinearLedger(self._domain.id, self.shared_positions)
        self._executed = set()
        for entry in checkpoint.ledger:
            self.ledger.append(entry)
            if entry.status is TransactionStatus.COMMITTED:
                self._executed.add(entry.tid)
        self.engine.resume_from(
            checkpoint.slot, checkpoint.view, checkpoint.delivery_seq
        )
        if adopt:
            self.durable_checkpoint = checkpoint
            if self.wal is not None:
                self.wal.truncate_through(checkpoint.slot, len(self.ledger))

    def replay_ledger_entry(self, entry: CommittedEntry) -> None:
        """Re-append one WAL-logged ledger entry during recovery replay.

        The entry is appended verbatim — same sequence, status, and commit
        time, hence the identical chain hash — and COMMITTED work is
        re-executed against the restored state.  Metrics are deliberately
        left alone: commit points live on the run-wide collector, which a
        node crash does not wipe, so re-counting a replay would double-book.
        """
        if self.ledger is None or self.state is None:
            raise RecoveryError(f"{self.address} is not a height-1 node")
        self.ledger.append(entry)
        if (
            entry.status is TransactionStatus.COMMITTED
            and entry.tid not in self._executed
        ):
            self._executed.add(entry.tid)
            self.application.execute(entry.transaction, self.state, self._domain.id)

    # ------------------------------------------------------------------ metrics helpers

    def note_commit(self, tid: TransactionId) -> None:
        """Record the paper's commit point: appended to a height-1 ledger."""
        if self.metrics is not None:
            self.metrics.record_commit(tid, self.simulator.now)

    def note_abort(self, tid: TransactionId, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.record_abort(tid, self.simulator.now, reason)

    # ------------------------------------------------------------------ control-plane hooks

    def on_shards_split(self, parent: int, child: int) -> None:
        """Tell the components caching shard indices (e.g. the optimistic
        protocol's per-shard taint buckets) that the state store re-routed
        ``parent``'s keys, so later lookups under the new routing still find
        their entries."""
        for component in self._fan_out["on_shards_split"]:
            component.on_shards_split(parent, child)
