"""Simulated edge devices (clients).

A client owns a queue of transactions produced by the workload generator and
issues them in a closed loop: it sends a request to the primary of the
responsible height-1 domain, waits for the reply, records nothing itself
(commit latency is recorded at the height-1 ledgers), and then issues the next
request.  A request that receives no reply within the request timeout is
retransmitted to *all* nodes of the target domain, which is the client-side
failure-handling rule of §4.2.

Mobile behaviour: a transaction of kind ``MOBILE`` is sent to its remote
domain, and while it is outstanding the client is physically located in the
remote domain's region, so the request/reply hops stay local to that region —
this models the device actually having moved.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import MetricsCollector
from repro.common.config import TimerConfig
from repro.common.types import ClientId, DomainId, TransactionId, TransactionKind
from repro.core.messages import ClientReply, ClientRequest
from repro.errors import WorkloadError
from repro.ledger.transaction import Transaction
from repro.sim.network import Envelope, Network
from repro.sim.simulator import Simulator, Timer
from repro.topology.hierarchy import Hierarchy

__all__ = ["EdgeDeviceClient"]


class EdgeDeviceClient:
    """A closed-loop client bound to one edge device identity."""

    def __init__(
        self,
        client_id: ClientId,
        hierarchy: Hierarchy,
        network: Network,
        simulator: Simulator,
        metrics: MetricsCollector,
        timers: TimerConfig,
        transactions: Sequence[Transaction],
        start_delay_ms: float = 0.0,
        think_time_ms: float = 0.5,
    ) -> None:
        self._client_id = client_id
        self._hierarchy = hierarchy
        self._network = network
        self._simulator = simulator
        self._metrics = metrics
        self._timers = timers
        self._queue: List[Transaction] = list(transactions)
        self._start_delay_ms = start_delay_ms
        # A small randomised think time before each request desynchronises
        # the closed-loop clients, as independent devices would be: one
        # draw per transaction, made here in issue order.
        think = 2.0 * max(0.0, think_time_ms)
        self._think_times: Optional["array[float]"] = None
        if think > 0:
            rng = simulator.rng.fresh(f"client:{client_id.name}")
            self._think_times = array("d", (rng.uniform(0.0, think) for _ in self._queue))

        self._home_leaf = hierarchy.domain(client_id.home)
        self._local_domain = hierarchy.parent_height1_of_leaf(client_id.home)
        self._current_region = self._home_leaf.region

        self._index = -1
        self._issued: set = set()
        self._timer: Optional[Timer] = None
        self._done = len(self._queue) == 0
        self._replies_seen: Dict[TransactionId, bool] = {}

        network.register(self)

    # ------------------------------------------------------------------ endpoint

    @property
    def client_id(self) -> ClientId:
        return self._client_id

    @property
    def address(self) -> str:
        return self._client_id.name

    @property
    def region(self) -> str:
        """Current physical location (changes while visiting a remote domain)."""
        return self._current_region

    @property
    def done(self) -> bool:
        return self._done

    @property
    def completed(self) -> int:
        return self._index if not self._done else len(self._queue)

    def deliver(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if not isinstance(payload, ClientReply):
            return
        current = self._current_transaction()
        if current is None or payload.tid != current.tid:
            self._replies_seen[payload.tid] = payload.success
            return
        self._replies_seen[payload.tid] = payload.success
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._advance()

    # ------------------------------------------------------------------ issuing

    def start(self) -> None:
        """Begin issuing transactions (after an optional stagger delay)."""
        if self._done:
            return
        self._simulator.schedule(self._start_delay_ms, self._advance)

    def _current_transaction(self) -> Optional[Transaction]:
        if 0 <= self._index < len(self._queue):
            return self._queue[self._index]
        return None

    def _advance(self) -> None:
        self._index += 1
        if self._index >= len(self._queue):
            self._done = True
            self._current_region = self._home_leaf.region
            return
        if self._think_times is not None:
            delay = self._think_times[self._index]
            self._simulator.schedule(delay, lambda: self._issue_current(True))
        else:
            self._issue_current(first_attempt=True)

    def _issue_current(self, first_attempt: bool) -> None:
        transaction = self._current_transaction()
        if transaction is None:
            return
        target_domain = self._target_domain(transaction)
        self._update_region(transaction)
        if first_attempt and transaction.tid not in self._issued:
            self._issued.add(transaction.tid)
            self._metrics.record_issue(
                transaction.tid, transaction.kind, self._simulator.now
            )
        request = ClientRequest(
            transaction=transaction,
            client_address=self.address,
            issued_at=self._simulator.now,
        )
        if first_attempt:
            primary = self._hierarchy.domain(target_domain).primary.name
            self._network.send(self.address, primary, request)
        else:
            # Retransmission: multicast to every node of the domain (§4.2).
            for node_name in self._hierarchy.domain(target_domain).node_names:
                self._network.send(self.address, node_name, request)
        self._arm_timeout()

    def _target_domain(self, transaction: Transaction) -> DomainId:
        if transaction.kind is TransactionKind.MOBILE:
            if transaction.remote_domain is None:
                raise WorkloadError(f"{transaction.tid} is mobile but has no remote domain")
            return transaction.remote_domain
        if transaction.involves(self._local_domain.id):
            return self._local_domain.id
        return transaction.involved_domains[0]

    def _update_region(self, transaction: Transaction) -> None:
        if transaction.kind is TransactionKind.MOBILE and transaction.remote_domain:
            self._current_region = self._hierarchy.domain(
                transaction.remote_domain
            ).region
        else:
            self._current_region = self._home_leaf.region

    def _arm_timeout(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        transaction = self._current_transaction()
        if transaction is None:
            return

        def _expired() -> None:
            if self._done:
                return
            current = self._current_transaction()
            if current is None or current.tid != transaction.tid:
                return
            self._issue_current(first_attempt=False)

        self._timer = self._simulator.set_timer(
            self._timers.request_timeout_ms, _expired
        )
