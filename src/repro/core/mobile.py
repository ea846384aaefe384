"""Mobile consensus (§7, Algorithm 2).

When an edge device moves from its *local* (home) height-1 domain to a
*remote* one and issues transactions there, the remote domain cannot process
them because it lacks the device's state (e.g. its balance).  Instead of
running a cross-domain protocol for every request, the local domain transfers
the device's state to the remote domain in a single round: ``state-query`` →
(internal consensus on the generated state) → ``state`` → (internal consensus
at the receiver), after which the remote domain processes the device's
requests as ordinary internal transactions.  Each domain keeps a ``lock`` bit
and a ``remote`` pointer per registered device so a later reader (the home
domain, or a second remote domain) can always locate the freshest state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.common.types import ClientId, DomainId, TransactionKind
from repro.core.messages import (
    ClientRequest,
    InternalOrder,
    StateApplyOrder,
    StateGenerateOrder,
    StateMessage,
    StateQuery,
)
from repro.core.node import ProtocolComponent, SaguaroNode

__all__ = ["MobileConsensusProtocol"]


class MobileConsensusProtocol(ProtocolComponent):
    """Implements Algorithm 2 on height-1 nodes (local and remote roles)."""

    wire = {
        ClientRequest: "_on_client_request",
        StateQuery: "_on_state_query",
        StateMessage: "_on_state_message",
    }
    decided = {
        StateGenerateOrder: "_decided_generate",
        StateApplyOrder: "_decided_apply",
    }
    dropped = (StateApplyOrder,)

    def __init__(self, node: SaguaroNode) -> None:
        super().__init__(node)
        #: lock(n) for devices registered in this domain: True means the local
        #: state is complete and up to date.
        self._lock: Dict[ClientId, bool] = {}
        #: remote(n): which domain currently holds the freshest state.
        self._remote_of: Dict[ClientId, DomainId] = {}
        #: Visiting devices whose state has been installed here.
        self._visiting: Set[ClientId] = set()
        #: Requests waiting for a device's state to arrive.
        self._buffered: Dict[ClientId, List[ClientRequest]] = {}
        #: state-query already sent for these devices (avoid duplicates).
        self._querying: Set[ClientId] = set()
        #: After pulling state back from a previous remote, forward it here.
        self._pending_forward: Dict[ClientId, DomainId] = {}

    # ------------------------------------------------------------------ helpers

    def _home_domain_of(self, client: ClientId) -> DomainId:
        return self.node.hierarchy.parent_height1_of_leaf(client.home).id

    def _is_home_of(self, client: ClientId) -> bool:
        return self.node.is_height1 and self._home_domain_of(client) == self.node.domain.id

    def lock_of(self, client: ClientId) -> bool:
        """lock(n): whether this (home) domain holds the device's latest state."""
        return self._lock.get(client, True)

    def remote_of(self, client: ClientId) -> Optional[DomainId]:
        return self._remote_of.get(client)

    def is_visiting(self, client: ClientId) -> bool:
        return client in self._visiting

    # ------------------------------------------------------------------ dispatch

    def handle_message(self, payload: Any, sender: str) -> bool:
        return getattr(self, self.wire[type(payload)])(payload)

    def on_decide(self, slot: int, payload: Any) -> None:
        getattr(self, self.decided[type(payload)])(payload)

    def on_submission_dropped(self, payload: StateApplyOrder) -> None:
        # The state never installed: clear the outstanding-query marker so a
        # retransmitted mobile request restarts the state transfer.
        self._querying.discard(payload.client)

    # ------------------------------------------------------------------ client requests

    def _on_client_request(self, request: ClientRequest) -> bool:
        transaction = request.transaction
        client = transaction.client
        if client is None or not self.node.is_height1:
            return False
        if transaction.kind is TransactionKind.MOBILE:
            return self._handle_mobile_request(request, client)
        if transaction.kind is TransactionKind.INTERNAL and self._is_home_of(client):
            # A device back home whose state is still held by a remote domain:
            # pull the state back before processing (last paragraph of §7).
            if not self.lock_of(client):
                self._buffer_and_fetch_home_state(request, client)
                return True
        return False

    def _handle_mobile_request(self, request: ClientRequest, client: ClientId) -> bool:
        transaction = request.transaction
        if transaction.remote_domain != self.node.domain.id:
            return False  # not addressed to this domain
        if not self.node.is_primary:
            self.node.send(self.node.engine.primary_address, request)
            return True
        if client in self._visiting:
            # State already installed: process like an internal transaction.
            self._order_locally(request)
            return True
        self._buffered.setdefault(client, []).append(request)
        # Re-multicast the query even when one is already outstanding: a
        # retransmitted request means the transfer may have been lost (e.g.
        # the home primary dropped its StateGenerateOrder when deposed), and
        # duplicate queries/state installs are idempotent.  Retransmission
        # frequency is bounded by the client's request timeout.
        self._querying.add(client)
        local_domain = self._home_domain_of(client)
        query = StateQuery(
            transaction=transaction,
            client=client,
            remote_domain=self.node.domain.id,
            target_domain=local_domain,
            request_digest=transaction.request_digest,
        )
        # Algorithm 2, line 6: multicast to the local domain and to our own
        # domain so every replica knows about the outstanding request.
        self.node.multicast_domain(local_domain, query)
        self.node.multicast_domain(self.node.domain.id, query)
        return True

    def _buffer_and_fetch_home_state(
        self, request: ClientRequest, client: ClientId
    ) -> None:
        if not self.node.is_primary:
            self.node.send(self.node.engine.primary_address, request)
            return
        self._buffered.setdefault(client, []).append(request)
        holder = self._remote_of.get(client)
        if holder is None:
            if client in self._querying:
                return  # a pull is in flight; the apply will drain the buffer
            # Nothing actually remote; process directly.
            self._order_locally(request)
            return
        # As in `_handle_mobile_request`: re-query on retransmissions so a
        # lost transfer (dropped StateGenerateOrder on a deposed holder
        # primary) is re-driven instead of wedging the client forever.
        self._querying.add(client)
        query = StateQuery(
            transaction=request.transaction,
            client=client,
            remote_domain=self.node.domain.id,
            target_domain=holder,
            request_digest=request.transaction.request_digest,
        )
        self.node.multicast_domain(holder, query)

    def _order_locally(self, request: ClientRequest) -> None:
        order = InternalOrder(
            transaction=request.transaction,
            client_address=request.client_address,
            received_at=self.node.now(),
        )
        self.node.engine.submit(order)

    # ------------------------------------------------------------------ state-query handling

    def _on_state_query(self, query: StateQuery) -> bool:
        if not self.node.is_height1 or query.target_domain != self.node.domain.id:
            # Queries multicast to the remote domain itself only inform replicas.
            return self.node.is_height1
        if not self.node.is_primary:
            return True
        client = query.client
        if self._is_home_of(client):
            if self.lock_of(client):
                self._generate_state(client, destination=query.remote_domain,
                                     request_digest=query.request_digest)
            else:
                holder = self._remote_of.get(client)
                if holder is None or holder == query.remote_domain:
                    # The asking domain already holds the freshest state.
                    self._generate_state(client, destination=query.remote_domain,
                                         request_digest=query.request_digest)
                else:
                    # GetState: pull from the previous remote, then forward.
                    self._pending_forward[client] = query.remote_domain
                    pull = StateQuery(
                        transaction=query.transaction,
                        client=client,
                        remote_domain=self.node.domain.id,
                        target_domain=holder,
                        request_digest=query.request_digest,
                    )
                    self.node.multicast_domain(holder, pull)
        elif client in self._visiting:
            # A previous remote domain returning the state to the home domain.
            self._generate_state(client, destination=query.remote_domain,
                                 request_digest=query.request_digest)
        return True

    def _generate_state(
        self, client: ClientId, destination: DomainId, request_digest: bytes
    ) -> None:
        """GenerateState (Algorithm 2): agree on H(n) and ship it."""
        state_snapshot = self.node.application.client_state(client, self.node.state)
        order = StateGenerateOrder(
            client=client,
            state=state_snapshot,
            destination_domain=destination,
            request_digest=request_digest,
        )
        self.node.engine.submit(order)

    def _decided_generate(self, order: StateGenerateOrder) -> None:
        client = order.client
        if self._is_home_of(client):
            self._lock[client] = False
            self._remote_of[client] = order.destination_domain
        self._visiting.discard(client)
        if not self.node.is_primary:
            return
        message = StateMessage(
            client=client,
            state=order.state,
            source_domain=self.node.domain.id,
            target_domain=order.destination_domain,
            request_digest=order.request_digest,
            certificate=self.node.certify(order.request_digest),
        )
        self.node.multicast_domain(order.destination_domain, message)

    # ------------------------------------------------------------------ state installation

    def _on_state_message(self, message: StateMessage) -> bool:
        if not self.node.is_height1 or message.target_domain != self.node.domain.id:
            return False
        if not self.node.is_primary:
            return True
        order = StateApplyOrder(
            client=message.client,
            state=message.state,
            source_domain=message.source_domain,
        )
        self.node.engine.submit(order)
        return True

    def _decided_apply(self, order: StateApplyOrder) -> None:
        client = order.client
        if self.node.state is not None:
            self.node.application.apply_client_state(client, order.state, self.node.state)
        self._querying.discard(client)
        if self._is_home_of(client):
            self._lock[client] = True
            self._remote_of.pop(client, None)
            forward_to = self._pending_forward.pop(client, None)
            if forward_to is not None and self.node.is_primary:
                self._generate_state(client, forward_to, request_digest=b"forward")
                return
        else:
            self._visiting.add(client)
        if self.node.is_primary:
            for request in self._buffered.pop(client, []):
                self._order_locally(request)
