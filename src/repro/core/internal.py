"""Internal transaction processing inside one height-1 domain (§4).

Edge devices send requests to the primary of their height-1 domain; the
primary runs the domain's internal consensus protocol (Paxos or PBFT) on the
request, every node appends the decided transaction to the blockchain ledger
and executes it, and the primary replies to the device.  Replicas that receive
a client request relay it to the primary and start a suspicion timer so a
crashed or silent primary is eventually replaced (§4.2).
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.common.types import TransactionId, TransactionKind, TransactionStatus
from repro.core.messages import ClientRequest, InternalOrder
from repro.core.node import ProtocolComponent, SaguaroNode

__all__ = ["InternalTransactionProtocol"]


class InternalTransactionProtocol(ProtocolComponent):
    """Orders and executes internal transactions of a height-1 domain."""

    wire = (ClientRequest,)
    decided = dropped = (InternalOrder,)

    def __init__(self, node: SaguaroNode) -> None:
        super().__init__(node)
        self._in_flight: Set[TransactionId] = set()
        self._suspicion_timers: Dict[TransactionId, Any] = {}

    # -- wire messages ------------------------------------------------------------

    def handle_message(self, payload: ClientRequest, sender: str) -> bool:
        transaction = payload.transaction
        if transaction.kind is not TransactionKind.INTERNAL:
            return False
        if not self.node.is_height1 or not transaction.involves(self.node.domain.id):
            return False
        if self._already_processed(transaction.tid):
            self._resend_reply(payload)
            return True
        if self.node.is_primary:
            self._propose(payload)
        else:
            self._relay_to_primary(payload)
        return True

    def _already_processed(self, tid: TransactionId) -> bool:
        ledger = self.node.ledger
        return ledger is not None and tid in ledger

    def _resend_reply(self, payload: ClientRequest) -> None:
        if self.node.is_primary:
            self.node.reply_to_client(
                payload.client_address, payload.transaction, success=True
            )

    def _propose(self, payload: ClientRequest) -> None:
        tid = payload.transaction.tid
        if tid in self._in_flight:
            return
        self._in_flight.add(tid)
        order = InternalOrder(
            transaction=payload.transaction,
            client_address=payload.client_address,
            received_at=self.node.now(),
        )
        self.node.engine.submit(order)

    def _relay_to_primary(self, payload: ClientRequest) -> None:
        """Replica path: forward to the primary and watch for silence (§4.2)."""
        tid = payload.transaction.tid
        primary = self.node.engine.primary_address
        self.node.send(primary, payload)
        if tid in self._suspicion_timers:
            return
        timeout = self.node.config.timers.request_timeout_ms

        def _suspect() -> None:
            self._suspicion_timers.pop(tid, None)
            if not self._already_processed(tid):
                self.node.engine.suspect_primary()

        self._suspicion_timers[tid] = self.node.set_timer(timeout, _suspect)

    def on_submission_dropped(self, payload: InternalOrder) -> None:
        # Unblock re-proposal when the client retransmits to this node again.
        self._in_flight.discard(payload.transaction.tid)

    # -- decided payloads -----------------------------------------------------------

    def on_decide(self, slot: int, payload: InternalOrder) -> None:
        transaction = payload.transaction
        if self.node.ledger is not None and transaction.tid not in self.node.ledger:
            self.node.append_and_execute(transaction, TransactionStatus.COMMITTED)
            self.node.note_commit(transaction.tid)
        self._in_flight.discard(transaction.tid)
        timer = self._suspicion_timers.pop(transaction.tid, None)
        if timer is not None:
            timer.cancel()
        if self.node.is_primary:
            # The order carries the client's address: a transaction has one
            # client, so no replica needs to remember where to reply.
            self.node.reply_to_client(payload.client_address, transaction, success=True)
