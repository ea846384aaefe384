"""Edge-device (height-0) transaction processing and payment channels (§6.1).

When edge devices lose connectivity to their edge servers — or simply to
offload them — a fault-tolerant leaf domain can order transactions among the
devices themselves and ship the agreed batch to the parent height-1 domain,
which validates and commits it through its internal consensus.  For
asset-transfer applications the same leaf layer can host off-chain *payment
channels*: two devices lock part of their balance on the height-1 blockchain
state, transact privately inside the channel, and settle the net result with a
single on-chain transaction when the channel closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.types import (
    ClientId,
    DomainId,
    TransactionId,
    TransactionKind,
    TransactionStatus,
)
from repro.core.messages import DeviceBatchOrder
from repro.core.node import ProtocolComponent, SaguaroNode
from repro.errors import InsufficientBalanceError, TransactionError
from repro.ledger.transaction import Transaction

__all__ = ["EdgeDeviceQuorum", "PaymentChannel", "DeviceBatchProtocol"]


class EdgeDeviceQuorum:
    """Consensus among the edge devices of one leaf domain (§6.1).

    The quorum is a lightweight, library-level abstraction: devices agree on a
    total order of their local transactions (the first device acts as leader
    and an explicit majority of acknowledgements is required per transaction),
    and agreed transactions accumulate into a batch that is later submitted to
    the parent height-1 domain as one :class:`DeviceBatchOrder`.
    """

    def __init__(self, leaf_domain: DomainId, devices: Sequence[ClientId]) -> None:
        if len(devices) < 3:
            raise TransactionError("a device quorum needs at least three devices")
        self._leaf = leaf_domain
        self._devices = list(devices)
        self._ordered: List[Transaction] = []
        self._acks: Dict[TransactionId, set] = {}
        self._batched_upto = 0

    @property
    def leaf_domain(self) -> DomainId:
        return self._leaf

    @property
    def leader(self) -> ClientId:
        return self._devices[0]

    @property
    def quorum_size(self) -> int:
        return len(self._devices) // 2 + 1

    def propose(self, transaction: Transaction) -> None:
        """Leader proposes; the proposal carries the leader's implicit ack."""
        if transaction.tid in self._acks:
            raise TransactionError(f"{transaction.tid} already proposed")
        self._acks[transaction.tid] = {self.leader}
        self._pending = getattr(self, "_pending", {})
        self._pending[transaction.tid] = transaction

    def acknowledge(self, transaction_id: TransactionId, device: ClientId) -> bool:
        """Record a device's ack; returns True when the transaction is ordered."""
        if device not in self._devices:
            raise TransactionError(f"{device} is not a member of this leaf quorum")
        acks = self._acks.get(transaction_id)
        if acks is None:
            raise TransactionError(f"{transaction_id} was never proposed")
        acks.add(device)
        pending = getattr(self, "_pending", {})
        transaction = pending.get(transaction_id)
        if transaction is not None and len(acks) >= self.quorum_size:
            self._ordered.append(transaction)
            del pending[transaction_id]
            return True
        return False

    def ordered_transactions(self) -> Tuple[Transaction, ...]:
        return tuple(self._ordered)

    def next_batch(self) -> Optional[DeviceBatchOrder]:
        """Batch of newly ordered transactions for the parent height-1 domain."""
        fresh = self._ordered[self._batched_upto :]
        if not fresh:
            return None
        self._batched_upto = len(self._ordered)
        return DeviceBatchOrder(transactions=tuple(fresh), leaf_domain=self._leaf)


@dataclass
class PaymentChannel:
    """An off-chain micropayment channel between two edge devices.

    ``open_transaction`` locks the deposits on the height-1 state; payments
    shift the in-channel balances without touching the chain; ``close`` yields
    the single settlement transaction that releases the final balances.
    """

    channel_id: str
    party_a: str
    party_b: str
    deposit_a: float
    deposit_b: float
    _balance_a: float = field(init=False)
    _balance_b: float = field(init=False)
    _payments: int = field(init=False, default=0)
    _closed: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.deposit_a < 0 or self.deposit_b < 0:
            raise TransactionError("channel deposits must be non-negative")
        self._balance_a = self.deposit_a
        self._balance_b = self.deposit_b

    @property
    def balances(self) -> Tuple[float, float]:
        return (self._balance_a, self._balance_b)

    @property
    def payments_made(self) -> int:
        return self._payments

    def open_transaction(self, tid: TransactionId, domain: DomainId) -> Transaction:
        """The on-chain transaction locking both deposits."""
        return Transaction(
            tid=tid,
            kind=TransactionKind.INTERNAL,
            involved_domains=(domain,),
            payload={
                "op": "channel_open",
                "channel": self.channel_id,
                "party_a": self.party_a,
                "party_b": self.party_b,
                "deposit_a": self.deposit_a,
                "deposit_b": self.deposit_b,
            },
            read_keys=(self.party_a, self.party_b),
            write_keys=(self.party_a, self.party_b, f"channel:{self.channel_id}"),
        )

    def pay(self, sender: str, amount: float) -> None:
        """Move ``amount`` inside the channel from ``sender`` to the other party."""
        if self._closed:
            raise TransactionError("channel is closed")
        if amount <= 0:
            raise TransactionError("payment amount must be positive")
        if sender == self.party_a:
            if self._balance_a < amount:
                raise InsufficientBalanceError("party A lacks channel funds")
            self._balance_a -= amount
            self._balance_b += amount
        elif sender == self.party_b:
            if self._balance_b < amount:
                raise InsufficientBalanceError("party B lacks channel funds")
            self._balance_b -= amount
            self._balance_a += amount
        else:
            raise TransactionError(f"{sender} is not a party of this channel")
        self._payments += 1

    def close_transaction(self, tid: TransactionId, domain: DomainId) -> Transaction:
        """The settlement transaction releasing the final balances on-chain."""
        self._closed = True
        return Transaction(
            tid=tid,
            kind=TransactionKind.INTERNAL,
            involved_domains=(domain,),
            payload={
                "op": "channel_close",
                "channel": self.channel_id,
                "party_a": self.party_a,
                "party_b": self.party_b,
                "final_a": self._balance_a,
                "final_b": self._balance_b,
            },
            read_keys=(f"channel:{self.channel_id}",),
            write_keys=(self.party_a, self.party_b, f"channel:{self.channel_id}"),
        )


class DeviceBatchProtocol(ProtocolComponent):
    """Height-1 handling of transaction batches agreed by a leaf quorum."""

    wire = decided = dropped = (DeviceBatchOrder,)

    def handle_message(self, payload: DeviceBatchOrder, sender: str) -> bool:
        if not self.node.is_height1:
            return True
        if self.node.is_primary:
            self.node.engine.submit(payload)
        else:
            self.node.send(self.node.engine.primary_address, payload)
        return True

    def on_submission_dropped(self, payload: DeviceBatchOrder) -> None:
        # Nothing upstream retransmits a device batch (the leaf quorum has
        # already consumed it), so losing it here would lose the devices'
        # agreed transactions for good: hand it to the current primary
        # instead.  Re-delivery is idempotent — decided entries are deduped
        # against the ledger.
        self.node.send(self.node.engine.primary_address, payload)

    def on_decide(self, slot: int, payload: DeviceBatchOrder) -> None:
        for transaction in payload.transactions:
            if self.node.ledger is not None and transaction.tid not in self.node.ledger:
                self.node.append_and_execute(transaction, TransactionStatus.COMMITTED)
                self.node.note_commit(transaction.tid)
