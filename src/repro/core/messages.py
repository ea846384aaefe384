"""Client-facing and cross-domain protocol messages, plus consensus payloads.

Two kinds of objects live here:

* **Wire messages** exchanged between endpoints (clients, server nodes of
  different domains).  They correspond to the message names of the paper:
  ``request``, ``reply``, ``prepare``, ``prepared``, ``commit``, ``abort``,
  ``ack``, ``commit-query``, ``block``, ``state-query`` and ``state``.
* **Consensus payloads** — the values a domain orders through its internal
  consensus protocol ("establish consensus on X among nodes in d").  When a
  slot is decided, every node of the domain reacts to the payload type.

Every wire message exposes ``verify_count`` (signature verifications performed
by the receiver, feeding the CPU model) and ``size_kb`` (feeding the network
model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.types import ClientId, DomainId, TransactionId
from repro.crypto.certificates import QuorumCertificate
from repro.ledger.block import BlockMessage
from repro.ledger.transaction import Transaction

__all__ = [
    # client traffic
    "ClientRequest",
    "ClientReply",
    # coordinator-based cross-domain protocol (§4, Algorithm 1)
    "CrossForward",
    "CrossPrepare",
    "CrossPrepared",
    "CrossCommit",
    "CrossAbort",
    "CrossAck",
    "CommitQuery",
    # batch-aware cross-domain commit (grouped 2PC)
    "GroupCrossPrepare",
    "GroupCrossPrepared",
    "GroupCrossCommit",
    "GroupCrossAck",
    # optimistic protocol (§6)
    "OptimisticForward",
    "OptimisticDecision",
    "OptimisticCommitQuery",
    # lazy propagation (§5)
    "BlockPropagate",
    "BlockAck",
    # mobile consensus (§7, Algorithm 2)
    "StateQuery",
    "StateMessage",
    # consensus payloads
    "InternalOrder",
    "CoordinatorPrepareOrder",
    "ParticipantPrepareOrder",
    "CoordinatorCommitOrder",
    "CoordinatorAbortOrder",
    "GroupPrepareOrder",
    "GroupParticipantPrepareOrder",
    "AdoptedMember",
    "GroupParticipantPrepareOrderWithLeases",
    "GroupCommitOrder",
    "OptimisticOrder",
    "BlockOrder",
    "StateGenerateOrder",
    "StateApplyOrder",
    "DeviceBatchOrder",
]


# ---------------------------------------------------------------------------
# Client traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientRequest:
    """An edge device's transaction request sent to its height-1 primary."""

    transaction: Transaction
    client_address: str
    issued_at: float
    verify_count: int = 1
    size_kb: float = 0.2


@dataclass(frozen=True)
class ClientReply:
    """Execution result returned to the edge device."""

    tid: TransactionId
    success: bool
    responder: str
    result: Optional[Mapping[str, Any]] = None
    verify_count: int = 1
    size_kb: float = 0.2


# ---------------------------------------------------------------------------
# Coordinator-based cross-domain protocol (§4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossForward:
    """Participant primary -> all nodes of the LCA domain: forward request m."""

    transaction: Transaction
    origin_domain: DomainId
    client_address: str
    verify_count: int = 1
    size_kb: float = 0.25


@dataclass(frozen=True)
class CrossPrepare:
    """⟨PREPARE, nc, δ, m⟩ from the coordinator to every involved domain.

    ``after`` lists conflicting cross-domain transactions this coordinator has
    already started preparing: a participant orders ``transaction`` only after
    it has ordered everything in ``after``, which keeps the commit order of
    conflicting transactions identical on every overlapping domain while still
    letting the coordinator pipeline them.
    """

    transaction: Transaction
    coordinator_domain: DomainId
    coordinator_sequence: int
    request_digest: bytes
    certificate: Optional[QuorumCertificate] = None
    attempt: int = 1
    after: Tuple[TransactionId, ...] = ()

    @property
    def verify_count(self) -> int:
        return len(self.certificate.signatures) if self.certificate else 1

    size_kb: float = 0.3


@dataclass(frozen=True)
class CrossPrepared:
    """⟨PREPARED, nc, ni, δ, r⟩ from a participant back to the coordinator."""

    tid: TransactionId
    participant_domain: DomainId
    coordinator_sequence: int
    participant_sequence: int
    request_digest: bytes
    certificate: Optional[QuorumCertificate] = None
    attempt: int = 1

    @property
    def verify_count(self) -> int:
        return len(self.certificate.signatures) if self.certificate else 1

    size_kb: float = 0.25


@dataclass(frozen=True)
class CrossCommit:
    """⟨COMMIT, ni-nj-...-nk, δ, r⟩ from the coordinator to every participant."""

    tid: TransactionId
    coordinator_domain: DomainId
    sequence_parts: Tuple[Tuple[DomainId, int], ...]
    request_digest: bytes
    certificate: Optional[QuorumCertificate] = None

    @property
    def verify_count(self) -> int:
        return len(self.certificate.signatures) if self.certificate else 1

    size_kb: float = 0.25


@dataclass(frozen=True)
class CrossAbort:
    """Coordinator -> participants, once the abort is ordered: the attempts
    ``(tid, coordinator_sequence)`` are aborted (retry or drop)."""

    coordinator_domain: DomainId
    members: Tuple[Tuple[TransactionId, int], ...]
    reason: str = ""
    will_retry: bool = False
    verify_count: int = 1

    @property
    def size_kb(self) -> float:
        return 0.18 + 0.02 * len(self.members)


@dataclass(frozen=True)
class CrossAck:
    """⟨ACK, nc, ni-..., δ, r⟩ from a participant node to the coordinator."""

    tid: TransactionId
    participant: str
    coordinator_sequence: int
    verify_count: int = 1
    size_kb: float = 0.2


@dataclass(frozen=True)
class CommitQuery:
    """Participant node -> LCA nodes when the commit message is overdue."""

    tid: TransactionId
    participant_domain: DomainId
    coordinator_sequence: int
    participant_sequence: int
    request_digest: bytes
    sender: str = ""
    verify_count: int = 1
    size_kb: float = 0.2


# ---------------------------------------------------------------------------
# Batch-aware cross-domain commit (grouped 2PC)
#
# The coordinator accumulates cross-domain transactions per participant set
# and runs *one* prepare/commit exchange per group.  Grouped messages carry
# every member transaction; per-transaction outcomes stay independent (one
# member aborting never aborts its groupmates).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupCrossPrepare:
    """One grouped ⟨PREPARE⟩ carrying all member transactions of a group.

    Sent by the coordinator to every involved domain instead of one
    :class:`CrossPrepare` per transaction.  All members share the same
    participant set (that is the grouping key), the same coordinator
    sequence, and the same ``after`` ordering dependencies.
    """

    transactions: Tuple[Transaction, ...]
    coordinator_domain: DomainId
    coordinator_sequence: int
    group_id: str
    group_digest: bytes
    certificate: Optional[QuorumCertificate] = None
    after: Tuple[TransactionId, ...] = ()

    @property
    def verify_count(self) -> int:
        return len(self.certificate.signatures) if self.certificate else 1

    @property
    def size_kb(self) -> float:
        return 0.1 + 0.2 * len(self.transactions)


@dataclass(frozen=True)
class GroupCrossPrepared:
    """One grouped ⟨PREPARED⟩ vote: per-member outcomes in a single message.

    ``tids`` lists the members this participant ordered (in its group order);
    members it had to hold back (conflicts) are voted on individually later,
    through the classic :class:`CrossPrepared` path.
    """

    group_id: str
    participant_domain: DomainId
    coordinator_sequence: int
    participant_sequence: int
    tids: Tuple[TransactionId, ...]
    certificate: Optional[QuorumCertificate] = None

    @property
    def verify_count(self) -> int:
        return len(self.certificate.signatures) if self.certificate else 1

    @property
    def size_kb(self) -> float:
        return 0.1 + 0.05 * len(self.tids)


@dataclass(frozen=True)
class GroupCrossCommit:
    """One grouped ⟨COMMIT⟩: the per-member commits of one group exchange.

    Only members whose parts all prepared are included; the outer certificate
    covers the whole group (the inner commits carry none).
    """

    group_id: str
    coordinator_domain: DomainId
    commits: Tuple[CrossCommit, ...]
    certificate: Optional[QuorumCertificate] = None

    @property
    def verify_count(self) -> int:
        return len(self.certificate.signatures) if self.certificate else 1

    @property
    def size_kb(self) -> float:
        return 0.1 + 0.15 * len(self.commits)


@dataclass(frozen=True)
class GroupCrossAck:
    """One grouped ⟨ACK⟩ from a participant node for every applied member."""

    group_id: str
    participant: str
    tids: Tuple[TransactionId, ...]
    verify_count: int = 1

    @property
    def size_kb(self) -> float:
        return 0.1 + 0.02 * len(self.tids)


# ---------------------------------------------------------------------------
# Optimistic protocol (§6)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimisticForward:
    """Initiator domain -> all nodes of every involved domain: the raw request."""

    transaction: Transaction
    initiator_domain: DomainId
    client_address: str
    verify_count: int = 1
    size_kb: float = 0.25


@dataclass(frozen=True)
class OptimisticDecision:
    """LCA / intermediate domain -> involved domains: final commit or abort."""

    tid: TransactionId
    commit: bool
    deciding_domain: DomainId
    cascaded_from: Optional[TransactionId] = None
    verify_count: int = 1
    size_kb: float = 0.2


@dataclass(frozen=True)
class OptimisticCommitQuery:
    """Node -> parent domain when the final decision is overdue."""

    tid: TransactionId
    asking_domain: DomainId
    sender: str = ""
    verify_count: int = 1
    size_kb: float = 0.2


# ---------------------------------------------------------------------------
# Lazy propagation (§5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPropagate:
    """Child primary -> all nodes of the parent domain: one round's block."""

    block: BlockMessage
    child_domain: DomainId
    certificate: Optional[QuorumCertificate] = None

    @property
    def verify_count(self) -> int:
        base = len(self.certificate.signatures) if self.certificate else 1
        return base + 1  # plus the Merkle-root check

    @property
    def size_kb(self) -> float:
        return self.block.size_kb


@dataclass(frozen=True)
class BlockAck:
    """Parent primary -> a child node that sent it blocks: the parent's DAG
    holds ``child_domain``'s ledger through ``position``, and integrated that
    node's blocks of ``rounds`` since the last acknowledgement."""

    child_domain: DomainId
    position: int
    rounds: Tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# Mobile consensus (§7)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateQuery:
    """⟨STATE-QUERY, m, δm⟩ multicast by the remote primary (Algorithm 2)."""

    transaction: Transaction
    client: ClientId
    remote_domain: DomainId
    target_domain: DomainId
    request_digest: bytes
    verify_count: int = 1
    size_kb: float = 0.25


@dataclass(frozen=True)
class StateMessage:
    """⟨STATE, H(n), δh, δm⟩ carrying the mobile device's state."""

    client: ClientId
    state: Mapping[str, Any]
    source_domain: DomainId
    target_domain: DomainId
    request_digest: bytes
    certificate: Optional[QuorumCertificate] = None

    @property
    def verify_count(self) -> int:
        return len(self.certificate.signatures) if self.certificate else 1

    @property
    def size_kb(self) -> float:
        return 0.3 + 0.05 * len(self.state)


# ---------------------------------------------------------------------------
# Consensus payloads (ordered inside one domain)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InternalOrder:
    """Order an internal transaction in a height-1 domain."""

    transaction: Transaction
    client_address: str
    received_at: float


@dataclass(frozen=True)
class CoordinatorPrepareOrder:
    """The LCA domain agrees to coordinate (prepare) a cross-domain request."""

    transaction: Transaction
    origin_domain: DomainId
    client_address: str
    attempt: int = 1


@dataclass(frozen=True)
class ParticipantPrepareOrder:
    """A participant domain reserves a local order for a cross-domain request."""

    transaction: Transaction
    coordinator_domain: DomainId
    coordinator_sequence: int
    attempt: int = 1


@dataclass(frozen=True)
class CoordinatorCommitOrder:
    """The LCA domain agrees the request is prepared everywhere; commit it."""

    tid: TransactionId
    sequence_parts: Tuple[Tuple[DomainId, int], ...]
    request_digest: bytes


@dataclass(frozen=True)
class CoordinatorAbortOrder:
    """The LCA domain agrees to end the attempts ``(tid, coordinator_sequence)``
    without a commit; with ``will_retry`` each is prepared again later."""

    members: Tuple[Tuple[TransactionId, int], ...]
    will_retry: bool


@dataclass(frozen=True)
class GroupPrepareOrder:
    """The LCA domain agrees to coordinate one *group* of cross-domain
    requests (all sharing the same participant set) in one consensus round."""

    group_id: str
    members: Tuple[CoordinatorPrepareOrder, ...]

    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """Member transactions in group order (feeds batch tracing)."""
        return tuple(member.transaction for member in self.members)


@dataclass(frozen=True)
class GroupParticipantPrepareOrder:
    """A participant domain reserves one local order for a whole group."""

    group_id: str
    coordinator_domain: DomainId
    coordinator_sequence: int
    transactions: Tuple[Transaction, ...]


@dataclass(frozen=True)
class AdoptedMember:
    """One conflict-leased transaction riding a *foreign* group's order.

    The member keeps its own (home) coordinator identity — the adopting
    group's coordinator never learns about it; the participant votes for it
    individually after the shared order decides."""

    transaction: Transaction
    coordinator_domain: DomainId
    coordinator_sequence: int


@dataclass(frozen=True)
class GroupParticipantPrepareOrderWithLeases(GroupParticipantPrepareOrder):
    """A group order additionally carrying adopted conflict-leased members.

    A subclass (rather than a field on the base order) so the base payload's
    ``repr`` — and with it every static deployment's payload digest — stays
    byte-identical to deployments built before conflict leases existed."""

    adopted: Tuple[AdoptedMember, ...] = ()


@dataclass(frozen=True)
class GroupCommitOrder:
    """The LCA domain agrees which group members prepared everywhere."""

    group_id: str
    commits: Tuple[CoordinatorCommitOrder, ...]


@dataclass(frozen=True)
class OptimisticOrder:
    """A domain optimistically orders a cross-domain request (§6)."""

    transaction: Transaction
    initiator_domain: DomainId
    client_address: str


@dataclass(frozen=True)
class BlockOrder:
    """A parent domain orders a block message received from a child (§5);
    ``sender`` is the child node its acknowledgement goes back to."""

    block: BlockMessage
    child_domain: DomainId
    sender: str = ""


@dataclass(frozen=True)
class StateGenerateOrder:
    """The local domain agrees on the state H(n) it sends to a remote domain."""

    client: ClientId
    state: Mapping[str, Any]
    destination_domain: DomainId
    request_digest: bytes


@dataclass(frozen=True)
class StateApplyOrder:
    """The remote domain agrees on a received state message before using it."""

    client: ClientId
    state: Mapping[str, Any]
    source_domain: DomainId
    pending_tid: Optional[TransactionId] = None


@dataclass(frozen=True)
class DeviceBatchOrder:
    """A height-1 domain orders a batch of device-agreed transactions (§6.1)."""

    transactions: Tuple[Transaction, ...]
    leaf_domain: DomainId
