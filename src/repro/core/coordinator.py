"""Coordinator-based cross-domain consensus (§4, Algorithm 1).

The lowest common ancestor (LCA) domain of all involved height-1 domains acts
as the coordinator: it orders the request internally, sends ``prepare`` to
every involved domain, collects certified ``prepared`` messages, orders the
commit internally, and multicasts ``commit``.  Because several independent LCA
domains coordinate different transactions concurrently, a participant may be
involved in several cross-domain transactions at once; the protocol keeps
consistency with a coarse-grained rule — a domain does not process a new
cross-domain request while an earlier one that overlaps it in at least two
domains is still in flight — and resolves the deadlocks this can create with
per-coordinator timers that abort and retry (§4.1).

Every outcome is ordered: the coordinator domain orders the abort through its
own consensus as it does the commit, so for each attempt — named by ``(tid,
coordinator_sequence)``, since a retry re-orders its prepare at a new slot —
every replica applies whichever its log decided first, and only then does the
primary multicast one ``CrossAbort``.  Participants remember every aborted
attempt and refuse a late prepare of one wherever it waits: queued, held
behind a dependency, or decided late by consensus.

One :class:`CoordinatorCrossDomainProtocol` instance runs on every server
node; the same component plays the participant role on height-1 nodes and the
coordinator role on height-2+ nodes.

**What outlives a decision.** A transaction's protocol state lives only
while it is in flight; each replica lets it go where the decision is ordered
or applied, and what stays answers every late or duplicate message as the
whole state would:

* a coordinator replica that decides the commit or the final abort replaces
  the state with an :class:`_Outcome` (the commit's sequence parts, or none,
  and the last attempt's coordinator sequence): a commit query is answered
  with the commit, a forward of an aborted transaction with its abort, a
  late vote or order finds nothing in flight, and a decided member that a
  duplicate group order carries again still orders its groupmates'
  dependencies;
* a participant replica that applies a commit keeps only the
  :class:`_Vote` it committed under (shared by the members of one order): a
  duplicate prepare is answered with that vote, and to every other message
  the transaction reads as committed; a final abort keeps nothing, since
  ``_aborted_tids`` refuses its late prepares and answers for it as a
  dependency;
* a grouped exchange goes once its last member has gone and no timer of its
  is armed; a participant's :class:`_GroupVote` stays, to answer a duplicate
  group prepare with the aggregated vote;
* acks are not recorded: they arrive once the outcome is decided.

**Batch-aware cross-domain commit** (``xdomain_batch_size > 1``): the
coordinator accumulates cross-domain transactions per participant set and
runs *one* grouped prepare/commit exchange per group — a single
:class:`~repro.core.messages.GroupCrossPrepare` carries every member, each
participant orders the whole group through its consensus engine in one
``submit_group()`` round and answers with one aggregated vote, and the
commit carries per-transaction outcomes so one member aborting never aborts
its groupmates.  This amortises the wide-area 2PC round trips the same way
the consensus batcher amortises intra-domain agreement.  A per-transaction
exchange is a group of one to the timeout: both families abort and retry
through the same handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.common.types import DomainId, TransactionId, TransactionKind, TransactionStatus
from repro.core.messages import (
    AdoptedMember,
    ClientReply,
    ClientRequest,
    CommitQuery,
    CoordinatorAbortOrder,
    CoordinatorCommitOrder,
    CoordinatorPrepareOrder,
    CrossAbort,
    CrossAck,
    CrossCommit,
    CrossForward,
    CrossPrepare,
    CrossPrepared,
    GroupCommitOrder,
    GroupCrossAck,
    GroupCrossCommit,
    GroupCrossPrepare,
    GroupCrossPrepared,
    GroupParticipantPrepareOrder,
    GroupParticipantPrepareOrderWithLeases,
    GroupPrepareOrder,
    ParticipantPrepareOrder,
)
from repro.core.node import ProtocolComponent, SaguaroNode
from repro.crypto.digests import digest
from repro.errors import ConfigurationError
from repro.ledger.transaction import Transaction, domain_pairs

__all__ = ["CoordinatorCrossDomainProtocol"]

#: Give up on a cross-domain transaction after this many prepare attempts.
MAX_ATTEMPTS = 5


def _overlaps_in_two(a: Transaction, b: Transaction) -> bool:
    """The paper's coarse-grained conflict rule: intersect in >= 2 domains."""
    return len(set(a.involved_domains) & set(b.involved_domains)) >= 2


_Pair = Tuple[DomainId, DomainId]
_Prepare = Union[CrossPrepare, GroupCrossPrepare]


def _prepared_tids(prepare: _Prepare) -> Tuple[TransactionId, ...]:
    if isinstance(prepare, GroupCrossPrepare):
        return tuple(transaction.tid for transaction in prepare.transactions)
    return (prepare.transaction.tid,)


def _without(
    prepare: _Prepare, drop: Callable[[TransactionId, int], bool]
) -> Optional[_Prepare]:
    """``prepare`` minus the members ``drop(tid, coordinator_sequence)``
    names; ``None`` when no member is left."""
    sequence = prepare.coordinator_sequence
    if isinstance(prepare, GroupCrossPrepare):
        kept = tuple(t for t in prepare.transactions if not drop(t.tid, sequence))
        if len(kept) == len(prepare.transactions):
            return prepare
        return replace(prepare, transactions=kept) if kept else None
    return None if drop(prepare.transaction.tid, sequence) else prepare


class _InFlightTable:
    """The in-flight states of one role, under every unordered pair of their
    involved domains: the only states §4's overlap rule can be asked about.

    A state is added when an attempt opens (a second ``add`` keeps its place)
    and discarded when that attempt commits or aborts; discarding an absent
    state is a no-op.  An emptied table starts afresh: a dict emptied by
    deletions would keep its peak capacity."""

    def __init__(self) -> None:
        self._next_ordinal = 0
        self._entries: Dict[TransactionId, Tuple[int, Tuple[_Pair, ...]]] = {}
        # Ordinals only grow, so each bucket iterates in insertion order.
        self._by_pair: Dict[_Pair, Dict[int, Any]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, state: Any) -> None:
        tid = state.transaction.tid
        if tid in self._entries:
            return
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        pairs = domain_pairs(state.transaction)
        self._entries[tid] = (ordinal, pairs)
        for pair in pairs:
            self._by_pair.setdefault(pair, {})[ordinal] = state
            self._indexed(pair, ordinal, state, 1)

    def discard(self, state: Any) -> None:
        entry = self._entries.pop(state.transaction.tid, None)
        if entry is None:
            return
        ordinal, pairs = entry
        for pair in pairs:
            bucket = self._by_pair[pair]
            del bucket[ordinal]
            self._indexed(pair, ordinal, state, -1)
            if not bucket:
                del self._by_pair[pair]
        if not self._entries:
            self.__init__()

    def _indexed(self, pair: _Pair, ordinal: int, state: Any, change: int) -> None:
        """``state`` entered (``change`` 1) or left (-1) ``pair``'s bucket."""

    def overlapping(self, transaction: Transaction) -> List[Any]:
        """Live states sharing >= 2 domains with ``transaction``, insertion order."""
        buckets = [self._by_pair[p] for p in domain_pairs(transaction) if p in self._by_pair]
        if len(buckets) == 1:
            return list(buckets[0].values())
        merged = {ordinal: state for bucket in buckets for ordinal, state in bucket.items()}
        return [merged[ordinal] for ordinal in sorted(merged)]


class _ParticipantTable(_InFlightTable):
    """The participant role's table, which answers its two questions without
    visiting states: per pair, a heap of the live states' (participant
    sequence, ordinal), whose entries of discarded states are popped as they
    surface, and how many live states each coordinator domain drives.  A
    re-voted state is discarded and re-added (``_record_prepared``), since
    nothing reads this table's insertion order."""

    def __init__(self) -> None:
        super().__init__()
        self._sequences: Dict[_Pair, List[Tuple[int, int]]] = {}
        self._drivers: Dict[_Pair, Dict[DomainId, int]] = {}

    def _indexed(self, pair: _Pair, ordinal: int, state: Any, change: int) -> None:
        if not self._by_pair[pair]:
            del self._drivers[pair], self._sequences[pair]
            return
        drivers = self._drivers.setdefault(pair, {})
        drivers[state.coordinator_domain] = drivers.get(state.coordinator_domain, 0) + change
        if change > 0:
            heap = self._sequences.setdefault(pair, [])
            heappush(heap, (state.participant_sequence, ordinal))

    def precedes(self, state: _ParticipantState) -> bool:
        """A live state sharing >= 2 domains with ``state`` was ordered at a
        lower participant sequence."""
        for pair in domain_pairs(state.transaction):
            bucket, heap = self._by_pair.get(pair), self._sequences.get(pair)
            while heap and heap[0][1] not in bucket:
                heappop(heap)
            if heap and heap[0][0] < state.participant_sequence:
                return True
        return False

    def driven_elsewhere(self, transaction: Transaction, coordinator: Optional[DomainId]) -> bool:
        """A live state sharing >= 2 domains with ``transaction`` is driven by
        a coordinator domain other than ``coordinator`` (any, for ``None``)."""
        for pair in domain_pairs(transaction):
            bucket = self._by_pair.get(pair)
            if bucket and len(bucket) > self._drivers[pair].get(coordinator, 0):
                return True
        return False


@dataclass
class _CoordinationState:
    """Coordinator-side (LCA) bookkeeping for one undecided cross-domain
    transaction; its decision replaces it with an :class:`_Outcome`."""

    transaction: Transaction
    origin_domain: DomainId
    client_address: str
    #: Slot of the decided prepare of the live attempt; 0 between attempts.
    coordinator_sequence: int = 0
    attempt: int = 1
    prepared_parts: Dict[DomainId, int] = field(default_factory=dict)
    all_prepared: bool = False
    #: The primary submitted an abort order for the live attempt: its late
    #: votes no longer count and its timer no longer fires.
    abort_submitted: bool = False
    committed: bool = False
    aborted: bool = False
    timer: Any = None
    #: The grouped exchange this member currently belongs to (grouped mode).
    group_id: Optional[str] = None

    @property
    def in_flight(self) -> bool:
        return not self.committed and not self.aborted

    @property
    def sequence_parts(self) -> Tuple[Tuple[DomainId, int], ...]:
        """The participants' votes as a commit carries them."""
        return tuple(sorted(self.prepared_parts.items()))


class _Outcome:
    """What a coordinator replica keeps of a decided transaction (see the
    module docstring): the commit's ``sequence_parts`` (``None``: aborted for
    good) and its last attempt's ``coordinator_sequence``.  It reads like a
    decided :class:`_CoordinationState` to every handler."""

    __slots__ = ("coordinator_sequence", "sequence_parts")

    in_flight = False

    def __init__(
        self,
        coordinator_sequence: int,
        sequence_parts: Optional[Tuple[Tuple[DomainId, int], ...]],
    ) -> None:
        self.coordinator_sequence = coordinator_sequence
        self.sequence_parts = sequence_parts

    @property
    def committed(self) -> bool:
        return self.sequence_parts is not None

    @property
    def aborted(self) -> bool:
        return self.sequence_parts is None


class _Vote:
    """What this domain voted for one attempt: its coordinator, the attempt's
    coordinator sequence and the slot this domain ordered it at, shared by
    every member one order prepared.  Once a member commits, its vote stands
    in ``_part`` for the committed state, so it reads as committed."""

    __slots__ = ("coordinator_domain", "coordinator_sequence", "participant_sequence")

    in_flight = False
    committed = True
    aborted = False

    def __init__(
        self, coordinator_domain: DomainId, coordinator_sequence: int, participant_sequence: int
    ) -> None:
        self.coordinator_domain = coordinator_domain
        self.coordinator_sequence = coordinator_sequence
        self.participant_sequence = participant_sequence


@dataclass
class _ParticipantState:
    """Participant-side (height-1) bookkeeping for one undecided cross-domain
    transaction, from the moment this domain ordered its prepare."""

    transaction: Transaction
    vote: _Vote
    committed: bool = False
    aborted: bool = False
    timer: Any = None

    @property
    def in_flight(self) -> bool:
        return not self.committed and not self.aborted

    @property
    def coordinator_domain(self) -> DomainId:
        return self.vote.coordinator_domain

    @property
    def coordinator_sequence(self) -> int:
        return self.vote.coordinator_sequence

    @property
    def participant_sequence(self) -> int:
        return self.vote.participant_sequence


@dataclass
class _GroupState:
    """Coordinator-side bookkeeping for one grouped prepare/commit exchange."""

    group_id: str
    member_order: Tuple[TransactionId, ...]
    participants: Tuple[DomainId, ...]
    coordinator_sequence: int = 0
    commit_submitted: bool = False
    timer: Any = None
    #: When the primary multicast the group prepare (simulated clock) — the
    #: baseline the control plane's vote round-trip telemetry measures from.
    prepare_sent_at: float = 0.0


class _GroupVote(_Vote):
    """The vote of one ordered group, kept to answer a duplicate group
    prepare with the aggregated vote."""

    __slots__ = ("group_id", "tids")

    def __init__(
        self,
        coordinator_domain: DomainId,
        coordinator_sequence: int,
        participant_sequence: int,
        group_id: str,
    ) -> None:
        super().__init__(coordinator_domain, coordinator_sequence, participant_sequence)
        self.group_id = group_id
        #: The members this domain ordered in the group.
        self.tids: Tuple[TransactionId, ...] = ()


@dataclass
class _ConflictLease:
    """Participant-side hold on one group member blocked by a foreign
    coordinator's in-flight conflict (control plane, phase 2).

    While the lease is live the member waits to be *adopted* into the next
    group order submitted by this participant; if the lease expires first
    the member falls back to the per-transaction queue exactly as it would
    have without leases."""

    transaction: Transaction
    coordinator_domain: DomainId
    coordinator_sequence: int
    deadline: float
    timer: Any = None


class CoordinatorCrossDomainProtocol(ProtocolComponent):
    """Implements Algorithm 1 on both coordinator and participant nodes."""

    wire = {
        ClientRequest: "_on_client_request",
        CrossForward: "_on_forward",
        CrossPrepare: "_on_prepare",
        CrossPrepared: "_on_prepared",
        CrossCommit: "_on_commit",
        CrossAbort: "_on_abort",
        CrossAck: "_on_ack",
        CommitQuery: "_on_commit_query",
        GroupCrossPrepare: "_on_group_prepare",
        GroupCrossPrepared: "_on_group_prepared",
        GroupCrossCommit: "_on_group_commit",
        GroupCrossAck: "_on_ack",
    }
    decided = {
        CoordinatorPrepareOrder: "_decided_coordinator_prepare",
        ParticipantPrepareOrder: "_decided_participant_prepare",
        CoordinatorCommitOrder: "_decided_coordinator_commit",
        CoordinatorAbortOrder: "_decided_coordinator_abort",
        GroupPrepareOrder: "_decided_group_prepare",
        GroupParticipantPrepareOrder: "_decided_group_participant_prepare",
        GroupParticipantPrepareOrderWithLeases: "_decided_group_participant_prepare",
        GroupCommitOrder: "_decided_group_commit",
    }
    #: A dropped commit or abort order needs no local clean-up: participants'
    #: commit queries re-drive a commit through the current primary (see
    #: :meth:`_on_commit_query`), and an unordered abort leaves its attempts
    #: live.
    dropped = {
        CoordinatorPrepareOrder: "_dropped_coordinator_prepare",
        ParticipantPrepareOrder: "_dropped_participant_prepare",
        GroupPrepareOrder: "_dropped_group_prepare",
        GroupParticipantPrepareOrder: "_dropped_group_participant_prepare",
        GroupParticipantPrepareOrderWithLeases: "_dropped_group_participant_prepare",
    }

    def __init__(self, node: SaguaroNode) -> None:
        super().__init__(node)
        # Coordinator role: a transaction's state while it is undecided, then
        # its outcome.
        self._coord: Dict[TransactionId, Union[_CoordinationState, _Outcome]] = {}
        self._coord_live = _InFlightTable()
        self._coord_pending: Dict[TransactionId, Transaction] = {}
        # Participant role: a transaction's state from its ordered prepare
        # until it is decided here; then a committed one's vote stays, and an
        # aborted one is answered by ``_aborted_tids``.
        self._part: Dict[TransactionId, Union[_ParticipantState, _Vote]] = {}
        self._part_live = _ParticipantTable()
        #: Submitted, not yet decided prepare orders: tid -> (transaction,
        #: coordinator sequence of the attempt).
        self._part_pending: Dict[TransactionId, Tuple[Transaction, int]] = {}
        self._part_queue: List[CrossPrepare] = []
        self._deferred_commits: Dict[TransactionId, CrossCommit] = {}
        #: Prepares held until a dependency is ordered here, at most one held
        #: copy per transaction.
        self._waiting_on_dependency: Dict[TransactionId, List[_Prepare]] = {}
        # Decision memory (rousseau-chain's ``rejected``): the attempts whose
        # abort this participant applied, and the transactions aborted for good.
        self._aborted_attempts: Set[Tuple[TransactionId, int]] = set()
        self._aborted_tids: Set[TransactionId] = set()
        # Where to send the reply (on the origin domain, until the commit is
        # applied or the primary answers the abort).
        self._client_of: Dict[TransactionId, str] = {}
        # Grouped 2PC (xdomain batching): coordinator-side accumulation and
        # per-group exchange state.  Inert when xdomain_batch_size == 1.
        self._group_size = node.config.xdomain_batch_size
        self._group_timeout_ms = node.config.xdomain_batch_timeout_ms
        self._group_accum: Dict[
            Tuple[DomainId, ...], List[CoordinatorPrepareOrder]
        ] = {}
        self._group_accum_timers: Dict[Tuple[DomainId, ...], Any] = {}
        self._group_pending: Dict[str, GroupPrepareOrder] = {}
        self._groups: Dict[str, _GroupState] = {}
        #: Group ids are namespaced by the minting node's address, so a new
        #: primary can never re-mint an id a deposed primary's in-flight
        #: group already carries (participants dedup by (coordinator, gid)).
        self._next_group_number = 1
        # Participant-side group state, keyed by (coordinator domain, gid).
        self._pgroup_pending: Dict[Tuple[DomainId, str], GroupCrossPrepare] = {}
        self._pgroups: Dict[Tuple[DomainId, str], _GroupVote] = {}
        # Conflict leases (control plane, phase 2; primary-side only): group
        # members held by a foreign conflict, waiting to join the next group.
        self._leased: Dict[TransactionId, _ConflictLease] = {}
        #: The control plane's telemetry bus when the node carries one
        #: (adaptive deployments only) — the coordinator produces the
        #: ``group.*`` / ``xdomain.*`` metrics.
        self._bus = getattr(node, "control_bus", None)
        if node.control is not None:
            node.control.group_target = self  # the plane resizes our groups

    # ------------------------------------------------------------------ dispatch

    def handle_message(self, payload: Any, sender: str) -> bool:
        return getattr(self, self.wire[type(payload)])(payload)

    def on_decide(self, slot: int, payload: Any) -> None:
        getattr(self, self.decided[type(payload)])(slot, payload)

    def on_submission_dropped(self, payload: Any) -> None:
        """Clear the pending-dedup entries of a never-proposed order.

        Without this, a deposed-then-re-elected primary would treat every
        retransmitted forward/prepare of the dropped transaction as a
        duplicate and never propose it.
        """
        getattr(self, self.dropped[type(payload)])(payload)

    def _dropped_coordinator_prepare(self, order: CoordinatorPrepareOrder) -> None:
        self._coord_pending.pop(order.transaction.tid, None)

    def _dropped_participant_prepare(self, order: ParticipantPrepareOrder) -> None:
        self._part_pending.pop(order.transaction.tid, None)

    def _dropped_group_prepare(self, order: GroupPrepareOrder) -> None:
        # A deposed coordinator dropped a never-proposed group: forget the
        # members so client retransmissions re-group through the current
        # primary (and through this node, if it is re-elected later).
        self._group_pending.pop(order.group_id, None)
        for member in order.members:
            self._coord_pending.pop(member.transaction.tid, None)

    def _dropped_group_participant_prepare(
        self, order: GroupParticipantPrepareOrder
    ) -> None:
        self._pgroup_pending.pop((order.coordinator_domain, order.group_id), None)
        for transaction in order.transactions:
            self._part_pending.pop(transaction.tid, None)
        for member in getattr(order, "adopted", ()):
            # Adopted leases of a dropped order: their home coordinators
            # retry the prepare, which re-enters the normal member flow.
            self._part_pending.pop(member.transaction.tid, None)

    # ------------------------------------------------------------------ client request (participant primary)

    def _on_client_request(self, request: ClientRequest) -> bool:
        transaction = request.transaction
        if transaction.kind is not TransactionKind.CROSS_DOMAIN:
            return False
        if not self.node.is_height1 or not transaction.involves(self.node.domain.id):
            return False
        if self.node.ledger is not None and transaction.tid in self.node.ledger:
            # Retransmission of an already committed request.
            if self.node.is_primary:
                self.node.reply_to_client(request.client_address, transaction, True)
            return True
        self._client_of.setdefault(transaction.tid, request.client_address)
        if not self.node.is_primary:
            self.node.send(self.node.engine.primary_address, request)
            return True
        lca = self.node.hierarchy.lowest_common_ancestor(
            list(transaction.involved_domains)
        )
        forward = CrossForward(
            transaction=transaction,
            origin_domain=self.node.domain.id,
            client_address=request.client_address,
        )
        self.node.multicast_domain(lca.id, forward)
        return True

    # ------------------------------------------------------------------ coordinator role

    def _on_forward(self, forward: CrossForward) -> bool:
        if self.node.domain.height < 2:
            return False
        if not self.node.is_primary:
            return True  # replicas learn through internal consensus
        tid = forward.transaction.tid
        if tid in self._coord or tid in self._coord_pending:
            state = self._coord.get(tid)
            if state is not None and state.aborted:
                # The client is retransmitting a transaction this coordinator
                # already gave up on — the final abort may have been lost, so
                # repeat it instead of silently swallowing the forward.
                abort = CrossAbort(
                    coordinator_domain=self.node.domain.id,
                    members=((tid, state.coordinator_sequence),),
                    reason="already aborted",
                )
                self.node.multicast_domains(
                    list(forward.transaction.involved_domains), abort
                )
            return True  # duplicate forward
        self.node.record_trace(
            "handoff:forward", tid=tid, origin=forward.origin_domain.name
        )
        if self._bus is not None:
            self._bus.observe("xdomain.forwards")
        self._admit(
            CoordinatorPrepareOrder(
                transaction=forward.transaction,
                origin_domain=forward.origin_domain,
                client_address=forward.client_address,
                attempt=1,
            )
        )
        return True

    def _admit(self, order: CoordinatorPrepareOrder) -> None:
        """Start one attempt: into the next group, or ordered on its own.

        Conflicting requests coordinated by this domain are pipelined: the
        prepare message carries explicit ordering dependencies (``after``)
        instead of holding the new request back until the earlier commits.
        """
        if self._group_size > 1:
            self._enqueue_group_member(order)
            return
        self._coord_pending[order.transaction.tid] = order.transaction
        self.node.engine.submit(order)

    def _decided_coordinator_prepare(
        self, slot: int, order: CoordinatorPrepareOrder
    ) -> None:
        state = self._coordination_state(order)
        if not state.in_flight:
            return
        self._open_attempt(state, slot, order.attempt)
        if not self.node.is_primary:
            return
        self._send_prepares(state)
        self._arm_deadlock_timer(state)

    def _coordination_state(
        self, order: CoordinatorPrepareOrder
    ) -> Union[_CoordinationState, _Outcome]:
        """The state of a decided prepare, created on first sight (the
        outcome, once the transaction is decided)."""
        tid = order.transaction.tid
        self._coord_pending.pop(tid, None)
        state = self._coord.get(tid)
        if state is None:
            state = _CoordinationState(
                transaction=order.transaction,
                origin_domain=order.origin_domain,
                client_address=order.client_address,
            )
            self._coord[tid] = state
        return state

    def _open_attempt(
        self, state: _CoordinationState, slot: int, attempt: int, group_id: Optional[str] = None
    ) -> None:
        """A decided prepare opens an attempt at ``slot``: the state (re-)enters
        the in-flight table with no votes."""
        previous_group, state.group_id = state.group_id, group_id
        state.coordinator_sequence = slot
        state.attempt = attempt
        state.all_prepared = False
        state.prepared_parts.clear()
        self._coord_live.add(state)
        self._settle_group(previous_group)

    def _end_coordination(
        self, state: _CoordinationState, commit: Optional[CoordinatorCommitOrder] = None
    ) -> None:
        """The one place a coordinator state turns terminal — committed by
        ``commit``, else aborted for good: it leaves the in-flight table, its
        timer goes with it, and its :class:`_Outcome` takes its place."""
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        parts = None
        if commit is not None:
            state.committed = True
            parts = state.sequence_parts
            if parts == commit.sequence_parts:
                parts = commit.sequence_parts  # the decided order's copy
        else:
            state.aborted = True
        self._coord_live.discard(state)
        tid = state.transaction.tid
        self._retire(self._coord, tid, _Outcome(state.coordinator_sequence, parts))
        self._settle_group(state.group_id)

    @staticmethod
    def _retire(table: Dict[Any, Any], key: Any, record: Any) -> None:
        """Settled state leaves ``table``: for ``record``, the compact outcome
        that answers late messages from now on, or for good (``None``)."""
        if record is None:
            del table[key]
        else:
            table[key] = record

    def _send_prepares(self, state: _CoordinationState) -> None:
        transaction = state.transaction
        certificate = self.node.certify(transaction.request_digest)
        self.node.record_trace(
            "handoff:prepare",
            tid=transaction.tid,
            digest=transaction.request_digest,
            attempt=state.attempt,
            participants=[d.name for d in transaction.involved_domains],
        )
        for domain_id in transaction.involved_domains:
            prepare = CrossPrepare(
                transaction=transaction,
                coordinator_domain=self.node.domain.id,
                coordinator_sequence=state.coordinator_sequence,
                request_digest=transaction.request_digest,
                certificate=certificate,
                attempt=state.attempt,
                after=self._ordering_dependencies(
                    transaction, state.coordinator_sequence, domain_id
                ),
            )
            self.node.multicast_domain(domain_id, prepare)

    def _ordering_dependencies(
        self, transaction: Transaction, sequence: int, participant: DomainId
    ) -> Tuple[TransactionId, ...]:
        """Earlier conflicting transactions ``participant`` must order before
        ``transaction``, prepared at coordinator ``sequence``.

        A dependency is only meaningful to participants that are involved in
        both transactions, so the list is computed per participant domain.
        """
        return tuple(
            other.transaction.tid
            for other in self._coord_live.overlapping(transaction)
            if other.coordinator_sequence < sequence
            and participant in other.transaction.involved_domains
        )

    def _cross_domain_delay(self) -> float:
        """Different coordinators use staggered timers to avoid repeated clashes."""
        timers = self.node.config.timers
        stagger = timers.deadlock_backoff_ms * (self.node.domain.id.index - 1)
        return timers.cross_domain_timeout_ms + stagger

    def _arm_deadlock_timer(self, exchange: Union[_CoordinationState, _GroupState]) -> None:
        """Arm the deadlock timer of one prepare exchange: a group, or one
        member's own state for a per-transaction exchange."""
        if exchange.timer is not None:
            exchange.timer.cancel()
        exchange.timer = self.node.set_timer(
            self._cross_domain_delay(), lambda: self._on_deadlock_timeout(exchange)
        )

    def _on_deadlock_timeout(self, exchange: Union[_CoordinationState, _GroupState]) -> None:
        """Deadlock resolution (§4.1), one handler for both 2PC families.

        The exchange closes: its fully prepared members commit (a grouped
        exchange commits them now; a per-transaction one already submitted
        its commit), and the stalled rest are aborted through one ordered
        abort per outcome — a retry with a new prepare, so overlapping
        domains can re-order consistently, or a final abort after
        ``MAX_ATTEMPTS``."""
        exchange.timer = None  # it fired: closing the exchange cancels nothing
        if not self.node.is_primary:
            if isinstance(exchange, _GroupState):
                self._settle_group(exchange.group_id)
            return
        if isinstance(exchange, _GroupState):
            if exchange.commit_submitted:
                return
            members = self._live_group_members(exchange)
            prepared = [member for member in members if member.all_prepared]
            if prepared:
                self._submit_group_commit(exchange, prepared)
            self._close_group(exchange)  # with or without commits
        else:
            members = [exchange] if exchange.in_flight else []
        stalled = [m for m in members if not m.all_prepared and not m.abort_submitted]
        for will_retry in (True, False):
            ending = [m for m in stalled if (m.attempt < MAX_ATTEMPTS) == will_retry]
            if not ending:
                continue
            if will_retry and self._bus is not None:
                for _ in ending:
                    self._bus.observe("xdomain.retries")
            for member in ending:
                member.abort_submitted = True
            order = CoordinatorAbortOrder(
                members=tuple((m.transaction.tid, m.coordinator_sequence) for m in ending),
                will_retry=will_retry,
            )
            self.node.engine.submit(order)

    def _decided_coordinator_abort(
        self, slot: int, order: CoordinatorAbortOrder
    ) -> None:
        """Every replica ends the named attempts that are still live — an
        attempt whose commit was decided first stays committed — and then
        the primary tells their participants in one ``CrossAbort``."""
        ended: List[_CoordinationState] = []
        members: List[Tuple[TransactionId, int]] = []
        group_id = None
        for tid, sequence in order.members:
            state = self._coord.get(tid)
            if state is None or not state.in_flight or state.coordinator_sequence != sequence:
                continue
            ended.append(state)
            members.append((tid, sequence))
            group_id = group_id or state.group_id
            if not order.will_retry:
                self._end_coordination(state)
                continue
            # The attempt ends; the next one opens at its own decided prepare.
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            self._coord_live.discard(state)
            left = state.group_id
            state.coordinator_sequence, state.group_id = 0, None
            state.attempt += 1
            state.abort_submitted = False
            self._settle_group(left)
        if not ended or not self.node.is_primary:
            return
        reason = "deadlock-retry" if order.will_retry else "max attempts"
        self.node.record_trace(
            "handoff:abort",
            gid=group_id,
            tids=[tid.name for tid, _ in members],
            reason=reason,
            will_retry=order.will_retry,
        )
        abort = CrossAbort(
            coordinator_domain=self.node.domain.id,
            members=tuple(members),
            reason=reason,
            will_retry=order.will_retry,
        )
        participants = dict.fromkeys(
            domain for state in ended for domain in state.transaction.involved_domains
        )
        self.node.multicast_domains(list(participants), abort)
        if order.will_retry:
            self.node.set_timer(
                self.node.config.timers.deadlock_backoff_ms,
                lambda: self._readmit(ended),
            )

    def _readmit(self, states: List[_CoordinationState]) -> None:
        """Retry each aborted attempt that is still waiting for its next one."""
        if not self.node.is_primary:
            return
        for state in states:
            tid = state.transaction.tid
            if not state.in_flight or state.coordinator_sequence or tid in self._coord_pending:
                continue
            self._admit(
                CoordinatorPrepareOrder(
                    transaction=state.transaction,
                    origin_domain=state.origin_domain,
                    client_address=state.client_address,
                    attempt=state.attempt,
                )
            )

    def _on_prepared(self, message: CrossPrepared) -> bool:
        if self.node.domain.height < 2:
            return False
        if not self.node.is_primary:
            return True
        state = self._coord.get(message.tid)
        if state is None or not state.in_flight or state.abort_submitted:
            return True
        if message.coordinator_sequence != state.coordinator_sequence:
            return True  # belongs to a previous attempt
        if state.group_id is not None:
            # A held-back group member prepared individually: fold the vote
            # into its grouped exchange so the commit still aggregates.
            group = self._groups.get(state.group_id)
            if group is not None and not group.commit_submitted:
                accepted = self._record_group_votes(
                    group,
                    message.participant_domain,
                    (message.tid,),
                    message.participant_sequence,
                )
                if accepted:
                    self._maybe_commit_group(group)
            return True
        state.prepared_parts[message.participant_domain] = message.participant_sequence
        involved = set(state.transaction.involved_domains)
        if set(state.prepared_parts) == involved:
            state.all_prepared = True
            order = CoordinatorCommitOrder(
                tid=message.tid,
                sequence_parts=tuple(sorted(state.prepared_parts.items())),
                request_digest=state.transaction.request_digest,
            )
            self.node.engine.submit(order)
        return True

    def _decided_coordinator_commit(
        self, slot: int, order: CoordinatorCommitOrder
    ) -> None:
        state = self._coord.get(order.tid)
        if state is None or not state.in_flight or not state.coordinator_sequence:
            return  # unknown, decided already, or its attempt was aborted first
        self._end_coordination(state, order)
        if self.node.is_primary:
            certificate = self.node.certify(order.request_digest)
            self.node.record_trace(
                "handoff:commit",
                tid=order.tid,
                digest=order.request_digest,
                participants=[d.name for d, _ in order.sequence_parts],
            )
            commit = CrossCommit(
                tid=order.tid,
                coordinator_domain=self.node.domain.id,
                sequence_parts=order.sequence_parts,
                request_digest=order.request_digest,
                certificate=certificate,
            )
            self.node.multicast_domains(
                list(state.transaction.involved_domains), commit
            )

    def _on_ack(self, message: Union[CrossAck, GroupCrossAck]) -> bool:
        """An ack of an applied commit: nothing to keep, the outcome is
        decided and recorded already."""
        return self.node.domain.height >= 2

    def _on_commit_query(self, query: CommitQuery) -> bool:
        if self.node.domain.height < 2:
            return False
        state = self._coord.get(query.tid)
        if state is None or not self.node.is_primary:
            return True
        if state.committed:
            certificate = self.node.certify(query.request_digest)
            commit = CrossCommit(
                tid=query.tid,
                coordinator_domain=self.node.domain.id,
                sequence_parts=state.sequence_parts,
                request_digest=query.request_digest,
                certificate=certificate,
            )
            self.node.multicast_domain(query.participant_domain, commit)
        elif state.in_flight and state.all_prepared:
            # Every participant prepared but the commit was never ordered —
            # the previous primary's CoordinatorCommitOrder was lost (e.g.
            # dropped from its batch buffer when it was deposed).  The
            # participants' periodic commit queries drive the retry: re-order
            # the commit in the current view.  Duplicate decides are
            # idempotent (`_decided_coordinator_commit` checks `committed`).
            order = CoordinatorCommitOrder(
                tid=query.tid,
                sequence_parts=state.sequence_parts,
                request_digest=state.transaction.request_digest,
            )
            self.node.engine.submit(order)
        return True

    # ------------------------------------------------------------------ coordinator role: grouped 2PC

    @property
    def group_size(self) -> int:
        """Current grouped-2PC target size (the control plane's readback)."""
        return self._group_size

    def set_group_size(self, size: int) -> None:
        """Retarget the grouped-2PC size online (the control plane's actuator).

        Buckets that already meet the new, smaller target flush immediately;
        otherwise accumulation just continues toward the new target.  The
        group timeout is untouched, so sparse cross-domain traffic still
        bounds grouping latency.
        """
        if size < 1:
            raise ConfigurationError("xdomain group size must be >= 1")
        self._group_size = size
        for key in [k for k, bucket in self._group_accum.items() if len(bucket) >= size]:
            self._flush_group(key)

    def _enqueue_group_member(self, member: CoordinatorPrepareOrder) -> None:
        """Accumulate one cross-domain transaction into its participant-set
        group; flush when the group fills (or its timeout fires)."""
        tid = member.transaction.tid
        self._coord_pending[tid] = member.transaction
        key = tuple(sorted(member.transaction.involved_domains))
        bucket = self._group_accum.setdefault(key, [])
        bucket.append(member)
        if len(bucket) >= self._group_size:
            self._flush_group(key)
            return
        timer = self._group_accum_timers.get(key)
        if timer is None or not timer.active:
            self._group_accum_timers[key] = self.node.set_timer(
                self._group_timeout_ms, lambda: self._flush_group(key)
            )

    def _flush_group(self, key: Tuple[DomainId, ...]) -> None:
        timer = self._group_accum_timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        members = self._group_accum.pop(key, [])
        if not members:
            return
        if not self.node.is_primary:
            # Deposed while accumulating: the members were never proposed, so
            # clear their dedup entries and let retransmissions re-group
            # through the current primary.
            for member in members:
                self._coord_pending.pop(member.transaction.tid, None)
            return
        group_id = f"{self.node.address}#{self._next_group_number}"
        self._next_group_number += 1
        if self._bus is not None:
            self._bus.observe("group.fill", float(len(members)))
        order = GroupPrepareOrder(group_id=group_id, members=tuple(members))
        self._group_pending[group_id] = order
        self.node.engine.submit_group(order)

    def _decided_group_prepare(self, slot: int, order: GroupPrepareOrder) -> None:
        group_id = order.group_id
        self._group_pending.pop(group_id, None)
        member_order: List[TransactionId] = []
        for member in order.members:
            state = self._coordination_state(member)
            member_order.append(member.transaction.tid)
            if state.in_flight:  # else already terminal (duplicate re-group)
                self._open_attempt(state, slot, member.attempt, group_id)
        participants = tuple(sorted(order.members[0].transaction.involved_domains))
        group = _GroupState(
            group_id=group_id,
            member_order=tuple(member_order),
            participants=participants,
            coordinator_sequence=slot,
        )
        self._groups[group_id] = group
        if not self.node.is_primary:
            return
        self.node.record_trace(
            "handoff:group-prepare",
            gid=group_id,
            slot=slot,
            tids=[tid.name for tid in group.member_order],
            participants=[d.name for d in participants],
        )
        group.prepare_sent_at = self.node.now()
        self._send_group_prepare(group, order)
        self._arm_deadlock_timer(group)

    def _send_group_prepare(self, group: _GroupState, order: GroupPrepareOrder) -> None:
        transactions = tuple(member.transaction for member in order.members)
        # A decided member (a duplicate re-group) orders its groupmates'
        # dependencies at its last attempt's sequence, as its outcome keeps it.
        sequences = [self._coord[t.tid].coordinator_sequence for t in transactions]
        group_digest = digest(b"xdomain-group", *[t.request_digest for t in transactions])
        certificate = self.node.certify(group_digest)
        for domain_id in group.participants:
            # Union of the members' ordering dependencies.  Groupmates can
            # never appear here: every live member shares the group's decided
            # slot, and `_ordering_dependencies` only reports strictly earlier
            # coordinator sequences.
            after = dict.fromkeys(
                dependency
                for transaction, sequence in zip(transactions, sequences)
                for dependency in self._ordering_dependencies(
                    transaction, sequence, domain_id
                )
            )
            prepare = GroupCrossPrepare(
                transactions=transactions,
                coordinator_domain=self.node.domain.id,
                coordinator_sequence=group.coordinator_sequence,
                group_id=group.group_id,
                group_digest=group_digest,
                certificate=certificate,
                after=tuple(after),
            )
            self.node.multicast_domain(domain_id, prepare)

    def _live_group_members(self, group: _GroupState) -> List[_CoordinationState]:
        """Members of ``group`` still driven by this grouped exchange (not
        decided, nor retried into a later one)."""
        states = (self._coord.get(tid) for tid in group.member_order)
        return [s for s in states if s and s.in_flight and s.group_id == group.group_id]

    def _on_group_prepared(self, message: GroupCrossPrepared) -> bool:
        if self.node.domain.height < 2:
            return False
        if not self.node.is_primary:
            return True
        group = self._groups.get(message.group_id)
        if group is None or group.commit_submitted:
            return True
        if message.coordinator_sequence != group.coordinator_sequence:
            return True  # belongs to a previous attempt
        accepted = self._record_group_votes(
            group, message.participant_domain, message.tids, message.participant_sequence
        )
        if accepted:
            self._maybe_commit_group(group)
        return True

    def _record_group_votes(
        self,
        group: _GroupState,
        participant: DomainId,
        tids: Tuple[TransactionId, ...],
        participant_sequence: int,
    ) -> List[TransactionId]:
        """Fold one participant's per-member votes into the group's members."""
        accepted: List[TransactionId] = []
        for tid in tids:
            state = self._coord.get(tid)
            if state is None or not state.in_flight or state.group_id != group.group_id:
                continue
            state.prepared_parts[participant] = participant_sequence
            if set(state.prepared_parts) == set(state.transaction.involved_domains):
                state.all_prepared = True
            accepted.append(tid)
        if accepted:
            if self._bus is not None and group.prepare_sent_at > 0:
                self._bus.observe(
                    "group.vote_rtt_ms", self.node.now() - group.prepare_sent_at
                )
            self.node.record_trace(
                "handoff:group-vote",
                gid=group.group_id,
                participant=participant.name,
                tids=[tid.name for tid in accepted],
                slot=participant_sequence,
            )
        return accepted

    def _maybe_commit_group(self, group: _GroupState) -> None:
        """Submit one aggregated commit once every live member fully prepared."""
        if group.commit_submitted or not self.node.is_primary:
            return
        members = self._live_group_members(group)
        if members and all(member.all_prepared for member in members):
            self._submit_group_commit(group, members)

    def _close_group(self, group: _GroupState) -> None:
        """A grouped exchange ends: nothing more is submitted for it, and its
        deadlock timer goes."""
        group.commit_submitted = True
        if group.timer is not None:
            group.timer.cancel()
            group.timer = None
        self._settle_group(group.group_id)

    def _settle_group(self, group_id: Optional[str]) -> None:
        """Retire a grouped exchange once its last member has gone (decided,
        or retried into a later exchange) and no timer of its is armed: a
        late vote or commit order then finds nothing left to do."""
        group = self._groups.get(group_id)
        if group is not None and group.timer is None and not self._live_group_members(group):
            self._retire(self._groups, group_id, None)

    def _submit_group_commit(
        self, group: _GroupState, members: List[_CoordinationState]
    ) -> None:
        self._close_group(group)
        commits = tuple(
            CoordinatorCommitOrder(
                tid=member.transaction.tid,
                sequence_parts=tuple(sorted(member.prepared_parts.items())),
                request_digest=member.transaction.request_digest,
            )
            for member in members
        )
        self.node.engine.submit_group(
            GroupCommitOrder(group_id=group.group_id, commits=commits)
        )

    def _decided_group_commit(self, slot: int, order: GroupCommitOrder) -> None:
        group = self._groups.get(order.group_id)
        if group is None:
            return  # never prepared here, so no member belongs to it
        self._close_group(group)
        committed: List[CoordinatorCommitOrder] = []
        for member in order.commits:
            state = self._coord.get(member.tid)
            if state is None or not state.in_flight or state.group_id != order.group_id:
                continue  # decided already, or its attempt was aborted first
            self._end_coordination(state, member)
            committed.append(member)
        if not self.node.is_primary or not committed:
            return
        self.node.record_trace(
            "handoff:group-commit",
            gid=order.group_id,
            tids=[member.tid.name for member in committed],
        )
        commit_digest = digest(
            b"xdomain-group-commit", *[m.request_digest for m in committed]
        )
        certificate = self.node.certify(commit_digest)
        commits = tuple(
            CrossCommit(
                tid=member.tid,
                coordinator_domain=self.node.domain.id,
                sequence_parts=member.sequence_parts,
                request_digest=member.request_digest,
            )
            for member in committed
        )
        message = GroupCrossCommit(
            group_id=order.group_id,
            coordinator_domain=self.node.domain.id,
            commits=commits,
            certificate=certificate,
        )
        self.node.multicast_domains(list(group.participants), message)

    # ------------------------------------------------------------------ participant role

    def _on_prepare(self, prepare: CrossPrepare) -> bool:
        if not self.node.is_height1:
            return False
        transaction = prepare.transaction
        if not transaction.involves(self.node.domain.id):
            return True
        if not self.node.is_primary:
            return True
        tid = transaction.tid
        if self._aborted(tid, prepare.coordinator_sequence):
            return True  # a late prepare of an aborted attempt
        existing = self._part.get(tid)
        if existing is not None:
            # Duplicate prepare: re-send prepared.
            self._send_prepared(transaction, existing)
            return True
        pending = self._part_pending.get(tid)
        if pending is not None and pending[1] >= prepare.coordinator_sequence:
            return True
        # The coordinator took this member over on the per-transaction path
        # (e.g. a retry after its group disbanded): the lease is obsolete.
        self._drop_lease(tid)
        missing = self._missing_dependency(prepare)
        if missing is not None:
            # The coordinator ordered an earlier conflicting transaction that
            # this domain has not ordered yet: wait for it (pipelined hold).
            self._hold(missing, prepare)
            return True
        if self._conflicts_with_inflight_participation(
            transaction, prepare.coordinator_domain
        ):
            self._part_queue.append(prepare)
            return True
        self._propose_participant_prepare(prepare)
        return True

    def _aborted(self, tid: TransactionId, coordinator_sequence: int) -> bool:
        """Whether this participant applied the abort of that attempt."""
        return tid in self._aborted_tids or (tid, coordinator_sequence) in self._aborted_attempts

    def _missing_dependency(self, prepare: _Prepare) -> Optional[TransactionId]:
        """First dependency of ``prepare`` not yet ordered (nor finally
        aborted) by this domain."""
        for dependency in prepare.after:
            if dependency in self._part or dependency in self._aborted_tids:
                continue
            if self.node.ledger is not None and dependency in self.node.ledger:
                continue
            return dependency
        return None

    def _hold(self, dependency: TransactionId, prepare: _Prepare) -> None:
        """Hold ``prepare`` until ``dependency`` is ordered here.

        One held copy per transaction: the newest coordinator sequence wins,
        so a retransmitted or retried prepare replaces the older copy; an
        aborted attempt is not held at all."""
        held_at = {
            tid: held.coordinator_sequence
            for copies in self._waiting_on_dependency.values()
            for held in copies
            for tid in _prepared_tids(held)
        }
        newest = _without(
            prepare, lambda tid, seq: self._aborted(tid, seq) or held_at.get(tid, 0) > seq
        )
        if newest is None:
            return
        tids = set(_prepared_tids(newest))
        self._purge_held(lambda tid, _: tid in tids)
        self._waiting_on_dependency.setdefault(dependency, []).append(newest)

    def _purge_held(self, drop: Callable[[TransactionId, int], bool]) -> None:
        """Drop the held prepare members ``drop(tid, coordinator_sequence)``
        names; a held group keeps its other members."""
        for dependency, copies in list(self._waiting_on_dependency.items()):
            kept = [p for p in (_without(held, drop) for held in copies) if p is not None]
            if kept:
                self._waiting_on_dependency[dependency] = kept
            else:
                del self._waiting_on_dependency[dependency]

    def _release_dependents(self, tid: TransactionId) -> None:
        """Re-admit prepares that were waiting for ``tid`` to be ordered."""
        waiting = self._waiting_on_dependency.pop(tid, [])
        for prepare in waiting:
            if isinstance(prepare, GroupCrossPrepare):
                self._on_group_prepare(prepare)
            else:
                self._on_prepare(prepare)

    def _conflicts_with_inflight_participation(
        self, transaction: Transaction, coordinator_domain: Optional[DomainId] = None
    ) -> bool:
        """Participant-side coarse-grained hold (Algorithm 1, line 13).

        A hold is only needed when the earlier in-flight transaction is driven
        by a *different* coordinator domain: with the same coordinator, the
        coordinator itself already serialises conflicting requests, and the
        commit-application guard keeps the apply order consistent.
        """
        if self._part_live.driven_elsewhere(transaction, coordinator_domain):
            return True
        for pending, _ in self._part_pending.values():
            if _overlaps_in_two(pending, transaction):
                return True
        return False

    def _propose_participant_prepare(self, prepare: CrossPrepare) -> None:
        self._part_pending[prepare.transaction.tid] = (
            prepare.transaction,
            prepare.coordinator_sequence,
        )
        order = ParticipantPrepareOrder(
            transaction=prepare.transaction,
            coordinator_domain=prepare.coordinator_domain,
            coordinator_sequence=prepare.coordinator_sequence,
            attempt=prepare.attempt,
        )
        self.node.engine.submit(order)

    def _decided_participant_prepare(
        self, slot: int, order: ParticipantPrepareOrder
    ) -> None:
        vote = _Vote(order.coordinator_domain, order.coordinator_sequence, slot)
        state = self._record_prepared(order.transaction, vote)
        if state is None:
            return
        if self.node.is_primary:
            self._send_prepared(state.transaction, state)
        self._arm_commit_query_timer(state)
        if self.node.is_primary:
            self._release_dependents(order.transaction.tid)

    def _record_prepared(
        self, transaction: Transaction, vote: _Vote
    ) -> Optional[_ParticipantState]:
        """This domain ordered ``transaction``'s prepare as ``vote`` says: the
        state becomes prepared and enters the in-flight table (``None`` when
        the transaction is already decided here, or the attempt was aborted)."""
        tid = transaction.tid
        pending = self._part_pending.get(tid)
        if pending is not None and pending[1] == vote.coordinator_sequence:
            del self._part_pending[tid]
        if self._aborted(tid, vote.coordinator_sequence):
            return None  # decided late: the abort came first, so no vote
        state = self._part.get(tid)
        if state is None:
            state = _ParticipantState(transaction=transaction, vote=vote)
            self._part[tid] = state
        if state.committed or state.aborted:
            return None
        if state.vote is not vote:
            self._part_live.discard(state)  # re-voted: re-keyed in the table
            state.vote = vote
        self._part_live.add(state)
        return state

    def _end_participation(
        self, state: _ParticipantState, committed: bool = False, forget: bool = False
    ) -> None:
        """The one place a participant state leaves the in-flight table: it
        commits (its vote stays in its place), aborts for good (it goes:
        ``_aborted_tids`` answers for it), or — ``forget``, an abort the
        coordinator will retry — is dropped so the next attempt starts
        afresh.  Its commit-query timer goes with it."""
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        self._part_live.discard(state)
        tid = state.transaction.tid
        if forget:
            del self._part[tid]
        elif committed:
            state.committed = True
            self._retire(self._part, tid, state.vote)
        else:
            state.aborted = True
            self._retire(self._part, tid, None)

    def _send_prepared(
        self, transaction: Transaction, vote: Union[_ParticipantState, _Vote]
    ) -> None:
        """Vote for ``transaction`` as ``vote`` (a prepared state, or a
        committed member's vote) records it."""
        certificate = self.node.certify(transaction.request_digest)
        self.node.record_trace(
            "handoff:prepared",
            tid=transaction.tid,
            slot=vote.participant_sequence,
            coordinator=vote.coordinator_domain.name,
        )
        prepared = CrossPrepared(
            tid=transaction.tid,
            participant_domain=self.node.domain.id,
            coordinator_sequence=vote.coordinator_sequence,
            participant_sequence=vote.participant_sequence,
            request_digest=transaction.request_digest,
            certificate=certificate,
        )
        self.node.multicast_domain(vote.coordinator_domain, prepared)

    def _arm_commit_query_timer(self, state: _ParticipantState) -> None:
        timers = self.node.config.timers
        tid = state.transaction.tid

        def _expired() -> None:
            current = self._part.get(tid)
            if current is None or not current.in_flight:
                return
            query = CommitQuery(
                tid=tid,
                participant_domain=self.node.domain.id,
                coordinator_sequence=current.coordinator_sequence,
                participant_sequence=current.participant_sequence,
                request_digest=current.transaction.request_digest,
                sender=self.node.address,
            )
            self.node.multicast_domain(current.coordinator_domain, query)
            self._arm_commit_query_timer(current)

        if state.timer is not None:
            state.timer.cancel()
        state.timer = self.node.set_timer(timers.commit_query_timeout_ms, _expired)

    # ------------------------------------------------------------------ participant role: grouped 2PC

    def _on_group_prepare(self, prepare: GroupCrossPrepare) -> bool:
        if not self.node.is_height1:
            return False
        if not any(t.involves(self.node.domain.id) for t in prepare.transactions):
            return True
        if not self.node.is_primary:
            return True
        key = (prepare.coordinator_domain, prepare.group_id)
        ordered = self._pgroups.get(key)
        if ordered is not None:
            # Duplicate group prepare: re-send the aggregated vote.
            self._send_group_prepared(ordered)
            return True
        if key in self._pgroup_pending:
            return True
        missing = self._missing_dependency(prepare)
        if missing is not None:
            # The coordinator ordered an earlier conflicting transaction this
            # domain has not ordered yet: hold the whole group (pipelined).
            self._hold(missing, prepare)
            return True
        accepted: List[Transaction] = []
        for transaction in prepare.transactions:
            tid = transaction.tid
            if self._aborted(tid, prepare.coordinator_sequence):
                continue  # a late prepare of an aborted attempt
            existing = self._part.get(tid)
            if existing is not None:
                # Already ordered by an earlier attempt: vote individually.
                self._send_prepared(transaction, existing)
                continue
            if tid in self._part_pending:
                continue
            if tid in self._leased:
                if self._conflicts_with_inflight_participation(
                    transaction, prepare.coordinator_domain
                ):
                    self._grant_lease(transaction, prepare)  # refresh in place
                    continue
                # Its home coordinator re-offered the member and the conflict
                # has cleared: admit it as an ordinary groupmate.
                self._drop_lease(tid)
                accepted.append(transaction)
                continue
            if self._conflicts_with_inflight_participation(
                transaction, prepare.coordinator_domain
            ):
                if self._leases_enabled():
                    # Phase 2: hold the member under a short lease so it can
                    # join the *next* group order once the foreign conflict
                    # clears, instead of falling back to per-transaction 2PC.
                    self._grant_lease(transaction, prepare)
                    continue
                # Held members fall back to the per-transaction path: they are
                # queued and ordered (then voted on) individually once the
                # conflicting foreign-coordinator transaction resolves, so one
                # conflicted member never stalls its groupmates.
                self._part_queue.append(
                    CrossPrepare(
                        transaction=transaction,
                        coordinator_domain=prepare.coordinator_domain,
                        coordinator_sequence=prepare.coordinator_sequence,
                        request_digest=transaction.request_digest,
                    )
                )
                continue
            accepted.append(transaction)
        if accepted:
            for transaction in accepted:
                self._part_pending[transaction.tid] = (
                    transaction,
                    prepare.coordinator_sequence,
                )
            adopted = self._adopt_leases()
            self._pgroup_pending[key] = prepare
            order = GroupParticipantPrepareOrder(
                group_id=prepare.group_id,
                coordinator_domain=prepare.coordinator_domain,
                coordinator_sequence=prepare.coordinator_sequence,
                transactions=tuple(accepted),
            )
            if adopted:
                order = GroupParticipantPrepareOrderWithLeases(**vars(order), adopted=adopted)
            self.node.engine.submit_group(order)
        return True

    # -- conflict leases (control plane, phase 2) ---------------------------------

    def _leases_enabled(self) -> bool:
        return self.node.config.control.conflict_leases

    def _grant_lease(
        self, transaction: Transaction, prepare: GroupCrossPrepare
    ) -> None:
        tid = transaction.tid
        lease = self._leased.get(tid)
        if lease is not None:
            # A retried group re-carries the member: refresh the attempt's
            # coordinates but keep the original deadline — a retransmit must
            # not extend the hold indefinitely.
            lease.transaction = transaction
            lease.coordinator_domain = prepare.coordinator_domain
            lease.coordinator_sequence = prepare.coordinator_sequence
            return
        lease_ms = self.node.config.control.lease_ms
        lease = _ConflictLease(
            transaction=transaction,
            coordinator_domain=prepare.coordinator_domain,
            coordinator_sequence=prepare.coordinator_sequence,
            deadline=self.node.now() + lease_ms,
        )
        self._leased[tid] = lease
        self.node.record_trace(
            "control:lease",
            action="grant",
            tid=tid,
            coordinator=prepare.coordinator_domain.name,
            lease_ms=lease_ms,
        )
        lease.timer = self.node.set_timer(
            lease_ms, lambda: self._expire_lease(tid)
        )

    def _adopt_leases(self) -> Tuple[AdoptedMember, ...]:
        """Leased members whose conflict cleared join the order being built.

        Called with the accepted members already in ``_part_pending``, so the
        conflict re-check also rejects any lease overlapping a groupmate (or
        an earlier adoptee) — two overlapping members sharing one participant
        slot would never defer each other's commits, which is exactly the
        inconsistency the original hold exists to prevent.
        """
        if not self._leased:
            return ()
        adopted: List[AdoptedMember] = []
        now = self.node.now()
        for tid, lease in list(self._leased.items()):
            if now >= lease.deadline:
                continue  # the expiry timer owns this lease's fallback
            if self._conflicts_with_inflight_participation(
                lease.transaction, lease.coordinator_domain
            ):
                continue
            del self._leased[tid]
            if lease.timer is not None:
                lease.timer.cancel()
            self._part_pending[tid] = (lease.transaction, lease.coordinator_sequence)
            adopted.append(
                AdoptedMember(
                    transaction=lease.transaction,
                    coordinator_domain=lease.coordinator_domain,
                    coordinator_sequence=lease.coordinator_sequence,
                )
            )
        return tuple(adopted)

    def _expire_lease(self, tid: TransactionId) -> None:
        lease = self._leased.pop(tid, None)
        if lease is None:
            return
        self.node.record_trace(
            "control:lease",
            action="expire",
            tid=tid,
            coordinator=lease.coordinator_domain.name,
        )
        # Fall back to the pre-lease behaviour: queue for the per-transaction
        # path and drain immediately in case the conflict already cleared.
        self._part_queue.append(
            CrossPrepare(
                transaction=lease.transaction,
                coordinator_domain=lease.coordinator_domain,
                coordinator_sequence=lease.coordinator_sequence,
                request_digest=lease.transaction.request_digest,
            )
        )
        self._drain_participant_queue()

    def _drop_lease(self, tid: TransactionId) -> None:
        """Cancel a lease whose transaction was resolved elsewhere (abort)."""
        lease = self._leased.pop(tid, None)
        if lease is None:
            return
        if lease.timer is not None:
            lease.timer.cancel()
        self.node.record_trace(
            "control:lease",
            action="drop",
            tid=tid,
            coordinator=lease.coordinator_domain.name,
        )

    def _decided_group_participant_prepare(
        self, slot: int, order: GroupParticipantPrepareOrder
    ) -> None:
        key = (order.coordinator_domain, order.group_id)
        self._pgroup_pending.pop(key, None)
        group = _GroupVote(
            order.coordinator_domain, order.coordinator_sequence, slot, order.group_id
        )
        ordered: List[TransactionId] = []
        for transaction in order.transactions:
            # All members share the group's slot: groupmates never defer each
            # other's commits, and the aggregated commit applies them in
            # member order — identical on every participant.
            state = self._record_prepared(transaction, group)
            if state is None:
                continue
            ordered.append(transaction.tid)
            self._arm_commit_query_timer(state)
        # Adopted conflict-leased members (phase 2) share the group's slot
        # but keep their *own* coordinator: they are voted on individually,
        # never through the aggregated group vote below.
        adopted_states: List[_ParticipantState] = []
        for member in getattr(order, "adopted", ()):
            lease = self._leased.pop(member.transaction.tid, None)
            if lease is not None and lease.timer is not None:
                lease.timer.cancel()
            vote = _Vote(member.coordinator_domain, member.coordinator_sequence, slot)
            state = self._record_prepared(member.transaction, vote)
            if state is None:  # aborted while the order was in flight
                if self.node.is_primary:  # the grant resolves without an adopt
                    tid, coordinator = member.transaction.tid, member.coordinator_domain.name
                    self.node.record_trace(
                        "control:lease", action="drop", tid=tid, coordinator=coordinator
                    )
                continue
            adopted_states.append(state)
            self._arm_commit_query_timer(state)
        group.tids = tuple(ordered)
        self._pgroups[key] = group
        if not self.node.is_primary:
            return
        if ordered:
            self._send_group_prepared(group)
        for state in adopted_states:
            self.node.record_trace(
                "control:lease",
                action="adopt",
                tid=state.transaction.tid,
                gid=order.group_id,
                slot=slot,
                coordinator=state.coordinator_domain.name,
            )
            self._send_prepared(state.transaction, state)
        for tid in ordered:
            self._release_dependents(tid)
        for state in adopted_states:
            self._release_dependents(state.transaction.tid)

    def _send_group_prepared(self, group: _GroupVote) -> None:
        if not group.tids:
            return
        vote_digest = digest(
            b"xdomain-group-prepared", *[tid.name.encode() for tid in group.tids]
        )
        certificate = self.node.certify(vote_digest)
        self.node.record_trace(
            "handoff:group-prepared",
            gid=group.group_id,
            slot=group.participant_sequence,
            tids=[tid.name for tid in group.tids],
            coordinator=group.coordinator_domain.name,
        )
        prepared = GroupCrossPrepared(
            group_id=group.group_id,
            participant_domain=self.node.domain.id,
            coordinator_sequence=group.coordinator_sequence,
            participant_sequence=group.participant_sequence,
            tids=group.tids,
            certificate=certificate,
        )
        self.node.multicast_domain(group.coordinator_domain, prepared)

    def _on_group_commit(self, message: GroupCrossCommit) -> bool:
        if not self.node.is_height1:
            return False
        applied: List[TransactionId] = []
        for member in message.commits:
            state = self._part.get(member.tid)
            if state is None or state.committed:
                continue
            if self._must_defer_commit(state):
                self._deferred_commits[member.tid] = member
                continue
            self._apply_commit(state, member, send_ack=False, drain=False)
            applied.append(member.tid)
        self._apply_deferred_commits()
        if applied and self.node.is_primary:
            # One queue drain per grouped commit, not one per member.
            self._drain_participant_queue()
        if applied:
            ack = GroupCrossAck(
                group_id=message.group_id,
                participant=self.node.address,
                tids=tuple(applied),
            )
            self.node.send(
                self.node.primary_address_of(message.coordinator_domain), ack
            )
        return True

    def _on_commit(self, commit: CrossCommit) -> bool:
        if not self.node.is_height1:
            return False
        state = self._part.get(commit.tid)
        if state is None or state.committed:
            return True
        if self._must_defer_commit(state):
            self._deferred_commits[commit.tid] = commit
            return True
        self._apply_commit(state, commit)
        self._apply_deferred_commits()
        return True

    def _must_defer_commit(self, state: _ParticipantState) -> bool:
        """Commits of overlapping transactions are applied in prepare order.

        This preserves the consistency property (Lemma 4.3) even when commit
        messages from the coordinator are delivered out of order.
        """
        return self._part_live.precedes(state)

    def _apply_commit(
        self,
        state: _ParticipantState,
        commit: CrossCommit,
        send_ack: bool = True,
        drain: bool = True,
    ) -> None:
        """Apply one commit; ``send_ack=False``/``drain=False`` let the
        grouped path aggregate the ack and the queue drain per message
        instead of per member."""
        self._end_participation(state, committed=True)
        if self.node.ledger is not None and commit.tid not in self.node.ledger:
            self.node.append_and_execute(state.transaction, TransactionStatus.COMMITTED)
            self.node.note_commit(commit.tid)
        if send_ack:
            ack = CrossAck(
                tid=commit.tid,
                participant=self.node.address,
                coordinator_sequence=state.coordinator_sequence,
            )
            self.node.send(
                self.node.primary_address_of(commit.coordinator_domain), ack
            )
        client = self._client_of.pop(commit.tid, None)
        if client is not None and self.node.is_primary:
            self.node.reply_to_client(client, state.transaction, success=True)
        if drain and self.node.is_primary:
            self._drain_participant_queue()

    def _apply_deferred_commits(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for tid, commit in list(self._deferred_commits.items()):
                state = self._part.get(tid)
                if state is None or state.committed:
                    del self._deferred_commits[tid]
                    continue
                if not self._must_defer_commit(state):
                    del self._deferred_commits[tid]
                    self._apply_commit(state, commit)
                    progressed = True

    def _on_abort(self, abort: CrossAbort) -> bool:
        if not self.node.is_height1:
            return False
        for tid, sequence in abort.members:
            self._retire_attempt(tid, sequence, abort.will_retry, abort.reason)
        if self.node.is_primary:
            self._drain_participant_queue()
        return True

    def _retire_attempt(
        self, tid: TransactionId, sequence: int, will_retry: bool, reason: str
    ) -> None:
        """Apply one decided abort: remember it, purge every waiting copy of
        the attempt, and end its prepared state.  A groupmate is untouched."""
        state = self._part.get(tid)
        if state is not None and state.committed:
            return
        if will_retry:
            self._aborted_attempts.add((tid, sequence))
        else:
            self._aborted_tids.add(tid)
        aborted = self._aborted
        self._part_queue = [
            p for p in self._part_queue if not aborted(p.transaction.tid, p.coordinator_sequence)
        ]
        self._purge_held(aborted)
        pending = self._part_pending.get(tid)
        if pending is not None and aborted(tid, pending[1]):
            del self._part_pending[tid]  # its order is refused when decided
        lease = self._leased.get(tid)
        if lease is not None and aborted(tid, lease.coordinator_sequence):
            self._drop_lease(tid)
        if state is not None and state.in_flight and aborted(tid, state.coordinator_sequence):
            # A retried attempt is forgotten: the next one starts afresh.
            self._end_participation(state, forget=will_retry)
        if will_retry:
            return
        # The abort is this transaction's final state even where no attempt
        # was ordered: record it, answer the waiting client, and release the
        # prepares that waited for it to be ordered here.
        self.node.note_abort(tid, reason)
        if self.node.is_primary:
            if tid in self._client_of:
                reply = ClientReply(tid=tid, success=False, responder=self.node.address)
                self.node.send(self._client_of.pop(tid), reply)
            self._release_dependents(tid)

    def _drain_participant_queue(self) -> None:
        remaining: List[CrossPrepare] = []
        for prepare in self._part_queue:
            if self._conflicts_with_inflight_participation(
                prepare.transaction, prepare.coordinator_domain
            ):
                remaining.append(prepare)
            else:
                self._propose_participant_prepare(prepare)
        self._part_queue = remaining

    # ------------------------------------------------------------------ introspection (tests)

    def coordinated_transactions(self) -> Tuple[TransactionId, ...]:
        return tuple(self._coord.keys())

    def outcome_of(self, tid: TransactionId) -> Optional[TransactionStatus]:
        """This replica's decided outcome of ``tid`` in either role:
        ``COMMITTED`` or ``ABORTED``, ``None`` while it is undecided here."""
        state = self._coord.get(tid) or self._part.get(tid)
        if state is not None and state.committed:
            return TransactionStatus.COMMITTED
        if tid in self._aborted_tids or (state is not None and state.aborted):
            return TransactionStatus.ABORTED
        return None

    def coordinated_groups(self) -> Tuple[str, ...]:
        """Group ids of the grouped exchanges this coordinator still keeps:
        the ones with a member left in them."""
        return tuple(self._groups.keys())

    def group_members(self, group_id: str) -> Tuple[TransactionId, ...]:
        return self._groups[group_id].member_order
