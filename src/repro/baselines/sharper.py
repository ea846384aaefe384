"""SharPer-style flattened cross-shard consensus (baseline, §8 / [11]).

SharPer processes a cross-shard transaction by running a single *flattened*
consensus instance among the nodes of **all** involved clusters: the primary
of the initiator cluster proposes, and every node of every involved cluster
participates in the vote.  With crash-only clusters this costs one
propose/ack/commit exchange across the wide area; with Byzantine clusters the
prepare and commit phases are all-to-all across every involved cluster, which
is exactly the wide-area message explosion the paper contrasts Saguaro
against.

Internal transactions are processed by each cluster's internal protocol (the
same :class:`~repro.core.internal.InternalTransactionProtocol` Saguaro uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.common.types import DomainId, FailureModel, TransactionId, TransactionKind, TransactionStatus
from repro.core.messages import ClientRequest
from repro.core.node import ProtocolComponent, SaguaroNode
from repro.ledger.transaction import Transaction

__all__ = [
    "SharperPropose",
    "SharperVote",
    "SharperCommit",
    "SharperAbort",
    "SharperCrossShardProtocol",
]

#: Retry a flattened instance at most this many times before giving up.
MAX_ATTEMPTS = 5


def _overlaps_in_two(a: Transaction, b: Transaction) -> bool:
    return len(set(a.involved_domains) & set(b.involved_domains)) >= 2


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharperPropose:
    """Initiator primary -> all nodes of every involved cluster."""

    transaction: Transaction
    initiator_domain: DomainId
    initiator_sequence: int
    attempt: int = 1
    verify_count: int = 1
    size_kb: float = 0.3


@dataclass(frozen=True)
class SharperVote:
    """A node's vote.  CFT: sent to the initiator primary.  BFT: sent to all."""

    tid: TransactionId
    voter: str
    voter_domain: DomainId
    phase: str  # "prepare" or "commit"
    attempt: int = 1
    verify_count: int = 1
    size_kb: float = 0.2


@dataclass(frozen=True)
class SharperCommit:
    """Initiator primary -> all nodes: the flattened instance decided."""

    tid: TransactionId
    initiator_domain: DomainId
    attempt: int = 1
    verify_count: int = 1
    size_kb: float = 0.2


@dataclass(frozen=True)
class SharperAbort:
    """Initiator primary -> all nodes: release holds (retry or give up)."""

    tid: TransactionId
    will_retry: bool = True
    verify_count: int = 1
    size_kb: float = 0.2


# ---------------------------------------------------------------------------
# Per-node state
# ---------------------------------------------------------------------------


@dataclass
class _InstanceState:
    """State of one flattened instance on one node."""

    transaction: Transaction
    initiator_domain: DomainId
    attempt: int = 1
    voted_prepare: bool = False
    voted_commit: bool = False
    committed: bool = False
    aborted: bool = False
    prepare_votes: Dict[DomainId, Set[str]] = field(default_factory=dict)
    commit_votes: Dict[DomainId, Set[str]] = field(default_factory=dict)
    client_address: str = ""
    timer: Any = None

    @property
    def in_flight(self) -> bool:
        return not self.committed and not self.aborted


class SharperCrossShardProtocol(ProtocolComponent):
    """Flattened cross-shard consensus on every height-1 node."""

    wire = {
        ClientRequest: "_on_client_request",
        SharperPropose: "_on_propose",
        SharperVote: "_on_vote",
        SharperCommit: "_on_commit",
        SharperAbort: "_on_abort",
    }

    def __init__(self, node: SaguaroNode) -> None:
        super().__init__(node)
        self._instances: Dict[TransactionId, _InstanceState] = {}
        self._held: List[SharperPropose] = []
        #: Votes that arrived before this node saw the propose; replayed when
        #: the instance is created (votes race proposes across clusters).
        self._early_votes: Dict[TransactionId, List[SharperVote]] = {}
        self._next_sequence = 1

    # ------------------------------------------------------------------ dispatch

    def handle_message(self, payload: Any, sender: str) -> bool:
        return getattr(self, self.wire[type(payload)])(payload)

    # ------------------------------------------------------------------ helpers

    def _is_byzantine(self) -> bool:
        return self.node.domain.failure_model is FailureModel.BYZANTINE

    def _cluster_quorum(self, domain_id: DomainId) -> int:
        return self.node.hierarchy.domain(domain_id).quorum

    def _all_involved_nodes(self, transaction: Transaction) -> List[str]:
        addresses: List[str] = []
        for domain_id in transaction.involved_domains:
            addresses.extend(self.node.nodes_of(domain_id))
        return addresses

    # ------------------------------------------------------------------ initiator side

    def _on_client_request(self, request: ClientRequest) -> bool:
        transaction = request.transaction
        if transaction.kind is not TransactionKind.CROSS_DOMAIN:
            return False
        if not self.node.is_height1 or not transaction.involves(self.node.domain.id):
            return False
        if not self.node.is_primary:
            self.node.send(self.node.engine.primary_address, request)
            return True
        if self.node.ledger is not None and transaction.tid in self.node.ledger:
            self.node.reply_to_client(request.client_address, transaction, True)
            return True
        state = self._instances.get(transaction.tid)
        if state is not None and state.in_flight:
            # A retransmission of an instance that is still running: remember
            # where to reply, but do not restart it — restarting re-arms the
            # retry timer, and clients retransmit faster than it fires, so the
            # escalation path would be starved forever.
            state.client_address = request.client_address
            return True
        if state is None:
            state = self._ensure_instance(
                transaction, self.node.domain.id, attempt=1
            )
        state.client_address = request.client_address
        if state.aborted:
            self.node.reply_to_client(request.client_address, transaction, False)
            return True
        self._start_instance(state)
        return True

    def _start_instance(self, state: _InstanceState) -> None:
        propose = SharperPropose(
            transaction=state.transaction,
            initiator_domain=self.node.domain.id,
            initiator_sequence=self._next_sequence,
            attempt=state.attempt,
        )
        self._next_sequence += 1
        for address in self._all_involved_nodes(state.transaction):
            if address != self.node.address:
                self.node.send(address, propose)
        # The initiator primary processes its own proposal immediately.
        self._vote_on(state, propose)
        self._arm_retry_timer(state)

    def _arm_retry_timer(self, state: _InstanceState) -> None:
        tid = state.transaction.tid
        # Retry only as a last resort: wait-die holds guarantee progress once
        # the older conflicting instances commit, and premature retries cause
        # vote churn at high load.
        delay = 3.0 * self.node.config.timers.cross_domain_timeout_ms

        def _expired() -> None:
            current = self._instances.get(tid)
            if current is None or not current.in_flight:
                return
            if current.attempt >= MAX_ATTEMPTS:
                self._broadcast_abort(current, will_retry=False)
                current.aborted = True
                self.node.note_abort(tid, "sharper: max attempts")
                if current.client_address:
                    self.node.reply_to_client(
                        current.client_address, current.transaction, False
                    )
                return
            self._broadcast_abort(current, will_retry=True)
            current.attempt += 1
            current.prepare_votes.clear()
            current.commit_votes.clear()
            current.voted_prepare = False
            current.voted_commit = False
            self._start_instance(current)

        if state.timer is not None:
            state.timer.cancel()
        state.timer = self.node.set_timer(delay, _expired)

    def _broadcast_abort(self, state: _InstanceState, will_retry: bool) -> None:
        abort = SharperAbort(tid=state.transaction.tid, will_retry=will_retry)
        for address in self._all_involved_nodes(state.transaction):
            if address != self.node.address:
                self.node.send(address, abort)

    # ------------------------------------------------------------------ participant side

    def _ensure_instance(
        self, transaction: Transaction, initiator: DomainId, attempt: int
    ) -> _InstanceState:
        state = self._instances.get(transaction.tid)
        if state is None:
            state = _InstanceState(
                transaction=transaction, initiator_domain=initiator, attempt=attempt
            )
            self._instances[transaction.tid] = state
            # Votes from other clusters may have raced the propose here.
            for vote in self._early_votes.pop(transaction.tid, ()):  # replay
                self._record_vote(state, vote)
        state.attempt = max(state.attempt, attempt)
        return state

    def _on_propose(self, propose: SharperPropose) -> bool:
        transaction = propose.transaction
        if not self.node.is_height1 or not transaction.involves(self.node.domain.id):
            return True
        state = self._ensure_instance(
            transaction, propose.initiator_domain, propose.attempt
        )
        if state.committed:
            return True
        if self._conflicts_with_inflight_other_than(transaction):
            self._held.append(propose)
            return True
        self._vote_on(state, propose)
        return True

    def _conflicts_with_inflight_other_than(self, transaction: Transaction) -> bool:
        """Wait-die conflict rule.

        A node withholds its vote for a new overlapping instance only while an
        *older* (lower transaction id) overlapping instance is still in
        flight.  Ordering waits by transaction id keeps the wait-for relation
        acyclic across nodes, so two concurrent initiators never deadlock each
        other the way symmetric holding would.
        """
        for tid, state in self._instances.items():
            if tid == transaction.tid:
                continue
            if (
                state.in_flight
                and state.voted_prepare
                and tid.number < transaction.tid.number
                and _overlaps_in_two(state.transaction, transaction)
            ):
                return True
        return False

    def _vote_on(self, state: _InstanceState, propose: SharperPropose) -> None:
        if state.voted_prepare:
            return
        state.voted_prepare = True
        vote = SharperVote(
            tid=state.transaction.tid,
            voter=self.node.address,
            voter_domain=self.node.domain.id,
            phase="prepare",
            attempt=propose.attempt,
        )
        # Flattened consensus: votes are exchanged among *all* nodes of *all*
        # involved clusters (this wide-area all-to-all is precisely what the
        # paper contrasts the hierarchical coordinator against).
        for address in self._all_involved_nodes(state.transaction):
            if address != self.node.address:
                self.node.send(address, vote)
        self._record_vote(state, vote)

    def _on_vote(self, vote: SharperVote) -> bool:
        state = self._instances.get(vote.tid)
        if state is None:
            # The propose has not reached this node yet; buffer the vote so
            # the quorum count is not silently starved.
            self._early_votes.setdefault(vote.tid, []).append(vote)
            return True
        if state.committed or state.aborted:
            return True
        self._record_vote(state, vote)
        return True

    def _record_vote(self, state: _InstanceState, vote: SharperVote) -> None:
        bucket = (
            state.prepare_votes if vote.phase == "prepare" else state.commit_votes
        )
        bucket.setdefault(vote.voter_domain, set()).add(vote.voter)
        if self._is_byzantine():
            self._check_byzantine_progress(state)
        else:
            self._check_cft_progress(state)

    def _quorum_in_every_cluster(
        self, state: _InstanceState, votes: Dict[DomainId, Set[str]]
    ) -> bool:
        for domain_id in state.transaction.involved_domains:
            if len(votes.get(domain_id, set())) < self._cluster_quorum(domain_id):
                return False
        return True

    def _check_cft_progress(self, state: _InstanceState) -> None:
        """CFT: a node commits once every cluster reached a majority of accepts."""
        if state.committed or state.aborted:
            return
        if not self._quorum_in_every_cluster(state, state.prepare_votes):
            return
        # The initiator primary also multicasts an explicit commit so nodes
        # that withheld their vote (wait-die holds) still learn the outcome.
        if self.node.address == self.node.primary_address_of(state.initiator_domain):
            commit = SharperCommit(
                tid=state.transaction.tid,
                initiator_domain=state.initiator_domain,
                attempt=state.attempt,
            )
            for address in self._all_involved_nodes(state.transaction):
                if address != self.node.address:
                    self.node.send(address, commit)
        self._commit_locally(state)

    def _check_byzantine_progress(self, state: _InstanceState) -> None:
        """Flattened PBFT: prepared -> commit votes -> committed, per cluster."""
        if state.committed or state.aborted:
            return
        if not state.voted_commit and self._quorum_in_every_cluster(
            state, state.prepare_votes
        ):
            state.voted_commit = True
            vote = SharperVote(
                tid=state.transaction.tid,
                voter=self.node.address,
                voter_domain=self.node.domain.id,
                phase="commit",
                attempt=state.attempt,
            )
            for address in self._all_involved_nodes(state.transaction):
                if address != self.node.address:
                    self.node.send(address, vote)
            state.commit_votes.setdefault(self.node.domain.id, set()).add(
                self.node.address
            )
        if self._quorum_in_every_cluster(state, state.commit_votes):
            # A node may learn the outcome purely from others' commit votes
            # (e.g. when its own vote was withheld by a wait-die hold).
            self._commit_locally(state)
            if self.node.address == self.node.primary_address_of(state.initiator_domain):
                commit = SharperCommit(
                    tid=state.transaction.tid,
                    initiator_domain=state.initiator_domain,
                    attempt=state.attempt,
                )
                for address in self._all_involved_nodes(state.transaction):
                    if address != self.node.address:
                        self.node.send(address, commit)

    # ------------------------------------------------------------------ commit / abort

    def _on_commit(self, commit: SharperCommit) -> bool:
        state = self._instances.get(commit.tid)
        if state is None:
            return True
        self._commit_locally(state)
        return True

    def _commit_locally(self, state: _InstanceState) -> None:
        if state.committed:
            return
        state.committed = True
        if state.timer is not None:
            state.timer.cancel()
        tid = state.transaction.tid
        if self.node.ledger is not None and tid not in self.node.ledger:
            self.node.append_and_execute(state.transaction, TransactionStatus.COMMITTED)
            self.node.note_commit(tid)
        if self.node.is_primary and state.client_address:
            self.node.reply_to_client(state.client_address, state.transaction, True)
        self._release_held()

    def _on_abort(self, abort: SharperAbort) -> bool:
        state = self._instances.get(abort.tid)
        if state is None or state.committed:
            return True
        if abort.will_retry:
            state.voted_prepare = False
            state.voted_commit = False
        else:
            state.aborted = True
        self._release_held()
        return True

    def _release_held(self) -> None:
        still_held: List[SharperPropose] = []
        for propose in self._held:
            state = self._instances.get(propose.transaction.tid)
            if state is not None and state.committed:
                continue
            if self._conflicts_with_inflight_other_than(propose.transaction):
                still_held.append(propose)
            else:
                if state is None:
                    state = self._ensure_instance(
                        propose.transaction, propose.initiator_domain, propose.attempt
                    )
                self._vote_on(state, propose)
        self._held = still_held
