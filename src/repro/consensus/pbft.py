"""PBFT-style BFT consensus for Byzantine domains.

The engine follows the normal-case structure of Castro & Liskov's PBFT: the
primary assigns a slot with a pre-prepare, replicas exchange prepare messages,
and once a node holds a prepared certificate it broadcasts a commit; a slot is
decided when ``2f + 1`` commit votes have been collected.  The view-change
path replaces a suspected primary and re-proposes pending slots.

Prepare and commit votes are tallied **per payload digest**, not just per
slot: an equivocating primary that sends conflicting pre-prepares for the same
(view, slot) therefore splits the vote, and at most one variant can ever reach
a ``2f + 1`` quorum — conflicting proposals cost liveness of that slot on the
minority replicas, never safety.  Replicas also refuse to overwrite a payload
they already hold for a slot within the same view, and record the conflicting
proposal as equivocation evidence on the run trace.

Tallies are kept per slot and dropped when the slot is decided: a vote that
arrives for a decided slot is ignored, as it could change nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from repro.consensus.base import ConsensusEngine, ConsensusHost
from repro.consensus.messages import (
    NewView,
    PbftCommit,
    PbftDecide,
    PbftPrePrepare,
    PbftPrepare,
)
from repro.recovery.wal import WalRecord

__all__ = ["PbftEngine"]

#: Vote tally: slot -> payload digest -> voters.
_Tally = Dict[int, Dict[bytes, Set[str]]]


def _voters(tally: _Tally, slot: int, digest: bytes) -> Set[str]:
    """The voters for ``digest`` in ``slot`` (an empty set is created)."""
    return tally.setdefault(slot, {}).setdefault(digest, set())


def _count(tally: _Tally, slot: int, digest: bytes) -> int:
    by_digest = tally.get(slot)
    return len(by_digest.get(digest, ())) if by_digest else 0


class PbftEngine(ConsensusEngine):
    """PBFT normal case plus a simplified view change, inside one domain."""

    wire = {
        **ConsensusEngine.wire,
        PbftPrePrepare: "_on_pre_prepare",
        PbftPrepare: "_on_prepare",
        PbftCommit: "_on_commit",
        PbftDecide: "_on_decide_echo",
    }

    def __init__(self, host: ConsensusHost) -> None:
        super().__init__(host)
        self._payloads: Dict[int, Any] = {}
        self._payload_views: Dict[int, int] = {}
        self._prepare_votes: _Tally = {}
        self._commit_votes: _Tally = {}
        self._echo_votes: _Tally = {}
        self._commit_sent: Set[int] = set()

    # -- proposing -------------------------------------------------------------------

    def propose(self, payload: Any) -> int:
        """Primary-side entry point: pre-prepare the payload in a fresh slot."""
        slot = self.allocate_slot()
        self._proposals[slot] = payload
        self._adopt_payload(slot, payload, self.view)
        # The primary's pre-prepare counts as its prepare vote.
        digest = self.payload_digest(payload)
        _voters(self._prepare_votes, slot, digest).add(self._host.address)
        self._wal_log("prepare-vote", slot=slot, payload_digest=digest, payload=payload)
        self._trace("propose", slot=slot, payload=payload, payload_digest=digest)
        message = PbftPrePrepare(
            domain=self.domain.id, view=self.view, slot=slot, payload=payload
        )
        self._broadcast(message)
        self._maybe_commit_phase(slot)
        return slot

    def _adopt_payload(self, slot: int, payload: Any, view: int) -> None:
        self._payloads[slot] = payload
        self._payload_views[slot] = view

    def _pending_payload_of(self, slot: int) -> Any:
        """Replica-side pending payload: whatever pre-prepare we adopted.

        An equivocating primary (or a view change) may still decide the slot
        on a *different* payload — the decide-time rollback check covers
        that; this only bounds the speculation scan's footprint estimate.
        """
        return self._payloads.get(slot)

    # -- message handling -----------------------------------------------------------------

    def _decide_echo(self, slot: int, payload: Any) -> Any:
        return PbftDecide(
            domain=self.domain.id, view=self.view, slot=slot, payload=payload
        )

    def handle_message(self, message: Any, sender: str) -> bool:
        getattr(self, self.wire[type(message)])(message, sender)
        return True

    def _on_pre_prepare(self, message: PbftPrePrepare, sender: str) -> None:
        if message.view < self.view:
            return
        self._observe_slot(message.slot)
        digest = self.payload_digest(message.payload)
        held = self._payloads.get(message.slot)
        if held is not None and message.view <= self._payload_views.get(
            message.slot, message.view
        ):
            held_digest = self.payload_digest(held)
            if held_digest != digest:
                # A second, conflicting pre-prepare for the same slot in the
                # same view: a correct primary never does this.  Refuse it and
                # leave equivocation evidence on the trace.
                self._trace(
                    "equivocation-observed",
                    slot=message.slot,
                    payload_digest=digest,
                    sender=sender,
                )
                return
        else:
            self._adopt_payload(message.slot, message.payload, message.view)
        if not self.is_decided(message.slot):
            votes = _voters(self._prepare_votes, message.slot, digest)
            # The pre-prepare carries the primary's vote; add our own and
            # tell peers.
            votes.add(sender)
            votes.add(self._host.address)
        self._wal_log(
            "prepare-vote",
            slot=message.slot,
            view=message.view,
            payload_digest=digest,
            payload=message.payload,
        )
        self._trace(
            "prepare-vote",
            slot=message.slot,
            payload=message.payload,
            payload_digest=digest,
        )
        prepare = PbftPrepare(
            domain=self.domain.id,
            view=message.view,
            slot=message.slot,
            payload_digest=digest,
            sender=self._host.address,
        )
        self._broadcast(prepare)
        self._maybe_commit_phase(message.slot)

    def _on_prepare(self, message: PbftPrepare, sender: str) -> None:
        if message.view < self.view:
            return
        self._observe_slot(message.slot)
        if self.is_decided(message.slot):
            return
        _voters(self._prepare_votes, message.slot, message.payload_digest).add(sender)
        self._maybe_commit_phase(message.slot)

    def _maybe_commit_phase(self, slot: int) -> None:
        """Enter the commit phase once a prepared certificate is held."""
        if slot in self._commit_sent or self.is_decided(slot):
            return
        payload = self._payloads.get(slot)
        if payload is None:
            return
        digest = self.payload_digest(payload)
        if _count(self._prepare_votes, slot, digest) < self.quorum:
            return
        self._commit_sent.add(slot)
        _voters(self._commit_votes, slot, digest).add(self._host.address)
        self._wal_log("commit-vote", slot=slot, payload_digest=digest)
        self._trace(
            "commit-vote", slot=slot, payload=payload, payload_digest=digest
        )
        commit = PbftCommit(
            domain=self.domain.id,
            view=self.view,
            slot=slot,
            payload_digest=digest,
            sender=self._host.address,
        )
        self._broadcast(commit)
        self._maybe_decide(slot)

    def _on_commit(self, message: PbftCommit, sender: str) -> None:
        if message.view < self.view:
            return
        self._observe_slot(message.slot)
        if self.is_decided(message.slot):
            return
        _voters(self._commit_votes, message.slot, message.payload_digest).add(sender)
        self._maybe_commit_phase(message.slot)
        self._maybe_decide(message.slot)

    def _retransmit_slot(self, slot: int) -> None:
        """Loss recovery: re-broadcast our pre-prepare/prepare/commit for ``slot``."""
        if self.is_decided(slot):
            return
        payload = self._payloads.get(slot)
        if payload is None:
            return
        digest = self.payload_digest(payload)
        if self.is_primary:
            self._broadcast(
                PbftPrePrepare(
                    domain=self.domain.id, view=self.view, slot=slot, payload=payload
                )
            )
        self._broadcast(
            PbftPrepare(
                domain=self.domain.id,
                view=self.view,
                slot=slot,
                payload_digest=digest,
                sender=self._host.address,
            )
        )
        if slot in self._commit_sent:
            self._broadcast(
                PbftCommit(
                    domain=self.domain.id,
                    view=self.view,
                    slot=slot,
                    payload_digest=digest,
                    sender=self._host.address,
                )
            )

    def _on_decide_echo(self, message: PbftDecide, sender: str) -> None:
        """Adopt a peer's decided slot, unless it conflicts with ours.

        The echo lets a node that missed the pre-prepare or whose commit
        votes were lost catch up.  A node holding a *different* payload for
        the slot refuses a single echo: without a transferable ``2f + 1``
        proof one peer must not overwrite a locally prepared value.  But the
        refusal must not be permanent — a replica that adopted an
        equivocating primary's forged payload would otherwise refuse the
        honest decision forever, stalling in-order delivery for the rest of
        the run (its gap recovery re-queries every backoff round and every
        reply is refused again).  Once ``f + 1`` *distinct* peers echo the
        same decided payload, at least one of them is honest and really
        decided it, so the held (possibly forged) payload loses and the
        replica adopts the quorum's decision.
        """
        if self.is_decided(message.slot):
            return
        self._observe_slot(message.slot)
        digest = self.payload_digest(message.payload)
        held = self._payloads.get(message.slot)
        if held is not None and self.payload_digest(held) != digest:
            echoes = _voters(self._echo_votes, message.slot, digest)
            echoes.add(sender)
            if len(echoes) <= self.domain.faults:
                self._trace(
                    "equivocation-observed",
                    slot=message.slot,
                    payload_digest=digest,
                    sender=sender,
                )
                return
            self._trace(
                "echo-adopt",
                slot=message.slot,
                payload_digest=digest,
                echoes=len(echoes),
            )
        self._adopt_payload(message.slot, message.payload, message.view)
        self._record_decision(message.slot, message.payload)

    def _maybe_decide(self, slot: int) -> None:
        if self.is_decided(slot):
            return
        payload = self._payloads.get(slot)
        if payload is None:
            return
        digest = self.payload_digest(payload)
        if _count(self._commit_votes, slot, digest) < self.quorum:
            return
        self._record_decision(slot, payload)

    def _retire_votes(self, slot: int) -> None:
        self._prepare_votes.pop(slot, None)
        self._commit_votes.pop(slot, None)
        self._echo_votes.pop(slot, None)
        self._commit_sent.discard(slot)

    # -- view change --------------------------------------------------------------------------

    def _undecided_pending(self) -> Tuple[Tuple[int, Any], ...]:
        return tuple(
            (slot, payload)
            for slot, payload in sorted(self._payloads.items())
            if not self.is_decided(slot)
        )

    def _repropose_in_slot(self, slot: int, payload: Any) -> None:
        self._observe_slot(slot)
        self._adopt_payload(slot, payload, self.view)
        digest = self.payload_digest(payload)
        _voters(self._prepare_votes, slot, digest).add(self._host.address)
        self._wal_log("prepare-vote", slot=slot, payload_digest=digest, payload=payload)
        self._trace("propose", slot=slot, payload=payload, payload_digest=digest)
        message = PbftPrePrepare(
            domain=self.domain.id, view=self.view, slot=slot, payload=payload
        )
        self._broadcast(message)
        self._maybe_commit_phase(slot)

    def _on_new_view(self, message: NewView, sender: str) -> None:
        if message.view > self.view:
            # Commits sent in the old view do not carry over: an undecided
            # slot must be free to re-vote under the new primary (a decided
            # slot left the set when it was decided).
            self._commit_sent.clear()
        super()._on_new_view(message, sender)

    # -- crash recovery --------------------------------------------------------------------

    def _rehydrate_vote(self, record: WalRecord) -> None:
        """Re-arm a WAL-covered promise after an amnesia crash.

        Restoring the adopted payload (and its view) re-enables the existing
        equivocation refusals in :meth:`_on_pre_prepare` and
        :meth:`_on_decide_echo`: the recovered node holds exactly what it
        held when it voted, so a conflicting proposal for the same (slot,
        view) is refused just as it would have been before the crash.
        Restoring ``_commit_sent`` keeps the node from re-voting commit for
        a slot it already committed to in the current view; a later new-view
        prunes it exactly as live operation does.  Only the node's *own*
        votes are durable — peers' tallies re-form from live traffic.  A slot
        already decided keeps its adopted payload but no tally.
        """
        decided = self.is_decided(record.slot)
        if record.kind == "prepare-vote":
            if record.payload is not None:
                self._adopt_payload(record.slot, record.payload, record.view)
            if record.digest is not None and not decided:
                _voters(self._prepare_votes, record.slot, record.digest).add(
                    self._host.address
                )
        elif record.kind == "commit-vote" and not decided:
            self._commit_sent.add(record.slot)
            if record.digest is not None:
                _voters(self._commit_votes, record.slot, record.digest).add(
                    self._host.address
                )
