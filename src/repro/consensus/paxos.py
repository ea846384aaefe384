"""Paxos-style CFT consensus for crash-only domains.

The engine implements multi-Paxos with a stable leader (the domain primary):
the expensive phase-1 is run implicitly by the view number, and each slot is
decided with one Accept / Accepted round followed by a Learn broadcast.  This
matches how CFT-replicated systems are deployed in practice and how the paper
uses "Paxos" as the internal protocol of crash-only domains.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.consensus.base import ConsensusEngine, ConsensusHost
from repro.consensus.messages import PaxosAccept, PaxosAccepted, PaxosLearn
from repro.errors import ConsensusError
from repro.recovery.wal import WalRecord

__all__ = ["PaxosEngine"]


class PaxosEngine(ConsensusEngine):
    """Multi-Paxos with a stable leader inside one crash-only domain."""

    wire = {
        **ConsensusEngine.wire,
        PaxosAccept: "_on_accept",
        PaxosAccepted: "_on_accepted",
        PaxosLearn: "_on_learn",
    }

    def __init__(self, host: ConsensusHost) -> None:
        super().__init__(host)
        self._accepted_payload: Dict[int, Any] = {}
        self._accept_votes: Dict[int, Set[str]] = {}

    # -- proposing ---------------------------------------------------------------

    def propose(self, payload: Any) -> int:
        """Leader-side entry point: assign a slot and start the accept round."""
        slot = self.allocate_slot()
        self._proposals[slot] = payload
        self._accepted_payload[slot] = payload
        self._accept_votes.setdefault(slot, set()).add(self._host.address)
        self._wal_log("accept-vote", slot=slot, payload=payload)
        self._trace("propose", slot=slot, payload=payload)
        self._trace("accept-vote", slot=slot, payload=payload)
        message = PaxosAccept(
            domain=self.domain.id, view=self.view, slot=slot, payload=payload
        )
        self._broadcast(message)
        self._maybe_decide(slot)
        return slot

    def _pending_payload_of(self, slot: int) -> Any:
        """Replica-side pending payload: whatever accept we acknowledged."""
        return self._accepted_payload.get(slot)

    # -- message handling -----------------------------------------------------------

    def _decide_echo(self, slot: int, payload: Any) -> Any:
        return PaxosLearn(
            domain=self.domain.id, view=self.view, slot=slot, payload=payload
        )

    def _retransmit_slot(self, slot: int) -> None:
        """Loss recovery: the leader re-runs the accept round for ``slot``."""
        if self.is_decided(slot) or not self.is_primary:
            return
        payload = self._accepted_payload.get(slot)
        if payload is None:
            return
        self._broadcast(
            PaxosAccept(
                domain=self.domain.id, view=self.view, slot=slot, payload=payload
            )
        )

    def handle_message(self, message: Any, sender: str) -> bool:
        getattr(self, self.wire[type(message)])(message, sender)
        return True

    def _on_accept(self, message: PaxosAccept, sender: str) -> None:
        if message.view < self.view:
            return  # stale leader
        self._observe_slot(message.slot)
        self._accepted_payload[message.slot] = message.payload
        digest = self.payload_digest(message.payload)
        self._wal_log(
            "accept-vote",
            slot=message.slot,
            view=message.view,
            payload_digest=digest,
            payload=message.payload,
        )
        self._trace(
            "accept-vote", slot=message.slot, payload=message.payload,
            payload_digest=digest,
        )
        reply = PaxosAccepted(
            domain=self.domain.id,
            view=message.view,
            slot=message.slot,
            payload_digest=digest,
        )
        self._host.send_protocol_message(sender, reply)

    def _on_accepted(self, message: PaxosAccepted, sender: str) -> None:
        if (
            message.view != self.view
            or not self.is_primary
            or self.is_decided(message.slot)
        ):
            return
        self._accept_votes.setdefault(message.slot, set()).add(sender)
        self._maybe_decide(message.slot)

    def _maybe_decide(self, slot: int) -> None:
        if not self.is_primary or self.is_decided(slot):
            return
        votes = self._accept_votes.get(slot, set())
        if len(votes) < self.quorum:
            return
        payload = self._accepted_payload.get(slot)
        if payload is None:
            raise ConsensusError(f"slot {slot} decided without a payload")
        self._record_decision(slot, payload)
        learn = PaxosLearn(
            domain=self.domain.id, view=self.view, slot=slot, payload=payload
        )
        self._broadcast(learn)

    def _retire_votes(self, slot: int) -> None:
        self._accept_votes.pop(slot, None)

    def _on_learn(self, message: PaxosLearn, sender: str) -> None:
        self._observe_slot(message.slot)
        self._record_decision(message.slot, message.payload)

    # -- view change ---------------------------------------------------------------------

    def _undecided_pending(self) -> Tuple[Tuple[int, Any], ...]:
        return tuple(
            (slot, payload)
            for slot, payload in sorted(self._accepted_payload.items())
            if not self.is_decided(slot)
        )

    def _repropose_in_slot(self, slot: int, payload: Any) -> None:
        self._observe_slot(slot)
        self._accepted_payload[slot] = payload
        self._accept_votes.setdefault(slot, set()).add(self._host.address)
        self._wal_log("accept-vote", slot=slot, payload=payload)
        self._trace("propose", slot=slot, payload=payload)
        self._trace("accept-vote", slot=slot, payload=payload)
        message = PaxosAccept(
            domain=self.domain.id, view=self.view, slot=slot, payload=payload
        )
        self._broadcast(message)
        self._maybe_decide(slot)

    # -- crash recovery ----------------------------------------------------------------

    def _rehydrate_vote(self, record: WalRecord) -> None:
        """Re-arm a WAL-covered Paxos promise after an amnesia crash.

        Restoring ``_accepted_payload`` keeps every pre-crash accept: the
        recovered node reports exactly those payloads as pending in any
        later view change, so a value it helped a quorum accept can never
        be silently forgotten.  Only the node's own vote is durable, and a
        slot already decided keeps its payload but no tally.
        """
        if record.kind == "accept-vote":
            self._accepted_payload[record.slot] = record.payload
            if not self.is_decided(record.slot):
                self._accept_votes.setdefault(record.slot, set()).add(
                    self._host.address
                )
