"""Byzantine node behaviors driven by fault plans.

Every :class:`~repro.core.node.SaguaroNode` owns an :class:`AdversaryControls`
instance.  An honest node's controls are inert; a fault plan flips them on to
make the node misbehave in one of the classic ways the paper's BFT machinery
must survive:

* **silence** — the node stops sending *any* message (a "fail-silent" leader:
  it still receives and updates local state, but peers observe a crash-like
  silence and must view-change around it).
* **equivocation** — a PBFT primary sends *conflicting* pre-prepares for the
  same (view, slot) to different replicas.  With the real ``2f + 1`` quorum
  rule at most one variant can gather a quorum, so safety holds; with a
  deliberately weakened quorum the replicas' ledgers diverge — which the
  :class:`~repro.faults.invariants.InvariantChecker` detects.
* **stale-certificate replay** — the node re-sends its most recent certified
  ``prepared`` message with a stale coordinator sequence number, modelling a
  replayed certificate from an earlier protocol round.  Receivers must reject
  it by sequence, not by trusting the (genuinely valid, but stale) certificate.

The interception point is outbound sending: the node calls
:meth:`AdversaryControls.outbound` on every message and sends whatever comes
back (``None`` means "drop").  Keeping the adversary at the transport edge
means the consensus engines stay honest-by-construction and the misbehavior is
exactly what a real network observer would see.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from repro.consensus.messages import PbftPrePrepare
from repro.core.messages import CrossPrepared, InternalOrder
from repro.crypto.digests import digest

__all__ = ["AdversaryControls", "ForgedPayload", "EQUIVOCATION_SKEW"]

#: Amount added to a forged micropayment transfer so the conflicting variant
#: is semantically (not just byte-wise) different.
EQUIVOCATION_SKEW = 1_000_000.0


@dataclass(frozen=True)
class ForgedPayload:
    """Generic conflicting variant of a consensus payload.

    Used when the adversary cannot forge a domain-specific variant; its digest
    differs from the original's, and no protocol component declares its type,
    so a node that (wrongly) decides it commits nothing for that slot and
    records a ``node:unhandled`` trace event (hook ``decide``) instead.
    """

    original_repr: str

    def canonical_bytes(self) -> bytes:
        return digest("forged-payload", self.original_repr)


def _forge_payload(payload: Any) -> Any:
    """A payload with the same identity but conflicting content."""
    if isinstance(payload, InternalOrder):
        transaction = payload.transaction
        content = dict(transaction.payload)
        if "amount" in content:
            content["amount"] = float(content["amount"]) + EQUIVOCATION_SKEW
            forged_tx = replace(transaction, payload=content)
            return replace(payload, transaction=forged_tx)
    return ForgedPayload(original_repr=repr(payload))


class AdversaryControls:
    """Per-node switchboard for Byzantine behaviors (inert by default)."""

    def __init__(self) -> None:
        self.silenced = False
        self.equivocating = False
        self._equivocation_flip = 0
        #: Most recent certified CrossPrepared sent by this node, kept for
        #: stale-certificate replay: (recipient address, message).
        self._last_prepared: Optional[Tuple[str, CrossPrepared]] = None

    @property
    def active(self) -> bool:
        return self.silenced or self.equivocating

    # ------------------------------------------------------------------ switches

    def silence(self) -> None:
        self.silenced = True

    def unsilence(self) -> None:
        self.silenced = False

    def start_equivocating(self) -> None:
        self.equivocating = True

    def stop_equivocating(self) -> None:
        self.equivocating = False

    # ------------------------------------------------------------------ interception

    def outbound(self, node: Any, to_address: str, message: Any) -> Optional[Any]:
        """Filter/mutate one outbound message; ``None`` drops it."""
        if isinstance(message, CrossPrepared):
            self._last_prepared = (to_address, message)
        if self.silenced:
            return None
        if self.equivocating and isinstance(message, PbftPrePrepare):
            self._equivocation_flip += 1
            if self._equivocation_flip % 2 == 0:
                forged = replace(message, payload=_forge_payload(message.payload))
                node.record_trace(
                    "adversary:equivocate",
                    slot=message.slot,
                    view=message.view,
                    recipient=to_address,
                )
                return forged
        return message

    # ------------------------------------------------------------------ replay

    def replay_stale_certificate(self, node: Any) -> bool:
        """Re-send the last certified ``prepared`` with a stale sequence.

        Returns ``True`` when something was replayed.  The replayed message
        carries a *valid* certificate over the original request digest but a
        coordinator sequence from "an earlier round"; a correct receiver must
        discard it instead of acting on the stale certification.
        """
        if self._last_prepared is None:
            return False
        recipient, message = self._last_prepared
        stale = replace(
            message,
            coordinator_sequence=max(0, message.coordinator_sequence - 1),
        )
        node.record_trace(
            "adversary:stale-replay",
            tid=message.tid,
            recipient=recipient,
            stale_sequence=stale.coordinator_sequence,
        )
        node.send(recipient, stale)
        return True
