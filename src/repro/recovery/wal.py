"""The durable side of a node: write-ahead log and certified checkpoints.

Everything a node keeps in ordinary attributes — consensus vote tallies, the
decision log, the blockchain ledger, the state store — is *volatile*: an
amnesia crash (the ``wipe`` fault kind) discards it all.  What survives is
exactly what this module models:

* a :class:`WriteAheadLog` of consensus-critical facts, appended *before*
  the corresponding volatile mutation takes effect (PBFT prepare/commit
  votes, Paxos accepts, view-change votes, decided slots, ledger appends).
  Each append charges ``sync_ms`` on the node's protocol CPU — the simulated
  cost of an fsync — so durability has an honest price in the results;

* the latest :class:`Checkpoint`: a full snapshot of the sharded state store
  bound to a Merkle state root, the ledger prefix that produced it, and a
  quorum certificate over the root, taken every ``checkpoint_interval``
  delivered slots.  Taking a checkpoint truncates the log, so the WAL only
  ever holds the suffix since the last checkpoint (plus view votes, which
  are promises that outlive any slot).

The replica that takes a checkpoint does not re-hash its whole state: the
root is maintained from the state store's own write log
(:meth:`~repro.ledger.state.StateStore.state_root`), re-hashing only the keys
written since the previous checkpoint.  A peer's snapshot carries no write
log, so :meth:`Checkpoint.verify` still recomputes the root from scratch with
:func:`state_root_of`.  Both build the same tree
(:func:`~repro.ledger.state.state_leaf` leaves, :mod:`repro.crypto.merkle`'s
shape).

Recovery (``repro.recovery.catchup``) replays the checkpoint and the WAL to
rebuild the pre-crash durable facts, then runs the peer catch-up protocol
for everything decided while the node was down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Tuple

from repro.common.types import DomainId
from repro.crypto.digests import digest
from repro.crypto.merkle import tree_levels
from repro.errors import RecoveryError
from repro.ledger.state import state_leaf

__all__ = [
    "WAL_RECORD_KINDS",
    "WalRecord",
    "WriteAheadLog",
    "Checkpoint",
    "checkpoint_digest",
    "state_root_of",
]

#: Every fact kind the log accepts.  ``prepare-vote``/``commit-vote`` are the
#: PBFT promises, ``accept-vote`` the Paxos one, ``view-vote`` a view-change
#: vote, ``decide`` a decided slot (payload included), ``append`` a ledger
#: append (the full :class:`~repro.ledger.transaction.CommittedEntry`).
WAL_RECORD_KINDS = (
    "prepare-vote",
    "commit-vote",
    "accept-vote",
    "view-vote",
    "decide",
    "append",
)


@dataclass(frozen=True)
class WalRecord:
    """One durable fact.  Which fields are meaningful depends on ``kind``."""

    kind: str
    slot: int = 0
    view: int = 0
    digest: Optional[bytes] = None
    payload: Any = None
    #: Ledger position, for ``append`` records only.
    position: int = 0

    def __post_init__(self) -> None:
        if self.kind not in WAL_RECORD_KINDS:
            raise RecoveryError(f"unknown WAL record kind {self.kind!r}")


class WriteAheadLog:
    """An append-only, truncate-from-the-front log of :class:`WalRecord`.

    The log is in-memory like everything else in the simulation; "durable"
    means it survives :meth:`~repro.core.node.SaguaroNode.wipe` because the
    node deliberately preserves it.  ``sync_ms`` is the simulated fsync cost
    the *callers* charge on the protocol CPU per append — the log itself
    stays cost-free so unit tests can drive it directly.
    """

    def __init__(self, owner: str, sync_ms: float = 0.0) -> None:
        if sync_ms < 0:
            raise RecoveryError(f"{owner}: WAL sync_ms must be >= 0, got {sync_ms}")
        self.owner = owner
        self.sync_ms = sync_ms
        self._records: List[WalRecord] = []
        #: Lifetime counters (truncation does not reset them).
        self.appended_total = 0
        self.truncated_total = 0

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: WalRecord) -> None:
        self._records.append(record)
        self.appended_total += 1

    def records(self) -> Tuple[WalRecord, ...]:
        """The retained records, oldest first (chronological append order)."""
        return tuple(self._records)

    def truncate_through(self, slot: int, ledger_length: int) -> int:
        """Drop every record a checkpoint at ``slot`` covers; returns count.

        Slot-bearing records at or below ``slot`` and appends at or below
        ``ledger_length`` are covered by the checkpoint's snapshot + ledger
        prefix.  View votes are kept: a view-change promise is not bound to
        any slot and must survive until the view itself is durable.
        """
        kept: List[WalRecord] = []
        for record in self._records:
            if record.kind == "append":
                covered = record.position <= ledger_length
            elif record.kind == "view-vote":
                covered = False
            else:
                covered = record.slot <= slot
            if not covered:
                kept.append(record)
        dropped = len(self._records) - len(kept)
        self._records = kept
        self.truncated_total += dropped
        return dropped

    def highest_view_vote(self) -> int:
        """The highest view this node ever durably voted for (0 if none)."""
        views = [r.view for r in self._records if r.kind == "view-vote"]
        return max(views, default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WriteAheadLog {self.owner} len={len(self._records)} "
            f"appended={self.appended_total}>"
        )


def state_root_of(snapshot: Mapping[str, Any]) -> bytes:
    """Deterministic Merkle root of a state-store snapshot, from scratch.

    Leaves are ``digest(key, repr(value))`` in sorted key order, so every
    replica of a domain (whose stores are replicated deterministically)
    computes the identical root regardless of write order or shard count.
    This is the check :meth:`Checkpoint.verify` runs on a carried snapshot;
    a live store computes the same root incrementally with
    :meth:`~repro.ledger.state.StateStore.state_root`.
    """
    leaves = [state_leaf(key, snapshot[key]) for key in sorted(snapshot)]
    return tree_levels(leaves)[-1][0]


def checkpoint_digest(domain: DomainId, slot: int, state_root: bytes) -> bytes:
    """The payload digest a checkpoint certificate signs."""
    return digest("checkpoint", domain.name, str(slot), state_root)


@dataclass(frozen=True)
class Checkpoint:
    """A certified cut of one height-1 replica at a delivered slot.

    ``snapshot`` is the full state-store content, ``state_root`` its Merkle
    root, ``ledger`` the complete run of
    :class:`~repro.ledger.transaction.CommittedEntry` up to the cut, and
    ``certificate`` a quorum certificate over
    :func:`checkpoint_digest` — the transferable proof a recovering peer
    verifies before adopting any of it.  ``delivery_seq`` preserves the
    engine's per-entry delivery counter so recovery resumes the exact
    sequence numbering components observed before the crash.
    """

    domain: DomainId
    slot: int
    view: int
    state_root: bytes
    snapshot: Mapping[str, Any] = field(repr=False)
    ledger: Tuple[Any, ...] = field(repr=False)
    delivery_seq: int = 0
    certificate: Any = None

    def verify(self, keystore: Any, allowed_signers: Any = None) -> bool:
        """Whether the checkpoint is internally consistent and certified.

        Recomputes the Merkle root from the carried snapshot (a forged
        snapshot under a genuine root fails here) and verifies the quorum
        certificate covers exactly this (domain, slot, root) digest with
        enough valid signatures from ``allowed_signers``.
        """
        if state_root_of(self.snapshot) != self.state_root:
            return False
        certificate = self.certificate
        if certificate is None:
            return False
        expected = checkpoint_digest(self.domain, self.slot, self.state_root)
        if certificate.payload_digest != expected:
            return False
        return certificate.verify(keystore, allowed_signers)
