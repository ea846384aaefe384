"""Block messages: the unit of lazy propagation up the hierarchy (§5).

At the end of each round that has something new a domain sends its parent a
``block`` message containing (1) all transactions appended to its ledger in
that round, (2) the Merkle hash tree of those transactions, and (3) an
application-dependent abstract version of the blockchain-state updates of that
round.  Under the optimistic protocol (§6) the message additionally carries
the identifiers of aborted cross-domain transactions and the dependency lists
of undecided ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from repro.common.types import DomainId, TransactionId
from repro.crypto.certificates import QuorumCertificate
from repro.crypto.merkle import MerkleTree
from repro.errors import LedgerError
from repro.ledger.transaction import CommittedEntry

__all__ = ["BlockMessage"]

#: Approximate wire size of one committed entry inside a block message (KB).
_ENTRY_KB = 0.25
#: Fixed block-message overhead (headers, Merkle root, certificate) in KB.
_HEADER_KB = 0.5


@dataclass(frozen=True)
class BlockMessage:
    """One round's worth of ledger growth, shipped from a domain to its parent;
    its entries are the sender's positions ``start + 1 .. end`` (ledger
    positions at height 1, DAG vertex ordinals above)."""

    domain: DomainId
    round_number: int
    entries: Tuple[CommittedEntry, ...]
    merkle_root: bytes
    state_delta: Mapping[str, Any] = field(default_factory=dict)
    aborted: Tuple[TransactionId, ...] = ()
    dependencies: Mapping[TransactionId, Tuple[TransactionId, ...]] = field(
        default_factory=dict
    )
    certificate: Optional[QuorumCertificate] = None
    start: int = 0

    def __post_init__(self) -> None:
        if self.round_number < 1:
            raise LedgerError("round numbers start at 1")

    @classmethod
    def build(
        cls,
        domain: DomainId,
        round_number: int,
        entries: Tuple[CommittedEntry, ...],
        state_delta: Optional[Mapping[str, Any]] = None,
        aborted: Tuple[TransactionId, ...] = (),
        dependencies: Optional[Mapping[TransactionId, Tuple[TransactionId, ...]]] = None,
        certificate: Optional[QuorumCertificate] = None,
        start: int = 0,
    ) -> "BlockMessage":
        """Assemble a block message, computing the Merkle root of its entries."""
        leaves = [entry.canonical_bytes() for entry in entries]
        return cls(
            domain=domain,
            round_number=round_number,
            entries=tuple(entries),
            merkle_root=MerkleTree.root_of(leaves),
            state_delta=dict(state_delta or {}),
            aborted=tuple(aborted),
            dependencies=dict(dependencies or {}),
            certificate=certificate,
            start=start,
        )

    @property
    def end(self) -> int:
        """The sender's position of the last entry (``start`` when empty)."""
        return self.start + len(self.entries)

    def narrowed_to(self, entries: Tuple[CommittedEntry, ...]) -> "BlockMessage":
        """The same block carrying only ``entries`` (its own, in order), same end."""
        return BlockMessage.build(
            domain=self.domain,
            round_number=self.round_number,
            entries=entries,
            state_delta=self.state_delta,
            aborted=self.aborted,
            dependencies=self.dependencies,
            certificate=self.certificate,
            start=self.end - len(entries),
        )

    @property
    def is_empty(self) -> bool:
        """No entries; a round sends such a block only when it carries a state
        delta, dependency lists or new aborts."""
        return not self.entries

    @property
    def transaction_ids(self) -> Tuple[TransactionId, ...]:
        return tuple(entry.tid for entry in self.entries)

    @property
    def size_kb(self) -> float:
        """Wire size used by the simulated network."""
        return _HEADER_KB + _ENTRY_KB * len(self.entries) + 0.05 * len(self.state_delta)

    def verify_merkle_root(self) -> bool:
        """Recompute the Merkle root over the carried entries."""
        leaves = [entry.canonical_bytes() for entry in self.entries]
        return MerkleTree.root_of(leaves) == self.merkle_root

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"B{self.domain.name}-{self.round_number:02d}"
            f"[{len(self.entries)} txns, {len(self.aborted)} aborted]"
        )
