"""Linear blockchain ledgers maintained by height-1 domains.

Each height-1 domain totally orders its transactions and chains them together
with cryptographic hashes (§3).  In Figure 3 "one block denotes one
transaction", so the linear ledger appends one :class:`CommittedEntry` per
position; round-based batching for propagation up the hierarchy is handled by
:mod:`repro.ledger.block`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.types import DomainId, SequenceNumber, TransactionId, TransactionStatus
from repro.crypto.digests import digest
from repro.errors import ChainIntegrityError, LedgerError, UnknownBlockError
from repro.ledger.transaction import CommittedEntry, Transaction

__all__ = ["ChainRecord", "LinearLedger", "SharedPositions"]

#: Hash of the (virtual) block before the first one.
GENESIS_HASH = b"\x00" * 32

#: Positions a :class:`SharedPositions` table keeps: the leading replica's
#: latest appends.  A replica further behind than this computes its own.
SHARED_WINDOW = 128


@dataclass(frozen=True, slots=True)
class ChainRecord:
    """One position of a linear ledger: the entry plus its block hash.

    Slotted, like :class:`CommittedEntry` and :class:`SequenceNumber` under
    it: every replica keeps one of each per appended transaction.  What the
    record's place in the ledger gives is not stored: its position is its
    index + 1, and its previous hash is the prior record's ``block_hash``
    (:data:`GENESIS_HASH` for the first).
    """

    entry: CommittedEntry
    block_hash: bytes


#: What :class:`SharedPositions` keeps per position: the inputs a hit must
#: equal (transaction digest, previous hash), then the shared outputs
#: (sequence number, entry digest, block hash).
_Shared = Tuple[bytes, bytes, SequenceNumber, bytes, bytes]


class SharedPositions:
    """One copy per domain of what its replicas compute identically.

    Every honest replica of a height-1 domain appends the same transaction at
    the same position after the same previous hash, so the entry's
    :class:`SequenceNumber` (with its position ``int``), its canonical digest
    and the record's block hash are equal on all of them.  The first replica
    to append a position leaves the three here, keyed by the position; a
    replica appending that position takes them only when its transaction
    digest and previous hash equal the ones they were computed from (its
    sequence parts are equal by construction: only single-part sequences,
    this domain's position alone, are shared).  A replica whose inputs differ
    (a Byzantine one, one lagging more than :data:`SHARED_WINDOW` positions
    behind, one rebuilding its ledger after a wipe) computes its own.
    """

    __slots__ = ("_positions", "_latest")

    def __init__(self) -> None:
        self._positions: Dict[int, _Shared] = {}
        self._latest = 0

    def __len__(self) -> int:
        return len(self._positions)

    def take(
        self, position: int, transaction_digest: bytes, previous_hash: bytes
    ) -> Optional[_Shared]:
        """What ``position`` holds, if it was computed from equal inputs."""
        shared = self._positions.get(position)
        if (
            shared is None
            or shared[0] != transaction_digest
            or shared[1] != previous_hash
        ):
            return None
        return shared

    def offer(self, position: int, previous_hash: bytes, record: "ChainRecord") -> None:
        """Keep ``record``'s computed values if it is the first at a new
        position (``previous_hash``: the hash it was chained after)."""
        if position <= self._latest:
            return
        self._latest = position
        entry = record.entry
        positions = self._positions
        positions[position] = (
            entry.transaction.canonical_bytes(),
            previous_hash,
            entry.sequence,
            entry.canonical_bytes(),
            record.block_hash,
        )
        if len(positions) > SHARED_WINDOW:
            del positions[next(iter(positions))]


class LinearLedger:
    """The append-only, hash-chained ledger of one height-1 domain.

    ``shared`` is the domain's :class:`SharedPositions`, held by every
    replica's ledger (``None``: a ledger on its own computes everything).
    Only :meth:`append_transaction`, a replica sequencing a decided
    transaction, uses it; entries appended verbatim (WAL replay, catch-up)
    are hashed by this ledger.
    """

    def __init__(
        self, domain: DomainId, shared: Optional[SharedPositions] = None
    ) -> None:
        self._domain = domain
        self._shared = shared
        self._records: List[ChainRecord] = []
        self._by_tid: Dict[TransactionId, int] = {}

    # -- basic accessors -------------------------------------------------------

    @property
    def domain(self) -> DomainId:
        return self._domain

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ChainRecord]:
        return iter(self._records)

    def __contains__(self, tid: TransactionId) -> bool:
        return tid in self._by_tid

    @property
    def head_hash(self) -> bytes:
        """Hash of the latest record (``GENESIS_HASH`` when empty)."""
        if not self._records:
            return GENESIS_HASH
        return self._records[-1].block_hash

    def next_position(self) -> int:
        """Sequence position the next appended transaction will receive."""
        return len(self._records) + 1

    # -- appending -------------------------------------------------------------

    def append(self, entry: CommittedEntry) -> ChainRecord:
        """Append a committed entry; its sequence must name this domain's slot."""
        position = entry.position_in(self._domain)
        if position is None:
            raise LedgerError(
                f"{entry.tid} carries no sequence part for {self._domain}"
            )
        expected = self.next_position()
        if position != expected:
            raise LedgerError(
                f"{self._domain}: expected position {expected}, got {position} "
                f"for {entry.tid}"
            )
        if entry.tid in self._by_tid:
            raise LedgerError(f"{entry.tid} already appended to {self._domain}")
        block_hash = digest(self.head_hash, entry.canonical_bytes())
        return self._link(position, entry, block_hash)

    def _link(self, position: int, entry: CommittedEntry, block_hash: bytes) -> ChainRecord:
        record = ChainRecord(entry=entry, block_hash=block_hash)
        self._records.append(record)
        self._by_tid[entry.tid] = position
        return record

    def append_transaction(
        self,
        transaction: Transaction,
        status: TransactionStatus = TransactionStatus.COMMITTED,
        commit_time_ms: Optional[float] = None,
        sequence: Optional[SequenceNumber] = None,
    ) -> ChainRecord:
        """Sequence ``transaction`` at the next position and append it.

        ``sequence`` may carry the positions assigned by *other* involved
        domains of a cross-domain transaction; this domain's part is always
        (re)assigned to the next local position.

        Without ``sequence``, the domain's :class:`SharedPositions` is asked
        first: when it holds this position for an equal transaction and
        previous hash, the new record takes its sequence number, entry digest
        and block hash instead of computing its own.
        """
        shared = self._shared if sequence is None else None
        if shared is not None and transaction.tid not in self._by_tid:
            previous_hash = self.head_hash
            taken = shared.take(
                self.next_position(), transaction.canonical_bytes(), previous_hash
            )
            if taken is not None:
                _, _, full, canonical, block_hash = taken
                entry = CommittedEntry(
                    transaction=transaction,
                    sequence=full,
                    status=status,
                    commit_time_ms=commit_time_ms,
                )
                object.__setattr__(entry, "_canonical", canonical)
                # The position ``int`` is the shared sequence number's own.
                return self._link(full.parts[0][1], entry, block_hash)
        local = SequenceNumber.single(self._domain, self.next_position())
        full = local if sequence is None else sequence.merged_with(local)
        entry = CommittedEntry(
            transaction=transaction,
            sequence=full,
            status=status,
            commit_time_ms=commit_time_ms,
        )
        previous_hash = self.head_hash
        record = self.append(entry)
        if shared is not None:
            shared.offer(self._by_tid[transaction.tid], previous_hash, record)
        return record

    # -- queries ----------------------------------------------------------------

    def record_at(self, position: int) -> ChainRecord:
        if not 1 <= position <= len(self._records):
            raise UnknownBlockError(
                f"{self._domain}: no record at position {position}"
            )
        return self._records[position - 1]

    def position_of(self, tid: TransactionId) -> int:
        try:
            return self._by_tid[tid]
        except KeyError as exc:
            raise UnknownBlockError(f"{tid} not in ledger of {self._domain}") from exc

    def entry_of(self, tid: TransactionId) -> CommittedEntry:
        return self.record_at(self.position_of(tid)).entry

    def entries(self) -> List[CommittedEntry]:
        return [record.entry for record in self._records]

    def entries_between(self, start: int, end: int) -> List[CommittedEntry]:
        """Entries at positions ``start``..``end`` inclusive (1-based)."""
        if start < 1 or end > len(self._records) or start > end + 1:
            raise LedgerError(
                f"invalid range [{start}, {end}] for ledger of length {len(self)}"
            )
        return [record.entry for record in self._records[start - 1 : end]]

    def committed_order(self) -> List[TransactionId]:
        """Transaction ids in ledger order."""
        return [record.entry.tid for record in self._records]

    def relative_order(self, first: TransactionId, second: TransactionId) -> int:
        """-1 if ``first`` precedes ``second``, 1 if it follows, 0 if equal."""
        a, b = self.position_of(first), self.position_of(second)
        if a < b:
            return -1
        if a > b:
            return 1
        return 0

    def mark_status(self, tid: TransactionId, status: TransactionStatus) -> None:
        """Rewrite the status of an entry (used for optimistic aborts).

        Only the status changes; position and hashes are preserved because the
        ledger is append-only — an abort is recorded as a status flip plus a
        later compensating entry at the application level if needed.
        """
        position = self.position_of(tid)
        record = self._records[position - 1]
        self._records[position - 1] = ChainRecord(
            entry=record.entry.with_status(status), block_hash=record.block_hash
        )

    # -- integrity ---------------------------------------------------------------

    def verify_integrity(self) -> bool:
        """Re-check every chaining hash, each from the hash before it; raises
        on tampering (an entry or a block hash changed breaks the chain at
        its position)."""
        previous = GENESIS_HASH
        for index, record in enumerate(self._records, start=1):
            expected = digest(previous, record.entry.canonical_bytes())
            if record.block_hash != expected:
                raise ChainIntegrityError(
                    f"{self._domain}: hash mismatch at position {index}"
                )
            previous = record.block_hash
        return True
