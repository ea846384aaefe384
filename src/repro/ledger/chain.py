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

__all__ = ["ChainRecord", "LinearLedger"]

#: Hash of the (virtual) block before the first one.
GENESIS_HASH = b"\x00" * 32


@dataclass(frozen=True, slots=True)
class ChainRecord:
    """One position of a linear ledger: the entry plus its chaining hashes.

    Slotted, like :class:`CommittedEntry` and :class:`SequenceNumber` under
    it: every replica keeps one of each per appended transaction.
    """

    position: int
    entry: CommittedEntry
    previous_hash: bytes
    block_hash: bytes


class LinearLedger:
    """The append-only, hash-chained ledger of one height-1 domain."""

    def __init__(self, domain: DomainId) -> None:
        self._domain = domain
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
        previous_hash = self.head_hash
        block_hash = digest(previous_hash, entry.canonical_bytes())
        record = ChainRecord(
            position=position,
            entry=entry,
            previous_hash=previous_hash,
            block_hash=block_hash,
        )
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
        """
        local = SequenceNumber.single(self._domain, self.next_position())
        full = local if sequence is None else sequence.merged_with(local)
        entry = CommittedEntry(
            transaction=transaction,
            sequence=full,
            status=status,
            commit_time_ms=commit_time_ms,
        )
        return self.append(entry)

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
            position=record.position,
            entry=record.entry.with_status(status),
            previous_hash=record.previous_hash,
            block_hash=record.block_hash,
        )

    # -- integrity ---------------------------------------------------------------

    def verify_integrity(self) -> bool:
        """Re-check every chaining hash; raises on tampering."""
        previous = GENESIS_HASH
        for index, record in enumerate(self._records, start=1):
            if record.position != index:
                raise ChainIntegrityError(
                    f"{self._domain}: record {index} has position {record.position}"
                )
            if record.previous_hash != previous:
                raise ChainIntegrityError(
                    f"{self._domain}: broken hash chain at position {index}"
                )
            expected = digest(previous, record.entry.canonical_bytes())
            if record.block_hash != expected:
                raise ChainIntegrityError(
                    f"{self._domain}: hash mismatch at position {index}"
                )
            previous = record.block_hash
        return True
