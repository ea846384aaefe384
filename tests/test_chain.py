"""Unit and property tests for the linear (height-1) blockchain ledger."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.common.types import (
    DomainId,
    SequenceNumber,
    TransactionId,
    TransactionKind,
    TransactionStatus,
)
from repro.crypto.digests import digest
from repro.errors import ChainIntegrityError, LedgerError, UnknownBlockError
from repro.ledger.chain import GENESIS_HASH, LinearLedger
from repro.ledger.transaction import CommittedEntry, Transaction

D11, D12 = DomainId(1, 1), DomainId(1, 2)


def _tx(number, domains=(D11,), kind=TransactionKind.INTERNAL):
    return Transaction(
        tid=TransactionId(number=number),
        kind=kind,
        involved_domains=tuple(domains),
        payload={"n": number},
    )


class TestAppend:
    def test_positions_are_consecutive(self):
        ledger = LinearLedger(D11)
        for number in range(1, 6):
            record = ledger.append_transaction(_tx(number))
            assert ledger.position_of(record.entry.tid) == number
            assert ledger.record_at(number) is record
        assert len(ledger) == 5
        assert ledger.next_position() == 6

    def test_first_record_chains_to_genesis(self):
        ledger = LinearLedger(D11)
        record = ledger.append_transaction(_tx(1))
        assert record.block_hash == digest(GENESIS_HASH, record.entry.canonical_bytes())

    def test_hash_chain_links_records(self):
        ledger = LinearLedger(D11)
        first = ledger.append_transaction(_tx(1))
        second = ledger.append_transaction(_tx(2))
        assert second.block_hash == digest(first.block_hash, second.entry.canonical_bytes())
        assert ledger.head_hash == second.block_hash

    def test_duplicate_append_rejected(self):
        ledger = LinearLedger(D11)
        tx = _tx(1)
        ledger.append_transaction(tx)
        with pytest.raises(LedgerError):
            ledger.append_transaction(tx)

    def test_cross_domain_sequence_merges_foreign_parts(self):
        ledger = LinearLedger(D11)
        tx = _tx(5, domains=(D11, D12), kind=TransactionKind.CROSS_DOMAIN)
        record = ledger.append_transaction(
            tx, sequence=SequenceNumber.single(D12, 9)
        )
        assert record.entry.position_in(D11) == 1
        assert record.entry.position_in(D12) == 9

    def test_entry_for_wrong_domain_rejected(self):
        ledger = LinearLedger(D11)
        tx = _tx(1, domains=(D12,))
        entry = CommittedEntry(transaction=tx, sequence=SequenceNumber.single(D12, 1))
        with pytest.raises(LedgerError):
            ledger.append(entry)

    def test_gap_in_positions_rejected(self):
        ledger = LinearLedger(D11)
        tx = _tx(1)
        entry = CommittedEntry(transaction=tx, sequence=SequenceNumber.single(D11, 5))
        with pytest.raises(LedgerError):
            ledger.append(entry)


class TestQueries:
    def test_lookup_by_tid_and_position(self):
        ledger = LinearLedger(D11)
        tx = _tx(7)
        ledger.append_transaction(tx)
        assert ledger.position_of(tx.tid) == 1
        assert ledger.entry_of(tx.tid).tid == tx.tid
        assert ledger.record_at(1).entry.tid == tx.tid
        assert tx.tid in ledger

    def test_unknown_lookups_raise(self):
        ledger = LinearLedger(D11)
        with pytest.raises(UnknownBlockError):
            ledger.position_of(TransactionId(number=404))
        with pytest.raises(UnknownBlockError):
            ledger.record_at(1)

    def test_relative_order(self):
        ledger = LinearLedger(D11)
        first, second = _tx(1), _tx(2)
        ledger.append_transaction(first)
        ledger.append_transaction(second)
        assert ledger.relative_order(first.tid, second.tid) == -1
        assert ledger.relative_order(second.tid, first.tid) == 1
        assert ledger.relative_order(first.tid, first.tid) == 0

    def test_entries_between(self):
        ledger = LinearLedger(D11)
        for number in range(1, 6):
            ledger.append_transaction(_tx(number))
        middle = ledger.entries_between(2, 4)
        assert [entry.position_in(D11) for entry in middle] == [2, 3, 4]
        with pytest.raises(LedgerError):
            ledger.entries_between(0, 3)

    def test_committed_order(self):
        ledger = LinearLedger(D11)
        txs = [_tx(n) for n in (3, 1, 2)]
        for tx in txs:
            ledger.append_transaction(tx)
        assert ledger.committed_order() == [tx.tid for tx in txs]

    def test_mark_status_flips_only_status(self):
        ledger = LinearLedger(D11)
        tx = _tx(1)
        ledger.append_transaction(tx)
        ledger.mark_status(tx.tid, TransactionStatus.ABORTED)
        assert ledger.entry_of(tx.tid).status is TransactionStatus.ABORTED
        assert ledger.verify_integrity()


class TestIntegrity:
    def test_fresh_ledger_verifies(self):
        ledger = LinearLedger(D11)
        for number in range(1, 10):
            ledger.append_transaction(_tx(number))
        assert ledger.verify_integrity()

    def test_tampered_record_detected(self):
        ledger = LinearLedger(D11)
        ledger.append_transaction(_tx(1))
        ledger.append_transaction(_tx(2))
        # Tamper with the stored chain directly.
        record = ledger._records[0]
        ledger._records[0] = type(record)(entry=record.entry, block_hash=b"\x00" * 32)
        with pytest.raises(ChainIntegrityError):
            ledger.verify_integrity()

    def test_tampered_entry_detected(self):
        """A record stores its entry and block hash only: an entry changed
        under an unchanged block hash breaks the chain at its position."""
        ledger = LinearLedger(D11)
        for number in (1, 2, 3):
            ledger.append_transaction(_tx(number))
        record = ledger._records[1]
        forged = replace(record.entry.transaction, payload={"n": 99})
        ledger._records[1] = type(record)(
            entry=replace(record.entry, transaction=forged), block_hash=record.block_hash
        )
        with pytest.raises(ChainIntegrityError, match="position 2"):
            ledger.verify_integrity()

    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=60, unique=True))
    def test_append_sequence_always_verifies(self, numbers):
        ledger = LinearLedger(D11)
        for number in numbers:
            ledger.append_transaction(_tx(number))
        assert ledger.verify_integrity()
        assert [ledger.position_of(r.entry.tid) for r in ledger] == list(
            range(1, len(numbers) + 1)
        )
