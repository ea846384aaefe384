"""Compute-once caches: a cached value never outlives the content it was derived from.

``Transaction`` / ``CommittedEntry`` keep their canonical bytes, the four
identifier types keep their hash and their name, and ``payload_digest_of``
keeps the
``repr``-digest of a frozen payload on the instance.  Every cache sits on a
field that takes no part in ``__init__``, ``repr`` or comparison, so an object
built from another one — ``replace()``, a hand-built copy, a forged payload —
starts cold and is digested from its own content.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import pytest

import repro.ledger.transaction as transaction_module
from repro.common.types import (
    ClientId,
    DomainId,
    NodeId,
    SequenceNumber,
    TransactionId,
    TransactionKind,
    TransactionStatus,
)
from repro.consensus.base import payload_digest_of
from repro.core.messages import InternalOrder
from repro.errors import LedgerError
from repro.faults.behaviors import _forge_payload
from repro.ledger.block import BlockMessage
from repro.ledger.chain import SHARED_WINDOW, LinearLedger, SharedPositions
from repro.ledger.dag import DagLedger
from repro.ledger.transaction import CommittedEntry, Transaction
from repro.scenarios import materialize, registry

D01, D11, D12, D21 = DomainId(0, 1), DomainId(1, 1), DomainId(1, 2), DomainId(2, 1)
CLIENT = ClientId(home=D01, index=3)


def _fields(amount=5.0, number=7):
    return dict(
        tid=TransactionId(number=number, origin=CLIENT),
        kind=TransactionKind.CROSS_DOMAIN,
        involved_domains=(D11, D12),
        payload={"op": "transfer", "sender": "a", "recipient": "b", "amount": amount},
        read_keys=("a", "b"),
        write_keys=("a", "b"),
        client=CLIENT,
    )


def _entry(transaction, positions=((D11, 1),)):
    return CommittedEntry(
        transaction=transaction, sequence=SequenceNumber.multi(positions)
    )


class TestCanonicalBytes:
    def test_derived_transactions_start_cold(self):
        warm = Transaction(**_fields())
        warm_bytes = warm.canonical_bytes()
        assert warm.canonical_bytes() is warm_bytes  # computed once
        assert warm_bytes == Transaction(**_fields()).canonical_bytes()
        replaced = replace(warm, payload={**warm.payload, "amount": 6.0})
        rebuilt = Transaction(**_fields(amount=6.0))
        assert replaced.canonical_bytes() == rebuilt.canonical_bytes() != warm_bytes

    def test_derived_entries_digest_as_a_cold_object_would(self):
        transaction = Transaction(**_fields())
        warm = _entry(transaction)
        warm_bytes = warm.canonical_bytes()
        merged = SequenceNumber.multi(((D11, 1), (D12, 4)))
        resequenced = warm.with_sequence(merged)
        assert resequenced.canonical_bytes() != warm_bytes
        assert (
            resequenced.canonical_bytes()
            == _entry(Transaction(**_fields()), merged.parts).canonical_bytes()
        )
        # The status is not part of an entry's identity — but the aborted entry
        # derives that from its own content, not from a copied cache.
        aborted = warm.with_status(TransactionStatus.ABORTED)
        assert aborted._canonical is None
        assert aborted.canonical_bytes() == warm_bytes

    def test_repr_and_equality_ignore_the_cache(self):
        warm_tx, cold_tx = Transaction(**_fields()), Transaction(**_fields())
        warm_entry, cold_entry = _entry(warm_tx), _entry(cold_tx)
        warm_entry.canonical_bytes()
        assert warm_tx._canonical is not None and cold_tx._canonical is None
        assert repr(warm_tx) == repr(cold_tx) and warm_tx == cold_tx
        assert repr(warm_entry) == repr(cold_entry) and warm_entry == cold_entry
        assert "_canonical" not in repr(warm_entry)

    def test_copies_compare_equal(self):
        entry = _entry(Transaction(**_fields()))
        entry.canonical_bytes()
        for clone in (pickle.loads(pickle.dumps(entry)), copy.deepcopy(entry)):
            assert clone == entry
            assert clone.canonical_bytes() == entry.canonical_bytes()


#: (type, field values, field values of a larger identifier)
IDENTIFIERS = [
    (DomainId, (1, 2), (1, 3)),
    (NodeId, (D11, 2), (D12, 1)),
    (ClientId, (D01, 3), (D01, 4)),
    (TransactionId, (5, CLIENT), (6, CLIENT)),
    (TransactionId, (5, None), (6, None)),
]


class TestIdentifierHashes:
    @pytest.mark.parametrize("cls, args, larger_args", IDENTIFIERS)
    def test_hash_is_the_generated_one(self, cls, args, larger_args):
        # Any other value would reorder set iteration and move traces.
        assert hash(cls(*args)) == hash(args)
        replaced = replace(cls(*args), **dict(zip(cls.__match_args__, larger_args)))
        assert replaced == cls(*larger_args) and hash(replaced) == hash(larger_args)

    @pytest.mark.parametrize("cls, args, larger_args", IDENTIFIERS)
    def test_value_semantics_unchanged(self, cls, args, larger_args):
        one, other, larger = cls(*args), cls(*args), cls(*larger_args)
        assert one == other and hash(one) == hash(other) and repr(one) == repr(other)
        assert "_hash" not in repr(one)
        assert one < larger and not larger < one and one != larger
        assert sorted({larger, one, other}) == [one, larger]

    @pytest.mark.parametrize("cls, args, larger_args", IDENTIFIERS)
    def test_copies_compare_and_hash_equal(self, cls, args, larger_args):
        original = cls(*args)
        for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert clone == original and hash(clone) == hash(original)
            assert clone in {original}

    def test_origin_less_id_rehashes_in_another_process(self):
        # ``hash(None)`` is per-process before Python 3.12, so the cached hash
        # must be recomputed, not restored, when an id crosses processes.
        script = (
            "import pickle, sys\n"
            "from repro.common.types import TransactionId\n"
            "tid = pickle.loads(sys.stdin.buffer.read())\n"
            "assert hash(tid) == hash((5, None)) and tid in {TransactionId(5)}\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(TransactionId(5)),
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            check=True,
            timeout=60,
        )


class TestIdentifierNames:
    """The four identifier types build their ``name`` once, in ``_name``."""

    @pytest.mark.parametrize(
        "ident, expected",
        [
            (DomainId(1, 2), "D12"),
            (DomainId(0, 13), "D013"),
            (NodeId(D21, 3), "D21/n3"),
            (CLIENT, "D01/c3"),
            (TransactionId(5, CLIENT), "tx5@D01/c3"),
            (TransactionId(5), "tx5@system"),
        ],
    )
    def test_name_is_the_f_string_it_replaces(self, ident, expected):
        assert ident.name == str(ident) == expected
        assert ident.name is ident.name  # one shared string, not one per read

    @pytest.mark.parametrize(
        "cls, args",
        [
            (DomainId, (1, 2)),
            (NodeId, (D11, 2)),
            (ClientId, (D01, 3)),
            (TransactionId, (5, CLIENT)),
        ],
    )
    def test_cache_takes_no_part_in_init_repr_or_comparison(self, cls, args):
        assert "_name" not in cls.__match_args__
        with pytest.raises(TypeError):
            cls(*args, _name="forged")
        one, other = cls(*args), cls(*args)
        assert "_name" not in repr(one)
        object.__setattr__(other, "_name", "forged")
        assert one == other and not one < other and hash(one) == hash(other)

    def test_derived_ids_are_named_from_their_own_content(self):
        assert replace(D11, index=4).name == "D14"
        assert replace(NodeId(D11, 2), domain=D12).name == "D12/n2"
        assert replace(NodeId(D11, 2), index=0).name == "D11/n0"
        assert replace(CLIENT, index=4).name == "D01/c4"
        assert replace(CLIENT, home=DomainId(0, 2)).name == "D02/c3"
        assert replace(TransactionId(5, CLIENT), number=6).name == "tx6@D01/c3"
        assert replace(TransactionId(5, CLIENT), origin=None).name == "tx5@system"
        assert replace(TransactionId(5), origin=CLIENT).name == "tx5@D01/c3"
        for original in (
            D21,
            NodeId(D21, 1),
            CLIENT,
            TransactionId(5, CLIENT),
            TransactionId(5),
        ):
            for clone in (
                copy.copy(original),
                copy.deepcopy(original),
                pickle.loads(pickle.dumps(original)),
            ):
                assert clone.name == original.name and clone == original

    def test_names_match_in_another_process(self):
        script = (
            "import pickle, sys\n"
            "client, tid, bare = pickle.loads(sys.stdin.buffer.read())\n"
            "assert client.name == 'D01/c3', client.name\n"
            "assert tid.name == 'tx5@D01/c3' and tid.origin.name == 'D01/c3'\n"
            "assert bare.name == 'tx5@system', bare.name\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps((CLIENT, TransactionId(5, CLIENT), TransactionId(5))),
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            check=True,
            timeout=60,
        )


class TestPayloadDigests:
    def test_forged_payload_of_a_warm_original_digests_differently(self):
        original = InternalOrder(Transaction(**_fields()), "client", received_at=1.0)
        warm = payload_digest_of(original)
        assert payload_digest_of(original) is warm  # computed once
        forged = _forge_payload(original)
        assert forged.transaction.tid == original.transaction.tid
        assert payload_digest_of(forged) != warm
        cold = InternalOrder(Transaction(**_fields()), "client", received_at=1.0)
        assert repr(original) == repr(cold) and original == cold

    def test_block_of_warm_entries_with_a_foreign_root_is_rejected(self):
        entries = tuple(
            _entry(Transaction(**_fields(number=n)), ((D11, n),)) for n in (1, 2)
        )
        genuine = BlockMessage.build(domain=D11, round_number=1, entries=entries)
        assert genuine.verify_merkle_root()  # every entry's cache is warm now
        other = BlockMessage.build(domain=D11, round_number=1, entries=entries[:1])
        spliced = replace(genuine, merkle_root=other.merkle_root)
        assert not spliced.verify_merkle_root()
        with pytest.raises(LedgerError):
            DagLedger(D21).integrate_block(spliced, D11)


class TestSharedPositions:
    """Replicas of one domain share a position's sequence number, entry digest
    and block hash only when they computed them from equal inputs."""

    def _replicas(self, count=2):
        shared = SharedPositions()
        return [LinearLedger(D11, shared) for _ in range(count)]

    def test_equal_appends_share_one_copy(self):
        first, second = self._replicas()
        transaction = Transaction(**_fields())
        mine = first.append_transaction(transaction, commit_time_ms=1.0)
        theirs = second.append_transaction(transaction, commit_time_ms=2.0)
        assert theirs.entry.sequence is mine.entry.sequence
        assert second.position_of(transaction.tid) is first.position_of(transaction.tid)
        assert theirs.entry.canonical_bytes() is mine.entry.canonical_bytes()
        assert theirs.block_hash is mine.block_hash
        assert theirs.entry.commit_time_ms == 2.0  # the entry stays the replica's
        assert second.verify_integrity()

    @pytest.mark.parametrize(
        "other", [_fields(number=8), _fields(amount=6.0)], ids=["tid", "payload"]
    )
    def test_a_different_transaction_at_the_position_gets_its_own_digest(self, other):
        first, second = self._replicas()
        mine = first.append_transaction(Transaction(**_fields()))
        theirs = second.append_transaction(Transaction(**other))
        alone = LinearLedger(D11).append_transaction(Transaction(**other))
        assert theirs.entry.canonical_bytes() != mine.entry.canonical_bytes()
        assert theirs.entry.canonical_bytes() == alone.entry.canonical_bytes()
        assert theirs.block_hash != mine.block_hash
        assert theirs.block_hash == alone.block_hash
        assert second.verify_integrity()

    def test_a_different_previous_hash_gets_its_own_block_hash(self):
        first, second = self._replicas()
        first.append_transaction(Transaction(**_fields(number=1)))
        second.append_transaction(Transaction(**_fields(number=2)))
        transaction = Transaction(**_fields(number=3))
        mine = first.append_transaction(transaction)
        theirs = second.append_transaction(transaction)
        assert second.record_at(1).block_hash != first.record_at(1).block_hash
        assert theirs.block_hash != mine.block_hash
        assert theirs.entry.sequence is not mine.entry.sequence
        assert theirs.block_hash == _lone_chain_head(
            [_fields(number=2), _fields(number=3)]
        )
        assert second.verify_integrity()

    def test_a_replica_behind_the_window_computes_its_own(self):
        leader, laggard = self._replicas()
        transactions = [
            Transaction(**_fields(number=n)) for n in range(1, SHARED_WINDOW + 2)
        ]
        records = [leader.append_transaction(t) for t in transactions]
        assert len(leader._shared) == SHARED_WINDOW
        late = laggard.append_transaction(transactions[0])
        assert late.block_hash == records[0].block_hash
        assert late.block_hash is not records[0].block_hash
        caught_up = laggard.append_transaction(transactions[1])
        assert caught_up.block_hash is records[1].block_hash


def _lone_chain_head(fields):
    """Block hash of the last record of a lone ledger appending ``fields``."""
    ledger = LinearLedger(D11)
    for values in fields:
        record = ledger.append_transaction(Transaction(**values))
    return record.block_hash


def test_each_transaction_and_entry_is_encoded_once(monkeypatch):
    """A count, not a timing: full encodes behind ``canonical_bytes()``.

    One encode per transaction plus two per domain ledger position (the entry
    the domain's replicas share and the one a status flip derives from it) is
    the ceiling; encoding again per digest, per replica or per block message
    blows straight through it (4,018 before the caches, 722 with one entry
    digest per replica, 348 with one per domain position).
    """
    encodes = []
    digest = transaction_module.digest

    def counting(*values):
        encodes.append(1)
        return digest(*values)

    monkeypatch.setattr(transaction_module, "digest", counting)
    scenario = registry.get("fig07a").with_overrides(
        engine="saguaro-optimistic", num_transactions=150, num_clients=8
    )
    run = materialize(scenario, 1)
    result = run.run()
    assert result.summary.committed == 150
    appends = sum(
        len(node.ledger)
        for node in run.deployment.nodes.values()
        if node.ledger is not None
    )
    assert appends == 561
    positions = sum(
        max(len(node.ledger) for node in run.deployment.nodes_of(domain.id))
        for domain in run.deployment.hierarchy.height1_domains()
    )
    assert positions == 187
    assert len(encodes) <= 150 + 2 * positions
