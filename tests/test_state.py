"""Unit and property tests for the blockchain state store."""

import tracemalloc
from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from repro.errors import InsufficientBalanceError, StateError, UnknownAccountError
from repro.ledger.state import StateStore
from repro.recovery.wal import state_root_of

#: One write of the oracle's full history.
_Write = namedtuple("_Write", "version key value")


class TestKeyValue:
    def test_put_get_roundtrip(self):
        state = StateStore("s")
        state.put("k", 42)
        assert state.get("k") == 42
        assert "k" in state and len(state) == 1

    def test_strict_read_raises_for_missing_key(self):
        with pytest.raises(StateError):
            StateStore().read("missing")

    def test_version_increments_per_write(self):
        state = StateStore()
        assert state.version == 0
        state.put("a", 1)
        state.put("b", 2)
        state.put("a", 3)
        assert state.version == 3

    def test_increment_creates_and_adds(self):
        state = StateStore()
        assert state.increment("counter", 5) == 5
        assert state.increment("counter", 2) == 7

    def test_increment_non_numeric_rejected(self):
        state = StateStore()
        state.put("k", "text")
        with pytest.raises(StateError):
            state.increment("k")


class TestAccounts:
    def test_create_and_balance(self):
        state = StateStore()
        state.create_account("alice", 100)
        assert state.balance("alice") == 100
        assert state.has_account("alice")

    def test_duplicate_account_rejected(self):
        state = StateStore()
        state.create_account("alice", 1)
        with pytest.raises(StateError):
            state.create_account("alice", 2)

    def test_unknown_account_raises(self):
        with pytest.raises(UnknownAccountError):
            StateStore().balance("ghost")

    def test_transfer_moves_funds(self):
        state = StateStore()
        state.create_account("alice", 100)
        state.create_account("bob", 10)
        state.transfer("alice", "bob", 30)
        assert state.balance("alice") == 70
        assert state.balance("bob") == 40

    def test_overdraft_rejected_and_rolled_back(self):
        state = StateStore()
        state.create_account("alice", 10)
        state.create_account("bob", 0)
        with pytest.raises(InsufficientBalanceError):
            state.transfer("alice", "bob", 100)
        assert state.balance("alice") == 10

    def test_transfer_to_missing_recipient_rolls_back_sender(self):
        state = StateStore()
        state.create_account("alice", 50)
        with pytest.raises(StateError):
            state.transfer("alice", "ghost", 10)
        assert state.balance("alice") == 50

    def test_negative_amounts_rejected(self):
        state = StateStore()
        state.create_account("alice", 50)
        with pytest.raises(StateError):
            state.deposit("alice", -5)
        with pytest.raises(StateError):
            state.withdraw("alice", -5)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 50)),
            max_size=60,
        )
    )
    def test_transfers_conserve_total_balance(self, moves):
        state = StateStore()
        accounts = [f"acct{i}" for i in range(4)]
        for account in accounts:
            state.create_account(account, 1_000)
        total_before = sum(state.balance(a) for a in accounts)
        for sender_i, recipient_i, amount in moves:
            if sender_i == recipient_i:
                continue
            try:
                state.transfer(accounts[sender_i], accounts[recipient_i], amount)
            except InsufficientBalanceError:
                pass
        assert sum(state.balance(a) for a in accounts) == total_before


class TestDeltasAndSnapshots:
    def test_delta_since_reports_latest_values(self):
        state = StateStore()
        state.put("a", 1)
        version = state.version
        state.put("b", 2)
        state.put("a", 3)
        assert state.delta_since(version) == {"b": 2, "a": 3}
        assert state.delta_since(state.version) == {}

    def test_delta_since_invalid_version(self):
        with pytest.raises(StateError):
            StateStore().delta_since(5)

    def test_snapshot_and_restore(self):
        state = StateStore()
        state.put("a", 1)
        snapshot = state.snapshot()
        state.put("a", 2)
        state.put("b", 3)
        state.restore(snapshot)
        assert state.get("a") == 1
        assert state.get("b") is None

    def test_restore_round_trips_none_values_and_removed_keys(self):
        state = StateStore(shards=3)
        state.put("a", 1)
        state.put("kept-none", None)
        state.put("gone-none", None)
        snapshot = {"a": 1, "kept-none": None, "new-none": None, "b": 2}
        state.put("a", 5)
        state.remove("gone-none")
        for key in ("z", "m", "c"):
            state.put(key, key)
        mark = state.version
        state.restore(snapshot)
        assert state.snapshot() == snapshot
        # Removed keys are tombstoned in sorted order, whatever the
        # string-hash seed makes of set iteration.
        tombstones = [key for key in state.delta_since(mark) if key not in snapshot]
        assert tombstones == ["c", "m", "z"]

    def test_totals_by_prefix(self):
        state = StateStore()
        state.put("acct:1", 10)
        state.put("acct:2", 15)
        state.put("other", 99)
        assert state.totals("acct:") == 25

    def test_delta_keys_follow_their_latest_writes(self):
        state = StateStore()
        state.put("a", 1)
        state.put("b", 2)
        state.put("a", 3)
        assert list(state.delta_since(0).items()) == [("b", 2), ("a", 3)]
        assert list(state.delta_since(1)) == ["b", "a"]
        assert list(state.delta_since(2)) == ["a"]


class _MirroredStore(StateStore):
    """A store that keeps the naive single full log as an external oracle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mirror = []

    def put(self, key, value):
        version = super().put(key, value)
        self.mirror.append(_Write(version=version, key=key, value=value))
        return version


def _naive_delta(mirror, version):
    """The latest value of every key written after ``version``, in the order
    of those latest writes, from the full write history."""
    delta = {}
    for record in mirror:
        if record.version > version:
            delta.pop(record.key, None)
            delta[record.key] = record.value
    return delta


class TestDeltaIndexPinning:
    """The log-free delta returns exactly what the naive scan of the full
    write history returns."""

    @staticmethod
    def _churned_store(shards=1):
        import random

        rng = random.Random(42)
        state = _MirroredStore("pinning", shards=shards)
        keys = [f"k{i}" for i in range(17)]
        snapshot = None
        for step in range(400):
            action = rng.random()
            if action < 0.80:
                state.put(rng.choice(keys), rng.randrange(1000))
            elif action < 0.90 or snapshot is None:
                snapshot = state.snapshot()
            else:
                state.restore(snapshot)
        return state

    @pytest.mark.parametrize("shards", [1, 5])
    def test_deltas_match_the_naive_full_log_scan(self, shards):
        state = self._churned_store(shards)
        for version in (0, 1, 7, 100, 399, state.version - 1, state.version):
            assert state.delta_since(version) == _naive_delta(state.mirror, version)

    @pytest.mark.parametrize("shards", [1, 5])
    def test_delta_key_order_matches_the_naive_scan(self, shards):
        state = self._churned_store(shards)
        for since in range(state.version + 1):
            expected = list(_naive_delta(state.mirror, since).items())
            assert list(state.delta_since(since).items()) == expected

    def test_delta_extraction_is_proportional_to_the_suffix(self):
        state = StateStore("hot")
        for i in range(5_000):
            state.put(f"k{i % 50}", i)
        mark = state.version
        state.put("fresh", 1)
        # The walk stops at the first key written at or before `mark`; the
        # naive scan walked 5001 writes.
        assert state.delta_since(mark) == {"fresh": 1}
        assert state._written_after(mark) == ["fresh"]


_KEYS = [f"k{i}" for i in range(12)]

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(_KEYS), st.integers(0, 9)),
        st.tuples(st.just("increment"), st.sampled_from(_KEYS), st.integers(1, 5)),
        st.tuples(st.just("remove"), st.sampled_from(_KEYS)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("split"), st.integers(0, 15)),
        st.tuples(st.just("root")),
    ),
    max_size=60,
)


class TestLogFreeStoreOracle:
    """Random write histories against the full-history mirror: the store
    keeps values, not history, and still answers every version exactly."""

    @pytest.mark.parametrize("shards", [1, 5, 8])
    @given(operations=_OPERATIONS)
    def test_store_matches_its_full_history(self, shards, operations):
        state = _MirroredStore("oracle", shards=shards)
        saved = None
        for operation in operations:
            kind, args = operation[0], operation[1:]
            if kind == "put":
                state.put(*args)
            elif kind == "increment":
                if isinstance(state.get(args[0], 0), (int, float)):
                    state.increment(*args)
            elif kind == "remove":
                if args[0] in state:
                    state.remove(args[0])
            elif kind == "snapshot":
                saved = state.snapshot()
            elif kind == "restore":
                if saved is not None:
                    state.restore(saved)
            elif kind == "split":
                state.split_shard(args[0] % state.shard_count)
            else:
                assert state.state_root() == state_root_of(state.snapshot())
        mirror = state.mirror
        for version in range(state.version + 1):
            expected = _naive_delta(mirror, version)
            assert list(state.delta_since(version).items()) == list(expected.items())
        assert state.state_root() == state_root_of(state.snapshot())
        first_written = list(dict.fromkeys(record.key for record in mirror))
        for index in range(state.shard_count):
            routed = [r for r in mirror if state.shard_of(r.key) == index]
            assert state.shard_write_counts()[index] == len(routed)
            assert state.keys_of_shard(index) == tuple(
                key
                for key in first_written
                if key in state and state.shard_of(key) == index
            )
        assert sum(state.shard_write_counts()) == state.version == len(mirror)
        assert state.verify_partition() == ()


def test_retained_state_is_bounded_by_the_keys():
    """10 k more writes over the same 200 keys retain (almost) nothing: a
    store that kept its write history grew by 2.3 MiB here."""
    state = StateStore("bounded", shards=4)

    def write(count):
        for i in range(count):
            state.put(f"k{i % 200}", i)

    write(10_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write(10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert state.version == 20_000
    assert grown < 64 * 1024
