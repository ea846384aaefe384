"""Blockchain state: the versioned datastore updated by executing transactions.

Every domain replicates a :class:`StateStore` on all of its nodes (§3).
Height-1 domains hold the full application state for their locality; height-2
and above domains hold only a *summarized* view produced by the abstraction
function λ (§5), managed by :mod:`repro.ledger.abstraction`.

The store is a versioned key-value map whose *versioned bookkeeping* is
**sharded**: keys map to one of ``shards`` account shards by a stable hash,
and each shard counts its writes, in total and per key.  The
key-value content itself stays one map (reads are O(1) and key iteration
order is shard-count independent); the shard counts are what the control
plane's heat measurement and shard splitting read.

The store keeps values, not history: every write bumps a global version and
moves its key to the end of one version-ordered ``key -> latest version``
map.  ``delta_since(v)`` walks that map backwards until a version <= v, so it
costs the keys written since ``v`` and returns each with its current value,
in the order of their latest writes, for every ``v`` (0 included).  Retained
bookkeeping is bounded by the keys, not by the writes.

The store's Merkle root (:meth:`StateStore.state_root`, what a durable
checkpoint certifies) follows the same map: each call re-hashes only the
keys written since the previous one and the tree nodes on their paths.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.crypto.digests import digest
from repro.crypto.merkle import hash_leaf, refresh_paths, tree_levels
from repro.errors import InsufficientBalanceError, StateError, UnknownAccountError

__all__ = ["StateStore", "shard_of_key", "state_leaf"]


def shard_of_key(key: str, shards: int) -> int:
    """Stable key→shard mapping (CRC32, so identical across processes/runs)."""
    if shards <= 1:
        return 0
    return zlib.crc32(key.encode("utf-8")) % shards


def state_leaf(key: str, value: Any) -> bytes:
    """The hashed Merkle leaf of one key in a state root: sorted keys, each
    leaf over ``digest(key, repr(value))``."""
    return hash_leaf(digest(key, repr(value)))


def _replace_leaf(node: Any, leaf: int, replacement: Any) -> Tuple[Any, bool]:
    """Replace the routing-trie leaf ``leaf`` with ``replacement`` (once)."""
    if isinstance(node, int):
        if node == leaf:
            return replacement, True
        return node, False
    left, found = _replace_leaf(node[0], leaf, replacement)
    if found:
        return [left, node[1]], True
    right, found = _replace_leaf(node[1], leaf, replacement)
    return [node[0], right], found


class StateStore:
    """A sharded, versioned key-value store with numeric-balance helpers."""

    def __init__(self, name: str = "state", shards: int = 1) -> None:
        if shards < 1:
            raise StateError(f"{name}: shards must be >= 1, got {shards}")
        self._name = name
        self._data: Dict[str, Any] = {}
        self._version = 0
        #: Per shard, the writes each of its keys has taken (keys in the
        #: order of their first write to the shard), and their sum.
        self._key_writes: List[Dict[str, int]] = [{} for _ in range(shards)]
        self._shard_writes: List[int] = [0] * shards
        #: Key routing.  While empty, keys route by ``shard_of_key`` over the
        #: original shard count (the historical fast path, bit-identical to
        #: pre-split stores).  After the first :meth:`split_shard` it becomes
        #: a per-base-slot trie whose inner nodes branch on successive bits
        #: of ``crc32(key) // base`` and whose leaves are shard indices.
        self._base = shards
        self._routing: List[Any] = []
        #: Every key ever written and the version of its latest write, ordered
        #: by that version (a write moves its key to the end), so the keys
        #: written after any version are a suffix of the map.
        self._latest_version: Dict[str, int] = {}
        #: The state root's Merkle levels over the sorted keys as of write
        #: version ``_root_version``, and each key's leaf position there.
        #: Only :meth:`state_root` reads or updates them; writes never do.
        self._root_version = 0
        self._root_levels: List[List[bytes]] = tree_levels(())
        self._root_position: Dict[str, int] = {}

    # -- generic key-value interface --------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def version(self) -> int:
        """Monotonic counter incremented on every write."""
        return self._version

    @property
    def shard_count(self) -> int:
        return len(self._key_writes)

    @property
    def base_shards(self) -> int:
        """The configured shard count before any splits."""
        return self._base

    @property
    def split_count(self) -> int:
        """How many :meth:`split_shard` calls this store has absorbed."""
        return len(self._key_writes) - self._base

    def shard_of(self, key: str) -> int:
        """The shard ``key`` lives in (stable across runs and processes)."""
        if not self._routing:
            return shard_of_key(key, self._base)
        digest = zlib.crc32(key.encode("utf-8"))
        node: Any = self._routing[digest % self._base]
        bits = digest // self._base
        while not isinstance(node, int):
            node = node[bits & 1]
            bits >>= 1
        return node

    def shards_of(self, keys: Iterable[str]) -> Tuple[int, ...]:
        """Sorted distinct shards the given keys live in (the *footprint*)."""
        return tuple(sorted({self.shard_of(key) for key in keys}))

    def keys_of_shard(self, shard: int) -> Tuple[str, ...]:
        """Current keys living in ``shard`` (never-written keys cannot exist)."""
        self._check_shard(shard)
        return tuple(
            key for key in self._key_writes[shard] if key in self._data
        )

    def shard_write_counts(self) -> Tuple[int, ...]:
        """Writes taken per shard (sums to the global version counter)."""
        return tuple(self._shard_writes)

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < len(self._key_writes):
            raise StateError(
                f"{self._name}: shard {shard} outside [0, {len(self._key_writes)})"
            )

    # -- shard splitting ----------------------------------------------------------

    def split_shard(self, parent: int) -> int:
        """Split ``parent``'s key range in two; returns the new child's index.

        Keys currently routed to ``parent`` re-partition by the next unused
        bit of their hash: roughly half stay, the rest move to the child
        shard (index ``shard_count`` before the call).  Both shards inherit
        the parent's write counts for their own keys — the global version
        counter, the key-value content and ``delta_since`` are untouched — so
        the split only redirects *future* bookkeeping (and with it
        execution-lane placement), never commit order.
        """
        self._check_shard(parent)
        if not self._routing:
            self._routing = list(range(self._base))
        child_index = len(self._key_writes)
        for slot, node in enumerate(self._routing):
            replaced, found = _replace_leaf(node, parent, [parent, child_index])
            if found:
                self._routing[slot] = replaced
                break
        else:  # pragma: no cover - _check_shard already rejects bad indices
            raise StateError(f"{self._name}: shard {parent} is not routable")
        kept: Dict[str, int] = {}
        moved: Dict[str, int] = {}
        for key, count in self._key_writes[parent].items():
            (kept if self.shard_of(key) == parent else moved)[key] = count
        self._key_writes[parent] = kept
        self._key_writes.append(moved)
        self._shard_writes.append(sum(moved.values()))
        self._shard_writes[parent] -= self._shard_writes[-1]
        return child_index

    def verify_partition(self) -> Tuple[str, ...]:
        """Check the shards exactly partition the bookkeeping (post-split).

        Returns human-readable violations (empty tuple = store is sound):
        every per-key count must sit in the shard its key routes to, each
        shard's total must be its keys' sum, and the totals must sum to the
        global version counter.
        """
        problems: List[str] = []
        for index, counts in enumerate(self._key_writes):
            for key in counts:
                route = self.shard_of(key)
                if route != index:
                    problems.append(
                        f"key {key!r} sits in shard {index} but routes to {route}"
                    )
            if sum(counts.values()) != self._shard_writes[index]:
                problems.append(f"shard {index}'s write total is not its keys' sum")
        total_writes = sum(self._shard_writes)
        if total_writes != self._version:
            problems.append(
                f"shards took {total_writes} writes, version counter "
                f"is {self._version}"
            )
        return tuple(problems)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data.keys())

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def read(self, key: str) -> Any:
        """Strict read; raises :class:`StateError` when the key is absent."""
        if key not in self._data:
            raise StateError(f"{self._name}: unknown key {key!r}")
        return self._data[key]

    def put(self, key: str, value: Any) -> int:
        """Write ``value`` under ``key``; returns the new store version."""
        version = self._version = self._version + 1
        self._data[key] = value
        shard = self.shard_of(key)
        counts = self._key_writes[shard]
        counts[key] = counts.get(key, 0) + 1
        self._shard_writes[shard] += 1
        self._latest_version.pop(key, None)
        self._latest_version[key] = version
        return version

    def increment(self, key: str, amount: float = 1) -> Any:
        """Add ``amount`` to a numeric key (creating it at 0 when absent)."""
        current = self._data.get(key, 0)
        if not isinstance(current, (int, float)):
            raise StateError(f"{self._name}: key {key!r} is not numeric")
        new_value = current + amount
        self.put(key, new_value)
        return new_value

    # -- account helpers (micropayment-style balances) ----------------------------

    def create_account(self, account: str, balance: float = 0) -> None:
        if balance < 0:
            raise StateError("initial balance must be non-negative")
        if account in self._data:
            raise StateError(f"{self._name}: account {account!r} already exists")
        self.put(account, balance)

    def has_account(self, account: str) -> bool:
        return account in self._data

    def balance(self, account: str) -> float:
        if account not in self._data:
            raise UnknownAccountError(f"{self._name}: unknown account {account!r}")
        value = self._data[account]
        if not isinstance(value, (int, float)):
            raise StateError(f"{self._name}: key {account!r} is not a balance")
        return value

    def deposit(self, account: str, amount: float) -> float:
        if amount < 0:
            raise StateError("deposit amount must be non-negative")
        if account not in self._data:
            raise UnknownAccountError(f"{self._name}: unknown account {account!r}")
        return self.increment(account, amount)

    def withdraw(self, account: str, amount: float) -> float:
        if amount < 0:
            raise StateError("withdrawal amount must be non-negative")
        current = self.balance(account)
        if current < amount:
            raise InsufficientBalanceError(
                f"{self._name}: {account!r} holds {current}, cannot withdraw {amount}"
            )
        return self.increment(account, -amount)

    def transfer(self, sender: str, recipient: str, amount: float) -> None:
        """Atomically move ``amount`` from ``sender`` to ``recipient``."""
        self.withdraw(sender, amount)
        try:
            self.deposit(recipient, amount)
        except StateError:
            # Roll the withdrawal back so a failed transfer leaves no trace.
            self.increment(sender, amount)
            raise

    # -- versions, deltas, snapshots -----------------------------------------------

    def _written_after(self, version: int) -> List[str]:
        """Keys whose latest write is newer than ``version``, newest first."""
        keys: List[str] = []
        for key, written in reversed(self._latest_version.items()):
            if written <= version:
                break
            keys.append(key)
        return keys

    def delta_since(self, version: int) -> Dict[str, Any]:
        """Current value of every key written after ``version``, in the order
        of their latest writes; a removed key reads ``None``.

        Extraction is proportional to the keys written since ``version``,
        never to the store.
        """
        if version < 0 or version > self._version:
            raise StateError(
                f"{self._name}: version {version} outside [0, {self._version}]"
            )
        data = self._data
        return {key: data.get(key) for key in reversed(self._written_after(version))}

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the full key-value content."""
        return dict(self._data)

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace the content with ``snapshot`` (used for rollbacks).

        The version counter keeps advancing so deltas computed across a
        restore still observe every key that changed.  Removed keys are
        tombstoned in sorted order, so the write order (and with it a
        delta's key order) does not depend on the string-hash seed.
        """
        removed = sorted(set(self._data) - set(snapshot))
        for key, value in snapshot.items():
            if key not in self._data or self._data[key] != value:
                self.put(key, value)
        for key in removed:
            self.put(key, None)
            del self._data[key]

    def state_root(self) -> bytes:
        """Merkle root of the content, equal to
        :func:`~repro.recovery.wal.state_root_of` over :meth:`snapshot`.

        Maintained from the latest-version map: a call re-hashes only the
        keys written since the previous call and recomputes the tree nodes on
        their paths.  A key inserted or removed since then changes the leaf
        positions, so the interior is rebuilt from the kept leaf hashes.  A
        new store starts from the empty tree.
        """
        changed = set(self._written_after(self._root_version))
        self._root_version = self._version
        data, position = self._data, self._root_position
        leaves = self._root_levels[0]
        if all((key in data) == (key in position) for key in changed):
            rewritten = [key for key in changed if key in position]
            for key in rewritten:
                leaves[position[key]] = state_leaf(key, data[key])
            refresh_paths(self._root_levels, [position[key] for key in rewritten])
        else:
            keys = sorted(data)
            self._root_levels = tree_levels([
                state_leaf(key, data[key]) if key in changed else leaves[position[key]]
                for key in keys
            ])
            self._root_position = {key: index for index, key in enumerate(keys)}
        return self._root_levels[-1][0]

    def remove(self, key: str) -> None:
        """Remove ``key``, writing a ``None`` tombstone first.

        Used by speculative rollback to unwind a write that *created* a key:
        the version counter keeps advancing (exactly as :meth:`restore` does
        for removed keys) so deltas computed across the rollback still
        observe the key.
        """
        if key not in self._data:
            raise StateError(f"{self._name}: unknown key {key!r}")
        self.put(key, None)
        del self._data[key]

    def totals(self, prefix: str = "") -> float:
        """Sum of all numeric values whose key starts with ``prefix``."""
        return sum(
            value
            for key, value in self._data.items()
            if key.startswith(prefix) and isinstance(value, (int, float))
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"StateStore({self._name}, keys={len(self._data)}, "
            f"v={self._version}, shards={len(self._key_writes)})"
        )
