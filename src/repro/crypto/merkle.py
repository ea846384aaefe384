"""Merkle hash trees.

Block messages propagated up the hierarchy (§5) include the Merkle hash tree
of the transactions they carry so that higher-level domains can verify the
content of a block without trusting the sending primary.  The implementation
supports building the tree, obtaining the root, and generating / verifying
inclusion proofs for individual leaves.

The tree shape — leaf hash, node hash, an odd last node promoted unchanged —
lives in :func:`hash_leaf`, :func:`_hash_node` and :func:`_parent_node`.
:class:`MerkleTree` builds whole trees from them, and a state store's
checkpoint root keeps its levels between checkpoints and re-hashes only the
paths above changed leaves with :func:`refresh_paths`, so both roots are the
same function of the same leaves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.errors import CryptoError

__all__ = [
    "MerkleTree",
    "MerkleProof",
    "EMPTY_ROOT",
    "hash_leaf",
    "tree_levels",
    "refresh_paths",
]

#: Root of a tree with no leaves.
EMPTY_ROOT = hashlib.sha256(b"saguaro-empty-merkle").digest()


def hash_leaf(leaf: bytes) -> bytes:
    """Hash of one leaf (domain-separated from interior nodes)."""
    return hashlib.sha256(b"\x00" + leaf).digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def _parent_node(level: Sequence[bytes], index: int) -> bytes:
    """Node ``index`` of the level above ``level``: its two children hashed,
    or an odd last child promoted unchanged (Bitcoin-style duplication is
    avoided to keep proofs unambiguous)."""
    left = 2 * index
    if left + 1 == len(level):
        return level[left]
    return _hash_node(level[left], level[left + 1])


def tree_levels(leaf_hashes: Sequence[bytes]) -> List[List[bytes]]:
    """Every level of the tree over already-hashed leaves, leaves first and
    the one-node root level last (``[[EMPTY_ROOT]]`` for no leaves)."""
    if not leaf_hashes:
        return [[EMPTY_ROOT]]
    level = list(leaf_hashes)
    levels = [level]
    while len(level) > 1:
        level = [_parent_node(level, index) for index in range((len(level) + 1) // 2)]
        levels.append(level)
    return levels


def refresh_paths(levels: List[List[bytes]], positions: Iterable[int]) -> None:
    """Recompute, in place, every node above the leaves at ``positions``.

    ``levels`` is a :func:`tree_levels` result whose leaf hashes at
    ``positions`` were replaced (the leaf count is unchanged).  Each level
    re-hashes only the parents of the nodes changed below it, so the work is
    proportional to the changed leaves times the tree height.
    """
    changed = set(positions)
    for below, level in zip(levels, levels[1:]):
        changed = {index // 2 for index in changed}
        for index in changed:
            level[index] = _parent_node(below, index)


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf.

    ``path`` lists ``(sibling_hash, sibling_is_right)`` pairs from the leaf up
    to (but not including) the root.
    """

    leaf_index: int
    leaf_hash: bytes
    path: Tuple[Tuple[bytes, bool], ...]

    def verify(self, root: bytes) -> bool:
        """Check that this proof links the leaf to ``root``."""
        current = self.leaf_hash
        for sibling, sibling_is_right in self.path:
            if sibling_is_right:
                current = _hash_node(current, sibling)
            else:
                current = _hash_node(sibling, current)
        return current == root


class MerkleTree:
    """A binary Merkle tree over an ordered sequence of byte-string leaves.

    Odd nodes at any level are promoted unchanged (see :func:`_parent_node`).
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        self._leaves = [bytes(leaf) for leaf in leaves]
        self._levels: List[List[bytes]] = []
        self._build()

    def _build(self) -> None:
        self._levels = tree_levels([hash_leaf(leaf) for leaf in self._leaves])

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def root(self) -> bytes:
        """Root hash of the tree (``EMPTY_ROOT`` for an empty tree)."""
        return self._levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not self._leaves:
            raise CryptoError("cannot prove inclusion in an empty tree")
        if not 0 <= index < len(self._leaves):
            raise CryptoError(f"leaf index {index} out of range")
        path: List[Tuple[bytes, bool]] = []
        position = index
        for level in self._levels[:-1]:
            sibling_is_right = position % 2 == 0
            sibling_index = position + 1 if sibling_is_right else position - 1
            if sibling_index < len(level):
                path.append((level[sibling_index], sibling_is_right))
            position //= 2
        return MerkleProof(
            leaf_index=index,
            leaf_hash=hash_leaf(self._leaves[index]),
            path=tuple(path),
        )

    @classmethod
    def root_of(cls, leaves: Sequence[bytes]) -> bytes:
        """Convenience helper returning only the root of ``leaves``."""
        return cls(leaves).root
