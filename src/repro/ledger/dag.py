"""DAG-structured ledgers maintained by height-2 and above domains.

Higher-level domains receive block messages from possibly multiple child
domains and order all contained transactions; a cross-domain transaction that
appears in the ledgers of several children must be appended to the parent's
ledger only once, which is why the resulting ledger is a directed acyclic
graph (§5, Figure 3).  The DAG also supports the consistency checking of the
optimistic protocol (§6): once a cross-domain transaction has been reported by
two overlapping child domains, the relative order recorded in its multi-part
sequence numbers can be compared against other transactions sharing the same
pair of domains.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.common.types import DomainId, TransactionId, TransactionStatus
from repro.errors import LedgerError, UnknownBlockError
from repro.ledger.block import BlockMessage
from repro.ledger.transaction import CommittedEntry, domain_pairs

__all__ = [
    "CrossDomainVertex",
    "DagVertex",
    "OrderInconsistency",
    "DagLedger",
    "deterministic_abort_choice",
]


def deterministic_abort_choice(first: TransactionId, second: TransactionId) -> TransactionId:
    """Pick which of two inconsistently ordered transactions to abort.

    The rule must be deterministic so every higher-level domain reaches the
    same decision (§6); following the paper's example, the transaction with
    the lowest identifier is aborted.
    """
    return first if first.number <= second.number else second


#: A vertex's parent edges: none, one parent's id, or a tuple of two or more.
_Parents = Union[None, TransactionId, Tuple[TransactionId, ...]]


def _edges(parents: _Parents) -> Tuple[TransactionId, ...]:
    """The parent ids of a vertex, in the order their edges were recorded."""
    if parents is None:
        return ()
    if type(parents) is tuple:
        return parents
    return (parents,)


class DagVertex:
    """One transaction in the DAG, possibly merged from several children.

    One flat slotted record per vertex: every height-2+ replica holds one for
    each descendant transaction, so its size is the ledger's size.  Which
    involved domains have reported the transaction is a bitmask over
    ``entry.transaction.involved_domains``; the parent edge is the parent's
    transaction id (``None`` for none), becoming a tuple of ids only when a
    merge adds a second parent; and the rounds that delivered the vertex are
    a flat ``(child, round, child, round, ...)`` tuple, keyed by the reporting
    child (at the root a height-2 domain, not an involved one).
    ``parents``, ``reported_by`` and ``rounds`` are built from these on
    demand.  A vertex's place in its ledger's insertion order is not stored:
    only a cross-domain vertex (:class:`CrossDomainVertex`) keeps it, for the
    consistency check.
    """

    __slots__ = ("entry", "_reporters", "_parents", "_rounds")

    def __init__(
        self,
        entry: CommittedEntry,
        parent: Optional[TransactionId] = None,
        rounds: Tuple[object, ...] = (),
    ) -> None:
        self.entry = entry
        self._reporters = _reporter_bits(entry)
        self._parents: _Parents = parent
        self._rounds = rounds

    @property
    def tid(self) -> TransactionId:
        return self.entry.tid

    @property
    def is_cross_domain(self) -> bool:
        return len(self.entry.transaction.involved_domains) > 1

    @property
    def fully_reported(self) -> bool:
        """True once every involved height-1 domain has reported the transaction."""
        involved = self.entry.transaction.involved_domains
        return self._reporters == (1 << len(involved)) - 1

    @property
    def parents(self) -> FrozenSet[TransactionId]:
        return frozenset(_edges(self._parents))

    @property
    def reported_by(self) -> FrozenSet[DomainId]:
        involved = self.entry.transaction.involved_domains
        return frozenset(d for i, d in enumerate(involved) if self._reporters >> i & 1)

    @property
    def rounds(self) -> Dict[DomainId, int]:
        """The latest round each reporting child delivered this vertex in (a
        child that reports the vertex again appends a pair; read back, the
        later pair wins and the first keeps its place, as a dict insert)."""
        rounds = self._rounds
        return dict(zip(rounds[::2], rounds[1::2]))

    def _add_parent(self, parent: TransactionId) -> None:
        """Record the edge ``parent -> self`` unless it is already there."""
        current = self._parents
        if current is None:
            self._parents = parent
        elif type(current) is tuple:
            if parent not in current:
                self._parents = current + (parent,)
        elif current != parent:
            self._parents = (current, parent)


class CrossDomainVertex(DagVertex):
    """A cross-domain vertex, which keeps its place in the insertion order:
    the consistency check visits the vertices sharing a domain pair in that
    order."""

    __slots__ = ("ordinal",)

    def __init__(
        self,
        entry: CommittedEntry,
        ordinal: int,
        parent: Optional[TransactionId] = None,
        rounds: Tuple[object, ...] = (),
    ) -> None:
        super().__init__(entry, parent, rounds)
        #: Position in the owning ledger's insertion order.
        self.ordinal = ordinal


def _reporter_bits(entry: CommittedEntry) -> int:
    """Bitmask over the involved domains that ``entry``'s sequence covers."""
    involved = entry.transaction.involved_domains
    parts = entry.sequence.parts
    if len(parts) == len(involved):
        # Sequence domains are distinct involved domains: all of them.
        return (1 << len(involved)) - 1
    bits = 0
    for domain, _ in parts:
        bits |= 1 << involved.index(domain)
    return bits


@dataclass(frozen=True)
class OrderInconsistency:
    """Two transactions appended in opposite orders by two shared domains."""

    first: TransactionId
    second: TransactionId
    domain_a: DomainId
    domain_b: DomainId

    @property
    def victim(self) -> TransactionId:
        return deterministic_abort_choice(self.first, self.second)


class DagLedger:
    """The summarized, DAG-structured ledger of a height-2+ domain."""

    def __init__(self, domain: DomainId) -> None:
        self._domain = domain
        #: Never deleted from, so its order is the insertion order.
        self._vertices: Dict[TransactionId, DagVertex] = {}
        self._last_from_child: Dict[DomainId, Optional[TransactionId]] = {}
        self._rounds_from_child: Dict[DomainId, int] = {}
        self._positions_from_child: Dict[DomainId, int] = {}
        self._aborted: Set[TransactionId] = set()
        self._aborted_sorted: Optional[Tuple[TransactionId, ...]] = ()
        # Cross-domain vertices in insertion order, and the same vertices
        # under every unordered pair of their involved domains: two
        # transactions can only be inconsistently ordered when they share
        # such a pair, so the consistency check reads these lists instead of
        # scanning the whole ledger.
        self._cross_domain: List[CrossDomainVertex] = []
        self._by_pair: Dict[Tuple[DomainId, DomainId], List[CrossDomainVertex]] = {}

    # -- accessors ----------------------------------------------------------------

    @property
    def domain(self) -> DomainId:
        return self._domain

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, tid: TransactionId) -> bool:
        return tid in self._vertices

    def vertex(self, tid: TransactionId) -> DagVertex:
        try:
            return self._vertices[tid]
        except KeyError as exc:
            raise UnknownBlockError(f"{tid} not in DAG of {self._domain}") from exc

    def aborted(self) -> Tuple[TransactionId, ...]:
        if self._aborted_sorted is None:
            self._aborted_sorted = tuple(sorted(self._aborted, key=lambda t: t.number))
        return self._aborted_sorted

    def is_aborted(self, tid: TransactionId) -> bool:
        return tid in self._aborted

    def rounds_received_from(self, child: DomainId) -> int:
        """The latest round integrated from ``child`` (rounds with nothing new
        are never sent, so this counts ticks, not blocks)."""
        return self._rounds_from_child.get(child, 0)

    def position_from(self, child: DomainId) -> int:
        """Where the last block integrated from ``child`` ends in its sender's log."""
        return self._positions_from_child.get(child, 0)

    def reported(self, tid: TransactionId, child: DomainId) -> bool:
        """Whether a block from ``child`` has already delivered ``tid``."""
        vertex = self._vertices.get(tid)
        return vertex is not None and child in vertex._rounds[::2]

    def transactions(self) -> List[DagVertex]:
        return list(self._vertices.values())

    def entries_from(self, start: int) -> Tuple[CommittedEntry, ...]:
        """Entries of the vertices inserted at ordinal ``start`` or later."""
        return tuple(v.entry for v in islice(self._vertices.values(), start, None))

    # -- integration ------------------------------------------------------------------

    def integrate_block(self, block: BlockMessage, child: DomainId) -> List[TransactionId]:
        """Fold one child block message into the DAG.

        Returns the transaction identifiers newly added by this block (entries
        already present from another child are merged in place rather than
        duplicated, as required for cross-domain transactions).
        """
        expected_round = self._rounds_from_child.get(child, 0) + 1
        if block.round_number < expected_round:
            raise LedgerError(
                f"{self._domain}: stale round {block.round_number} from {child} "
                f"(expected >= {expected_round})"
            )
        if not block.verify_merkle_root():
            raise LedgerError(
                f"{self._domain}: block {block} fails Merkle verification"
            )

        added: List[TransactionId] = []
        vertices = self._vertices
        previous = self._last_from_child.get(child)
        # Every vertex first delivered by this block shares one rounds tuple.
        stamp = (child, block.round_number)
        for entry in block.entries:
            tid = entry.tid
            vertex = vertices.get(tid)
            if vertex is None:
                if len(entry.transaction.involved_domains) > 1:
                    vertex = CrossDomainVertex(entry, len(vertices), previous, stamp)
                    self._cross_domain.append(vertex)
                    for pair in domain_pairs(entry.transaction):
                        self._by_pair.setdefault(pair, []).append(vertex)
                else:
                    vertex = DagVertex(entry, previous, stamp)
                vertices[tid] = vertex
                added.append(tid)
            else:
                merged_sequence = vertex.entry.sequence.merged_with(entry.sequence)
                vertex.entry = vertex.entry.with_sequence(merged_sequence)
                vertex._reporters |= _reporter_bits(entry)
                vertex._rounds += stamp
                if previous is not None and previous != tid:
                    vertex._add_parent(previous)
            previous = tid
        self._last_from_child[child] = previous
        self._rounds_from_child[child] = block.round_number
        self._positions_from_child[child] = block.end

        for tid in block.aborted:
            self.mark_aborted(tid)
        return added

    def mark_aborted(self, tid: TransactionId) -> None:
        # Summary blocks report their *cumulative* aborted set, so almost
        # every call repeats an abort already recorded.
        if tid not in self._aborted:
            self._aborted.add(tid)
            self._aborted_sorted = None
        vertex = self._vertices.get(tid)
        if vertex is not None and vertex.entry.status is not TransactionStatus.ABORTED:
            vertex.entry = vertex.entry.with_status(TransactionStatus.ABORTED)

    # -- consistency checking -------------------------------------------------------------

    def find_order_inconsistencies(
        self, restrict_to: Optional[Iterable[TransactionId]] = None
    ) -> List[OrderInconsistency]:
        """Cross-domain transaction pairs appended in conflicting orders.

        Two committed cross-domain transactions are inconsistent when they
        share at least two involved domains and those domains recorded them in
        opposite orders (detectable from the multi-part sequence numbers once
        both domains have reported both transactions).  ``restrict_to`` limits
        the left-hand side of the pairwise comparison to the given
        transactions (callers pass the transactions of a freshly integrated
        block, making the check incremental).  Each left-hand transaction is
        compared only with the vertices indexed under one of its domain pairs;
        both sides are visited in insertion order, which fixes the order of
        the result (callers abort victims sequentially, so it matters).
        """
        aborted = self._aborted
        if restrict_to is None:
            candidates = self._cross_domain
        else:
            wanted = (self._vertices.get(tid) for tid in set(restrict_to))
            candidates = sorted(
                (v for v in wanted if v is not None and v.is_cross_domain),
                key=lambda v: v.ordinal,
            )
        inconsistencies: List[OrderInconsistency] = []
        seen_pairs = set()
        for left in candidates:
            if left.tid in aborted:
                continue
            for right in self._sharing_a_pair_with(left):
                if right is left or right.tid in aborted:
                    continue
                pair = frozenset((left.tid, right.tid))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                conflict = self._compare_pair(left, right)
                if conflict is not None:
                    inconsistencies.append(conflict)
        return inconsistencies

    def _sharing_a_pair_with(
        self, vertex: CrossDomainVertex
    ) -> List[CrossDomainVertex]:
        """Vertices sharing >= 2 involved domains with ``vertex``, insertion order."""
        pairs = domain_pairs(vertex.entry.transaction)
        if len(pairs) == 1:
            return self._by_pair[pairs[0]]
        merged = {v.ordinal: v for pair in pairs for v in self._by_pair[pair]}
        return [merged[ordinal] for ordinal in sorted(merged)]

    def _compare_pair(
        self, left: DagVertex, right: DagVertex
    ) -> Optional[OrderInconsistency]:
        shared = [
            d
            for d in left.entry.transaction.involved_domains
            if d in right.entry.transaction.involved_domains
        ]
        if len(shared) < 2:
            return None
        orders: List[Tuple[DomainId, int]] = []
        for domain in shared:
            left_pos = left.entry.position_in(domain)
            right_pos = right.entry.position_in(domain)
            if left_pos is None or right_pos is None:
                continue  # not yet reported by this domain
            orders.append((domain, -1 if left_pos < right_pos else 1))
        for (domain_a, dir_a) in orders:
            for (domain_b, dir_b) in orders:
                if dir_a != dir_b:
                    return OrderInconsistency(
                        first=left.tid,
                        second=right.tid,
                        domain_a=domain_a,
                        domain_b=domain_b,
                    )
        return None

    def pending_cross_domain(self) -> List[DagVertex]:
        """Cross-domain transactions not yet reported by all involved domains."""
        return [
            v
            for v in self._cross_domain
            if not v.fully_reported and v.tid not in self._aborted
        ]

    # -- ordering ----------------------------------------------------------------------------

    def topological_order(self) -> List[TransactionId]:
        """A topological ordering of the DAG's parent edges.

        Raises :class:`LedgerError` if the edges contain a cycle.  Corrupted
        input blocks can close one, and so can two honest children: each
        child's block lists its entries in its own order, so two cross-domain
        transactions that share a single height-1 domain reach a parent in
        that domain's ledger order from one child and in the other child's
        integration order from the other.  No order is owed between such
        transactions (only a shared *pair* of domains owes one, see
        :meth:`find_order_inconsistencies`), so that cycle is no
        inconsistency.  ``fig07a`` at 40 transactions, seed 1, closes one at
        the root (``tests/test_dag_and_abstraction.py`` pins it).
        """
        vertices = self._vertices
        in_degree: Dict[TransactionId, int] = dict.fromkeys(vertices, 0)
        children: Dict[TransactionId, List[TransactionId]] = {
            tid: [] for tid in vertices
        }
        for tid, vertex in vertices.items():
            for parent in _edges(vertex._parents):
                if parent in in_degree:
                    in_degree[tid] += 1
                    children[parent].append(tid)
        ready = deque(tid for tid in vertices if in_degree[tid] == 0)
        result: List[TransactionId] = []
        while ready:
            current = ready.popleft()
            result.append(current)
            for child in children[current]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(result) != len(vertices):
            raise LedgerError(f"{self._domain}: DAG contains a cycle")
        return result

    def committed_count(self) -> int:
        return sum(
            1
            for v in self._vertices.values()
            if v.entry.status is not TransactionStatus.ABORTED
        )
