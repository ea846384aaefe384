"""Transactions and their committed (sequenced) form.

Transactions are initiated by edge devices and executed by height-1 domains
(§3).  A transaction is *internal* when it touches records of a single
height-1 domain, *cross-domain* when it touches several, and *mobile* when it
is issued by a device visiting a remote domain.  Each committed transaction
carries a (possibly multi-part) sequence number recording its position in the
ledger of every involved domain (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Any, Mapping, Optional, Tuple

from repro.common.types import (
    ClientId,
    DomainId,
    SequenceNumber,
    TransactionId,
    TransactionKind,
    TransactionStatus,
)
from repro.crypto.digests import digest
from repro.errors import TransactionError

__all__ = ["Transaction", "CommittedEntry", "domain_pairs"]


@dataclass(frozen=True)
class Transaction:
    """An application request flowing through the system.

    ``payload`` is the application-level content (e.g. sender, recipient and
    amount for a micropayment); ``read_keys`` / ``write_keys`` are the state
    keys the transaction touches, used for contention and dependency tracking.
    The paper assumes read/write sets are *not* known before execution for the
    purposes of the coordinator protocol's coarse-grained conflict rule; the
    declared keys here are used only by the execution layer and the optimistic
    protocol's dependency lists.
    """

    tid: TransactionId
    kind: TransactionKind
    involved_domains: Tuple[DomainId, ...]
    payload: Mapping[str, Any] = field(default_factory=dict)
    read_keys: Tuple[str, ...] = ()
    write_keys: Tuple[str, ...] = ()
    client: Optional[ClientId] = None
    home_domain: Optional[DomainId] = None
    remote_domain: Optional[DomainId] = None
    size_kb: float = 0.2
    # Compute-once cache of ``canonical_bytes()``.  It relies on the object's
    # content never changing after construction: nothing under ``src/``
    # mutates ``payload`` (or any other field) in place — a different
    # transaction is always a different object (``replace()``, a hand-built
    # copy), and ``init=False`` makes those start cold.  ``repr=False`` /
    # ``compare=False`` keep ``repr`` (which payload digests hash) and ``==``
    # exactly as without the cache.
    _canonical: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.involved_domains:
            raise TransactionError(f"{self.tid}: no involved domains")
        if len(set(self.involved_domains)) != len(self.involved_domains):
            raise TransactionError(f"{self.tid}: duplicate involved domains")
        if self.kind is TransactionKind.INTERNAL and len(self.involved_domains) != 1:
            raise TransactionError(
                f"{self.tid}: internal transactions involve exactly one domain"
            )
        if self.kind is TransactionKind.CROSS_DOMAIN and len(self.involved_domains) < 2:
            raise TransactionError(
                f"{self.tid}: cross-domain transactions involve at least two domains"
            )
        if self.kind is TransactionKind.MOBILE:
            if self.home_domain is None or self.remote_domain is None:
                raise TransactionError(
                    f"{self.tid}: mobile transactions need home and remote domains"
                )

    @property
    def is_cross_domain(self) -> bool:
        return self.kind is TransactionKind.CROSS_DOMAIN

    @property
    def is_mobile(self) -> bool:
        return self.kind is TransactionKind.MOBILE

    @property
    def primary_domain(self) -> DomainId:
        """The domain responsible for initiating processing of this request."""
        if self.kind is TransactionKind.MOBILE and self.remote_domain is not None:
            return self.remote_domain
        return self.involved_domains[0]

    def involves(self, domain: DomainId) -> bool:
        return domain in self.involved_domains

    def overlap_with(self, other: "Transaction") -> Tuple[DomainId, ...]:
        """Domains involved in both ``self`` and ``other``."""
        return tuple(d for d in self.involved_domains if d in other.involved_domains)

    def conflicts_with(self, other: "Transaction") -> bool:
        """True when the two transactions touch a common state key."""
        mine = set(self.read_keys) | set(self.write_keys)
        theirs_writes = set(other.write_keys)
        theirs_all = set(other.read_keys) | theirs_writes
        return bool((mine & theirs_writes) or (set(self.write_keys) & theirs_all))

    def canonical_bytes(self) -> bytes:
        """Stable byte encoding used for digests and signatures."""
        canonical = self._canonical
        if canonical is None:
            canonical = digest(
                self.tid.name,
                self.kind.value,
                [d.name for d in self.involved_domains],
                dict(self.payload),
                list(self.read_keys),
                list(self.write_keys),
            )
            object.__setattr__(self, "_canonical", canonical)
        return canonical

    @property
    def request_digest(self) -> bytes:
        """Δ(m): the digest carried by protocol messages in place of m."""
        return self.canonical_bytes()

    def __str__(self) -> str:  # pragma: no cover - trivial
        domains = ",".join(d.name for d in self.involved_domains)
        return f"{self.tid.name}[{self.kind.value}:{domains}]"


def domain_pairs(transaction: Transaction) -> Tuple[Tuple[DomainId, DomainId], ...]:
    """Every unordered pair of the involved domains: two transactions share
    >= 2 domains exactly when they share one of these keys."""
    return tuple(combinations(sorted(transaction.involved_domains), 2))


@dataclass(frozen=True, slots=True)
class CommittedEntry:
    """A transaction as recorded in a ledger: transaction + order + outcome."""

    transaction: Transaction
    sequence: SequenceNumber
    status: TransactionStatus = TransactionStatus.COMMITTED
    commit_time_ms: Optional[float] = None
    # Compute-once cache, under the same condition as ``Transaction._canonical``;
    # ``with_status`` / ``with_sequence`` go through ``replace()`` and start cold.
    _canonical: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for domain in self.sequence.domains:
            if domain not in self.transaction.involved_domains:
                raise TransactionError(
                    f"{self.transaction.tid}: sequence part for uninvolved "
                    f"domain {domain}"
                )

    @property
    def tid(self) -> TransactionId:
        return self.transaction.tid

    def position_in(self, domain: DomainId) -> Optional[int]:
        return self.sequence.position_in(domain)

    def with_status(self, status: TransactionStatus) -> "CommittedEntry":
        return replace(self, status=status)

    def with_sequence(self, sequence: SequenceNumber) -> "CommittedEntry":
        return replace(self, sequence=sequence)

    def canonical_bytes(self) -> bytes:
        # The status is deliberately excluded: an optimistic entry that is later
        # finalised or aborted keeps its identity (and its chaining hash); the
        # status flip is recorded as ledger metadata, not as new content.
        canonical = self._canonical
        if canonical is None:
            canonical = digest(self.transaction.canonical_bytes(), str(self.sequence))
            object.__setattr__(self, "_canonical", canonical)
        return canonical

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.transaction.tid.name}@{self.sequence} ({self.status.value})"
