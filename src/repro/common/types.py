"""Core identifier and enum types used across the library.

Saguaro organises an edge network as a tree of *domains*; each domain contains
*nodes* (servers, or edge devices at the leaves).  Every entity is addressed by
a small immutable identifier type defined here so that the rest of the code can
pass identifiers around without caring how they are rendered or compared.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "FailureModel",
    "Role",
    "TransactionKind",
    "TransactionStatus",
    "CrossDomainProtocol",
    "DomainId",
    "NodeId",
    "ClientId",
    "TransactionId",
    "SequenceNumber",
    "make_transaction_id_factory",
    "quorum_size",
    "domain_size_for_failures",
]


class FailureModel(enum.Enum):
    """Failure model followed by the nodes of a domain.

    ``CRASH`` domains run a CFT protocol (Paxos) and need ``2f + 1`` nodes;
    ``BYZANTINE`` domains run a BFT protocol (PBFT) and need ``3f + 1`` nodes.
    """

    CRASH = "crash"
    BYZANTINE = "byzantine"

    @property
    def replication_factor(self) -> int:
        """Nodes required per tolerated failure (2 for CFT, 3 for BFT)."""
        return 2 if self is FailureModel.CRASH else 3


class Role(enum.Enum):
    """Role of a node inside its domain."""

    PRIMARY = "primary"
    REPLICA = "replica"
    EDGE_DEVICE = "edge_device"


class TransactionKind(enum.Enum):
    """How a transaction relates to the hierarchy."""

    INTERNAL = "internal"
    CROSS_DOMAIN = "cross_domain"
    MOBILE = "mobile"


class TransactionStatus(enum.Enum):
    """Lifecycle of a transaction as observed by a domain."""

    PENDING = "pending"
    PREPARED = "prepared"
    OPTIMISTICALLY_COMMITTED = "optimistically_committed"
    COMMITTED = "committed"
    ABORTED = "aborted"


class CrossDomainProtocol(enum.Enum):
    """Which Saguaro cross-domain protocol a deployment uses."""

    COORDINATOR = "coordinator"
    OPTIMISTIC = "optimistic"


# The four identifier types below key every dict and set of a run, and the
# dataclass-generated ``__hash__`` re-hashes the (nested) field tuple on each
# lookup.  Each stores that same value once, in ``__post_init__``, on a field
# that takes no part in ``repr``, comparison or ``__init__`` (so ``replace()``
# recomputes it), and returns it from an explicit ``__hash__``.  It must equal
# the generated hash exactly: any other value reorders set iteration and with
# it protocol decisions and traces.  All four keep their ``name`` the same
# way, in ``_name``: every trace event, address lookup and batch entry reads
# it, and one shared string per id replaces an f-string per read.


@dataclass(frozen=True, order=True)
class DomainId:
    """Identifier of a domain in the hierarchy.

    Follows the paper's naming: ``D<height><index>`` (e.g. ``D21`` is the first
    height-2 domain).  ``height`` is 0 for leaf (edge-device) domains.
    """

    height: int
    index: int
    _hash: int = field(default=0, init=False, repr=False, compare=False)
    _name: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.height < 0 or self.index < 1:
            raise ConfigurationError(
                f"invalid domain id: height={self.height} index={self.index}"
            )
        object.__setattr__(self, "_hash", hash((self.height, self.index)))
        object.__setattr__(self, "_name", f"D{self.height}{self.index}")

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        return self._name

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True, order=True)
class NodeId:
    """Identifier of a server node inside a domain."""

    domain: DomainId
    index: int
    _hash: int = field(default=0, init=False, repr=False, compare=False)
    _name: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.domain, self.index)))
        object.__setattr__(self, "_name", f"{self.domain.name}/n{self.index}")

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        return self._name

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True, order=True)
class ClientId:
    """Identifier of an edge device (client).

    ``home`` is the leaf domain where the device registered; its parent
    height-1 domain is the device's *local* domain for mobile consensus.
    """

    home: DomainId
    index: int
    _hash: int = field(default=0, init=False, repr=False, compare=False)
    _name: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.home, self.index)))
        object.__setattr__(self, "_name", f"{self.home.name}/c{self.index}")

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        return self._name

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True, order=True)
class TransactionId:
    """Globally unique transaction identifier.

    The numeric component is assigned by a per-deployment counter; the
    ``origin`` records the client that initiated the transaction which makes
    identifiers self-describing in traces and logs.
    """

    number: int
    origin: Optional[ClientId] = None
    _hash: int = field(default=0, init=False, repr=False, compare=False)
    _name: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.number, self.origin)))
        origin = self.origin.name if self.origin is not None else "system"
        object.__setattr__(self, "_name", f"tx{self.number}@{origin}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # ``hash(None)`` differs between processes before Python 3.12, so an
        # origin-less id must not carry its hash through pickle to a worker:
        # rebuild through ``__init__`` instead of restoring ``__dict__``.
        return (TransactionId, (self.number, self.origin))

    @property
    def name(self) -> str:
        return self._name

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def make_transaction_id_factory(start: int = 1) -> "itertools.count[int]":
    """Return a counter suitable for allocating :class:`TransactionId` numbers."""
    return itertools.count(start)


@dataclass(frozen=True, slots=True)
class SequenceNumber:
    """A (possibly multi-part) sequence number, as in Figure 3 of the paper.

    Internal transactions carry a single part, e.g. ``11``; a cross-domain
    transaction carries one part per involved domain, e.g. ``12-22-31``,
    where each part encodes the position of the transaction in that domain's
    ledger.  Parts are stored as ``(domain, position)`` pairs so that the
    ordering within each domain is recoverable.
    """

    parts: Tuple[Tuple[DomainId, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen = set()
        for domain, position in self.parts:
            if position < 0:
                raise ConfigurationError(f"negative sequence position: {position}")
            if domain in seen:
                raise ConfigurationError(
                    f"duplicate domain {domain} in sequence number"
                )
            seen.add(domain)

    @classmethod
    def single(cls, domain: DomainId, position: int) -> "SequenceNumber":
        """Build a single-part sequence number for an internal transaction."""
        return cls(parts=((domain, position),))

    @classmethod
    def multi(
        cls, assignments: Iterable[Tuple[DomainId, int]]
    ) -> "SequenceNumber":
        """Build a multi-part sequence number for a cross-domain transaction."""
        return cls(parts=tuple(sorted(assignments)))

    @property
    def is_cross_domain(self) -> bool:
        return len(self.parts) > 1

    @property
    def domains(self) -> Tuple[DomainId, ...]:
        return tuple(domain for domain, _ in self.parts)

    def position_in(self, domain: DomainId) -> Optional[int]:
        """Position of the transaction in ``domain``'s ledger, or ``None``."""
        for part_domain, position in self.parts:
            if part_domain == domain:
                return position
        return None

    def merged_with(self, other: "SequenceNumber") -> "SequenceNumber":
        """Merge two partial sequence numbers for the same transaction."""
        combined = dict(self.parts)
        for domain, position in other.parts:
            existing = combined.get(domain)
            if existing is not None and existing != position:
                raise ConfigurationError(
                    f"conflicting positions for {domain}: {existing} vs {position}"
                )
            combined[domain] = position
        return SequenceNumber.multi(combined.items())

    def __iter__(self) -> Iterator[Tuple[DomainId, int]]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "-".join(f"{d.name}:{p}" for d, p in self.parts) or "<unsequenced>"


def quorum_size(num_nodes: int, model: FailureModel) -> int:
    """Quorum size for a domain with ``num_nodes`` nodes under ``model``.

    CFT (Paxos) uses a majority quorum; BFT (PBFT) needs ``2f + 1`` out of
    ``3f + 1`` nodes.
    """
    if num_nodes < 1:
        raise ConfigurationError("domain must contain at least one node")
    if model is FailureModel.CRASH:
        return num_nodes // 2 + 1
    faults = (num_nodes - 1) // 3
    return 2 * faults + 1


def domain_size_for_failures(faults: int, model: FailureModel) -> int:
    """Minimum domain size tolerating ``faults`` failures under ``model``."""
    if faults < 0:
        raise ConfigurationError("faults must be non-negative")
    return model.replication_factor * faults + 1
