"""The hierarchical domain tree and lowest-common-ancestor queries.

The hierarchy is the backbone of every Saguaro protocol: cross-domain
transactions are coordinated by the lowest common ancestor (LCA) of the
involved height-1 domains (§4), block messages flow from children to parents
(§5), and inconsistencies are detected bottom-up by intermediate ancestors
(§6).  The :class:`Hierarchy` class stores the tree, validates it, and answers
the structural queries the protocols need.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.types import DomainId, NodeId
from repro.errors import TopologyError, UnknownDomainError
from repro.topology.domain import Domain

__all__ = ["Hierarchy"]


class Hierarchy:
    """A rooted tree of :class:`Domain` objects."""

    def __init__(self) -> None:
        self._domains: Dict[DomainId, Domain] = {}
        self._parent: Dict[DomainId, DomainId] = {}
        self._children: Dict[DomainId, List[DomainId]] = {}
        self._root: Optional[DomainId] = None

    # -- construction ---------------------------------------------------------

    def add_domain(self, domain: Domain, parent: Optional[DomainId] = None) -> Domain:
        """Insert ``domain`` under ``parent`` (``None`` for the root)."""
        if domain.id in self._domains:
            raise TopologyError(f"domain {domain.id} already present")
        if parent is None:
            if self._root is not None:
                raise TopologyError("hierarchy already has a root")
            self._root = domain.id
        else:
            if parent not in self._domains:
                raise UnknownDomainError(f"unknown parent domain {parent}")
            parent_domain = self._domains[parent]
            if domain.height != parent_domain.height - 1:
                raise TopologyError(
                    f"{domain.id} (height {domain.height}) cannot be a child of "
                    f"{parent} (height {parent_domain.height})"
                )
            self._parent[domain.id] = parent
            self._children.setdefault(parent, []).append(domain.id)
        self._domains[domain.id] = domain
        self._children.setdefault(domain.id, [])
        return domain

    def validate(self) -> None:
        """Check the tree is connected, acyclic, and consistently heighted."""
        if self._root is None:
            raise TopologyError("hierarchy has no root")
        visited = set()
        stack = [self._root]
        while stack:
            current = stack.pop()
            if current in visited:
                raise TopologyError(f"cycle detected at {current}")
            visited.add(current)
            stack.extend(self._children.get(current, []))
        orphans = set(self._domains) - visited
        if orphans:
            raise TopologyError(f"unreachable domains: {sorted(d.name for d in orphans)}")
        root_height = self._domains[self._root].height
        for domain_id, parent_id in self._parent.items():
            if self._domains[domain_id].height != self._domains[parent_id].height - 1:
                raise TopologyError(f"height mismatch between {domain_id} and {parent_id}")
        if root_height < 1:
            raise TopologyError("root must be at height >= 1")

    # -- lookups --------------------------------------------------------------

    def __contains__(self, domain_id: DomainId) -> bool:
        return domain_id in self._domains

    def __len__(self) -> int:
        return len(self._domains)

    @property
    def root(self) -> Domain:
        if self._root is None:
            raise TopologyError("hierarchy has no root")
        return self._domains[self._root]

    def domain(self, domain_id: DomainId) -> Domain:
        try:
            return self._domains[domain_id]
        except KeyError as exc:
            raise UnknownDomainError(f"unknown domain {domain_id}") from exc

    def all_domains(self) -> List[Domain]:
        return list(self._domains.values())

    def domains_at_height(self, height: int) -> List[Domain]:
        return [d for d in self._domains.values() if d.height == height]

    def height1_domains(self) -> List[Domain]:
        """The edge-server domains that execute transactions."""
        return self.domains_at_height(1)

    def leaf_domains(self) -> List[Domain]:
        """Height-0 domains hosting edge devices."""
        return self.domains_at_height(0)

    def server_domains(self) -> List[Domain]:
        """All domains that contain server nodes (height >= 1)."""
        return [d for d in self._domains.values() if not d.is_leaf]

    def all_server_nodes(self) -> List[NodeId]:
        nodes: List[NodeId] = []
        for domain in self.server_domains():
            nodes.extend(domain.node_ids)
        return nodes

    # -- tree structure --------------------------------------------------------

    def parent_of(self, domain_id: DomainId) -> Optional[Domain]:
        parent_id = self._parent.get(domain_id)
        if parent_id is None:
            return None
        return self._domains[parent_id]

    def children_of(self, domain_id: DomainId) -> List[Domain]:
        self.domain(domain_id)
        return [self._domains[child] for child in self._children.get(domain_id, [])]

    def descendants_of(self, domain_id: DomainId) -> List[Domain]:
        """All domains strictly below ``domain_id`` (pre-order)."""
        result: List[Domain] = []
        stack = list(self._children.get(domain_id, []))
        while stack:
            current = stack.pop(0)
            result.append(self._domains[current])
            stack.extend(self._children.get(current, []))
        return result

    def height1_descendants_of(self, domain_id: DomainId) -> List[Domain]:
        domain = self.domain(domain_id)
        if domain.height == 1:
            return [domain]
        return [d for d in self.descendants_of(domain_id) if d.height == 1]

    def path_to_root(self, domain_id: DomainId) -> List[Domain]:
        """Domains from ``domain_id`` (inclusive) up to the root (inclusive)."""
        self.domain(domain_id)
        path = [self._domains[domain_id]]
        current = domain_id
        while current in self._parent:
            current = self._parent[current]
            path.append(self._domains[current])
        return path

    def ancestors_of(self, domain_id: DomainId) -> List[Domain]:
        """Strict ancestors of ``domain_id`` from parent up to the root."""
        return self.path_to_root(domain_id)[1:]

    def is_ancestor(self, ancestor: DomainId, descendant: DomainId) -> bool:
        return any(d.id == ancestor for d in self.ancestors_of(descendant))

    # -- LCA -------------------------------------------------------------------

    def lowest_common_ancestor(self, domain_ids: Sequence[DomainId]) -> Domain:
        """The LCA domain of ``domain_ids`` (§4).

        The LCA is the coordinator of cross-domain transactions because, the
        hierarchy being organised geographically, it minimises total distance
        to the involved domains.
        """
        if not domain_ids:
            raise TopologyError("LCA of an empty set is undefined")
        paths = [
            [domain.id for domain in reversed(self.path_to_root(domain_id))]
            for domain_id in domain_ids
        ]
        lca_id: Optional[DomainId] = None
        for level in zip(*paths):
            if all(domain_id == level[0] for domain_id in level):
                lca_id = level[0]
            else:
                break
        if lca_id is None:
            raise TopologyError(
                f"domains {[d.name for d in domain_ids]} share no common ancestor"
            )
        return self._domains[lca_id]

    def path_between(self, origin: DomainId, target: DomainId) -> List[Domain]:
        """Domains on the tree path from ``origin`` to ``target`` (inclusive)."""
        lca = self.lowest_common_ancestor([origin, target])
        up: List[Domain] = []
        current = origin
        while current != lca.id:
            up.append(self._domains[current])
            current = self._parent[current]
        up.append(lca)
        down: List[Domain] = []
        current = target
        while current != lca.id:
            down.append(self._domains[current])
            current = self._parent[current]
        return up + list(reversed(down))

    def hop_distance(self, origin: DomainId, target: DomainId) -> int:
        """Number of tree edges between two domains."""
        return len(self.path_between(origin, target)) - 1

    def total_distance_from(
        self, candidate: DomainId, participants: Iterable[DomainId]
    ) -> int:
        """Sum of hop distances from ``candidate`` to every participant."""
        return sum(self.hop_distance(candidate, p) for p in participants)

    # -- convenience ------------------------------------------------------------

    def parent_height1_of_leaf(self, leaf_id: DomainId) -> Domain:
        """The height-1 (edge-server) domain serving a leaf domain."""
        leaf = self.domain(leaf_id)
        if not leaf.is_leaf:
            raise TopologyError(f"{leaf_id} is not a leaf domain")
        parent = self.parent_of(leaf_id)
        if parent is None:
            raise TopologyError(f"leaf {leaf_id} has no parent")
        return parent

    def describe(self) -> str:
        """Human-readable indented dump of the tree (for examples/debugging)."""
        lines: List[str] = []

        def visit(domain_id: DomainId, depth: int) -> None:
            domain = self._domains[domain_id]
            lines.append("  " * depth + str(domain))
            for child in self._children.get(domain_id, []):
                visit(child, depth + 1)

        if self._root is not None:
            visit(self._root, 0)
        return "\n".join(lines)
