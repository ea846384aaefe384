"""AHL-style coordinator-based cross-shard processing (baseline, §8 / [25]).

AHL (Dang et al., SIGMOD'19) processes cross-shard transactions through a
single *reference committee* that orders them and runs two-phase commit with
the involved shards.  Following the paper's own re-implementation, the trusted
hardware component of AHL is omitted: the reference committee is simply a
fault-tolerant cluster running the same internal consensus protocol as the
shards.

Structurally this is the degenerate case of Saguaro's coordinator-based
protocol in which *every* cross-shard transaction is coordinated by the same,
single domain.  The implementation therefore reuses
:class:`~repro.core.coordinator.CoordinatorCrossDomainProtocol` over a flat
two-level topology whose root is the reference committee: the lowest common
ancestor of any set of shards in that topology is always the committee, so the
message flow (request forwarding, prepare, prepared, commit, ack) matches
AHL's committee-driven 2PC.  The performance difference against Saguaro then
comes from exactly what the paper argues: one committee carries the entire
cross-shard load and is not placement-optimised for any particular pair of
shards.
"""

from __future__ import annotations

from repro.core.coordinator import CoordinatorCrossDomainProtocol

__all__ = ["AhlReferenceCommitteeProtocol"]


class AhlReferenceCommitteeProtocol(CoordinatorCrossDomainProtocol):
    """Committee-driven 2PC for cross-shard transactions.

    The behaviour is inherited unchanged; the class exists so that baseline
    deployments, traces, and test assertions can name the protocol explicitly
    and so that AHL-specific instrumentation can be added without touching the
    Saguaro coordinator.
    """

    @property
    def is_reference_committee_member(self) -> bool:
        """True on nodes of the committee (the root of the flat topology)."""
        return self.node.domain.height >= 2
