"""Optimistic cross-domain consensus (§6).

Each involved height-1 domain orders and executes a cross-domain transaction
independently — assuming every other involved domain does the same — so the
client observes only local-commit latency and no wide-area round trip.  The
transactions later flow up the hierarchy in block messages; intermediate
domains and eventually the lowest common ancestor check that overlapping
domains appended concurrent transactions in the same order.  On an
inconsistency the (deterministically chosen) victim and every transaction that
directly or indirectly depends on its writes are aborted and rolled back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.types import DomainId, TransactionId, TransactionKind, TransactionStatus
from repro.core.lazy import SHARED_DEPENDENCIES, SHARED_ROUND_ABORTS
from repro.core.messages import (
    ClientRequest,
    OptimisticCommitQuery,
    OptimisticDecision,
    OptimisticForward,
    OptimisticOrder,
)
from repro.core.node import ProtocolComponent, SaguaroNode
from repro.ledger.transaction import CommittedEntry, Transaction

__all__ = ["OptimisticCrossDomainProtocol"]


@dataclass
class _PendingOptimistic:
    """A cross-domain transaction optimistically committed, awaiting a decision."""

    transaction: Transaction
    appended_at: float
    undo: Dict[str, Any] = field(default_factory=dict)
    dependents: List[TransactionId] = field(default_factory=list)
    timer: Any = None


@dataclass
class _TrackedDependent:
    """A transaction whose fate is tied to one or more pending optimistic ones."""

    transaction: Transaction
    undo: Dict[str, Any] = field(default_factory=dict)
    roots: Set[TransactionId] = field(default_factory=set)


class OptimisticCrossDomainProtocol(ProtocolComponent):
    """Implements §6 on height-1 (execute/rollback) and height-2+ (decide) nodes."""

    wire = {
        ClientRequest: "_on_client_request",
        OptimisticForward: "_on_forward",
        OptimisticDecision: "_on_decision",
        OptimisticCommitQuery: "_on_commit_query",
    }
    decided = dropped = (OptimisticOrder,)

    def __init__(self, node: SaguaroNode) -> None:
        super().__init__(node)
        # Height-1 state.  Taints are indexed by account shard so dependency
        # lookups and undo cleanup touch only the shards a transaction names
        # instead of scanning whole-domain taint state.
        self._pending: Dict[TransactionId, _PendingOptimistic] = {}
        self._dependents: Dict[TransactionId, _TrackedDependent] = {}
        self._tainted_by_shard: Dict[int, Dict[str, Set[TransactionId]]] = {}
        self._root_shards: Dict[TransactionId, Set[int]] = {}
        self._proposed: Set[TransactionId] = set()
        self._client_of: Dict[TransactionId, str] = {}
        self._append_order: List[TransactionId] = []
        # Height-2+ state.
        self._decisions_sent: Set[TransactionId] = set()

    # ------------------------------------------------------------------ dispatch

    def handle_message(self, payload: Any, sender: str) -> bool:
        return getattr(self, self.wire[type(payload)])(payload)

    def on_decide(self, slot: int, payload: OptimisticOrder) -> None:
        self._decided_order(payload)

    def on_submission_dropped(self, payload: OptimisticOrder) -> None:
        # Let a retransmitted request re-propose the never-ordered payload.
        self._proposed.discard(payload.transaction.tid)

    # ------------------------------------------------------------------ height-1: ordering

    def _on_client_request(self, request: ClientRequest) -> bool:
        transaction = request.transaction
        if transaction.kind is not TransactionKind.CROSS_DOMAIN:
            return False
        if not self.node.is_height1 or not transaction.involves(self.node.domain.id):
            return False
        self._client_of.setdefault(transaction.tid, request.client_address)
        if not self.node.is_primary:
            self.node.send(self.node.engine.primary_address, request)
            return True
        if self._already_known(transaction.tid):
            self.node.reply_to_client(request.client_address, transaction, True)
            return True
        forward = OptimisticForward(
            transaction=transaction,
            initiator_domain=self.node.domain.id,
            client_address=request.client_address,
        )
        others = [d for d in transaction.involved_domains if d != self.node.domain.id]
        self.node.multicast_domains(others, forward)
        # Delay the initiator's own ordering by (roughly) the time the forward
        # needs to reach the farthest involved domain, so every involved domain
        # orders the request at about the same instant.  This keeps the rate of
        # ordering inconsistencies between overlapping domains low, mirroring
        # the low inconsistency rates the paper reports.
        delay = self._alignment_delay_ms(others)
        client_address = request.client_address
        if delay > 0:
            self.node.set_timer(delay, lambda: self._propose(transaction, client_address))
        else:
            self._propose(transaction, client_address)
        return True

    def _alignment_delay_ms(self, other_domains) -> float:
        latency = self.node.network.latency
        my_region = self.node.region
        delays = [0.0]
        for domain_id in other_domains:
            region = self.node.hierarchy.domain(domain_id).region
            delays.append(latency.one_way_ms(my_region, region, rng=None))
        return max(delays)

    def _on_forward(self, forward: OptimisticForward) -> bool:
        transaction = forward.transaction
        if not self.node.is_height1 or not transaction.involves(self.node.domain.id):
            return True
        if not self.node.is_primary:
            return True
        if not self._already_known(transaction.tid):
            self._propose(transaction, forward.client_address)
        return True

    def _already_known(self, tid: TransactionId) -> bool:
        if tid in self._proposed:
            return True
        return self.node.ledger is not None and tid in self.node.ledger

    def _propose(self, transaction: Transaction, client_address: str) -> None:
        self._proposed.add(transaction.tid)
        order = OptimisticOrder(
            transaction=transaction,
            initiator_domain=self.node.domain.id,
            client_address=client_address,
        )
        self.node.engine.submit(order)

    def _decided_order(self, order: OptimisticOrder) -> None:
        transaction = order.transaction
        tid = transaction.tid
        if self.node.ledger is None or tid in self.node.ledger:
            return
        undo = self._capture_undo(transaction)
        self.node.append_and_execute(
            transaction, TransactionStatus.OPTIMISTICALLY_COMMITTED
        )
        # The paper measures optimistic latency at the local commit point.
        self.node.note_commit(tid)
        pending = self._pending.get(tid)
        if pending is None:
            pending = _PendingOptimistic(
                transaction=transaction, appended_at=self.node.now(), undo=undo
            )
            self._pending[tid] = pending
        self._taint_keys(transaction.write_keys, tid)
        self._publish_dependency_lists()
        self._arm_decision_timer(pending)
        if self.node.is_primary and tid in self._client_of:
            self.node.reply_to_client(self._client_of.pop(tid), transaction, True)

    def _capture_undo(self, transaction: Transaction) -> Dict[str, Any]:
        state = self.node.state
        if state is None:
            return {}
        # Only keys hosted by this domain can be (and need to be) rolled back;
        # capturing absent keys would re-create them with bogus values.
        return {key: state.get(key) for key in transaction.write_keys if key in state}

    # ------------------------------------------------------------------ height-1: dependency tracking

    def on_transaction_appended(self, entry: CommittedEntry) -> None:
        """Track data dependencies of *every* locally appended transaction."""
        if self.node.ledger is None:
            return
        transaction = entry.transaction
        tid = transaction.tid
        self._append_order.append(tid)
        touched = set(transaction.read_keys) | set(transaction.write_keys)
        roots: Set[TransactionId] = set()
        for key in touched:
            # Only the key's own shard can hold its taints.
            bucket = self._tainted_by_shard.get(self._shard_of(key))
            if bucket:
                roots.update(bucket.get(key, set()))
        roots.discard(tid)
        if not roots:
            return
        tracked = self._dependents.get(tid)
        if tracked is None:
            tracked = _TrackedDependent(
                transaction=transaction, undo=self._capture_undo(transaction)
            )
            self._dependents[tid] = tracked
        tracked.roots.update(roots)
        for root in roots:
            pending = self._pending.get(root)
            if pending is not None and tid not in pending.dependents:
                pending.dependents.append(tid)
        # The dependent's own writes become tainted by the same roots
        # (indirect dependencies, §6).
        for key in transaction.write_keys:
            shard = self._shard_of(key)
            self._tainted_by_shard.setdefault(shard, {}).setdefault(
                key, set()
            ).update(roots)
            for root in roots:
                self._root_shards.setdefault(root, set()).add(shard)
        self._publish_dependency_lists()

    def _shard_of(self, key: str) -> int:
        state = self.node.state
        return state.shard_of(key) if state is not None else 0

    def _taint_keys(self, keys: Tuple[str, ...], root: TransactionId) -> None:
        for key in keys:
            shard = self._shard_of(key)
            self._tainted_by_shard.setdefault(shard, {}).setdefault(
                key, set()
            ).add(root)
            self._root_shards.setdefault(root, set()).add(shard)

    def on_shards_split(self, parent: int, child: int) -> None:
        """Re-bucket taints after the state store split ``parent``'s keys.

        Taint buckets are keyed by shard so lookups and cleanup can stay
        footprint-local; a split re-routes some of ``parent``'s keys to
        ``child``, so their taints must follow or later lookups under the
        new routing would miss them.
        """
        bucket = self._tainted_by_shard.get(parent)
        if not bucket:
            return
        moved = {
            key: roots
            for key, roots in bucket.items()
            if self._shard_of(key) == child
        }
        if not moved:
            return
        for key in moved:
            del bucket[key]
        if not bucket:
            del self._tainted_by_shard[parent]
        self._tainted_by_shard.setdefault(child, {}).update(moved)
        for roots in moved.values():
            for root in roots:
                self._root_shards.setdefault(root, set()).add(child)

    def _untaint_root(self, root: TransactionId) -> None:
        # Undo cleanup crosses only the shards this root ever tainted.
        for shard in sorted(self._root_shards.pop(root, ())):
            bucket = self._tainted_by_shard.get(shard)
            if bucket is None:
                continue
            for key in list(bucket):
                owners = bucket[key]
                owners.discard(root)
                if not owners:
                    del bucket[key]
            if not bucket:
                del self._tainted_by_shard[shard]

    def _publish_dependency_lists(self) -> None:
        self.node.shared[SHARED_DEPENDENCIES] = {
            tid: tuple(pending.dependents) for tid, pending in self._pending.items()
        }

    # ------------------------------------------------------------------ height-1: decisions

    def _on_decision(self, decision: OptimisticDecision) -> bool:
        if not self.node.is_height1:
            return False
        if decision.commit:
            self._finalize_commit(decision.tid)
        else:
            self._abort_locally(decision.tid, reason="ordering-inconsistency")
        return True

    def _finalize_commit(self, tid: TransactionId) -> None:
        pending = self._pending.pop(tid, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        if self.node.ledger is not None and tid in self.node.ledger:
            self.node.ledger.mark_status(tid, TransactionStatus.COMMITTED)
        # Its dependents are no longer tied to this root.
        for dependent_tid in pending.dependents:
            tracked = self._dependents.get(dependent_tid)
            if tracked is not None:
                tracked.roots.discard(tid)
                if not tracked.roots:
                    del self._dependents[dependent_tid]
        self._untaint_root(tid)
        self._publish_dependency_lists()

    def _abort_locally(self, tid: TransactionId, reason: str) -> None:
        """Abort ``tid`` and, transitively, everything that depends on it."""
        if self.node.ledger is None or tid not in self.node.ledger:
            return
        to_abort = self._collect_abort_set(tid)
        # Roll back in reverse append order so undo values nest correctly.
        ordered = [t for t in self._append_order if t in to_abort]
        for victim in reversed(ordered):
            self._rollback_one(victim, reason)
        aborted_list = self.node.shared.setdefault(SHARED_ROUND_ABORTS, [])
        aborted_list.extend(ordered)
        self._publish_dependency_lists()

    def _collect_abort_set(self, root: TransactionId) -> Set[TransactionId]:
        result: Set[TransactionId] = set()
        frontier = [root]
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            pending = self._pending.get(current)
            if pending is not None:
                frontier.extend(pending.dependents)
            for dependent_tid, tracked in self._dependents.items():
                if current in tracked.roots and dependent_tid not in result:
                    frontier.append(dependent_tid)
        return result

    def _rollback_one(self, tid: TransactionId, reason: str) -> None:
        ledger = self.node.ledger
        state = self.node.state
        if ledger is None or state is None or tid not in ledger:
            return
        entry = ledger.entry_of(tid)
        if entry.status is TransactionStatus.ABORTED:
            return
        ledger.mark_status(tid, TransactionStatus.ABORTED)
        undo: Dict[str, Any] = {}
        pending = self._pending.pop(tid, None)
        if pending is not None:
            undo = pending.undo
            if pending.timer is not None:
                pending.timer.cancel()
            self._untaint_root(tid)
        tracked = self._dependents.pop(tid, None)
        if tracked is not None:
            undo = undo or tracked.undo
        for key, old_value in undo.items():
            state.put(key, old_value)
        self.node.note_abort(tid, reason)

    def _arm_decision_timer(self, pending: _PendingOptimistic) -> None:
        tid = pending.transaction.tid
        timeout = self.node.config.timers.commit_query_timeout_ms

        def _expired() -> None:
            if tid not in self._pending:
                return
            parent = self.node.hierarchy.parent_of(self.node.domain.id)
            if parent is not None:
                query = OptimisticCommitQuery(
                    tid=tid, asking_domain=self.node.domain.id, sender=self.node.address
                )
                self.node.send(self.node.primary_address_of(parent.id), query)
            self._arm_decision_timer(pending)

        if pending.timer is not None:
            pending.timer.cancel()
        pending.timer = self.node.set_timer(timeout, _expired)

    # ------------------------------------------------------------------ height-2+: deciding

    def on_block_integrated(self, block: Any, child_domain: DomainId) -> None:
        dag = self.node.dag
        if dag is None:
            return
        touched = set(block.transaction_ids)
        # 1. Aborts reported by children cascade to the other involved domains.
        for tid in block.aborted:
            if tid in dag and tid not in self._decisions_sent:
                self._send_decision(dag.vertex(tid).entry.transaction, commit=False)
        # 2. Ordering inconsistencies: abort the deterministically chosen victim.
        #    Only transactions touched by this block can create new conflicts.
        for inconsistency in dag.find_order_inconsistencies(restrict_to=touched):
            victim = inconsistency.victim
            if victim in self._decisions_sent:
                # The preferred victim was already finalized (its commit
                # decision is out); the other side of the pair must yield, or
                # both would commit in opposite orders on the shared domains.
                victim = (
                    inconsistency.second
                    if victim == inconsistency.first
                    else inconsistency.first
                )
                if victim in self._decisions_sent:
                    continue
            dag.mark_aborted(victim)
            self._send_decision(dag.vertex(victim).entry.transaction, commit=False)
        # 3. Fully reported, consistent transactions whose LCA we are: commit.
        for tid in touched:
            if tid not in dag or tid in self._decisions_sent or dag.is_aborted(tid):
                continue
            vertex = dag.vertex(tid)
            if not vertex.is_cross_domain or not vertex.fully_reported:
                continue
            involved = list(vertex.entry.transaction.involved_domains)
            lca = self.node.hierarchy.lowest_common_ancestor(involved)
            if lca.id != self.node.domain.id:
                continue
            self._send_decision(vertex.entry.transaction, commit=True)

    def _send_decision(self, transaction: Transaction, commit: bool) -> None:
        self._decisions_sent.add(transaction.tid)
        if not self.node.is_primary:
            return
        decision = OptimisticDecision(
            tid=transaction.tid, commit=commit, deciding_domain=self.node.domain.id
        )
        self.node.multicast_domains(list(transaction.involved_domains), decision)

    def _on_commit_query(self, query: OptimisticCommitQuery) -> bool:
        dag = self.node.dag
        if dag is None:
            return False
        tid = query.tid
        if tid in dag:
            vertex = dag.vertex(tid)
            if dag.is_aborted(tid):
                self._reply_decision(query, vertex.entry.transaction, commit=False)
                return True
            if vertex.fully_reported:
                self._reply_decision(query, vertex.entry.transaction, commit=True)
                return True
        parent = self.node.hierarchy.parent_of(self.node.domain.id)
        if parent is not None and self.node.is_primary:
            self.node.send(self.node.primary_address_of(parent.id), query)
        return True

    def _reply_decision(
        self, query: OptimisticCommitQuery, transaction: Transaction, commit: bool
    ) -> None:
        if not self.node.is_primary:
            return
        decision = OptimisticDecision(
            tid=query.tid, commit=commit, deciding_domain=self.node.domain.id
        )
        self.node.multicast_domain(query.asking_domain, decision)

    # ------------------------------------------------------------------ introspection (tests)

    def pending_transactions(self) -> Tuple[TransactionId, ...]:
        return tuple(self._pending.keys())

    def decisions_sent(self) -> Tuple[TransactionId, ...]:
        return tuple(self._decisions_sent)
