"""Lazy propagation of blockchain ledgers up the hierarchy (§5).

Edge-server domains proceed through rounds of a fixed length; at the end of
each round the primary assembles a ``block`` message — the transactions
appended to the ledger in that round, their Merkle tree, and the abstracted
state delta λ(D_rn − D_rn−1) — and multicasts it to every node of the parent
domain.  Parents order received block messages through their internal
consensus, fold them into their DAG-structured ledger and summarized view, and
forward their own (further summarized) block messages upwards at a coarser
round interval.  Under the optimistic protocol the block message additionally
carries aborted transactions and dependency lists.

A round that carries nothing new is not sent: the round counter still
advances, so the parent sees a gap in the round numbers, which the DAG and the
summarized view accept.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.types import DomainId, TransactionId
from repro.core.messages import BlockOrder, BlockPropagate
from repro.core.node import ProtocolComponent, SaguaroNode
from repro.errors import StateError
from repro.ledger.block import BlockMessage

__all__ = ["LazyPropagation"]

#: Keys of the node-level shared scratch space used by the optimistic protocol.
SHARED_ROUND_ABORTS = "round_aborts"
SHARED_DEPENDENCIES = "dependency_lists"


class LazyPropagation(ProtocolComponent):
    """Round-based block emission (any non-root domain) and integration (parents)."""

    def __init__(self, node: SaguaroNode) -> None:
        super().__init__(node)
        self._round = 0
        self._last_ledger_position = 0
        self._last_state_version = 0
        self._forwarded_dag_vertices = 0
        self._summary_cursor = None
        #: Length of the cumulative aborted set the last summary block shipped.
        self._aborts_sent = 0
        self._seen_child_rounds: Set[Tuple[DomainId, int]] = set()
        self._stopped = False

    # ------------------------------------------------------------------ lifecycle

    def on_start(self) -> None:
        if self._parent_domain() is None:
            return  # the root does not propagate further
        if self.node.summary is not None:
            self._summary_cursor = self.node.summary.cursor()
        self._schedule_next_round()

    def stop(self) -> None:
        """Stop emitting rounds (used by the harness to let a run quiesce)."""
        self._stopped = True

    def _parent_domain(self) -> Optional[DomainId]:
        parent = self.node.hierarchy.parent_of(self.node.domain.id)
        return None if parent is None else parent.id

    def _interval_ms(self) -> float:
        return self.node.config.rounds.interval_for_height(self.node.domain.height)

    def _schedule_next_round(self) -> None:
        if self._stopped:
            return
        max_rounds = self.node.config.rounds.max_rounds
        if max_rounds is not None and self._round >= max_rounds:
            return
        self.node.set_timer(self._interval_ms(), self._round_tick)

    # ------------------------------------------------------------------ emitting (child side)

    def _round_tick(self) -> None:
        if self._stopped:
            return
        if self.node.is_primary:
            self._round += 1
            block = self._build_block()
            parent = self._parent_domain()
            if parent is not None and self._carries_news(block):
                if self.node.ledger is None:  # a summary block: cumulative aborts
                    self._aborts_sent = len(block.aborted)
                propagate = BlockPropagate(
                    block=block,
                    child_domain=self.node.domain.id,
                    certificate=self.node.certify(block.merkle_root),
                )
                self.node.multicast_domain(parent, propagate)
        self._schedule_next_round()

    def _carries_news(self, block: BlockMessage) -> bool:
        """Whether the round tells the parent anything it has not been sent.

        A height-1 block's aborts are the round's own; a summary block ships
        the cumulative aborted set, which only grows, so it is news only when
        it is longer than the one last sent.
        """
        if block.entries or block.state_delta or block.dependencies:
            return True
        return len(block.aborted) > self._aborts_sent

    def _build_block(self) -> BlockMessage:
        if self.node.ledger is not None:
            return self._build_height1_block()
        return self._build_summary_block()

    def _build_height1_block(self) -> BlockMessage:
        ledger = self.node.ledger
        state = self.node.state
        assert ledger is not None and state is not None
        new_entries = tuple(
            ledger.entries_between(self._last_ledger_position + 1, len(ledger))
        )
        self._last_ledger_position = len(ledger)
        raw_delta = state.delta_since(self._last_state_version)
        self._last_state_version = state.version
        abstract_delta = self.node.application.abstraction()(raw_delta)
        aborted = tuple(self.node.shared.pop(SHARED_ROUND_ABORTS, ()))
        dependencies = dict(self.node.shared.get(SHARED_DEPENDENCIES, {}))
        return BlockMessage.build(
            domain=self.node.domain.id,
            round_number=self._round,
            entries=new_entries,
            state_delta=abstract_delta,
            aborted=aborted,
            dependencies=dependencies,
        )

    def _build_summary_block(self) -> BlockMessage:
        dag = self.node.dag
        summary = self.node.summary
        assert dag is not None and summary is not None
        new_entries = dag.entries_from(self._forwarded_dag_vertices)
        self._forwarded_dag_vertices = len(dag)
        if self._summary_cursor is None:
            self._summary_cursor = summary.cursor()
        delta = summary.own_abstract_delta(self._summary_cursor)
        self._summary_cursor = summary.cursor()
        return BlockMessage.build(
            domain=self.node.domain.id,
            round_number=self._round,
            entries=new_entries,
            state_delta=delta,
            aborted=dag.aborted(),
        )

    # ------------------------------------------------------------------ integrating (parent side)

    def handle_message(self, payload: Any, sender: str) -> bool:
        if not isinstance(payload, BlockPropagate):
            return False
        if self.node.dag is None:
            return True  # height-1 nodes never receive block messages
        if not self.node.is_primary:
            return True  # replicas learn through internal consensus
        key = (payload.child_domain, payload.block.round_number)
        if key in self._seen_child_rounds:
            return True
        self._seen_child_rounds.add(key)
        self.node.engine.submit(
            BlockOrder(block=payload.block, child_domain=payload.child_domain)
        )
        return True

    def on_submission_dropped(self, payload: Any) -> bool:
        if not isinstance(payload, BlockOrder):
            return False
        # Forget the round so a retransmitted block message can re-propose it.
        self._seen_child_rounds.discard(
            (payload.child_domain, payload.block.round_number)
        )
        return True

    def on_decide(self, slot: int, payload: Any) -> bool:
        if not isinstance(payload, BlockOrder):
            return False
        dag = self.node.dag
        summary = self.node.summary
        if dag is None or summary is None:
            return True
        block = payload.block
        child = payload.child_domain
        if block.round_number <= dag.rounds_received_from(child):
            return True  # duplicate delivery after a view change
        dag.integrate_block(block, child)
        if block.state_delta:
            try:
                summary.merge_delta(child, block.state_delta, block.round_number)
            except StateError:
                pass  # stale round replay; the DAG already rejected real regressions
        self.node.notify_block_integrated(block, child)
        return True
