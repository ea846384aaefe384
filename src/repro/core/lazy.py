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

A block names the positions it covers; the parent integrates by position and
acknowledges the position it holds and the rounds it integrated
(:class:`BlockAck`, every quarter of the cross-domain timeout).  A child primary re-sends everything past the
acknowledged position, with every unacknowledged round's aborts, once its
oldest unacknowledged block is older than the cross-domain timeout.  Every
replica counts rounds, and a promoted backup's first block covers its ledger.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.common.types import DomainId, TransactionId
from repro.core.messages import BlockAck, BlockOrder, BlockPropagate
from repro.core.node import ProtocolComponent, SaguaroNode
from repro.ledger.block import BlockMessage

__all__ = ["LazyPropagation"]

#: Keys of the node-level shared scratch space used by the optimistic protocol.
SHARED_ROUND_ABORTS = "round_aborts"
SHARED_DEPENDENCIES = "dependency_lists"


class _Sent(NamedTuple):
    """An unacknowledged block: its round, send time, delta base and aborts."""

    round: int
    sent_at: float
    base: Any
    aborted: Tuple[TransactionId, ...]


class LazyPropagation(ProtocolComponent):
    """Round-based block emission (any non-root domain) and integration (parents)."""

    wire = {BlockPropagate: "_on_block", BlockAck: "_on_ack"}
    decided = dropped = (BlockOrder,)

    def __init__(self, node: SaguaroNode) -> None:
        super().__init__(node)
        self._round = 0
        #: Where the next block starts, and the base its delta is taken from:
        #: a state version at height 1, a summarized-view cursor above.
        self._position = 0
        self._base: Any = 0
        #: The position the parent last acknowledged, and what was sent since.
        self._acked = 0
        self._unacked: List[_Sent] = []
        #: How many times this node re-sent (none on a run without faults).
        self.resends = 0
        #: Length of the cumulative aborted set the last summary block shipped.
        self._aborts_sent = 0
        #: Child blocks this primary has submitted for ordering, undecided.
        self._ordering: Set[Tuple[DomainId, int]] = set()
        #: Per (child, sending node), the rounds of its blocks integrated since
        #: the last ack.  Acks draw latency from their own stream, re-timing
        #: nothing, and go out a quarter of the cross-domain timeout apart.
        self._acks_due: Dict[Tuple[DomainId, str], List[int]] = {}
        self._timeout = node.config.timers.cross_domain_timeout_ms
        self._ack_every = max(1, int(self._timeout / (4 * self._interval_ms())))
        self._ack_rng = node.simulator.rng.stream("block-acks")
        self._stopped = False

    # ------------------------------------------------------------------ lifecycle

    def on_start(self) -> None:
        if self.node.summary is not None:
            self._base = self.node.summary.cursor()
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
        self._round += 1
        if self.node.is_primary:
            self._send_acks()
            if self._parent_domain() is not None:  # the root emits nothing
                self._emit()
        self._schedule_next_round()

    def _emit(self) -> None:
        now, unacked = self.node.now(), self._unacked
        summary = self.node.ledger is None
        build = self._build_summary_block if summary else self._build_height1_block
        if unacked and now - unacked[0].sent_at >= self._timeout:
            # Everything past the acknowledged position, with all unacked aborts.
            self.resends += 1
            base = unacked[0].base
            carried = tuple(tid for sent in unacked for tid in sent.aborted)
            block = build(self._acked, base, carried)
            unacked.clear()
        else:
            base = self._base
            block = build(self._position, base, ())
            if not self._carries_news(block):
                return
        if summary:  # cumulative aborts
            self._aborts_sent = len(block.aborted)
        unacked.append(_Sent(block.round_number, now, base, block.aborted))
        certificate = self.node.certify(block.merkle_root)
        propagate = BlockPropagate(block, self.node.domain.id, certificate)
        self.node.multicast_domain(self._parent_domain(), propagate)

    def _carries_news(self, block: BlockMessage) -> bool:
        """Whether the round tells the parent anything it has not been sent.

        A height-1 block's aborts are the round's own; a summary block ships
        the cumulative aborted set, which only grows, so it is news only when
        it is longer than the one last sent.
        """
        if block.entries or block.state_delta or block.dependencies:
            return True
        return len(block.aborted) > self._aborts_sent

    # Each builder returns the block covering ``(start, tip]`` with the delta
    # since ``base``, and moves the next block's start and base to the tip.

    def _build_height1_block(
        self, start: int, base: int, carried: Tuple[TransactionId, ...]
    ) -> BlockMessage:
        ledger, state = self.node.ledger, self.node.state
        assert ledger is not None and state is not None
        self._position = len(ledger)
        new_entries = tuple(ledger.entries_between(start + 1, self._position))
        raw_delta = state.delta_since(base)
        self._base = state.version
        abstract_delta = self.node.application.abstraction()(raw_delta)
        aborted = carried + tuple(self.node.shared.pop(SHARED_ROUND_ABORTS, ()))
        dependencies = dict(self.node.shared.get(SHARED_DEPENDENCIES, {}))
        return BlockMessage.build(
            domain=self.node.domain.id,
            round_number=self._round,
            entries=new_entries,
            state_delta=abstract_delta,
            aborted=aborted,
            dependencies=dependencies,
            start=start,
        )

    def _build_summary_block(
        self, start: int, base: Any, carried: Tuple[TransactionId, ...]
    ) -> BlockMessage:
        # A summary block ships the cumulative aborted set, so it carries none.
        dag, summary = self.node.dag, self.node.summary
        assert dag is not None and summary is not None
        new_entries = dag.entries_from(start)
        self._position = len(dag)
        delta = summary.own_abstract_delta(base)
        self._base = summary.cursor()
        return BlockMessage.build(
            domain=self.node.domain.id,
            round_number=self._round,
            entries=new_entries,
            state_delta=delta,
            aborted=dag.aborted(),
            start=start,
        )

    # ------------------------------------------------------------------ integrating (parent side)

    def handle_message(self, payload: Any, sender: str) -> bool:
        return getattr(self, self.wire[type(payload)])(payload, sender)

    def _on_ack(self, payload: BlockAck, sender: str) -> bool:
        self._acked = payload.position
        self._unacked = [s for s in self._unacked if s.round not in payload.rounds]
        return True

    def _on_block(self, payload: BlockPropagate, sender: str) -> bool:
        dag = self.node.dag
        if dag is None:
            return True  # height-1 nodes never receive block messages
        if not self.node.is_primary:
            return True  # replicas learn through internal consensus
        child, round_number = payload.child_domain, payload.block.round_number
        if round_number <= dag.rounds_received_from(child):
            self._acks_due.setdefault((child, sender), [])  # say how far we are
            return True
        key = (child, round_number)
        if key in self._ordering:
            return True
        self._ordering.add(key)
        self.node.engine.submit(
            BlockOrder(block=payload.block, child_domain=child, sender=sender)
        )
        return True

    def _send_acks(self) -> None:
        if self._round % self._ack_every:
            return
        for (child, sender), rounds in self._acks_due.items():  # parents only
            ack = BlockAck(child, self.node.dag.position_from(child), tuple(rounds))
            self.node.send(sender, ack, rng=self._ack_rng)
        self._acks_due.clear()

    def on_submission_dropped(self, payload: BlockOrder) -> None:
        # Forget the round so a retransmitted block message can re-propose it.
        self._ordering.discard((payload.child_domain, payload.block.round_number))

    def on_decide(self, slot: int, payload: BlockOrder) -> None:
        dag, summary = self.node.dag, self.node.summary
        if dag is None or summary is None:
            return
        block, child = payload.block, payload.child_domain
        self._ordering.discard((child, block.round_number))
        # A replayed round is a no-op, and a block past the held position
        # is not integrated: the child re-sends from the acknowledged one.
        integrated = block.round_number > dag.rounds_received_from(child) and (
            block.start <= dag.position_from(child)
        )
        if integrated:
            # Replicas may append non-conflicting commits in different
            # orders, so what a block overlaps is found by transaction.
            fresh = tuple(e for e in block.entries if not dag.reported(e.tid, child))
            if len(fresh) < len(block.entries):
                if not block.verify_merkle_root():
                    return
                block = block.narrowed_to(fresh)
            dag.integrate_block(block, child)
            if block.state_delta:
                summary.merge_delta(child, block.state_delta, block.round_number)
            self.node.notify_block_integrated(block, child)
        if self.node.is_primary and payload.sender:
            rounds = self._acks_due.setdefault((child, payload.sender), [])
            if integrated:
                rounds.append(block.round_number)
