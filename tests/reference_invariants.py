"""The invariant checker's trace passes as they were before first-seen
records: the reference the ``InvariantChecker`` must agree with exactly.

``ReferenceChecker`` is an :class:`~repro.faults.invariants.InvariantChecker`
whose decide, batch-atomicity, speculation, wiped-promise, recovered-state
and lease passes keep a set per key, hold every batch to the end of the
trace and replay every replica's ledger on its own.  ``tests/test_checker_oracle.py`` requires both
checkers to return the same report, violation order and text included, and
``tests/test_checker_memory.py`` holds the new passes' memory below what these
take.  Not collected: the module name does not start with ``test_``.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.types import TransactionStatus
from repro.faults.invariants import _VOTE_KINDS, InvariantChecker, InvariantViolation

__all__ = ["ReferenceChecker"]


class ReferenceChecker(InvariantChecker):
    """The checker with the pre-first-seen pass bodies."""

    def _check_decides(self) -> List[InvariantViolation]:
        violations = []
        assert self.trace is not None
        digests: Dict[Tuple[str, int], Set[str]] = {}
        votes: Dict[Tuple[str, int, str], Set[str]] = {}
        for event in self.trace:
            if event.domain is None or event.slot is None:
                continue
            if event.kind == "decide" and event.digest is not None:
                digests.setdefault((event.domain, event.slot), set()).add(event.digest)
            elif event.kind in _VOTE_KINDS and event.digest is not None:
                key = (event.domain, event.slot, event.digest)
                votes.setdefault(key, set()).add(event.node or "?")
        for (domain_name, slot), decided in sorted(digests.items()):
            if len(decided) > 1:
                violations.append(
                    InvariantViolation(
                        invariant="conflicting-decide",
                        domain=domain_name,
                        detail=(
                            f"slot {slot} decided with {len(decided)} different "
                            f"payloads: {sorted(d[:12] for d in decided)}"
                        ),
                    )
                )
            quorum = self._real_quorum(domain_name)
            if quorum is None:
                continue
            for digest_hex in decided:
                cast = votes.get((domain_name, slot, digest_hex), set())
                if len(cast) < quorum:
                    violations.append(
                        InvariantViolation(
                            invariant="decide-quorum",
                            domain=domain_name,
                            detail=(
                                f"slot {slot} (digest {digest_hex[:12]}) decided "
                                f"with only {len(cast)} cast vote(s); the real "
                                f"quorum is {quorum}"
                            ),
                        )
                    )
        return violations

    def _real_quorum(self, domain_name: str) -> Optional[int]:
        domain = self._server_domains.get(domain_name)
        if domain is None:
            return None
        return domain.quorum

    def _check_speculation_safety(self) -> List[InvariantViolation]:
        """Speculative execution must be invisible in the committed outcome.

        Three sub-checks over the ``spec:deliver`` / ``spec:rollback`` /
        ``spec:commit`` events the engine emits:

        * per (node, slot) the events form a legal pattern — a rollback or
          commit always resolves an open speculation, a commit is terminal,
          and a slot is never speculated twice without a rollback in between;
        * every rollback happens *before* the slot's final in-order delivery
          (``batch-decide``) on that node — once a slot is committed in
          order it must never be unwound;
        * each replica's final state equals a fresh serial replay of its
          committed ledger entries, in ledger order, against a freshly
          initialized state store (bit-identical snapshots).  Replicas that
          end the run with a still-open speculation are exempt from the
          replay (their state legitimately holds uncommitted effects).
        """
        violations: List[InvariantViolation] = []
        assert self.trace is not None
        by_key: Dict[Tuple[str, int], List[Tuple[int, Any]]] = {}
        final_decide: Dict[Tuple[str, int], int] = {}
        for seq, event in enumerate(self.trace):
            if event.kind == "batch-decide":
                if event.node is not None and event.slot is not None:
                    final_decide[(event.node, event.slot)] = seq
                continue
            if not event.kind.startswith("spec:"):
                continue
            if event.node is None or event.slot is None:
                violations.append(
                    InvariantViolation(
                        invariant="speculation-safety",
                        domain=event.domain,
                        detail=f"{event.kind} event without a node/slot",
                    )
                )
                continue
            by_key.setdefault((event.node, event.slot), []).append((seq, event))

        dangling: Set[str] = set()
        for (node, slot), events in sorted(by_key.items()):
            open_spec = False
            committed = False

            def _blame(detail: str, event: Any) -> None:
                violations.append(
                    InvariantViolation(
                        invariant="speculation-safety",
                        domain=event.domain,
                        detail=f"{node} slot {slot}: {detail}",
                    )
                )

            for seq, event in events:
                if event.kind == "spec:deliver":
                    if committed:
                        _blame("speculatively re-delivered after commit", event)
                    elif open_spec:
                        _blame(
                            "speculatively delivered twice without a rollback",
                            event,
                        )
                    else:
                        open_spec = True
                elif event.kind == "spec:rollback":
                    if committed or not open_spec:
                        _blame("rollback without an open speculation", event)
                        continue
                    open_spec = False
                    decide_seq = final_decide.get((node, slot))
                    if decide_seq is not None and decide_seq < seq:
                        _blame(
                            "rolled back after the slot's in-order delivery",
                            event,
                        )
                elif event.kind == "spec:commit":
                    if committed or not open_spec:
                        _blame("commit without an open speculation", event)
                    else:
                        open_spec = False
                        committed = True
            if open_spec and not committed:
                dangling.add(node)
        violations += self._check_speculative_state_replay(dangling)
        return violations

    def _check_batch_atomicity(self) -> List[InvariantViolation]:
        """Decide-time appends of one batch are contiguous and in batch order.

        Each ``batch-decide`` trace event names the transactions its entries
        carry, in entry order.  On every node, the appends that the batch
        delivery triggered synchronously (same node, same simulated instant,
        tid listed in the batch) must form one consecutive run of that node's
        append stream, ordered as the batch orders them.  Entries that do not
        append at decide time (e.g. cross-domain prepares, which append when
        the coordinator's commit arrives) are exempt here and covered by the
        cross-atomicity check.

        A transaction may legally be *ordered* twice (a retransmission under
        an equivocating primary lands the same tid in a later batch; the
        apply path dedups against the ledger so it appends once).  Each
        append is therefore attributed to at most one batch — the earliest
        batch-decide recorded before it — so a duplicate tid in a later
        batch, deciding at the same catch-up instant, is not miscounted as
        one of that batch's appends.
        """
        violations: List[InvariantViolation] = []
        assert self.trace is not None
        if not any(event.kind == "batch-decide" for event in self.trace):
            return violations  # unbatched ordering: nothing to index
        # One pass in trace order.  Each append is claimed by the earliest
        # batch decided before it at its node and instant that lists its
        # tid: a batch's decide-time appends share its instant, so an append
        # looks up only its own instant's batches, as ``(tids, positions,
        # appended tids)``: the batch's tids, then the claimed appends'
        # positions in their node's append stream and their tids.
        batches: List[Any] = []
        claimed: List[Tuple["array[int]", List[str]]] = []
        at_instant: Dict[
            Tuple[str, float], List[Tuple[Tuple[str, ...], "array[int]", List[str]]]
        ] = {}
        stream_length: Dict[str, int] = {}
        for event in self.trace:
            kind = event.kind
            if kind == "batch-decide":
                node = event.node
                batch_tids = event.get("tids", ())
                if node is not None and any(batch_tids):
                    claim: Tuple["array[int]", List[str]] = (array("q"), [])
                    key = (node, event.at_ms)
                    at_instant.setdefault(key, []).append((batch_tids, *claim))
                    batches.append(event)
                    claimed.append(claim)
                continue
            node = event.node
            if kind != "append" or node is None:
                continue
            index = stream_length.get(node, 0)
            stream_length[node] = index + 1
            tid = event.tid
            if not tid:
                continue
            for batch_tids, positions, tids in at_instant.get((node, event.at_ms), ()):
                if tid in batch_tids:
                    positions.append(index)
                    tids.append(tid)
                    break
        for event, (positions, appended_order) in zip(batches, claimed):
            if not positions:
                continue  # nothing appended at decide time (aborted as a unit)
            # Positions grow along the stream: contiguous iff they span their count.
            if positions[-1] - positions[0] != len(positions) - 1:
                violations.append(
                    InvariantViolation(
                        invariant="batch-atomicity",
                        domain=event.domain,
                        detail=(
                            f"{event.node}: appends of batch "
                            f"{(event.digest or '')[:12]} (slot {event.slot}) "
                            f"interleave with other appends at positions "
                            f"{positions.tolist()}"
                        ),
                    )
                )
                continue
            appended = set(appended_order)
            expected_order = [tid for tid in event.get("tids", ()) if tid in appended]
            if appended_order != expected_order:
                violations.append(
                    InvariantViolation(
                        invariant="batch-atomicity",
                        domain=event.domain,
                        detail=(
                            f"{event.node}: batch {(event.digest or '')[:12]} "
                            f"(slot {event.slot}) appended out of batch order: "
                            f"{appended_order} != {expected_order}"
                        ),
                    )
                )
        return violations

    def _check_speculative_state_replay(
        self, skip_nodes: Set[str]
    ) -> List[InvariantViolation]:
        """Final replica state == serial in-order replay of its committed log."""
        from repro.ledger.state import StateStore

        violations: List[InvariantViolation] = []
        application = getattr(self.deployment, "application", None)
        if application is None:
            return violations
        for domain in self.hierarchy.height1_domains():
            for node in self.deployment.nodes_of(domain.id):
                if node.ledger is None or node.state is None:
                    continue
                if node.address in skip_nodes:
                    continue
                fresh = StateStore(
                    name=f"replay:{node.address}", shards=node.state.shard_count
                )
                application.initialize_domain(domain, fresh)
                for record in node.ledger:
                    if record.entry.status is not TransactionStatus.COMMITTED:
                        continue
                    application.execute(record.entry.transaction, fresh, domain.id)
                if fresh.snapshot() != node.state.snapshot():
                    violations.append(
                        InvariantViolation(
                            invariant="speculation-safety",
                            domain=domain.id.name,
                            detail=(
                                f"{node.address}: final state differs from a "
                                "serial in-order replay of its committed "
                                "ledger entries"
                            ),
                        )
                    )
        return violations

    def _check_wiped_promises(self) -> List[InvariantViolation]:
        """A wiped node never casts conflicting votes for one (slot, view).

        The WAL-covered-promise property: across a wipe boundary the node's
        own vote stream (prepare / commit / accept) must stay single-valued
        per (kind, slot, view) — voting for a second digest after recovery
        would mean the replayed log failed to re-arm a durable promise.
        """
        violations: List[InvariantViolation] = []
        assert self.trace is not None
        wiped = {
            event.node for event in self.trace.events("fault:wipe") if event.node
        }
        if not wiped:
            return violations
        votes: Dict[Tuple[str, str, int, int], Set[str]] = {}
        for event in self.trace:
            if (
                event.kind in ("prepare-vote", "commit-vote", "accept-vote")
                and event.node in wiped
                and event.digest is not None
                and event.slot is not None
                and event.view is not None
            ):
                key = (event.node, event.kind, event.slot, event.view)
                votes.setdefault(key, set()).add(event.digest)
        for (node, kind, slot, view), digests in sorted(votes.items()):
            if len(digests) > 1:
                violations.append(
                    InvariantViolation(
                        invariant="recovery-safety",
                        detail=(
                            f"{node} cast {kind} for {len(digests)} different "
                            f"payloads in slot {slot} view {view}: "
                            f"{sorted(d[:12] for d in digests)}"
                        ),
                    )
                )
        return violations

    def _check_recovered_state_replay(self) -> List[InvariantViolation]:
        """Recovered replica state == serial replay of its committed ledger.

        Only replicas whose last recovery *completed* (a ``recovery:rejoin``
        with no later wipe) are held to this — a replica that ends the run
        wiped or mid-recovery legitimately lags.
        """
        from repro.ledger.state import StateStore

        violations: List[InvariantViolation] = []
        assert self.trace is not None
        # Each node's latest wipe or rejoin, in trace order.
        latest: Dict[str, str] = {}
        for event in self.trace:
            if event.node and event.kind in ("recovery:rejoin", "fault:wipe"):
                latest[event.node] = event.kind
        targets = {node for node, kind in latest.items() if kind == "recovery:rejoin"}
        application = getattr(self.deployment, "application", None)
        if application is None or not targets:
            return violations
        for domain in self.hierarchy.height1_domains():
            for node in self.deployment.nodes_of(domain.id):
                if node.address not in targets:
                    continue
                if node.ledger is None or node.state is None:
                    continue
                fresh = StateStore(
                    name=f"recovery-replay:{node.address}",
                    shards=node.state.shard_count,
                )
                application.initialize_domain(domain, fresh)
                for record in node.ledger:
                    if record.entry.status is not TransactionStatus.COMMITTED:
                        continue
                    application.execute(record.entry.transaction, fresh, domain.id)
                if fresh.snapshot() != node.state.snapshot():
                    violations.append(
                        InvariantViolation(
                            invariant="recovery-safety",
                            domain=domain.id.name,
                            detail=(
                                f"{node.address}: post-recovery state differs "
                                "from a serial replay of its committed ledger "
                                "entries"
                            ),
                        )
                    )
        return violations

    def _check_conflict_leases(self) -> List[InvariantViolation]:
        """Conflict leases resolve exactly once, and adoptions are real.

        Replays the ``control:lease`` stream per (node, tid): a lease opens
        with ``grant`` and closes with exactly one of ``adopt`` / ``expire``
        / ``drop`` (a closed lease may be re-granted later — the member was
        re-offered and conflicted again).  Every adoption must be backed by
        an individual ``handoff:prepared`` on the same node for the adopted
        tid at the group's participant slot — the adoptee shares the group's
        slot but votes through its *own* coordinator, so a missing or
        mis-slotted prepared vote means the adoption was cosmetic.  When the
        adopting group also ordered regular members, its
        ``handoff:group-prepared`` must carry the same slot.
        """
        violations: List[InvariantViolation] = []
        assert self.trace is not None

        prepared_slots: Dict[Tuple[str, str], Set[Optional[int]]] = {}
        for event in self.trace.events("handoff:prepared"):
            if event.node is None or event.tid is None:
                continue
            prepared_slots.setdefault((event.node, event.tid), set()).add(event.slot)
        group_slots: Dict[Tuple[str, Any], Set[Optional[int]]] = {}
        for event in self.trace.events("handoff:group-prepared"):
            if event.node is None:
                continue
            group_slots.setdefault((event.node, event.get("gid")), set()).add(
                event.slot
            )

        def _blame(event: Any, detail: str) -> None:
            violations.append(
                InvariantViolation(
                    invariant="lease-safety",
                    domain=event.domain,
                    tid=event.tid,
                    detail=f"{event.node}: {detail}",
                )
            )

        open_leases: Set[Tuple[Optional[str], Optional[str]]] = set()
        for event in self.trace.events("control:lease"):
            action = event.get("action")
            key = (event.node, event.tid)
            if action not in ("grant", "adopt", "expire", "drop") or event.tid is None:
                _blame(event, f"malformed lease event (action={action!r})")
                continue
            if action == "grant":
                if key in open_leases:
                    _blame(event, "granted while an earlier lease is still open")
                open_leases.add(key)
                continue
            if key not in open_leases:
                _blame(event, f"lease {action} without an open grant")
                continue
            open_leases.discard(key)
            if action != "adopt":
                continue
            slot = event.slot
            if slot not in prepared_slots.get((event.node, event.tid), set()):
                _blame(
                    event,
                    f"adopted into slot {slot} but no individual "
                    "handoff:prepared vote was sent at that slot",
                )
            gid = event.get("gid")
            slots = group_slots.get((event.node, gid))
            if slots and slots != {slot}:
                _blame(
                    event,
                    f"adopted into group {gid} at slot {slot} but the group "
                    f"prepared at slot(s) {sorted(slots)}",
                )
        return violations
