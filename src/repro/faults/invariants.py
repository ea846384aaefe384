"""Replay a recorded trace and prove safety (and bounded liveness) of a run.

The :class:`InvariantChecker` turns every simulated run from a *trusted*
execution into a *checked* one.  It combines two evidence sources:

* the live deployment's ledgers (every replica's hash chain), and
* the run's :class:`~repro.faults.trace.TraceRecorder` event trace.

and asserts the protocol-level invariants that make throughput numbers
meaningful:

``chain-integrity``
    Every replica's hash chain verifies end to end.
``replica-consistency``
    Within each height-1 domain, every replica's ledger is a prefix of the
    longest replica ledger (crashed or lagging replicas may be behind, but
    never divergent).
``conflicting-decide``
    No consensus slot is decided with two different payload digests anywhere
    in the domain (the classic "no two conflicting commits" safety property).
``decide-quorum``
    Every decided (domain, slot, digest) is backed by at least a quorum of
    *cast* votes from distinct domain members, under the domain's **real**
    quorum rule — regardless of what the engine believed at run time.
``certificate-quorum``
    Every emitted quorum certificate carries the required number of distinct
    signatures from members of the certifying domain.
``cross-atomicity``
    A cross-domain transaction is committed on *all* of its involved domains
    or on none of them.
``batch-atomicity``
    The decide-time ledger appends of one decided batch land contiguously on
    each replica, in batch-entry order — a batch is applied as a unit, never
    interleaved with other appends.  (Entries whose append happens later —
    cross-domain prepares that commit on a separate message — are covered by
    ``cross-atomicity`` instead.)
``group-atomicity``
    Per-member outcomes of every grouped 2PC exchange are correct: a grouped
    exchange commits exactly the members whose parts all prepared (every
    committed member is backed by prepared votes from every participant
    received before the commit, a member fully prepared before the group's
    outcome is never dropped, and no member is both committed and finally
    aborted).  One member aborting must not abort its groupmates; each
    member's cross-domain atomicity is still covered by ``cross-atomicity``.
``speculation-safety``
    Speculative out-of-order execution never changes the serial outcome:
    per (node, slot) the ``spec:deliver``/``spec:rollback``/``spec:commit``
    events form a legal pattern (every rollback/commit resolves an open
    speculation, commit is terminal), every rollback precedes the slot's
    in-order re-delivery, and each replica's final state is bit-identical
    to a fresh serial replay of its committed ledger entries in order.
    Checked only when the trace carries ``spec:*`` events.
``recovery-safety``
    Amnesia crashes (``wipe`` faults) never compromise agreement: the
    ``recovery:replay`` / ``recovery:catchup`` / ``recovery:rejoin`` events
    of every recovery are well-formed (replay precedes catch-up precedes
    rejoin, and a node whose wipe is followed by a recover completes its
    rejoin), a wiped node never casts conflicting votes for one
    (slot, view) across a wipe boundary (the WAL-covered-promise property),
    and every recovered replica's final state is bit-identical to a fresh
    serial replay of its committed ledger entries.  Checked only when the
    trace carries ``fault:wipe`` or ``recovery:*`` events.
``lease-safety``
    Phase-2 conflict leases resolve exactly once and correctly: every
    ``control:lease`` event is well-formed, per (node, tid) the lifecycle is
    legal (adopt/expire/drop always resolve an open grant), and every
    adoption is backed by an individual ``handoff:prepared`` at the adopted
    group's participant slot.  Checked only when the trace carries
    ``control:lease`` events.
``split-partition``
    Phase-2 shard splits preserve the state partition: split events are
    well-formed (fresh child index, parent ≠ child), every live state store
    that split still passes a full partition audit
    (:meth:`~repro.ledger.state.StateStore.verify_partition`), and in a
    fault-free run replicas of one domain perform the same splits in the
    same order (prefix rule).  Checked only when the trace carries
    ``control:split`` events.
``liveness`` (optional)
    Every issued transaction reached a final state (committed or aborted);
    checked only when the fault plan leaves each domain within its fault
    tolerance (``expect_liveness`` overrides the auto decision).

The trace passes keep only what can still violate: a pass keeps the first
value per key, and a set exists only for a key that has shown two; voters
are a bitmask, a batch is judged once its instant has passed, and a domain's
replicas are replayed once per distinct committed ledger.

``check()`` returns an :class:`InvariantReport`; ``assert_ok()`` raises
:class:`~repro.errors.InvariantViolationError` listing every violation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.types import TransactionStatus
from repro.errors import ChainIntegrityError, InvariantViolationError
from repro.faults.trace import TraceRecorder

__all__ = ["InvariantViolation", "InvariantReport", "InvariantChecker"]

#: Trace kinds that count as consensus votes for the decide-quorum check.
_VOTE_KINDS = ("commit-vote", "accept-vote")


def _judge_batch(
    number: int, event: Any, batch_tids: Tuple[str, ...], positions: "array[int]",
    appended_order: List[str], found: List[Tuple[int, "InvariantViolation"]],
) -> None:
    """Add batch ``number``'s violation, if any, to ``found``: its claimed
    appends must be contiguous in their node's stream, in batch order."""
    if not positions:
        return  # nothing appended at decide time (aborted as a unit)
    batch = f"batch {(event.digest or '')[:12]} (slot {event.slot})"
    # Positions grow along the stream: contiguous iff they span their count.
    if positions[-1] - positions[0] != len(positions) - 1:
        detail = f"appends of {batch} interleave with other appends at positions "
        detail += str(positions.tolist())
    else:
        appended = set(appended_order)
        expected_order = [tid for tid in batch_tids if tid in appended]
        if appended_order == expected_order:
            return
        detail = f"{batch} appended out of batch order: {appended_order} != {expected_order}"
    detail = f"{event.node}: {detail}"
    found.append((number, InvariantViolation("batch-atomicity", detail, domain=event.domain)))


class _FirstSeen:
    """The first value seen per key (``first``), and a set of every value
    (``more``) only for a key that has shown a second one."""

    __slots__ = ("first", "more")

    def __init__(self) -> None:
        self.first: Dict[Any, Any] = {}
        self.more: Dict[Any, Set[Any]] = {}

    def add(self, key: Any, value: Any) -> None:
        seen = self.first.setdefault(key, value)
        if seen != value:
            if key in self.more:
                self.more[key].add(value)
            else:
                self.more[key] = {seen, value}  # filled in the order seen

    def values(self, key: Any) -> Set[Any]:
        """Every value ``key`` has shown, in a set filled in the order seen."""
        if key in self.more:
            return self.more[key]
        return {self.first[key]} if key in self.first else set()


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough context to debug the run."""

    invariant: str
    detail: str
    domain: Optional[str] = None
    tid: Optional[str] = None

    def __str__(self) -> str:
        where = f" [{self.domain}]" if self.domain else ""
        what = f" {self.tid}" if self.tid else ""
        return f"{self.invariant}{where}{what}: {self.detail}"


class InvariantReport:
    """The outcome of one invariant-checking pass."""

    def __init__(
        self, violations: List[InvariantViolation], checks_run: Tuple[str, ...]
    ) -> None:
        self.violations = list(violations)
        self.checks_run = checks_run

    @property
    def ok(self) -> bool:
        return not self.violations

    def of(self, invariant: str) -> List[InvariantViolation]:
        return [v for v in self.violations if v.invariant == invariant]

    def raise_if_violated(self) -> None:
        if self.violations:
            rendered = "\n  ".join(str(v) for v in self.violations)
            raise InvariantViolationError(
                f"{len(self.violations)} invariant violation(s):\n  {rendered}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"InvariantReport({state}, checks={list(self.checks_run)})"


class InvariantChecker:
    """Checks safety (and optionally liveness) of one executed deployment."""

    def __init__(
        self,
        deployment: Any,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.deployment = deployment
        self.trace = trace if trace is not None else getattr(deployment, "trace", None)
        self.hierarchy = deployment.hierarchy
        self._server_domains = {
            domain.id.name: domain for domain in self.hierarchy.server_domains()
        }

    # ------------------------------------------------------------------ entry points

    def check(self, expect_liveness: bool = False) -> InvariantReport:
        violations: List[InvariantViolation] = []
        checks = [
            "chain-integrity",
            "replica-consistency",
            "cross-atomicity",
        ]
        violations += self._check_chain_integrity()
        violations += self._check_replica_consistency()
        violations += self._check_cross_atomicity()
        if self.trace is not None and len(self.trace):
            checks += [
                "conflicting-decide",
                "decide-quorum",
                "certificate-quorum",
                "batch-atomicity",
                "group-atomicity",
            ]
            violations += self._check_decides()
            violations += self._check_certificates()
            violations += self._check_batch_atomicity()
            violations += self._check_group_atomicity()
            # Which optional passes apply: one pass over the trace for all four.
            kinds = {event.kind for event in self.trace}
            if any(kind.startswith("spec:") for kind in kinds):
                checks.append("speculation-safety")
                violations += self._check_speculation_safety()
            if "fault:wipe" in kinds or any(
                kind.startswith("recovery:") for kind in kinds
            ):
                checks.append("recovery-safety")
                violations += self._check_recovery_safety()
            if "control:lease" in kinds:
                checks.append("lease-safety")
                violations += self._check_conflict_leases()
            if "control:split" in kinds:
                checks.append("split-partition")
                violations += self._check_shard_splits()
        if expect_liveness:
            checks.append("liveness")
            violations += self._check_liveness()
        return InvariantReport(violations, tuple(checks))

    def assert_ok(self, expect_liveness: bool = False) -> InvariantReport:
        report = self.check(expect_liveness=expect_liveness)
        report.raise_if_violated()
        return report

    # ------------------------------------------------------------------ ledger-based checks

    def _domain_ledgers(self, domain_id) -> List[Tuple[str, Any]]:
        ledgers = []
        for node in self.deployment.nodes_of(domain_id):
            if node.ledger is not None:
                ledgers.append((node.address, node.ledger))
        return ledgers

    def _check_chain_integrity(self) -> List[InvariantViolation]:
        violations = []
        for domain in self.hierarchy.height1_domains():
            for address, ledger in self._domain_ledgers(domain.id):
                try:
                    ledger.verify_integrity()
                except ChainIntegrityError as exc:
                    violations.append(
                        InvariantViolation(
                            invariant="chain-integrity",
                            domain=domain.id.name,
                            detail=f"{address}: {exc}",
                        )
                    )
        return violations

    def _check_replica_consistency(self) -> List[InvariantViolation]:
        """Replicas of one domain must agree on committed content, and the
        domains of the hierarchy must agree on the order of conflicts.

        Two properties, matching what the protocols guarantee (replica ledgers
        are eventually-consistent mirrors — cross-domain commits apply on
        receipt, so *non-conflicting* entries may interleave differently per
        replica):

        * the same transaction id always commits with the same transaction
          content everywhere (an equivocating primary forging a variant
          breaks this);
        * cross-domain transactions that overlap in at least two domains are
          committed in the same relative order on every overlapping domain's
          ledger (the paper's consistency property, Lemma 4.3).
        """
        violations = []
        for domain in self.hierarchy.height1_domains():
            ledgers = self._domain_ledgers(domain.id)
            content: Dict[Any, Tuple[str, Any]] = {}
            for address, ledger in ledgers:
                for record in ledger:
                    transaction = record.entry.transaction
                    seen = content.get(transaction.tid)
                    if seen is None:
                        content[transaction.tid] = (address, transaction)
                        continue
                    # Replicas normally hold the very same Transaction object;
                    # only a different object can carry different content.
                    if (
                        seen[1] is not transaction
                        and seen[1].canonical_bytes() != transaction.canonical_bytes()
                    ):
                        violations.append(
                            InvariantViolation(
                                invariant="replica-consistency",
                                domain=domain.id.name,
                                tid=record.entry.tid.name,
                                detail=(
                                    f"{address} committed different content than "
                                    f"{seen[0]} for the same transaction id"
                                ),
                            )
                        )
        if getattr(self.deployment, "guarantees_cross_order", True):
            violations += self._check_cross_domain_order()
        return violations

    def _collect_cross_positions(
        self,
    ) -> Tuple[Dict[str, Dict[Any, int]], Dict[Any, Any], List[Any]]:
        """Committed cross-domain entries: per-domain positions, tx by tid,
        and the tids in first-seen (reference-ledger) order."""
        positions: Dict[str, Dict[Any, int]] = {}
        transactions: Dict[Any, Any] = {}
        ordered_tids: List[Any] = []
        for domain in self.hierarchy.height1_domains():
            reference = self._reference_ledger(domain.id)
            if reference is None:
                continue
            per_domain: Dict[Any, int] = {}
            for position, record in enumerate(reference, start=1):
                transaction = record.entry.transaction
                if not transaction.is_cross_domain:
                    continue
                # Only committed survivors are order-constrained: the
                # optimistic protocol appends eagerly and aborts losers, and
                # aborted entries may legitimately sit at different positions.
                if record.entry.status is not TransactionStatus.COMMITTED:
                    continue
                per_domain[record.entry.tid] = position
                if record.entry.tid not in transactions:
                    transactions[record.entry.tid] = transaction
                    ordered_tids.append(record.entry.tid)
            positions[domain.id.name] = per_domain
        return positions, transactions, ordered_tids

    def _compare_cross_pair(
        self,
        first: Any,
        second: Any,
        positions: Dict[str, Dict[Any, int]],
        transactions: Dict[Any, Any],
    ) -> Optional[InvariantViolation]:
        """The order comparison for one candidate pair (None when consistent)."""
        overlap = set(transactions[first].involved_domains) & set(
            transactions[second].involved_domains
        )
        if len(overlap) < 2:
            return None
        orders = {}
        for domain_id in overlap:
            per_domain = positions.get(domain_id.name, {})
            if first in per_domain and second in per_domain:
                orders[domain_id.name] = per_domain[first] < per_domain[second]
        if len(set(orders.values())) > 1:
            return InvariantViolation(
                invariant="replica-consistency",
                tid=first.name,
                detail=(
                    f"conflicting cross-domain transactions "
                    f"{first.name} and {second.name} are ordered "
                    f"differently across domains: {orders}"
                ),
            )
        return None

    def _check_cross_domain_order(self) -> List[InvariantViolation]:
        """Overlapping cross-domain txs are ordered identically across domains.

        Two transactions are order-constrained iff they overlap in >= 2
        involved domains — i.e. they share at least one unordered domain
        *pair*.  Candidate pairs are therefore found by indexing transactions
        by every 2-subset of their involved domains and comparing only within
        a bucket, instead of scanning all committed-cross pairs (the O(cross²)
        walk that used to dominate checked 3 200-transaction runs), and only
        within buckets that one sort shows to be out of order.  The bucket
        walk visits exactly the pairs the naive scan would flag (the tests keep
        the old scan as the equivalence oracle).
        """
        from itertools import combinations

        violations: List[InvariantViolation] = []
        positions, transactions, ordered_tids = self._collect_cross_positions()
        # The buckets hold first-seen indices and each transaction's committed
        # position per involved domain *name*: ints and strs hash for free, id
        # dataclasses do not (~100 candidate pairs per transaction on a
        # 1 200-transaction all-cross run).
        placed: List[Dict[str, int]] = []
        buckets: Dict[Tuple[str, str], List[int]] = {}
        for index, tid in enumerate(ordered_tids):
            names = sorted(d.name for d in transactions[tid].involved_domains)
            placed.append(
                {n: positions[n][tid] for n in names if tid in positions.get(n, ())}
            )
            for pair in combinations(names, 2):
                buckets.setdefault(pair, []).append(index)
        compared: Set[int] = set()
        for (left, right), bucket in buckets.items():
            # Two transactions can only disagree across two domains that both
            # placed them, and they then share that domain pair's bucket, whose
            # members cannot sit in one order on both domains.  So every
            # violating pair is in a bucket this sort finds out of order; the
            # others are skipped and a clean run never walks a pair.
            both = sorted(
                (placed[i][left], placed[i][right])
                for i in bucket
                if left in placed[i] and right in placed[i]
            )
            if all(a[1] < b[1] for a, b in zip(both, both[1:])):
                continue
            # Buckets fill in first-seen order, so ``first < second`` and the
            # emitted violation is identical to the naive scan's, whichever
            # shared domain pair surfaced the candidate.
            for offset, first in enumerate(bucket, start=1):
                mine = placed[first]
                for second in bucket[offset:]:
                    key = first * len(placed) + second
                    if key in compared:
                        continue
                    compared.add(key)
                    theirs = placed[second]
                    if len({mine[n] < theirs[n] for n in mine if n in theirs}) > 1:
                        violation = self._compare_cross_pair(
                            ordered_tids[first], ordered_tids[second],
                            positions, transactions,
                        )
                        if violation is not None:
                            violations.append(violation)
        return violations

    def _reference_ledger(self, domain_id) -> Optional[Any]:
        ledgers = self._domain_ledgers(domain_id)
        if not ledgers:
            return None
        return max(ledgers, key=lambda item: len(item[1]))[1]

    def _check_cross_atomicity(self) -> List[InvariantViolation]:
        violations = []
        # Gather every cross-domain entry observed on any reference ledger.
        status_by_tid: Dict[Any, Dict[str, TransactionStatus]] = {}
        involved_by_tid: Dict[Any, Tuple[Any, ...]] = {}
        references = {}
        for domain in self.hierarchy.height1_domains():
            reference = self._reference_ledger(domain.id)
            references[domain.id] = reference
            if reference is None:
                continue
            for entry in reference.entries():
                if not entry.transaction.is_cross_domain:
                    continue
                involved_by_tid[entry.tid] = entry.transaction.involved_domains
                status_by_tid.setdefault(entry.tid, {})[domain.id.name] = entry.status
        for tid, statuses in status_by_tid.items():
            committed_on = [
                name
                for name, status in statuses.items()
                if status is TransactionStatus.COMMITTED
            ]
            if not committed_on:
                continue
            involved = involved_by_tid[tid]
            missing = [
                domain_id.name
                for domain_id in involved
                if statuses.get(domain_id.name) is not TransactionStatus.COMMITTED
            ]
            if missing:
                violations.append(
                    InvariantViolation(
                        invariant="cross-atomicity",
                        tid=tid.name,
                        detail=(
                            f"committed on {sorted(committed_on)} but not on "
                            f"{sorted(missing)} (involved: "
                            f"{[d.name for d in involved]})"
                        ),
                    )
                )
        return violations

    # ------------------------------------------------------------------ trace-based checks

    def _check_decides(self) -> List[InvariantViolation]:
        violations = []
        assert self.trace is not None
        decided = _FirstSeen()  # (domain, slot) -> decided digest(s)
        # The voters of each (domain, slot, digest) as a bitmask over the
        # domain's voter names, numbered as they first vote.
        voters: Dict[Tuple[str, int, str], int] = {}
        bits: Dict[str, Dict[str, int]] = {}
        for event in self.trace:
            if event.domain is None or event.slot is None or event.digest is None:
                continue
            if event.kind == "decide":
                decided.add((event.domain, event.slot), event.digest)
            elif event.kind in _VOTE_KINDS:
                numbered = bits.setdefault(event.domain, {})
                node = event.node or "?"
                bit = numbered.get(node)
                if bit is None:
                    bit = numbered[node] = 1 << len(numbered)
                key = (event.domain, event.slot, event.digest)
                voters[key] = voters.get(key, 0) | bit
        for domain_name, slot in sorted(decided.first):
            digests = decided.values((domain_name, slot))
            if len(digests) > 1:
                violations.append(
                    InvariantViolation(
                        invariant="conflicting-decide",
                        domain=domain_name,
                        detail=(
                            f"slot {slot} decided with {len(digests)} different "
                            f"payloads: {sorted(d[:12] for d in digests)}"
                        ),
                    )
                )
            domain = self._server_domains.get(domain_name)
            if domain is None:
                continue
            quorum = domain.quorum
            for digest_hex in digests:
                cast = voters.get((domain_name, slot, digest_hex), 0).bit_count()
                if cast < quorum:
                    violations.append(
                        InvariantViolation(
                            invariant="decide-quorum",
                            domain=domain_name,
                            detail=(
                                f"slot {slot} (digest {digest_hex[:12]}) decided "
                                f"with only {cast} cast vote(s); the real "
                                f"quorum is {quorum}"
                            ),
                        )
                    )
        return violations

    def _check_certificates(self) -> List[InvariantViolation]:
        violations = []
        assert self.trace is not None
        for event in self.trace.events("certify"):
            domain = self._server_domains.get(event.domain) if event.domain else None
            if domain is None:
                violations.append(
                    InvariantViolation(
                        invariant="certificate-quorum",
                        domain=event.domain,
                        detail="certificate emitted by unknown domain",
                    )
                )
                continue
            signers = list(event.get("signers", ()))
            required = event.get("required", 0)
            members = set(domain.node_names)
            problems = []
            if required != domain.certificate_size:
                problems.append(
                    f"required={required} but the domain's certificate size "
                    f"is {domain.certificate_size}"
                )
            if len(set(signers)) < len(signers):
                problems.append("duplicate signers")
            if len(set(signers)) < required:
                problems.append(
                    f"only {len(set(signers))} distinct signer(s) of {required}"
                )
            outsiders = sorted(set(signers) - members)
            if outsiders:
                problems.append(f"signers outside the domain: {outsiders}")
            for problem in problems:
                violations.append(
                    InvariantViolation(
                        invariant="certificate-quorum",
                        domain=event.domain,
                        tid=event.tid,
                        detail=problem,
                    )
                )
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
        found = self._batch_violations(settle=True)
        if found is None:  # a node's clock stepped back: judge at the end instead
            found = self._batch_violations(settle=False)
        return [violation for _, violation in sorted(found, key=itemgetter(0))]

    def _batch_violations(
        self, settle: bool
    ) -> Optional[List[Tuple[int, InvariantViolation]]]:
        """The batch-atomicity violations as ``(batch number, violation)``.

        One pass in trace order.  Each append is claimed by the earliest
        batch decided before it at its node and instant that lists its tid: a
        batch's decide-time appends share its instant, so an append looks up
        only its own instant's batches.  With ``settle``, a node's batches are
        judged and let go as soon as the node records a later instant, so only
        each node's open instant is held; that needs each node's events in
        time order, and ``None`` says they were not (a simulated run's are).
        """
        found: List[Tuple[int, InvariantViolation]] = []
        # (node, instant) -> its batches, as (number, event, tids, the claimed
        # appends' positions in the node's append stream, their tids).
        open_at: Dict[Tuple[str, float], List[Tuple[Any, ...]]] = {}
        instant: Dict[str, float] = {}
        stream_length: Dict[str, int] = {}
        decided = 0
        for event in self.trace:
            kind, node, at = event.kind, event.node, event.at_ms
            if node is None or (kind != "append" and kind != "batch-decide"):
                continue
            if settle:
                last = instant.setdefault(node, at)
                if at != last:
                    if at < last:
                        return None
                    instant[node] = at
                    for batch in open_at.pop((node, last), ()):
                        _judge_batch(*batch, found)
            if kind == "batch-decide":
                batch_tids = event.get("tids", ())
                if any(batch_tids):
                    batch = (decided, event, batch_tids, array("q"), [])
                    open_at.setdefault((node, at), []).append(batch)
                    decided += 1
                continue
            index = stream_length.get(node, 0)
            stream_length[node] = index + 1
            tid = event.tid
            if not tid:
                continue
            for _, _, batch_tids, positions, tids in open_at.get((node, at), ()):
                if tid in batch_tids:
                    positions.append(index)
                    tids.append(tid)
                    break
        for batches in open_at.values():
            for batch in batches:
                _judge_batch(*batch, found)
        return found

    def _check_group_atomicity(self) -> List[InvariantViolation]:
        """Grouped 2PC exchanges commit exactly the fully-prepared members.

        Replays every grouped exchange from its coordinator-side events: the
        membership from ``group-prepare``, the per-participant vote receipts
        from ``group-vote``, and the per-member outcomes from ``group-commit``
        / ``abort``.  Trace positions order evidence against
        outcome: a commit may only cover members whose votes from *every*
        participant were received before it, a member fully voted before the
        group's first commit must be part of it (unless individually retried
        or aborted), and no member is both committed and finally aborted.
        """
        violations: List[InvariantViolation] = []
        assert self.trace is not None
        # Per exchange: its prepares and aborts, and the trace position of
        # each member's first commit and of its first vote from each
        # participant.
        exchanges: Dict[
            Tuple[Optional[str], Any],
            Tuple[List[Any], List[Any], Dict[str, int], Dict[str, Dict[str, int]]],
        ] = {}
        for seq, key, bucket, event in self.trace.exchange_events():
            if key not in exchanges:
                exchanges[key] = ([], [], {}, {})
            prepares, aborts, committed, votes = exchanges[key]
            if bucket == "commit":
                for tid in event.get("tids", ()):
                    committed.setdefault(tid, seq)
            elif bucket == "vote":
                participant = event.get("participant")
                for tid in event.get("tids", ()):
                    votes.setdefault(tid, {}).setdefault(participant, seq)
            else:
                (prepares if bucket == "prepare" else aborts).append(event)
        for (domain_name, gid), exchange in exchanges.items():
            prepares, aborts, committed, votes = exchange
            if not prepares:
                continue  # exchange never took effect on a primary
            prepare = prepares[0]
            members = [tid for tid in prepare.get("tids", ()) if tid]
            member_set = set(members)
            participants = set(prepare.get("participants", ()))
            final_aborted: Set[str] = set()
            retried: Set[str] = set()
            for event in aborts:
                target = retried if event.get("will_retry") else final_aborted
                target.update(event.get("tids", ()))

            def _blame(detail: str, tid: Optional[str] = None) -> None:
                violations.append(
                    InvariantViolation(
                        invariant="group-atomicity",
                        domain=domain_name,
                        tid=tid,
                        detail=f"group {gid}: {detail}",
                    )
                )

            for tid, commit_seq in sorted(committed.items()):
                if tid not in member_set:
                    _blame("committed a transaction outside the group", tid)
                    continue  # the missing votes are the same defect
                unbacked = participants - {
                    participant
                    for participant, vote_seq in votes.get(tid, {}).items()
                    if vote_seq < commit_seq
                }
                if unbacked:
                    _blame(
                        "committed without prepared votes from "
                        f"{sorted(unbacked)}",
                        tid,
                    )
                if tid in final_aborted:
                    _blame("both committed and finally aborted", tid)
            if committed and participants:
                first_commit_seq = min(committed.values())
                for tid in members:
                    if tid in committed or tid in retried or tid in final_aborted:
                        continue
                    voted = votes.get(tid, {})
                    fully_prepared = all(
                        participant in voted and voted[participant] < first_commit_seq
                        for participant in participants
                    )
                    if fully_prepared:
                        _blame(
                            "fully prepared before the group outcome but "
                            "left uncommitted",
                            tid,
                        )
        return violations

    # ------------------------------------------------------------------ speculation

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
        violations += self._replay_violations(
            "speculation-safety",
            "final state differs from a serial in-order replay of its committed "
            "ledger entries",
            lambda address: address not in dangling,
        )
        return violations

    def _replay_violations(
        self, invariant: str, differs: str, replays: Callable[[str], bool]
    ) -> List[InvariantViolation]:
        """A violation for each height-1 replica ``replays(address)`` names
        whose state differs from a serial replay of its committed ledger
        entries, in ledger order, on a freshly initialized store.  Replicas
        of a domain mostly hold one committed sequence: there is one replay
        per distinct (domain, shard count, committed transactions).
        """
        from repro.ledger.state import StateStore

        violations: List[InvariantViolation] = []
        application = getattr(self.deployment, "application", None)
        if application is None:
            return violations
        for domain in self.hierarchy.height1_domains():
            replayed: List[Tuple[int, List[Any], Dict[str, Any]]] = []
            for node in self.deployment.nodes_of(domain.id):
                if node.ledger is None or node.state is None or not replays(node.address):
                    continue
                shards = node.state.shard_count
                committed = [
                    record.entry.transaction
                    for record in node.ledger
                    if record.entry.status is TransactionStatus.COMMITTED
                ]
                for known_shards, known, snapshot in replayed:
                    if known_shards == shards and known == committed:
                        break
                else:
                    fresh = StateStore(name=f"replay:{domain.id.name}", shards=shards)
                    application.initialize_domain(domain, fresh)
                    for transaction in committed:
                        application.execute(transaction, fresh, domain.id)
                    snapshot = fresh.snapshot()
                    replayed.append((shards, committed, snapshot))
                if snapshot != node.state.snapshot():
                    violations.append(
                        InvariantViolation(
                            invariant=invariant,
                            domain=domain.id.name,
                            detail=f"{node.address}: {differs}",
                        )
                    )
        return violations

    # ------------------------------------------------------------------ recovery

    def _check_recovery_safety(self) -> List[InvariantViolation]:
        """Amnesia-crash recovery is complete, ordered, and never equivocates."""
        violations: List[InvariantViolation] = []
        violations += self._check_recovery_wellformed()
        violations += self._check_wiped_promises()
        violations += self._check_recovered_state_replay()
        return violations

    def _check_recovery_wellformed(self) -> List[InvariantViolation]:
        """Recovery traces follow the wipe → replay → catch-up → rejoin shape.

        Per node, in trace order: replay is only legal after a wipe (or as a
        restart of an interrupted recovery), catch-up only after a replay,
        rejoin only while recovering — and a node whose last wipe is followed
        by a ``fault:recover`` must complete its rejoin before the run ends.
        """
        violations: List[InvariantViolation] = []
        assert self.trace is not None
        kinds = (
            "fault:wipe",
            "fault:recover",
            "recovery:replay",
            "recovery:catchup",
            "recovery:rejoin",
        )
        by_node: Dict[str, List[Any]] = {}
        for event in self.trace:
            if event.kind in kinds and event.node is not None:
                by_node.setdefault(event.node, []).append(event)

        for node, events in sorted(by_node.items()):
            stage = "idle"  # idle -> wiped -> recovering -> idle
            last_wipe_seq = -1
            last_recover_seq = -1

            def _blame(detail: str, event: Any) -> None:
                violations.append(
                    InvariantViolation(
                        invariant="recovery-safety",
                        domain=event.domain,
                        detail=f"{node}: {detail}",
                    )
                )

            for seq, event in enumerate(events):
                if event.kind == "fault:wipe":
                    stage = "wiped"
                    last_wipe_seq = seq
                elif event.kind == "fault:recover":
                    last_recover_seq = seq
                elif event.kind == "recovery:replay":
                    if stage == "idle":
                        _blame("recovery:replay without a preceding wipe", event)
                    else:
                        # First replay of this recovery, or the restart of an
                        # attempt an interleaved crash abandoned — both legal.
                        stage = "recovering"
                elif event.kind == "recovery:catchup":
                    if stage != "recovering":
                        _blame("recovery:catchup before any replay", event)
                elif event.kind == "recovery:rejoin":
                    if stage != "recovering":
                        _blame("recovery:rejoin without replay/catch-up", event)
                    stage = "idle"
            if stage != "idle" and last_recover_seq > last_wipe_seq:
                violations.append(
                    InvariantViolation(
                        invariant="recovery-safety",
                        detail=(
                            f"{node}: wiped and recovered but never reached "
                            "recovery:rejoin"
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
        # (node, kind, view) -> slot -> digest(s): the slot's own int is the
        # key, so a vote costs a dict entry and no key tuple.
        votes: Dict[Tuple[str, str, int], _FirstSeen] = {}
        for event in self.trace:
            if (
                event.kind in ("prepare-vote", "commit-vote", "accept-vote")
                and event.node in wiped
                and event.digest is not None
                and event.slot is not None
                and event.view is not None
            ):
                key = (event.node, event.kind, event.view)
                per_slot = votes.get(key)
                if per_slot is None:
                    per_slot = votes[key] = _FirstSeen()
                per_slot.add(event.slot, event.digest)
        conflicts = sorted(
            ((node, kind, slot, view), digests)
            for (node, kind, view), per_slot in votes.items()
            for slot, digests in per_slot.more.items()
        )
        for (node, kind, slot, view), digests in conflicts:
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
        assert self.trace is not None
        # Each node's latest wipe or rejoin, in trace order.
        latest: Dict[str, str] = {}
        for event in self.trace:
            if event.node and event.kind in ("recovery:rejoin", "fault:wipe"):
                latest[event.node] = event.kind
        targets = {node for node, kind in latest.items() if kind == "recovery:rejoin"}
        return self._replay_violations(
            "recovery-safety",
            "post-recovery state differs from a serial replay of its committed "
            "ledger entries",
            targets.__contains__,
        )

    # ------------------------------------------------------------------ control plane (phase 2)

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

        prepared_slots = _FirstSeen()  # (node, tid) -> slot(s)
        for event in self.trace.events("handoff:prepared"):
            if event.node is None or event.tid is None:
                continue
            prepared_slots.add((event.node, event.tid), event.slot)
        group_slots = _FirstSeen()  # (node, gid) -> slot(s)
        for event in self.trace.events("handoff:group-prepared"):
            if event.node is None:
                continue
            group_slots.add((event.node, event.get("gid")), event.slot)

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
            if slot not in prepared_slots.values(key):
                _blame(
                    event,
                    f"adopted into slot {slot} but no individual "
                    "handoff:prepared vote was sent at that slot",
                )
            gid = event.get("gid")
            slots = group_slots.values((event.node, gid))
            if slots and slots != {slot}:
                _blame(
                    event,
                    f"adopted into group {gid} at slot {slot} but the group "
                    f"prepared at slot(s) {sorted(slots)}",
                )
        return violations

    def _check_shard_splits(self) -> List[InvariantViolation]:
        """Shard splits preserve the state partition and replica agreement.

        * per node the ``control:split`` events are well-formed: every new
          child shard index is fresh (strictly above all earlier child
          indices on that node) and distinct from its parent;
        * every live state store on a node that traced splits still passes a
          full partition audit — each write-log record and version routes to
          the shard that holds it, no version is duplicated, and the
          per-shard logs sum to the global write count;
        * in a fault-free run, replicas of one domain perform the same
          splits in the same order (a lagging replica may be behind, but
          never divergent) — splitting is driven by the deterministic
          cumulative write distribution, so disagreement means the replicas
          executed different histories.
        """
        violations: List[InvariantViolation] = []
        assert self.trace is not None
        events = self.trace.events("control:split")
        by_node: Dict[str, List[Any]] = {}
        for event in events:
            if event.node is not None:
                by_node.setdefault(event.node, []).append(event)

        def _blame(domain: Optional[str], detail: str) -> None:
            violations.append(
                InvariantViolation(
                    invariant="split-partition", domain=domain, detail=detail
                )
            )

        for node_name, node_events in sorted(by_node.items()):
            highest_child: Optional[int] = None
            for event in node_events:
                parent = event.get("shard")
                child = event.get("child")
                if parent is None or child is None or parent == child:
                    _blame(
                        event.domain,
                        f"{node_name}: malformed split event "
                        f"(shard={parent!r}, child={child!r})",
                    )
                    continue
                if highest_child is not None and child <= highest_child:
                    _blame(
                        event.domain,
                        f"{node_name}: child shard {child} reuses an index "
                        f"(an earlier split already created shard "
                        f"{highest_child})",
                    )
                highest_child = child if highest_child is None else max(
                    highest_child, child
                )

        for domain in self.hierarchy.height1_domains():
            for node in self.deployment.nodes_of(domain.id):
                if node.address not in by_node:
                    continue
                state = getattr(node, "state", None)
                if state is None or not getattr(state, "split_count", 0):
                    continue  # wiped/rebuilt store — splits were discarded
                for problem in state.verify_partition():
                    _blame(domain.id.name, f"{node.address}: {problem}")

        if not self.trace.events_with_prefix("fault:"):
            by_domain: Dict[str, Dict[str, List[Tuple[Any, Any]]]] = {}
            for node_name, node_events in by_node.items():
                domain_name = node_events[0].domain
                by_domain.setdefault(domain_name, {})[node_name] = [
                    (event.get("shard"), event.get("child"))
                    for event in node_events
                ]
            for domain_name, per_node in sorted(by_domain.items()):
                longest_node = max(per_node, key=lambda name: len(per_node[name]))
                longest = per_node[longest_node]
                for node_name, sequence in sorted(per_node.items()):
                    if sequence != longest[: len(sequence)]:
                        _blame(
                            domain_name,
                            f"{node_name} split {sequence} which is not a "
                            f"prefix of {longest_node}'s splits {longest}",
                        )
        return violations

    # ------------------------------------------------------------------ liveness

    def _check_liveness(self) -> List[InvariantViolation]:
        violations = []
        metrics = getattr(self.deployment, "metrics", None)
        if metrics is None:
            return violations
        for record in metrics.records():
            if not record.is_committed and not record.is_aborted:
                violations.append(
                    InvariantViolation(
                        invariant="liveness",
                        tid=record.tid.name,
                        detail=(
                            f"issued at {record.issued_at:.1f}ms but never "
                            "reached a final state"
                        ),
                    )
                )
        return violations
