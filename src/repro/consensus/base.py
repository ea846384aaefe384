"""Engine-independent machinery shared by Paxos and PBFT.

An *engine* runs on every node of a domain and agrees on a totally ordered
log of slots.  The engine is transport-agnostic: its *host* (a simulated
server node) supplies message sending, timers and the delivery callback.
Decisions are always delivered to the host **in slot order** — the engine
buffers out-of-order decisions — because both the blockchain ledger and the
cross-domain protocols rely on a gap-free total order.

Ordering is *batched*: protocol components hand payloads to
:meth:`ConsensusEngine.submit`, and the engine's :class:`Batcher` accumulates
them on the primary until ``batch_size`` are pending (or ``batch_timeout_ms``
elapsed), then runs consensus once on a single :class:`Batch` payload —
amortising the per-slot message round over many requests.  Decided batches
are unpacked back into per-entry host callbacks with strictly increasing
delivery sequence numbers, so everything above the engine keeps one-payload
semantics.  With ``batch_size=1`` (the default) the batcher is a direct
passthrough, bit-identical to unbatched ordering.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Iterator, List, Optional, Protocol, Set, Tuple

from repro.common.types import DomainId, FailureModel, TransactionKind
from repro.consensus.messages import (
    CatchUpQuery,
    CatchUpReply,
    NewView,
    SlotStatusQuery,
    ViewChange,
)
from repro.crypto.digests import digest
from repro.errors import ConsensusError, NotPrimaryError
from repro.recovery.wal import WalRecord
from repro.topology.domain import Domain

__all__ = [
    "ConsensusHost",
    "ConsensusEngine",
    "DecisionLog",
    "Batch",
    "Batcher",
    "payload_digest_of",
    "GAP_RECOVERY_MS",
    "GAP_RECOVERY_MAX_MS",
    "DEFAULT_BATCH_TIMEOUT_MS",
]

#: How long a delivery gap (decided-but-undeliverable slots) may persist
#: before the engine asks its peers for the missing decision.  Long enough
#: that ordinary out-of-order decides never trigger a query; short enough
#: that a lost vote does not wedge a domain.  This is the *first* delay of
#: the per-gap backoff: each further query for the same stuck gap head
#: doubles the wait, up to :data:`GAP_RECOVERY_MAX_MS`.
GAP_RECOVERY_MS = 150.0

#: Cap on the per-gap retransmission backoff.  A gap that survives several
#: queries means the peers holding the decision are down or partitioned;
#: re-querying faster than they can come back just multiplies messages, but
#: the cap keeps the domain probing often enough to unwedge promptly.
GAP_RECOVERY_MAX_MS = 1200.0

#: How long an underfilled batch may wait for more payloads before it is
#: proposed anyway.  Short next to the consensus round trip, so batching
#: trades a sliver of latency for a large message-count reduction.
DEFAULT_BATCH_TIMEOUT_MS = 5.0


def payload_digest_of(payload: Any) -> bytes:
    """Canonical digest of a consensus payload.

    Payloads exposing ``canonical_bytes()`` (transactions, batches) digest to
    that; anything else digests its ``repr``, which is stable for the frozen
    dataclass payloads the protocols order.

    Every replica digests each payload several times per slot, and ``repr``
    walks the whole payload (a ``BlockOrder`` carries a round of entries), so
    the digest of a frozen dataclass is kept on the instance.  That relies on
    nothing under ``src/`` mutating a payload's contents in place after
    construction (``BlockMessage.state_delta`` / ``.dependencies`` are private
    copies); a conflicting payload is always another object — ``replace()``
    builds it through ``__init__``, without the memo.
    """
    if hasattr(payload, "canonical_bytes"):
        return payload.canonical_bytes()
    params = getattr(type(payload), "__dataclass_params__", None)
    if params is None or not params.frozen or not hasattr(payload, "__dict__"):
        return digest(repr(payload))
    memo = payload.__dict__
    cached = memo.get("_payload_digest")
    if cached is None:
        cached = memo["_payload_digest"] = digest(repr(payload))
    return cached


class Batch:
    """Several submitted payloads ordered together in one consensus slot.

    A batch is itself a consensus payload: engines agree on the batch digest
    exactly as they would on a single payload, and the shared delivery path
    unpacks a decided batch back into per-entry ``on_decide`` callbacks so the
    ledger, coordinator, and application layers keep their one-payload
    semantics.  Entry ids (digest prefixes) identify each entry inside the
    batch for tracing and the batch-atomicity invariant.
    """

    __slots__ = ("entries", "entry_ids", "_canonical", "declared_keys", "speculable")

    def __init__(self, entries: Tuple[Any, ...]) -> None:
        self.entries: Tuple[Any, ...] = tuple(entries)
        if not self.entries:
            raise ConsensusError("a batch needs at least one entry")
        parts = tuple(payload_digest_of(entry) for entry in self.entries)
        self.entry_ids: Tuple[str, ...] = tuple(part.hex()[:16] for part in parts)
        self._canonical = digest(b"batch", *parts)
        # Declared state accesses, cached once at construction: the shard
        # footprint (``StateStore.shards_of(declared_keys)``) drives every
        # speculation disjointness check, so recomputing the key walk per
        # check would be per-slot-pair work on a hot path.  ``speculable``
        # is the structural gate: only batches made purely of single-domain
        # internal transactions may execute out of order (cross-domain and
        # opaque entries have effects beyond the local state store).
        keys: List[str] = []
        speculable = True
        for entry in self.entries:
            transaction = getattr(entry, "transaction", None)
            if (
                transaction is None
                or getattr(transaction, "kind", None) is not TransactionKind.INTERNAL
                or transaction.is_cross_domain
            ):
                speculable = False
            if transaction is not None:
                keys.extend(getattr(transaction, "read_keys", ()))
                keys.extend(getattr(transaction, "write_keys", ()))
        self.declared_keys: Tuple[str, ...] = tuple(dict.fromkeys(keys))
        self.speculable: bool = speculable

    def canonical_bytes(self) -> bytes:
        return self._canonical

    def transaction_ids(self) -> Tuple[str, ...]:
        """Names of the transactions the entries carry, in entry order.

        Entries holding one ``transaction`` contribute its id; entries holding
        a ``transactions`` tuple (device batches) contribute all of them, in
        order — exactly the order their decide-time ledger appends happen in.
        """
        names: List[str] = []
        for entry in self.entries:
            transaction = getattr(entry, "transaction", None)
            if transaction is not None:
                names.append(str(transaction.tid.name))
                continue
            for nested in getattr(entry, "transactions", ()):
                names.append(str(nested.tid.name))
        return tuple(names)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Batch) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Batch of {len(self.entries)} ({', '.join(self.entry_ids[:3])}...)>"


class Batcher:
    """Size/time-triggered accumulator in front of an engine's ``propose``.

    The primary submits payloads here instead of proposing them one per slot:
    the batcher accumulates them and proposes a single :class:`Batch` once
    ``batch_size`` payloads are pending or ``batch_timeout_ms`` elapsed since
    the first pending payload.  With ``batch_size <= 1`` submission degrades
    to a direct ``propose`` call — bit-identical to the unbatched engine.
    """

    def __init__(
        self,
        engine: "ConsensusEngine",
        batch_size: int = 1,
        batch_timeout_ms: float = DEFAULT_BATCH_TIMEOUT_MS,
    ) -> None:
        if batch_size < 1:
            raise ConsensusError("batch_size must be >= 1")
        if batch_timeout_ms <= 0:
            raise ConsensusError("batch_timeout_ms must be positive")
        self._engine = engine
        self.batch_size = batch_size
        self.batch_timeout_ms = batch_timeout_ms
        self._pending: List[Any] = []
        self._timer: Any = None
        self._flushes_by_size = 0
        self._flushes_by_timeout = 0
        #: The control plane's telemetry bus, when the host carries one
        #: (adaptive deployments only) — the batcher is the producer of the
        #: ``batch.*`` metrics.  ``_proposed_at`` keys in-flight batches by
        #: canonical digest so propose -> decide latency can be measured on
        #: the proposer.
        self._bus = getattr(engine._host, "control_bus", None)
        self._proposed_at: Dict[bytes, float] = {}

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def flush_counts(self) -> Tuple[int, int]:
        """(size-triggered, timeout-triggered) flushes so far."""
        return (self._flushes_by_size, self._flushes_by_timeout)

    def submit(self, payload: Any) -> Optional[int]:
        """Queue ``payload`` for ordering; returns the slot when proposed now.

        Raises :class:`~repro.errors.NotPrimaryError` on non-primaries, like
        ``propose`` itself, so callers keep their existing error contract.
        """
        if self._bus is not None:
            self._bus.observe("batch.arrivals")
        if self.batch_size <= 1:
            return self._engine.propose(payload)
        if not self._engine.is_primary:
            raise NotPrimaryError(
                f"{self._engine._host.address} is not the primary of "
                f"{self._engine.domain.name}"
            )
        self._pending.append(payload)
        if self._bus is not None:
            self._bus.observe("batch.queue_depth", float(len(self._pending)))
        if len(self._pending) >= self.batch_size:
            return self._flush("size")
        if self._timer is None or not self._timer.active:
            self._timer = self._engine._host.set_timer(
                self.batch_timeout_ms, self._on_timeout
            )
        return None

    def _on_timeout(self) -> None:
        self._timer = None
        if self._pending:
            self._flush("timeout")

    def flush(self) -> Optional[int]:
        """Propose whatever is pending immediately (used by tests/shutdown)."""
        if not self._pending:
            return None
        return self._flush("explicit")

    def resize(self, new_size: int) -> None:
        """Retarget the batch size online (the control plane's actuator).

        Shrinking below the pending count flushes immediately so the queue
        never waits on a target it already exceeds; growing simply lets the
        current accumulation run longer.  The timeout knob is untouched, so
        a sparse arrival stream still bounds batching latency.
        """
        if new_size < 1:
            raise ConsensusError("batch_size must be >= 1")
        self.batch_size = new_size
        if self._pending and len(self._pending) >= new_size:
            self._flush("resize")

    def note_decided(self, batch: "Batch") -> None:
        """Record the propose -> decide latency of one of our own batches."""
        if self._bus is None:
            return
        sent_at = self._proposed_at.pop(batch.canonical_bytes(), None)
        if sent_at is not None:
            self._bus.observe(
                "batch.decide_latency_ms", self._engine._host.now() - sent_at
            )

    def _flush(self, trigger: str) -> Optional[int]:
        if self._timer is not None:
            # Cancel eagerly: a re-armed timeout must not leave the previous
            # timer event live in the simulator heap (it would leak one dead
            # heap entry per flushed batch over a long run).
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        if not self._engine.is_primary:
            # Deposed mid-accumulation (view change): drop the buffer — the
            # payloads were never proposed, and clients retransmit through
            # the new primary.  The host is told about every dropped payload
            # so components can clear their in-flight dedup state; otherwise
            # a node re-elected primary later would swallow retransmissions
            # of transactions it silently dropped here.
            self._engine._trace("batch-drop", slot=None, size=len(pending))
            notify = getattr(self._engine._host, "consensus_submission_dropped", None)
            if notify is not None:
                for payload in pending:
                    notify(payload)
            return None
        if trigger == "size":
            self._flushes_by_size += 1
        elif trigger == "timeout":
            self._flushes_by_timeout += 1
        batch = Batch(tuple(pending))
        if self._bus is not None:
            self._bus.observe("batch.fill", float(len(batch)))
            self._proposed_at[batch.canonical_bytes()] = self._engine._host.now()
        self._engine._trace(
            "batch-propose",
            slot=None,
            payload_digest=batch.canonical_bytes(),
            size=len(batch),
            trigger=trigger,
        )
        return self._engine.propose(batch)


class ConsensusHost(Protocol):
    """What a consensus engine needs from the node it runs on."""

    @property
    def address(self) -> str: ...

    @property
    def hosted_domain(self) -> Domain: ...

    def domain_peer_addresses(self) -> List[str]:
        """Addresses of the other nodes of the same domain."""
        ...

    def send_protocol_message(self, to_address: str, message: Any) -> None: ...

    def now(self) -> float: ...

    def set_timer(self, delay_ms: float, callback: Callable[[], None]) -> Any: ...

    def consensus_decided(self, sequence: int, payload: Any) -> None:
        """Invoked once per decided payload *entry*, in decision order.

        ``sequence`` is a gap-free, strictly increasing delivery number, not
        the consensus slot: a decided batch delivers one call per entry, all
        sharing the batch's slot.  With ``batch_size=1`` the sequence equals
        the slot.  Do not index engine slot state
        (``is_decided``/``payload_of``) with it.
        """
        ...


class DecisionLog:
    """Tracks decided slots and releases them to the host in order.

    The log also carries the *speculation window*: which decided-but-
    undelivered slots have been speculatively applied out of order.  The
    commit watermark (everything at or below it is delivered, i.e. committed
    in order) and the speculation watermark (highest speculatively applied
    slot) bound the window; the engine owns the footprints and undo records.
    """

    def __init__(self, deliver: Callable[[int, Any], None]) -> None:
        self._deliver = deliver
        self._decided: Dict[int, Any] = {}
        self._next_to_deliver = 1
        self._delivered: List[Tuple[int, Any]] = []
        self._speculated: Dict[int, None] = {}

    @property
    def next_slot_to_deliver(self) -> int:
        return self._next_to_deliver

    @property
    def delivered_count(self) -> int:
        """How many slots have been delivered (no copy, unlike ``delivered``)."""
        return self._next_to_deliver - 1

    @property
    def delivered(self) -> List[Tuple[int, Any]]:
        """A fresh copy of every ``(slot, payload)`` delivered so far.

        Copies the whole history on every access — test/debug introspection
        only; production paths use :attr:`delivered_count` / :meth:`payload_of`.
        """
        return list(self._delivered)

    def is_decided(self, slot: int) -> bool:
        return slot in self._decided or slot < self._next_to_deliver

    @property
    def has_gap(self) -> bool:
        """True when decided slots are waiting on an earlier, missing one."""
        return bool(self._decided)

    def pending_slots(self) -> Tuple[int, ...]:
        """Decided-but-undelivered slots, ascending (the gap's far side)."""
        return tuple(sorted(self._decided))

    # -- speculation window --------------------------------------------------

    def mark_speculated(self, slot: int) -> None:
        """Note that a decided, undelivered ``slot`` was applied out of order."""
        self._speculated[slot] = None

    def unmark_speculated(self, slot: int) -> None:
        """Drop ``slot`` from the window (committed in order, or rolled back)."""
        self._speculated.pop(slot, None)

    def is_speculated(self, slot: int) -> bool:
        return slot in self._speculated

    @property
    def speculated_slots(self) -> Tuple[int, ...]:
        return tuple(sorted(self._speculated))

    @property
    def commit_watermark(self) -> int:
        """Highest slot delivered (committed) in order."""
        return self._next_to_deliver - 1

    @property
    def spec_watermark(self) -> int:
        """Highest speculatively applied slot (commit watermark if none)."""
        if self._speculated:
            return max(self._speculated)
        return self._next_to_deliver - 1

    def payload_of(self, slot: int) -> Optional[Any]:
        """The decided payload of ``slot`` (``None`` if undecided)."""
        if slot in self._decided:
            return self._decided[slot]
        if 1 <= slot < self._next_to_deliver:
            # Delivery is strictly sequential, so slot n sits at index n - 1.
            return self._delivered[slot - 1][1]
        return None

    def record(self, slot: int, payload: Any) -> None:
        """Record a decision; deliver it (and any now-unblocked successors)."""
        if self.is_decided(slot):
            return
        self._decided[slot] = payload
        while self._next_to_deliver in self._decided:
            current = self._next_to_deliver
            value = self._decided.pop(current)
            self._next_to_deliver += 1
            self._delivered.append((current, value))
            self._deliver(current, value)

    # -- crash recovery ------------------------------------------------------

    def rehydrate(self, slot: int, payload: Any) -> List[Tuple[int, Any]]:
        """Re-mark ``slot`` decided *without* re-delivering it.

        WAL replay: the slot's delivery-time effects (ledger appends,
        executions) are replayed from their own WAL records, so contiguous
        rehydrated slots advance the watermark silently.  Returns the slots
        that advanced, so the engine can restore its per-entry delivery
        counter.  Slots past a gap stay pending exactly as they were at the
        crash — their delivery (with callbacks) happens when catch-up or
        normal traffic closes the gap.
        """
        advanced: List[Tuple[int, Any]] = []
        if self.is_decided(slot):
            return advanced
        self._decided[slot] = payload
        while self._next_to_deliver in self._decided:
            current = self._next_to_deliver
            value = self._decided.pop(current)
            self._next_to_deliver += 1
            self._delivered.append((current, value))
            advanced.append((current, value))
        return advanced

    def resume_from(self, slot: int) -> None:
        """Fast-forward delivery to just past ``slot`` (restored checkpoint).

        Slots at or below ``slot`` are covered by the checkpoint's ledger
        prefix; their payloads are unknown, so they are marked delivered
        with a ``None`` placeholder — :meth:`payload_of` reports them as
        unavailable and the node simply cannot serve peers those slots
        (the checkpoint itself stands in for them).
        """
        while self._next_to_deliver <= slot:
            payload = self._decided.pop(self._next_to_deliver, None)
            self._delivered.append((self._next_to_deliver, payload))
            self._next_to_deliver += 1


class _SpeculatedSlot:
    """One speculatively applied slot: its payload, footprint, and undo.

    ``undo`` is a tuple of ``(transaction, undo_map)`` in execution order;
    each undo map holds ``{key: (existed, old_value)}`` over the
    transaction's declared write keys, captured just before it executed.
    ``completion`` is the simulated time the background executor finishes
    the slot's speculative span — in-order commit joins it.
    """

    __slots__ = ("payload", "footprint", "undo", "completion")

    def __init__(
        self,
        payload: Any,
        footprint: Tuple[int, ...],
        undo: Tuple[Tuple[Any, Dict[str, Tuple[bool, Any]]], ...],
        completion: float = 0.0,
    ) -> None:
        self.payload = payload
        self.footprint = footprint
        self.undo = undo
        self.completion = completion


class ConsensusEngine(abc.ABC):
    """Common state for the intra-domain consensus engines."""

    #: Wire message type -> handler name ``(message, sender)``: the types
    #: every engine takes, which each engine extends with its own ordering
    #: messages.  The node routes exactly these types to the engine.
    wire: Dict[type, str] = {
        SlotStatusQuery: "_on_slot_query",
        CatchUpQuery: "_serve_catchup",
        CatchUpReply: "_on_catchup_reply",
        ViewChange: "_on_view_change",
        NewView: "_on_new_view",
    }

    def __init__(self, host: ConsensusHost) -> None:
        self._host = host
        self._domain = host.hosted_domain
        self._view = 0
        self._next_slot = 1
        self._log = DecisionLog(self._deliver_decided)
        self._proposals: Dict[int, Any] = {}
        self._view_change_votes: Dict[int, Set[str]] = {}
        self._view_change_pending: Dict[int, Dict[int, Any]] = {}
        self._recovery_timer: Any = None
        #: Per-entry delivery counter: batches unpack into one callback per
        #: entry, so components see a gap-free, strictly increasing sequence
        #: (identical to the slot number when nothing is batched).
        self._delivery_seq = 0
        config = getattr(host, "config", None)
        #: Speculative out-of-order execution (in-order commit).  Off by
        #: default; when off, every speculation hook below is a cheap
        #: attribute check and the engine is bit-identical to the
        #: pre-speculation one.
        self._speculation_enabled = bool(getattr(config, "speculation", False))
        self._spec_records: Dict[int, _SpeculatedSlot] = {}
        #: Slow-slot stall injection (the ``stall`` fault kind): when armed,
        #: every ``_stall_every``-th slot's local decision is deferred by
        #: ``_stall_delay_ms`` — the delivery-gap generator the pipeline
        #: benchmarks speculate across.
        self._stall_every: Optional[int] = None
        self._stall_delay_ms = 0.0
        self._stalled_slots: Set[int] = set()
        self._stall_released: Set[int] = set()
        #: Durability (write-ahead logging + periodic certified checkpoints).
        #: Off by default; when off every WAL hook is one attribute check
        #: and the engine is bit-identical to the pre-durability one.
        self._durability_enabled = bool(getattr(config, "durability", False))
        self._checkpoint_interval = int(getattr(config, "checkpoint_interval", 32))
        #: Gap-recovery backoff state: the stuck gap head the last query was
        #: sent for, and how many queries that same head has survived.
        self._gap_head = 0
        self._gap_fires = 0
        self.batcher = Batcher(
            self,
            batch_size=getattr(config, "batch_size", 1),
            batch_timeout_ms=getattr(
                config, "batch_timeout_ms", DEFAULT_BATCH_TIMEOUT_MS
            ),
        )

    # -- introspection -------------------------------------------------------------

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def view(self) -> int:
        return self._view

    @property
    def primary_address(self) -> str:
        return self._domain.primary_for_view(self._view).name

    @property
    def is_primary(self) -> bool:
        return self._host.address == self.primary_address

    @property
    def decided_count(self) -> int:
        return self._log.next_slot_to_deliver - 1

    @property
    def next_undelivered_slot(self) -> int:
        """First slot not yet delivered to the host (catch-up's cursor)."""
        return self._log.next_slot_to_deliver

    @property
    def delivery_seq(self) -> int:
        """Per-entry delivery counter (checkpointed so recovery resumes it)."""
        return self._delivery_seq

    @property
    def quorum(self) -> int:
        return self._domain.quorum

    def payload_digest(self, payload: Any) -> bytes:
        return payload_digest_of(payload)

    # -- tracing ---------------------------------------------------------------

    def _tracing_enabled(self) -> bool:
        """Whether the host records traces (mirrors :meth:`_trace`'s guard)."""
        if getattr(self._host, "record_trace", None) is None:
            return False
        trace = getattr(self._host, "trace", None)
        return trace is None or trace.enabled

    def _trace(
        self,
        kind: str,
        slot: int,
        payload: Any = None,
        payload_digest: Optional[bytes] = None,
        **detail: Any,
    ) -> None:
        """Record a protocol event on the host's run trace, if it keeps one."""
        recorder = getattr(self._host, "record_trace", None)
        if recorder is None:
            return
        trace = getattr(self._host, "trace", None)
        if trace is not None and not trace.enabled:
            return  # opted out: skip the digest work too, this path is hot
        if payload_digest is None and payload is not None:
            payload_digest = self.payload_digest(payload)
        transaction = getattr(payload, "transaction", None)
        tid = getattr(transaction, "tid", None) or getattr(payload, "tid", None)
        recorder(
            kind,
            slot=slot,
            view=self._view,
            digest=payload_digest,
            tid=tid,
            **detail,
        )

    # -- API used by the node layer ---------------------------------------------------

    def allocate_slot(self) -> int:
        """Reserve the next slot (primary only)."""
        if not self.is_primary:
            raise NotPrimaryError(
                f"{self._host.address} is not the primary of {self._domain.name}"
            )
        slot = self._next_slot
        self._next_slot += 1
        return slot

    @abc.abstractmethod
    def propose(self, payload: Any) -> int:
        """Start consensus on ``payload``; returns the slot it was assigned."""

    def submit(self, payload: Any) -> Optional[int]:
        """Queue ``payload`` for ordering through the engine's batcher.

        This is the entry point protocol components use: depending on the
        deployment's batching knobs the payload is proposed immediately
        (``batch_size=1``), or accumulated and proposed inside a
        :class:`Batch` once the batch fills or its timeout fires.
        """
        return self.batcher.submit(payload)

    def submit_group(self, payload: Any) -> Optional[int]:
        """Order one pre-aggregated group payload (grouped cross-domain 2PC).

        Group payloads carry a ``group_id`` and many member transactions; the
        whole group is agreed on in one ``submit()`` round.  They still ride
        the engine's batcher — a deposed primary's batch drop notifies the
        host once per group payload, so the coordinator can re-group and
        retry its members instead of silently losing them.
        """
        if getattr(payload, "group_id", None) is None:
            raise ConsensusError(
                "submit_group() takes a group payload carrying a group_id, "
                f"got {type(payload).__name__}"
            )
        return self.batcher.submit(payload)

    @abc.abstractmethod
    def handle_message(self, message: Any, sender: str) -> bool:
        """Process one message of a type in :attr:`wire`; returns ``True``."""

    # -- helpers shared by the engines ---------------------------------------------------

    def _broadcast(self, message: Any) -> None:
        for peer in self._host.domain_peer_addresses():
            self._host.send_protocol_message(peer, message)

    def _wal_log(
        self,
        kind: str,
        slot: int = 0,
        view: Optional[int] = None,
        payload_digest: Optional[bytes] = None,
        payload: Any = None,
        position: int = 0,
    ) -> None:
        """Append one durable fact to the host's WAL, charging the sync cost.

        No-op on hosts without a WAL (durability off, bare test hosts), so
        every protocol call site can log unconditionally.  The fsync cost
        lands on the protocol CPU — the same queue message handling uses —
        which is exactly how durable consensus pays for its logging.
        """
        wal = getattr(self._host, "wal", None)
        if wal is None:
            return
        wal.append(
            WalRecord(
                kind=kind,
                slot=slot,
                view=self._view if view is None else view,
                digest=payload_digest,
                payload=payload,
                position=position,
            )
        )
        if wal.sync_ms > 0:
            cpu = getattr(self._host, "cpu", None)
            if cpu is not None:
                cpu.submit(self._host.now(), wal.sync_ms)

    def _observe_slot(self, slot: int) -> None:
        """Keep the slot counter ahead of anything observed from the primary."""
        if slot >= self._next_slot:
            self._next_slot = slot + 1

    def _record_decision(self, slot: int, payload: Any) -> None:
        if (
            self._stall_every is not None
            and slot % self._stall_every == 0
            and slot not in self._stall_released
            and not self._log.is_decided(slot)
        ):
            # Injected slow slot: defer the local decision, leaving a
            # delivery gap for later slots to speculate across.  The slot is
            # held until the stall timer releases it — decision attempts
            # arriving in the meantime (further commit votes, learn echoes)
            # are swallowed, exactly as if the decision were still in flight.
            if slot in self._stalled_slots:
                return
            self._stalled_slots.add(slot)
            self._trace("slot-stall", slot=slot, delay_ms=self._stall_delay_ms)

            def _release() -> None:
                self._stalled_slots.discard(slot)
                self._stall_released.add(slot)
                self._record_decision(slot, payload)

            self._host.set_timer(self._stall_delay_ms, _release)
            return
        if not self._log.is_decided(slot):
            self._trace("decide", slot=slot, payload=payload)
            self._wal_log("decide", slot=slot, payload=payload)
            if self._spec_records:
                # A missing earlier slot just decided: unwind any speculated
                # later slot whose footprint overlaps the *actual* decided
                # payload (which may differ from the pending payload the
                # speculation scan saw, e.g. after equivocation or a view
                # change re-proposal).  Rollback strictly precedes the
                # in-order re-delivery that log.record() may now trigger.
                self._rollback_conflicts(slot, payload)
        self._log.record(slot, payload)
        self._retire_votes(slot)
        if self._speculation_enabled:
            self._maybe_speculate()
        self._maybe_arm_gap_recovery()

    # -- speculative out-of-order execution ------------------------------------

    def arm_slot_stall(self, every: int, delay_ms: float) -> None:
        """Defer every ``every``-th slot's local decision by ``delay_ms``."""
        if every < 1:
            raise ConsensusError("stall interval must be >= 1")
        if delay_ms <= 0:
            raise ConsensusError("stall delay must be positive")
        self._stall_every = every
        self._stall_delay_ms = delay_ms

    def disarm_slot_stall(self) -> None:
        self._stall_every = None

    def _pending_payload_of(self, slot: int) -> Optional[Any]:
        """Best-known payload of an undecided ``slot`` (engine-specific).

        Used by the speculation scan to bound an undecided gap slot's
        *possible* footprint.  The base implementation only knows this
        node's own proposals; engines override with their replica-side
        payload stores.  ``None`` means unknown — treated as a universal
        footprint, which stops speculation past that slot.
        """
        return self._proposals.get(slot)

    def _footprint_of(self, payload: Any) -> Optional[Tuple[int, ...]]:
        """Shard footprint of a speculable payload; ``None`` = universal.

        Only batches of purely-internal, single-domain transactions have a
        footprint the local state store fully describes; anything else
        (cross-domain entries, group payloads, opaque proposals) may touch
        state beyond the store and must block speculation past it.
        """
        state = getattr(self._host, "state", None)
        if state is None:
            return None
        if isinstance(payload, Batch) and payload.speculable:
            return state.shards_of(payload.declared_keys)
        return None

    def _rollback_conflicts(self, slot: int, payload: Any) -> None:
        """Unwind speculated slots above ``slot`` that overlap its footprint."""
        later = [s for s in self._spec_records if s > slot]
        if not later:
            return
        footprint = self._footprint_of(payload)
        blocked = None if footprint is None else set(footprint)
        for victim in sorted(later, reverse=True):
            record = self._spec_records[victim]
            if blocked is None or blocked.intersection(record.footprint):
                self._rollback_slot(victim)

    def _rollback_slot(self, slot: int) -> None:
        """Restore state and execution dedup as if ``slot`` never ran."""
        record = self._spec_records.pop(slot)
        self._log.unmark_speculated(slot)
        unwind = self._host.speculative_unwind  # hosts that speculated have it
        for transaction, undo in reversed(record.undo):
            unwind(transaction, undo)
        self._trace(
            "spec:rollback", slot=slot, payload=record.payload,
            size=len(record.undo),
        )

    def _maybe_speculate(self) -> None:
        """Speculatively apply decided slots beyond the gap when safe.

        Walks slots from the delivery gap upward, accumulating the *blocking
        footprint*: shards touched by every earlier undelivered slot —
        decided ones by their payload, undecided ones by their best-known
        pending payload (unknown = universal, stop).  A decided,
        not-yet-speculated slot whose footprint is disjoint from everything
        earlier commutes with all of it and is applied out of order, with
        per-key undo captured for rollback.  Commit stays strictly in slot
        order via the normal delivery path.
        """
        if not self._log.has_gap:
            return
        host = self._host
        if getattr(host, "state", None) is None:
            return
        if getattr(host, "speculative_execute", None) is None:
            return
        blocked: set = set()
        pending = self._log.pending_slots()
        for slot in range(self._log.next_slot_to_deliver, pending[-1] + 1):
            if self._log.is_decided(slot):
                existing = self._spec_records.get(slot)
                if existing is not None:
                    blocked.update(existing.footprint)
                    continue
                payload = self._log.payload_of(slot)
                footprint = self._footprint_of(payload)
                if footprint is None:
                    # Not speculable: its effects reach beyond the local
                    # store, so nothing after it may run early either.
                    return
                if not blocked.intersection(footprint):
                    self._speculate_slot(slot, payload, footprint)
                blocked.update(footprint)
            else:
                possible = self._pending_payload_of(slot)
                footprint = (
                    self._footprint_of(possible) if possible is not None else None
                )
                if footprint is None:
                    # Unknown possible footprint = universal: stop the scan.
                    return
                blocked.update(footprint)

    def _speculate_slot(
        self, slot: int, payload: Batch, footprint: Tuple[int, ...]
    ) -> None:
        """Apply ``slot`` out of order, capturing per-transaction undo.

        The execution span lands on the host's *background* executor (the
        otherwise-idle lanes a head-of-line stall leaves behind), not the
        protocol CPU — out-of-order execution must overlap with consensus
        message handling, or speculating would slow the very pipeline it is
        trying to fill.  The completion time is kept so the slot's in-order
        commit can join any unfinished tail.
        """
        execute = self._host.speculative_execute
        undo: List[Tuple[Any, Dict[str, Tuple[bool, Any]]]] = []
        begin = getattr(self._host, "begin_speculative_window", None)
        close = getattr(self._host, "close_speculative_window", None)
        opened = begin() if begin is not None and close is not None else False
        completion = 0.0
        try:
            for entry in payload.entries:
                undo_map = execute(entry.transaction)
                if undo_map is not None:
                    undo.append((entry.transaction, undo_map))
        finally:
            if opened:
                completion = close()
        self._spec_records[slot] = _SpeculatedSlot(
            payload=payload, footprint=footprint, undo=tuple(undo),
            completion=completion,
        )
        self._log.mark_speculated(slot)
        self._trace("spec:deliver", slot=slot, payload=payload, size=len(payload))

    def _deliver_decided(self, slot: int, payload: Any) -> None:
        """Hand a decided slot to the host, unpacking batches per entry.

        Every entry gets its own strictly increasing delivery sequence number
        so components that order by sequence (e.g. the cross-domain commit
        guard) keep strict ordering between entries of the same batch.
        """
        if self._spec_records:
            record = self._spec_records.pop(slot, None)
            if record is not None:
                # The slot's in-order turn arrived and its speculation
                # survived: state is already applied (execute_once dedups),
                # so the normal path below performs only the commit-time
                # effects — ledger append, client reply, metrics.  Commit
                # first joins the background executor in case the gap closed
                # before the speculative span finished.
                self._log.unmark_speculated(slot)
                finish = getattr(self._host, "finish_speculation", None)
                if finish is not None:
                    finish(record.completion)
                self._trace("spec:commit", slot=slot, payload=payload)
        # Execution-lane window: everything the host executes while this
        # decision unpacks is charged as ONE spanned unit — lanes with
        # disjoint shard footprints overlap instead of serialising.  Hosts
        # without lane modelling (execution_lanes=1, bare test hosts) open
        # nothing and the delivery path is unchanged.
        begin = getattr(self._host, "begin_execution_window", None)
        opened = begin() if begin is not None else False
        try:
            if isinstance(payload, Batch):
                self.batcher.note_decided(payload)
                if self._tracing_enabled():
                    # Guarded here (not just inside _trace): building the
                    # tid tuple walks every entry, which is wasted work per
                    # decided batch per replica when tracing is off.
                    self._trace(
                        "batch-decide",
                        slot=slot,
                        payload_digest=payload.canonical_bytes(),
                        size=len(payload),
                        entry_ids=payload.entry_ids,
                        tids=payload.transaction_ids(),
                    )
                for entry in payload.entries:
                    self._delivery_seq += 1
                    self._host.consensus_decided(self._delivery_seq, entry)
            else:
                self._delivery_seq += 1
                self._host.consensus_decided(self._delivery_seq, payload)
        finally:
            if opened:
                self._host.close_execution_window()
        if self._durability_enabled and slot % self._checkpoint_interval == 0:
            # Checkpoint cadence counts *delivered* slots, so every replica
            # cuts at the same slots and certifies the same state roots.
            take = getattr(self._host, "take_checkpoint", None)
            if take is not None:
                take(slot, self._view)

    def is_decided(self, slot: int) -> bool:
        return self._log.is_decided(slot)

    # -- loss recovery -----------------------------------------------------------------

    def _maybe_arm_gap_recovery(self) -> None:
        """Watch a delivery gap: if it persists, ask peers for the decision.

        A gap (later slots decided while an earlier one is missing) normally
        closes within a round trip; one that persists means the votes or the
        proposal for the missing slot were lost, and nothing in the normal
        case would ever retransmit them.

        The delay backs off per gap: the first query for a stuck head waits
        :data:`GAP_RECOVERY_MS`, and each further query for the *same* head
        doubles the wait up to :data:`GAP_RECOVERY_MAX_MS`.  The counter
        resets as soon as the head advances, so a fresh gap always probes at
        the base rate while a long-dead peer is not flooded with queries it
        cannot answer.
        """
        if not self._log.has_gap:
            return
        if self._recovery_timer is not None and self._recovery_timer.active:
            return
        head = self._log.next_slot_to_deliver
        if head != self._gap_head:
            self._gap_head = head
            self._gap_fires = 0
        delay = min(GAP_RECOVERY_MS * (2 ** self._gap_fires), GAP_RECOVERY_MAX_MS)
        self._recovery_timer = self._host.set_timer(delay, self._recover_gap)

    def _recover_gap(self) -> None:
        self._recovery_timer = None
        if not self._log.has_gap:
            return
        missing = self._log.next_slot_to_deliver
        if missing == self._gap_head:
            self._gap_fires += 1
        else:
            self._gap_head = missing
            self._gap_fires = 1
        self._trace("gap-query", slot=missing)
        self._broadcast(
            SlotStatusQuery(
                domain=self._domain.id,
                view=self._view,
                slot=missing,
                sender=self._host.address,
            )
        )
        # Peers that decided the slot will echo it; if nobody did (the votes
        # themselves were lost), retransmitting our own proposal/votes lets
        # the quorum re-form.
        self._retransmit_slot(missing)
        self._maybe_arm_gap_recovery()

    def _retransmit_slot(self, slot: int) -> None:
        """Re-send whatever this node contributed to an undecided ``slot``.

        Engine-specific; the default does nothing.  Retransmissions reuse the
        original payloads and digests, so they are idempotent at receivers.
        """

    def _on_slot_query(self, message: SlotStatusQuery, sender: str) -> None:
        if self._log.is_decided(message.slot):
            payload = self._log.payload_of(message.slot)
            if payload is not None:
                self._host.send_protocol_message(
                    sender, self._decide_echo(message.slot, payload)
                )

    def _decide_echo(self, slot: int, payload: Any) -> Any:
        """The engine-specific decided-slot echo message."""
        raise NotImplementedError

    # -- view change -------------------------------------------------------------------

    def suspect_primary(self) -> None:
        """Vote to move to the next view (primary suspected crashed or faulty)."""
        target_view = self.view + 1
        self._wal_log("view-vote", view=target_view)
        pending = self._undecided_pending()
        vote = ViewChange(
            domain=self.domain.id,
            view=target_view,
            slot=0,
            sender=self._host.address,
            pending=pending,
        )
        self._register_view_change_vote(target_view, self._host.address, pending)
        self._broadcast(vote)
        self._maybe_install_view(target_view)

    def _undecided_pending(self) -> Tuple[Tuple[int, Any], ...]:
        """The ``(slot, payload)`` pairs this node holds undecided, in slot order."""
        raise NotImplementedError

    def _repropose_in_slot(self, slot: int, payload: Any) -> None:
        """New-primary side: run the engine's ordering round again in ``slot``."""
        raise NotImplementedError

    def _register_view_change_vote(
        self, target_view: int, voter: str, pending: Tuple[Tuple[int, Any], ...]
    ) -> None:
        self._view_change_votes.setdefault(target_view, set()).add(voter)
        bucket = self._view_change_pending.setdefault(target_view, {})
        for slot, payload in pending:
            bucket.setdefault(slot, payload)

    def _on_view_change(self, message: ViewChange, sender: str) -> None:
        if message.view <= self.view:
            return
        self._register_view_change_vote(message.view, sender, message.pending)
        self._maybe_install_view(message.view)

    def _maybe_install_view(self, target_view: int) -> None:
        votes = self._view_change_votes.get(target_view, set())
        if len(votes) < self.quorum:
            return
        new_primary = self.domain.primary_for_view(target_view).name
        if new_primary != self._host.address:
            return
        self._view = target_view
        pending = self._view_change_pending.get(target_view, {})
        announcement = NewView(
            domain=self.domain.id,
            view=target_view,
            slot=0,
            pending=tuple(sorted(pending.items())),
            supporters=tuple(sorted(votes)),
        )
        self._broadcast(announcement)
        for slot, payload in sorted(pending.items()):
            if not self.is_decided(slot):
                self._repropose_in_slot(slot, payload)

    def _on_new_view(self, message: NewView, sender: str) -> None:
        if message.view <= self.view:
            return
        self._view = message.view
        for slot, _payload in message.pending:
            self._observe_slot(slot)

    # -- crash recovery ----------------------------------------------------------------

    def _on_catchup_reply(self, message: CatchUpReply, sender: str) -> None:
        manager = getattr(self._host, "recovery", None)
        if manager is not None:
            manager.on_reply(message)

    def _serve_catchup(self, message: CatchUpQuery, sender: str) -> None:
        """Answer a recovering peer: checkpoint (if it helps) + decided run.

        The decided run starts at the requester's first needed slot (or just
        past the offered checkpoint) and stops at the first slot this node
        cannot produce a payload for — delivery is gap-free, so that only
        happens below our own restored checkpoint, which the offered
        checkpoint covers anyway.
        """
        first_needed = message.slot
        checkpoint = getattr(self._host, "durable_checkpoint", None)
        if checkpoint is not None and checkpoint.slot < first_needed:
            checkpoint = None  # the requester is already past it
        start = first_needed if checkpoint is None else checkpoint.slot + 1
        decided: List[Tuple[int, Any]] = []
        slot = start
        while slot < self._log.next_slot_to_deliver:
            payload = self._log.payload_of(slot)
            if payload is None:
                break
            decided.append((slot, payload))
            slot += 1
        certificate = getattr(checkpoint, "certificate", None)
        verify_count = 1 + (
            len(certificate.signatures) if certificate is not None else 0
        )
        reply = CatchUpReply(
            domain=self._domain.id,
            view=self._view,
            slot=first_needed,
            sender=self._host.address,
            checkpoint=checkpoint,
            decided=tuple(decided),
            latest_slot=self._log.next_slot_to_deliver - 1,
            verify_count=verify_count,
            size_kb=0.2
            + 0.05 * len(decided)
            + (1.0 if checkpoint is not None else 0.0),
        )
        self._host.send_protocol_message(sender, reply)
        self._trace(
            "catchup-serve",
            slot=first_needed,
            count=len(decided),
            checkpoint_slot=checkpoint.slot if checkpoint is not None else 0,
            peer=sender,
        )

    def rehydrate_decision(self, slot: int, payload: Any, view: int = 0) -> None:
        """WAL replay of a ``decide`` record: re-mark without re-delivering.

        Contiguous rehydrated slots silently advance the delivery watermark
        (their appends replay from their own WAL records) and restore the
        per-entry delivery counter; slots past a gap stay pending.
        """
        self._observe_slot(slot)
        if view > self._view:
            self._view = view
        for _advanced_slot, value in self._log.rehydrate(slot, payload):
            self._delivery_seq += len(value) if isinstance(value, Batch) else 1
        self._retire_votes(slot)

    def rehydrate_vote(self, record: WalRecord) -> None:
        """WAL replay of a vote record: re-arm the promise it represents.

        Restoring adopted payloads and sent commits (engine-specific) and
        view votes is what makes a recovered node refuse to equivocate
        against anything it voted for before the crash.
        """
        if record.slot:
            self._observe_slot(record.slot)
        if record.kind == "view-vote":
            self._view_change_votes.setdefault(record.view, set()).add(
                self._host.address
            )
        else:
            self._rehydrate_vote(record)

    def _rehydrate_vote(self, record: WalRecord) -> None:
        """Engine-specific vote rehydration; the default drops the record."""

    def _retire_votes(self, slot: int) -> None:
        """Forget the vote tallies of ``slot``, which is now decided.

        Engine-specific; the default keeps none.  Every vote path returns
        early for a decided slot, so a decided slot's tallies are never read
        again: what an engine keeps per slot stays bounded by the slots in
        flight, not by the length of the run.
        """

    def resume_from(self, slot: int, view: int, delivery_seq: int = 0) -> None:
        """Adopt a restored checkpoint's cut: delivery fast-forwards past it."""
        self._observe_slot(slot)
        if view > self._view:
            self._view = view
        for covered in range(self._log.next_slot_to_deliver, slot + 1):
            self._retire_votes(covered)
        self._log.resume_from(slot)
        if delivery_seq > self._delivery_seq:
            self._delivery_seq = delivery_seq

    def adopt_decision(self, slot: int, payload: Any) -> None:
        """Catch-up: adopt a decided slot through the normal delivery path.

        Unlike rehydration this *delivers*: ledger appends, execution, and
        component callbacks all run exactly as live traffic would run them.
        """
        self._observe_slot(slot)
        self._record_decision(slot, payload)

    def adopt_view(self, view: int) -> None:
        """Adopt the view a caught-up node learned from its serving peer."""
        if view > self._view:
            self._view = view
