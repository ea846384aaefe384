"""Ordered event traces recorded from every simulated run.

A :class:`TraceRecorder` captures the protocol-level history of one run —
proposals, votes, decisions, ledger appends, certificate emissions, and
cross-domain handoffs — as a flat, ordered list of :class:`TraceEvent`.
Recording is append-only and allocation-light (one small frozen record per
event), so it stays negligible next to the discrete-event simulation itself;
the :mod:`repro.faults.invariants` checker replays the trace afterwards to
prove safety properties about the run.

Event details are immutable: a list value is stored as a tuple, and every
recorder keeps one copy of each distinct detail, which all events carrying
an equal detail share (every replica records the same ``append`` detail for
each transaction it appends).  The JSON form is unchanged: a tuple is written
as a list and read back as a tuple.

Traces are JSON round-trippable so a failing run can be stored and replayed
through the checker offline::

    trace2 = TraceRecorder.from_json(trace.to_json())
    assert list(trace2) == list(trace)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["TraceEvent", "TraceRecorder"]


def _tid_name(tid: Any) -> Optional[str]:
    """Stable string form of a transaction id (or ``None``)."""
    if tid is None:
        return None
    name = getattr(tid, "name", None)
    if name is not None:
        return str(name)
    return str(tid)


#: A trace event's extras: ``(name, value)`` pairs sorted by name.
Detail = Tuple[Tuple[str, Any], ...]


def _frozen_detail(detail: Mapping[str, Any]) -> Detail:
    """``detail`` as a key-sorted tuple of pairs, each list value a tuple."""
    pairs = [
        (key, tuple(value) if isinstance(value, list) else value)
        for key, value in detail.items()
    ]
    return tuple(sorted(pairs))


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded protocol event (slotted: one per protocol event recorded).

    ``kind`` is a short slug (``"propose"``, ``"commit-vote"``, ``"decide"``,
    ``"append"``, ``"certify"``, ``"handoff:prepare"``, ``"fault:crash"``, ...);
    the optional columns identify where and what, and ``detail`` carries
    kind-specific extras (always JSON-safe values; a sequence is a tuple).
    An event does not store its place in the trace: that is its index in the
    recorder, which the JSON form writes as ``seq``.
    """

    at_ms: float
    kind: str
    domain: Optional[str] = None
    node: Optional[str] = None
    tid: Optional[str] = None
    slot: Optional[int] = None
    view: Optional[int] = None
    digest: Optional[str] = None
    detail: Detail = ()

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.detail:
            if name == key:
                return value
        return default

    def to_dict(self, seq: int) -> Dict[str, Any]:
        """The JSON form of the event at index ``seq`` of its trace."""
        return {
            "seq": seq,
            "at_ms": self.at_ms,
            "kind": self.kind,
            "domain": self.domain,
            "node": self.node,
            "tid": self.tid,
            "slot": self.slot,
            "view": self.view,
            "digest": self.digest,
            "detail": {key: value for key, value in self.detail},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        """The event a :meth:`to_dict` form describes (its ``seq`` is the
        index the trace gives it, so it is not read here)."""
        known = {
            "seq", "at_ms", "kind", "domain", "node", "tid", "slot", "view",
            "digest", "detail",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown TraceEvent field(s): {sorted(unknown)}"
            )
        return cls(
            at_ms=data["at_ms"],
            kind=data["kind"],
            domain=data.get("domain"),
            node=data.get("node"),
            tid=data.get("tid"),
            slot=data.get("slot"),
            view=data.get("view"),
            digest=data.get("digest"),
            detail=_frozen_detail(data.get("detail") or {}),
        )


#: The bucket of each event kind a grouped 2PC exchange leaves.
_EXCHANGE_BUCKETS = {
    "handoff:group-prepare": "prepare",
    "handoff:group-vote": "vote",
    "handoff:group-commit": "commit",
    "handoff:abort": "abort",
}


class TraceRecorder:
    """Collects :class:`TraceEvent` records in arrival order.

    The recorder is enabled by default; a disabled recorder turns
    :meth:`record` into a no-op so deployments can opt out entirely.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []
        # One hex string per distinct digest: every replica records the same
        # few digests per slot, so events share the string instead of each
        # allocating its own 64 characters.
        self._hex: Dict[bytes, str] = {}
        # One tuple per distinct detail, which every event with an equal
        # detail shares.  The key is the stored detail itself, so a detail
        # seen once costs one table slot, not a second copy.
        self._details: Dict[Detail, Detail] = {}

    # ------------------------------------------------------------------ recording

    def record(
        self,
        kind: str,
        at_ms: float,
        domain: Optional[str] = None,
        node: Optional[str] = None,
        tid: Any = None,
        slot: Optional[int] = None,
        view: Optional[int] = None,
        digest: Any = None,
        **detail: Any,
    ) -> None:
        """Append one event (no-op when the recorder is disabled)."""
        if not self.enabled:
            return
        if isinstance(digest, bytes):
            digest_hex = self._hex.get(digest)
            if digest_hex is None:
                digest_hex = self._hex[digest] = digest.hex()
        else:
            digest_hex = None if digest is None else str(digest)
        self._events.append(
            TraceEvent(
                at_ms=at_ms,
                kind=kind,
                domain=domain,
                node=node,
                tid=_tid_name(tid),
                slot=slot,
                view=view,
                digest=digest_hex,
                detail=self._shared(_frozen_detail(detail)) if detail else (),
            )
        )

    def _shared(self, detail: Detail) -> Detail:
        """The recorder's copy of ``detail`` (``detail`` itself if new).

        A detail holding an unhashable value (a dict) is kept as it is,
        unshared.
        """
        try:
            return self._details.setdefault(detail, detail)
        except TypeError:
            return detail

    # ------------------------------------------------------------------ access

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """All events, or only those of one ``kind`` (exact match)."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def events_with_prefix(self, prefix: str) -> List[TraceEvent]:
        """Events whose kind starts with ``prefix`` (e.g. ``"handoff:"``)."""
        return [event for event in self._events if event.kind.startswith(prefix)]

    def kinds(self) -> Dict[str, int]:
        """Histogram of event kinds (insertion-ordered)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def exchange_events(
        self,
    ) -> Iterator[Tuple[int, Tuple[Optional[str], Any], str, TraceEvent]]:
        """``(seq, (coordinator, gid), bucket, event)`` for each event of a
        grouped 2PC exchange, in trace order (``seq`` is the event's index).

        A grouped cross-domain exchange leaves four coordinator-side event
        kinds on the trace — ``handoff:group-prepare`` (membership and
        participant set), ``handoff:group-vote`` (receipt of one participant's
        aggregated prepared votes), ``handoff:group-commit`` (the per-member
        commit outcomes), and ``handoff:abort`` carrying the group's ``gid``
        (decided per-member aborts, retried or final); their buckets are
        ``prepare``, ``vote``, ``commit`` and ``abort``.  This is the evidence
        the group-atomicity invariant replays.
        """
        for seq, event in enumerate(self._events):
            bucket = _EXCHANGE_BUCKETS.get(event.kind)
            if bucket is None:
                continue
            gid = event.get("gid")
            if gid is not None:
                yield seq, (event.domain, gid), bucket, event

    def group_exchanges(
        self,
    ) -> Dict[Tuple[Optional[str], Any], Dict[str, List[TraceEvent]]]:
        """The :meth:`exchange_events` of every grouped 2PC exchange, keyed by
        (coordinator, gid), one list per bucket, each in trace order."""
        exchanges: Dict[Tuple[Optional[str], Any], Dict[str, List[TraceEvent]]] = {}
        for _, key, bucket, event in self.exchange_events():
            buckets = exchanges.get(key)
            if buckets is None:
                buckets = exchanges[key] = {
                    "prepare": [], "vote": [], "commit": [], "abort": []
                }
            buckets[bucket].append(event)
        return exchanges

    def control_decisions(self) -> Dict[str, Dict[str, List[TraceEvent]]]:
        """The control plane's applied decisions, grouped per node.

        Collects the ``control:*`` events (``control:batch``,
        ``control:group``, ``control:rebalance``) into
        ``{node: {"batch": [...], "group": [...], "rebalance": [...]}}``,
        each bucket in trace order — what reporting reads to print final
        adapted sizes and lane-map churn, and what the controller-determinism
        tests compare.
        """
        kind_map = {
            "control:batch": "batch",
            "control:group": "group",
            "control:rebalance": "rebalance",
        }
        decisions: Dict[str, Dict[str, List[TraceEvent]]] = {}
        for event in self._events:
            bucket_name = kind_map.get(event.kind)
            if bucket_name is None or event.node is None:
                continue
            bucket = decisions.setdefault(
                event.node, {"batch": [], "group": [], "rebalance": []}
            )
            bucket[bucket_name].append(event)
        return decisions

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [event.to_dict(seq) for seq, event in enumerate(self._events)]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceRecorder":
        recorder = cls()
        for seq, entry in enumerate(data.get("events", ())):
            if entry.get("seq", seq) != seq:
                raise ConfigurationError(
                    f"trace event {seq} is numbered {entry['seq']}: events "
                    "must be listed in their order"
                )
            event = TraceEvent.from_dict(entry)
            if event.detail:
                object.__setattr__(event, "detail", recorder._shared(event.detail))
            recorder._events.append(event)
        return recorder

    def to_json(self, indent: Optional[int] = None) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TraceRecorder":
        import json

        return cls.from_dict(json.loads(text))
