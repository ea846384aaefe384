"""Simulated point-to-point network.

Endpoints (server nodes and clients) register with a :class:`Network`; the
network delivers payloads after a delay computed from the deployment's
:class:`~repro.sim.latency.LatencyModel`.  The network also implements the
failure knobs protocols must survive: message loss, per-link partitions, and
crashed endpoints (messages to a crashed endpoint are silently dropped, which
is what a real crash looks like from the outside).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Optional, Protocol, Set

from repro.errors import NetworkError
from repro.sim.latency import LatencyModel
from repro.sim.simulator import Simulator

__all__ = ["Envelope", "Endpoint", "Network", "NetworkStats"]

#: Default protocol-message size, matching the paper's measured ~0.2 KB.
DEFAULT_MESSAGE_KB = 0.2


@dataclass(slots=True, eq=False)
class Envelope:
    """One message in flight: payload plus routing and timing metadata.

    Slotted and identity-compared: one envelope exists per delivered message,
    which makes this one of the hottest allocation sites in the simulator.
    The network never touches an envelope again once it is delivered, so an
    endpoint may keep one for as long as it likes.
    """

    sender: str
    recipient: str
    payload: Any
    size_kb: float
    sent_at: float
    deliver_at: float


class Endpoint(Protocol):
    """What the network needs to know about an addressable participant."""

    @property
    def address(self) -> str: ...

    @property
    def region(self) -> str: ...

    def deliver(self, envelope: Envelope) -> None: ...


@dataclass
class NetworkStats:
    """Aggregate traffic counters, split into local and wide-area traffic."""

    messages_sent: int = 0
    messages_dropped: int = 0
    kilobytes_sent: float = 0.0
    wide_area_messages: int = 0
    wide_area_kilobytes: float = 0.0
    per_payload_type: Dict[str, int] = field(default_factory=dict)

    def record(self, payload: Any, size_kb: float, crossed_regions: bool) -> None:
        self.messages_sent += 1
        self.kilobytes_sent += size_kb
        if crossed_regions:
            self.wide_area_messages += 1
            self.wide_area_kilobytes += size_kb
        kind = type(payload).__name__
        self.per_payload_type[kind] = self.per_payload_type.get(kind, 0) + 1


class Network:
    """Delivers payloads between registered endpoints with realistic delays."""

    def __init__(
        self,
        simulator: Simulator,
        latency: LatencyModel,
        drop_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise NetworkError("drop_rate must be in [0, 1)")
        self._simulator = simulator
        self._latency = latency
        self._drop_rate = drop_rate
        self._rng = simulator.rng.stream("network")
        self._endpoints: Dict[str, Endpoint] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        self._crashed: Set[str] = set()
        self.stats = NetworkStats()

    @property
    def latency(self) -> LatencyModel:
        return self._latency

    @property
    def drop_rate(self) -> float:
        return self._drop_rate

    def set_drop_rate(self, drop_rate: float) -> None:
        """Change the uniform loss rate mid-run (fault plans' loss bursts)."""
        if not 0.0 <= drop_rate < 1.0:
            raise NetworkError("drop_rate must be in [0, 1)")
        self._drop_rate = drop_rate

    @property
    def simulator(self) -> Simulator:
        return self._simulator

    # -- membership ---------------------------------------------------------

    def register(self, endpoint: Endpoint) -> None:
        """Add an endpoint; re-registering the same address is an error."""
        address = endpoint.address
        if address in self._endpoints:
            raise NetworkError(f"endpoint {address!r} already registered")
        self._endpoints[address] = endpoint

    def endpoint(self, address: str) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError as exc:
            raise NetworkError(f"unknown endpoint {address!r}") from exc

    # -- failure injection ---------------------------------------------------

    def crash(self, address: str) -> None:
        """Mark an endpoint as crashed: all traffic to it is dropped."""
        self.endpoint(address)  # validate
        self._crashed.add(address)

    def recover(self, address: str) -> None:
        self._crashed.discard(address)

    def is_crashed(self, address: str) -> bool:
        return address in self._crashed

    def partition(self, address_a: str, address_b: str) -> None:
        """Block traffic (both directions) between two endpoints."""
        self._partitions.add(frozenset({address_a, address_b}))

    def heal(self, address_a: str, address_b: str) -> None:
        self._partitions.discard(frozenset({address_a, address_b}))

    # -- sending -------------------------------------------------------------

    def send(
        self,
        sender: str,
        recipient: str,
        payload: Any,
        size_kb: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> Optional[Envelope]:
        """Send ``payload`` from ``sender`` to ``recipient``.

        Returns the in-flight envelope, or ``None`` when the message was
        dropped (loss, partition, crashed sender or recipient).  A ``None``
        return is not an error: protocols are expected to mask losses with
        retransmissions and timeouts.  Loss and latency draw from ``rng`` when
        given, so a protocol's extra messages need not re-time all the others.
        """
        source = self.endpoint(sender)
        destination = self.endpoint(recipient)
        size = float(size_kb) if size_kb is not None else getattr(
            payload, "size_kb", DEFAULT_MESSAGE_KB
        )

        crashed = self._crashed
        if crashed and (sender in crashed or recipient in crashed):
            self.stats.messages_dropped += 1
            return None
        if self._partitions and frozenset({sender, recipient}) in self._partitions:
            self.stats.messages_dropped += 1
            return None
        rng = self._rng if rng is None else rng
        if self._drop_rate > 0 and rng.random() < self._drop_rate:
            self.stats.messages_dropped += 1
            return None

        delay = self._latency.one_way_ms(
            source.region, destination.region, size_kb=size, rng=rng
        )
        now = self._simulator.now
        envelope = Envelope(sender, recipient, payload, size, now, now + delay)
        self.stats.record(payload, size, source.region != destination.region)
        self._simulator.schedule(delay, self._deliver, "deliver", (envelope,))
        return envelope

    def multicast(
        self,
        sender: str,
        recipients: Iterable[str],
        payload: Any,
        size_kb: Optional[float] = None,
    ) -> int:
        """Send ``payload`` to every recipient; returns how many were sent."""
        sent = 0
        for recipient in recipients:
            if recipient == sender:
                continue
            if self.send(sender, recipient, payload, size_kb=size_kb) is not None:
                sent += 1
        return sent

    def _deliver(self, envelope: Envelope) -> None:
        recipient = envelope.recipient
        if recipient in self._crashed:
            self.stats.messages_dropped += 1
        else:
            endpoint = self._endpoints.get(recipient)
            if endpoint is None:
                self.stats.messages_dropped += 1
            else:
                endpoint.deliver(envelope)
