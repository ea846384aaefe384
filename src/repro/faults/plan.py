"""Declarative fault plans: crash, partition, loss, and Byzantine behaviors.

A :class:`FaultPlan` is the hostile half of a scenario: a frozen, JSON
round-trippable list of :class:`FaultAction` entries that is *armed* on a live
deployment before the workload starts.  Arming schedules plain simulator
events, so fault injection is exactly as deterministic and replayable as the
rest of the run.

Supported action kinds (:data:`FAULT_KINDS`):

``crash`` / ``recover``
    Crash (or un-crash) one node; ``node`` indexes the domain's node list and
    ``None`` targets the view-0 primary.
``wipe``
    Amnesia crash: like ``crash``, but the node additionally loses every
    volatile structure (engine state, ledger, state store).  On recovery it
    replays its write-ahead log and catches up from peers (see
    :mod:`repro.recovery`).  A ``wipe`` with ``until_ms`` recovers itself.
``partition`` / ``heal``
    Cut (or restore) every network link between two domains.  A ``partition``
    with ``until_ms`` heals itself.
``loss``
    Raise the network-wide drop rate to ``rate`` for a window; the previous
    rate is restored at ``until_ms`` when given.
``silence``
    A fail-silent node: it receives and processes, but sends nothing.  Ends at
    ``until_ms`` when given.
``equivocate``
    The node's primary sends conflicting PBFT pre-prepares to different
    replicas (see :mod:`repro.faults.behaviors`).  Ends at ``until_ms``.
``stale-cert``
    The node replays its latest certified ``prepared`` message with a stale
    sequence number once, at ``at_ms``.
``stall``
    Every node of ``domain`` defers the local decision of every
    ``every``-th consensus slot by ``delay_ms`` (a slow disk flush, a GC
    pause) — later slots keep deciding, leaving the delivery gap the
    speculation machinery executes across.  Benign: no node is faulty, so
    liveness expectations are unchanged.  Ends at ``until_ms`` when given.

Example::

    plan = FaultPlan(actions=(
        FaultAction(kind="silence", at_ms=50.0, domain="D11", until_ms=600.0),
        FaultAction(kind="loss", at_ms=100.0, until_ms=300.0, rate=0.1),
    ))
    FaultPlan.from_json(plan.to_json()) == plan   # True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.common.types import DomainId
from repro.errors import ConfigurationError, UnknownDomainError
from repro.serde import DictSerializable

__all__ = ["FAULT_KINDS", "BYZANTINE_KINDS", "FaultAction", "FaultPlan"]

FAULT_KINDS: Tuple[str, ...] = (
    "crash",
    "wipe",
    "recover",
    "partition",
    "heal",
    "loss",
    "silence",
    "equivocate",
    "stale-cert",
    "stall",
)

#: Kinds that require the adversary switchboard on the target node.
BYZANTINE_KINDS: Tuple[str, ...] = ("silence", "equivocate", "stale-cert")

#: Kinds that take a single target node inside ``domain``.
_NODE_KINDS = ("crash", "wipe", "recover", "silence", "equivocate", "stale-cert")


def _parse_domain(name: str, what: str) -> DomainId:
    from repro.scenarios.spec import parse_domain_name

    try:
        return parse_domain_name(name)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class FaultAction(DictSerializable):
    """One scheduled fault-plan step."""

    kind: str
    at_ms: float
    domain: Optional[str] = None
    node: Optional[int] = None
    until_ms: Optional[float] = None
    peer_domain: Optional[str] = None
    rate: Optional[float] = None
    every: Optional[int] = None
    delay_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.at_ms < 0:
            raise ConfigurationError(
                f"{self.kind}: faults cannot be scheduled at negative time "
                f"({self.at_ms})"
            )
        for name in ("at_ms", "until_ms", "delay_ms", "rate"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(
                    f"{self.kind}: {name} must be finite, got {value}"
                )
        if self.until_ms is not None and self.until_ms <= self.at_ms:
            raise ConfigurationError(
                f"{self.kind}: until_ms ({self.until_ms}) must be after "
                f"at_ms ({self.at_ms})"
            )
        if self.node is not None:
            if isinstance(self.node, bool) or not isinstance(self.node, int):
                raise ConfigurationError(
                    f"{self.kind}: node index must be an int or None, got {self.node!r}"
                )
            if self.node < 0:
                raise ConfigurationError(
                    f"{self.kind}: node index must be non-negative"
                )
        if self.kind in _NODE_KINDS:
            if self.domain is None:
                raise ConfigurationError(f"{self.kind}: a target domain is required")
            _parse_domain(self.domain, self.kind)
        if self.kind in ("partition", "heal"):
            if self.domain is None or self.peer_domain is None:
                raise ConfigurationError(
                    f"{self.kind}: both domain and peer_domain are required"
                )
            _parse_domain(self.domain, self.kind)
            _parse_domain(self.peer_domain, self.kind)
            if self.domain == self.peer_domain:
                raise ConfigurationError(
                    f"{self.kind}: cannot partition a domain from itself"
                )
        if self.kind == "loss":
            if self.rate is None or not 0.0 <= self.rate < 1.0:
                raise ConfigurationError("loss: rate must be given and in [0, 1)")
        if self.kind == "stall":
            if self.domain is None:
                raise ConfigurationError("stall: a target domain is required")
            _parse_domain(self.domain, self.kind)
            if (
                self.every is None
                or isinstance(self.every, bool)
                or not isinstance(self.every, int)
                or self.every < 1
            ):
                raise ConfigurationError("stall: every must be an int >= 1")
            if self.delay_ms is None or not self.delay_ms > 0:
                raise ConfigurationError("stall: delay_ms must be positive")

    def domain_id(self) -> DomainId:
        assert self.domain is not None
        return _parse_domain(self.domain, self.kind)

    def peer_domain_id(self) -> DomainId:
        assert self.peer_domain is not None
        return _parse_domain(self.peer_domain, self.kind)


def _as_action(value: Any) -> FaultAction:
    if isinstance(value, FaultAction):
        return value
    if isinstance(value, Mapping):
        return FaultAction.from_dict(value)
    raise ConfigurationError(
        f"fault plan entries must be FaultAction or mappings, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class FaultPlan(DictSerializable):
    """An ordered, serialisable set of fault actions for one scenario."""

    actions: Tuple[FaultAction, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.actions, (FaultAction, Mapping)):
            object.__setattr__(self, "actions", (self.actions,))
        object.__setattr__(
            self, "actions", tuple(_as_action(a) for a in self.actions)
        )

    def __len__(self) -> int:
        return len(self.actions)

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __iter__(self):
        return iter(self.actions)

    # ------------------------------------------------------------------ arming

    def arm(self, deployment: Any) -> None:
        """Schedule every action on ``deployment``'s simulator.

        Unknown domains and out-of-range node indices are rejected here (the
        plan itself cannot know the topology) with a ``ConfigurationError``.
        """
        simulator = deployment.simulator
        network = deployment.network
        trace = getattr(deployment, "trace", None)

        def network_trace(kind: str, **detail: Any) -> None:
            if trace is not None:
                trace.record(kind, at_ms=simulator.now, **detail)

        # Shared across this plan's loss bursts so overlapping windows compose
        # (effective rate = max of active bursts; base restored when all end).
        loss_state: Dict[str, Any] = {"base": None, "active": []}
        for action in self.actions:
            if action.kind in _NODE_KINDS:
                target = self._resolve_node(deployment, action)
                self._arm_node_action(simulator, target, action)
            elif action.kind in ("partition", "heal"):
                pairs = self._resolve_links(deployment, action)
                self._arm_link_action(simulator, network, pairs, action, network_trace)
            elif action.kind == "stall":
                self._arm_stall_action(simulator, deployment, action)
            else:  # loss
                self._arm_loss_action(
                    simulator, network, action, network_trace, loss_state
                )

    def _resolve_node(self, deployment: Any, action: FaultAction) -> Any:
        domain_id = action.domain_id()
        try:
            nodes = deployment.nodes_of(domain_id)
        except (UnknownDomainError, KeyError) as exc:
            raise ConfigurationError(
                f"{action.kind}: unknown domain {action.domain!r}"
            ) from exc
        if action.node is None:
            return deployment.primary_node_of(domain_id)
        if not 0 <= action.node < len(nodes):
            raise ConfigurationError(
                f"{action.kind}: node {action.node} out of range — "
                f"{action.domain} has only {len(nodes)} nodes"
            )
        return nodes[action.node]

    def _resolve_links(
        self, deployment: Any, action: FaultAction
    ) -> List[Tuple[str, str]]:
        def addresses(name: str, domain_id: DomainId) -> List[str]:
            try:
                return [node.address for node in deployment.nodes_of(domain_id)]
            except (UnknownDomainError, KeyError) as exc:
                raise ConfigurationError(
                    f"{action.kind}: unknown domain {name!r}"
                ) from exc

        side_a = addresses(action.domain, action.domain_id())
        side_b = addresses(action.peer_domain, action.peer_domain_id())
        return [(a, b) for a in side_a for b in side_b]

    def _arm_node_action(self, simulator: Any, target: Any, action: FaultAction) -> None:
        def _trace(kind: str) -> None:
            target.record_trace(f"fault:{kind}", target_node=target.address)

        if action.kind == "crash":
            start = lambda: (_trace("crash"), target.crash())
            stop = lambda: (_trace("recover"), target.recover())
        elif action.kind == "wipe":
            start = lambda: (_trace("wipe"), target.wipe())
            stop = lambda: (_trace("recover"), target.recover())
        elif action.kind == "recover":
            start = lambda: (_trace("recover"), target.recover())
            stop = None
        elif action.kind == "silence":
            start = lambda: (_trace("silence"), target.adversary.silence())
            stop = lambda: (_trace("unsilence"), target.adversary.unsilence())
        elif action.kind == "equivocate":
            start = lambda: (
                _trace("equivocate"),
                target.adversary.start_equivocating(),
            )
            stop = lambda: (
                _trace("stop-equivocate"),
                target.adversary.stop_equivocating(),
            )
        else:  # stale-cert
            start = lambda: (
                _trace("stale-cert"),
                target.adversary.replay_stale_certificate(target),
            )
            stop = None
        simulator.schedule_at(
            action.at_ms, start, label=f"fault:{action.kind}:{target.address}"
        )
        if action.until_ms is not None and stop is not None:
            simulator.schedule_at(
                action.until_ms, stop, label=f"fault:end-{action.kind}:{target.address}"
            )

    def _arm_link_action(
        self,
        simulator: Any,
        network: Any,
        pairs: List[Tuple[str, str]],
        action: FaultAction,
        network_trace: Any,
    ) -> None:
        def _cut() -> None:
            network_trace(
                "fault:partition", domain=action.domain, peer=action.peer_domain
            )
            for a, b in pairs:
                network.partition(a, b)

        def _heal() -> None:
            network_trace(
                "fault:heal", domain=action.domain, peer=action.peer_domain
            )
            for a, b in pairs:
                network.heal(a, b)

        label = f"fault:{action.kind}:{action.domain}-{action.peer_domain}"
        if action.kind == "partition":
            simulator.schedule_at(action.at_ms, _cut, label=label)
            if action.until_ms is not None:
                simulator.schedule_at(action.until_ms, _heal, label=label + ":heal")
        else:
            simulator.schedule_at(action.at_ms, _heal, label=label)

    def _arm_stall_action(
        self, simulator: Any, deployment: Any, action: FaultAction
    ) -> None:
        domain_id = action.domain_id()
        try:
            nodes = deployment.nodes_of(domain_id)
        except (UnknownDomainError, KeyError) as exc:
            raise ConfigurationError(
                f"{action.kind}: unknown domain {action.domain!r}"
            ) from exc

        def _start() -> None:
            for node in nodes:
                node.record_trace(
                    "fault:stall", every=action.every, delay_ms=action.delay_ms
                )
                node.engine.arm_slot_stall(action.every, action.delay_ms)

        def _stop() -> None:
            for node in nodes:
                node.record_trace("fault:stall-end")
                node.engine.disarm_slot_stall()

        simulator.schedule_at(
            action.at_ms, _start, label=f"fault:stall:{action.domain}"
        )
        if action.until_ms is not None:
            simulator.schedule_at(
                action.until_ms, _stop, label=f"fault:stall-end:{action.domain}"
            )

    def _arm_loss_action(
        self,
        simulator: Any,
        network: Any,
        action: FaultAction,
        network_trace: Any,
        loss_state: Dict[str, Any],
    ) -> None:
        def _effective() -> float:
            active = loss_state["active"]
            return max(active) if active else loss_state["base"]

        def _start() -> None:
            if loss_state["base"] is None:
                loss_state["base"] = network.drop_rate
            loss_state["active"].append(action.rate)
            network_trace("fault:loss", rate=action.rate)
            network.set_drop_rate(_effective())
            if action.until_ms is not None:

                def _end() -> None:
                    loss_state["active"].remove(action.rate)
                    effective = _effective()
                    network_trace("fault:loss-end", rate=effective)
                    network.set_drop_rate(effective)

                simulator.schedule_at(action.until_ms, _end, label="fault:loss:end")

        simulator.schedule_at(action.at_ms, _start, label="fault:loss")

    # ------------------------------------------------------------------ liveness expectation

    def within_tolerance(self, hierarchy: Any) -> bool:
        """Whether bounded liveness is still expected under this plan.

        True when (a) every window-less disruptive action leaves each domain
        with at most its tolerated ``f`` faulty nodes, and (b) partitions and
        loss bursts all end (``until_ms`` given or an explicit heal/recover
        follows).  This is intentionally conservative: a plan outside
        tolerance only downgrades the liveness check, never the safety checks.
        """
        # Per-domain set of node targets left faulty at the end of the plan.
        faulty: Dict[str, set] = {}
        open_partitions: set = set()
        permanent_loss = False
        # Replay in time order, not list order: a recover listed before its own
        # crash must still cancel it.  sorted() is stable, so actions at the
        # same instant keep their plan order.
        for action in sorted(self.actions, key=lambda a: a.at_ms):
            target = (action.domain, action.node)
            if action.kind in ("crash", "wipe", "silence", "equivocate"):
                if action.until_ms is None and action.kind != "equivocate":
                    faulty.setdefault(action.domain, set()).add(target)
                # Equivocation is a Byzantine fault: it counts against f even
                # while active, but a correct quorum masks it, so a bounded
                # window keeps liveness.
                if action.kind == "equivocate":
                    faulty.setdefault(action.domain, set()).add(target)
            elif action.kind == "recover":
                faulty.get(action.domain, set()).discard(target)
                faulty.get(action.domain, set()).discard((action.domain, None))
            elif action.kind == "partition":
                key = frozenset({action.domain, action.peer_domain})
                if action.until_ms is None:
                    open_partitions.add(key)
            elif action.kind == "heal":
                open_partitions.discard(
                    frozenset({action.domain, action.peer_domain})
                )
            elif action.kind == "loss":
                if action.until_ms is None and action.rate and action.rate > 0:
                    permanent_loss = True
        if open_partitions or permanent_loss:
            return False
        for domain_name, targets in faulty.items():
            try:
                domain = hierarchy.domain(_parse_domain(domain_name, "tolerance"))
            except (UnknownDomainError, KeyError):
                return False
            if len(targets) > domain.faults:
                return False
        return True

    # ------------------------------------------------------------------ description

    def describe(self) -> str:
        if not self.actions:
            return "no faults"
        parts = []
        for action in self.actions:
            where = action.domain or "net"
            if action.node is not None:
                where += f"/n{action.node}"
            window = f"@{action.at_ms:.0f}ms"
            if action.until_ms is not None:
                window += f"-{action.until_ms:.0f}ms"
            parts.append(f"{action.kind} {where} {window}")
        return ", ".join(parts)
