"""Configuration dataclasses for deployments, protocols, and cost models.

Every tunable in the library is collected here so that experiments are fully
described by a small number of serialisable configuration objects.  All
configurations validate themselves on construction and raise
:class:`~repro.errors.ConfigurationError` on inconsistency.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

from repro.common.types import CrossDomainProtocol, FailureModel
from repro.control.policy import ControlPolicy
from repro.errors import ConfigurationError
from repro.sim.latency import PROFILE_NAMES

__all__ = [
    "NodeCostModel",
    "TimerConfig",
    "RoundConfig",
    "DomainSpec",
    "HierarchySpec",
    "knob",
    "check_knobs",
    "EngineKnobs",
    "DeploymentConfig",
    "WorkloadMix",
    "WorkloadConfig",
    "DEFAULT_CRASH_COSTS",
    "DEFAULT_BYZANTINE_COSTS",
]


@dataclass(frozen=True)
class NodeCostModel:
    """CPU cost model of a server node (all times in milliseconds).

    A node is simulated as a single-server FIFO queue: handling a protocol
    message occupies the node for ``base_handling_ms`` plus the cost of the
    cryptographic work the message requires.  Verifying a quorum certificate
    costs one verification per contained signature.
    """

    base_handling_ms: float = 0.02
    sign_ms: float = 0.012
    verify_ms: float = 0.015
    execute_ms: float = 0.01
    hash_ms: float = 0.002

    def __post_init__(self) -> None:
        for name in ("base_handling_ms", "sign_ms", "verify_ms", "execute_ms", "hash_ms"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    def certificate_verify_ms(self, signatures: int) -> float:
        """Cost of verifying a certificate carrying ``signatures`` signatures."""
        if signatures < 0:
            raise ConfigurationError("signatures must be non-negative")
        return self.verify_ms * signatures


#: Default cost models.  Byzantine domains pay more per message because every
#: protocol message carries signatures that must be created and verified,
#: while crash-only domains can rely on cheap MACs.  The absolute values are
#: calibrated so that a node saturates at a few thousand protocol messages per
#: second, which keeps load sweeps (tens of closed-loop clients) cheap to
#: simulate while still producing the throughput plateaus and latency knees
#: the paper's figures show.  ``execute_ms`` is charged per declared state
#: access (read validation or authenticated, hash-chained write) when
#: execution lanes are armed (``execution_lanes > 1``); it is calibrated so
#: that once batching amortises the ordering messages, applying a decided
#: batch against a single-shard store is what saturates a node — the regime
#: state sharding exists to fix.
DEFAULT_CRASH_COSTS = NodeCostModel(
    base_handling_ms=0.05, sign_ms=0.008, verify_ms=0.012, execute_ms=0.05, hash_ms=0.002
)
DEFAULT_BYZANTINE_COSTS = NodeCostModel(
    base_handling_ms=0.05, sign_ms=0.025, verify_ms=0.035, execute_ms=0.05, hash_ms=0.002
)


@dataclass(frozen=True)
class TimerConfig:
    """Protocol timers (milliseconds).

    ``cross_domain_timeout_ms`` is the LCA/participant timer after which a
    coordinator aborts and retries a cross-domain transaction (deadlock
    resolution, §4.1); ``deadlock_backoff_ms`` staggers the retry per domain so
    that two coordinators do not collide again immediately.
    """

    request_timeout_ms: float = 2_000.0
    cross_domain_timeout_ms: float = 800.0
    deadlock_backoff_ms: float = 40.0
    commit_query_timeout_ms: float = 800.0
    view_change_timeout_ms: float = 1_000.0

    def __post_init__(self) -> None:
        for name in (
            "request_timeout_ms",
            "cross_domain_timeout_ms",
            "deadlock_backoff_ms",
            "commit_query_timeout_ms",
            "view_change_timeout_ms",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


#: A level's lazy-propagation round over its child level's (the paper's 2x).
INTERVAL_GROWTH = 2.0


@dataclass(frozen=True)
class RoundConfig:
    """Lazy-propagation round intervals (§5), in milliseconds.

    ``height1_interval_ms`` is the interval at which height-1 domains emit
    ``block`` messages; each higher level's is :data:`INTERVAL_GROWTH` times
    the level's below.  The optimistic protocol typically uses a smaller
    interval to detect inconsistencies earlier; that is expressed by
    constructing a second ``RoundConfig``.
    """

    height1_interval_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.height1_interval_ms <= 0:
            raise ConfigurationError("height1_interval_ms must be positive")

    def interval_for_height(self, height: int) -> float:
        """Round interval for a domain at ``height`` (height >= 1)."""
        if height < 1:
            raise ConfigurationError("rounds only apply to height >= 1 domains")
        return self.height1_interval_ms * (INTERVAL_GROWTH ** (height - 1))


@dataclass(frozen=True)
class DomainSpec:
    """Static description of one domain: failure model and tolerated faults."""

    failure_model: FailureModel = FailureModel.CRASH
    faults: int = 1
    region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.faults < 0:
            raise ConfigurationError("faults must be non-negative")

    @property
    def num_nodes(self) -> int:
        return self.failure_model.replication_factor * self.faults + 1


@dataclass(frozen=True)
class HierarchySpec:
    """Shape of the domain tree.

    The default (``levels=4, branching=2, leaf_domains=4``) is the paper's
    perfect-binary-tree deployment of Figure 1: four height-1 domains, two
    height-2 domains, one height-3 root, plus one leaf (height-0) domain per
    height-1 domain.
    """

    levels: int = 4
    branching: int = 2
    clients_per_leaf: int = 8
    default_spec: DomainSpec = field(default_factory=DomainSpec)
    per_domain: Dict[str, DomainSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ConfigurationError("hierarchy needs at least two levels")
        if self.branching < 1:
            raise ConfigurationError("branching must be >= 1")
        if self.clients_per_leaf < 1:
            raise ConfigurationError("clients_per_leaf must be >= 1")

    @property
    def num_height1_domains(self) -> int:
        """Number of height-1 (edge-server) domains in the tree."""
        return self.branching ** (self.levels - 2)

    def spec_for(self, domain_name: str) -> DomainSpec:
        """Domain spec for ``domain_name``, falling back to the default."""
        return self.per_domain.get(domain_name, self.default_spec)


def knob(default: Any, **bound: float) -> Any:
    """A knob field that carries its own bound.

    ``ge=x`` admits values ``>= x``, ``gt=x`` values ``> x``, ``le=x`` values
    ``<= x``; :func:`check_knobs` enforces it together with the field's
    declared type, so a knob is declared — default, type, bound — on one line.
    """
    return field(default=default, metadata=bound)


_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<=")}


def check_knobs(spec: Any) -> None:
    """Type- and range-check every ``int``/``float``/``bool`` field of ``spec``
    (``Optional[...]`` ones when set).

    Strict on purpose: a ``bool`` is not an ``int``, ``2.5`` is not an ``int``,
    and ``nan``/``inf`` are not numbers a simulation can run on.  Reads the
    declared types as strings, so the declaring module needs
    ``from __future__ import annotations``.
    """
    for f in fields(spec):
        value = getattr(spec, f.name)
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        if value is None and kind != f.type:
            continue
        if kind == "bool":
            if not isinstance(value, bool):
                raise ConfigurationError(f"{f.name} must be a bool, got {value!r}")
            continue
        if kind not in ("int", "float"):
            continue
        if (
            isinstance(value, bool)
            or not isinstance(value, int if kind == "int" else (int, float))
            or (isinstance(value, float) and not math.isfinite(value))
        ):
            expected = "an integer" if kind == "int" else "a finite number"
            raise ConfigurationError(f"{f.name} must be {expected}, got {value!r}")
        for key, bound in f.metadata.items():
            holds, symbol = _BOUNDS[key]
            if not holds(value, bound):
                raise ConfigurationError(
                    f"{f.name} must be {symbol} {bound}, got {value!r}"
                )


@dataclass(frozen=True, kw_only=True)
class EngineKnobs:
    """The engine knobs a scenario declares and a deployment runs with.

    :class:`DeploymentConfig` and :class:`~repro.scenarios.spec.Scenario` both
    inherit this block, so each knob — field, default, bound — exists exactly
    once and reaches ``node.config`` without being restated on the way.

    ``latency_profile`` names the inter-region latency matrix
    (:data:`~repro.sim.latency.PROFILE_NAMES`); ``timers`` are the protocol
    timers.

    ``batch_size`` / ``batch_timeout_ms`` configure the consensus engines'
    request batcher: primaries accumulate up to ``batch_size`` submitted
    payloads (or whatever arrived within ``batch_timeout_ms`` of the first)
    and order them in a single slot.  ``batch_size=1`` disables batching and
    is bit-identical to the unbatched engines.

    ``xdomain_batch_size`` / ``xdomain_batch_timeout_ms`` configure the
    coordinator's cross-domain 2PC grouping: an LCA primary accumulates
    cross-domain transactions per participant set and runs one grouped
    prepare/commit exchange per group, amortising the wide-area round trips.
    ``xdomain_batch_size=1`` disables grouping and is bit-identical to the
    per-transaction coordinator.

    ``state_shards`` splits every height-1 domain's
    :class:`~repro.ledger.state.StateStore` into that many account shards
    (stable key hash), so delta extraction, conflict detection, and the
    optimistic protocol's undo machinery touch only the shards a transaction
    names.  ``execution_lanes`` models parallel state execution on every
    node: a decided batch is split by shard footprint and lanes with
    disjoint footprints charge their execution cost concurrently (batch span
    = max over lanes).  ``state_shards=1, execution_lanes=1`` is
    bit-identical to the unsharded, free-execution model.

    ``speculation`` arms speculative out-of-order execution with in-order
    commit: while a decided slot is still undelivered (a delivery gap), the
    engine speculatively applies later decided slots whose batch shard
    footprints are disjoint from every earlier undelivered and undecided
    slot's possible footprint, capturing per-key undo so a conflicting late
    decision rolls the speculation back.  Client-visible effects (ledger
    appends, replies, metrics) still happen strictly in slot order at commit
    time; ``speculation=False`` (the default) is bit-identical to the
    pre-speculation engine.

    ``durability`` arms the crash-recovery subsystem: every node keeps a
    simulated :class:`~repro.recovery.wal.WriteAheadLog` of its
    consensus-critical durable facts (votes, decided slots, ledger appends),
    each synchronous append charging ``wal_sync_ms`` on the protocol CPU, and
    height-1 replicas take a certified checkpoint (state snapshot bound to a
    Merkle state root under a quorum certificate) every
    ``checkpoint_interval`` decided slots, truncating the log.  A ``wipe``
    fault then models an amnesia crash: the node discards all volatile state
    and on recovery replays its WAL from the last checkpoint, catches up from
    peers, and rejoins consensus without ever contradicting a WAL-covered
    vote.  ``durability=False`` (the default) builds none of this and is
    bit-identical to the pre-durability deployment.

    ``control`` is the self-tuning control-plane spec
    (:class:`~repro.control.policy.ControlPolicy`, or its dict form): with
    the default ``policy="static"`` no telemetry bus or controller is built
    and the deployment is bit-identical to one predating the control plane;
    with ``policy="adaptive"`` every node runs the feedback loop resizing the
    batcher, the 2PC grouping, and the shard -> lane map online.
    """

    latency_profile: str = "nearby-eu"
    timers: TimerConfig = field(default_factory=TimerConfig)
    batch_size: int = knob(1, ge=1)
    batch_timeout_ms: float = knob(5.0, gt=0)
    xdomain_batch_size: int = knob(1, ge=1)
    xdomain_batch_timeout_ms: float = knob(10.0, gt=0)
    state_shards: int = knob(1, ge=1)
    execution_lanes: int = knob(1, ge=1)
    speculation: bool = False
    durability: bool = False
    wal_sync_ms: float = knob(0.05, ge=0)
    checkpoint_interval: int = knob(32, ge=1)
    control: ControlPolicy = field(default_factory=ControlPolicy)

    def __post_init__(self) -> None:
        check_knobs(self)
        if self.latency_profile not in PROFILE_NAMES:
            raise ConfigurationError(
                f"unknown latency profile {self.latency_profile!r}; "
                f"known: {PROFILE_NAMES}"
            )
        if not isinstance(self.timers, TimerConfig):
            raise ConfigurationError(
                f"timers must be a TimerConfig, got {type(self.timers).__name__}"
            )
        if isinstance(self.control, Mapping):
            object.__setattr__(self, "control", ControlPolicy.from_dict(self.control))
        if not isinstance(self.control, ControlPolicy):
            raise ConfigurationError(
                "control must be a ControlPolicy (or its dict form), got "
                f"{type(self.control).__name__}"
            )


@dataclass(frozen=True)
class DeploymentConfig(EngineKnobs):
    """Everything needed to build and run one Saguaro deployment: the shape of
    the tree, the cross-domain protocol, the cost models, and the
    :class:`EngineKnobs` block."""

    hierarchy: HierarchySpec = field(default_factory=HierarchySpec)
    protocol: CrossDomainProtocol = CrossDomainProtocol.COORDINATOR
    rounds: RoundConfig = field(default_factory=RoundConfig)
    crash_costs: NodeCostModel = DEFAULT_CRASH_COSTS
    byzantine_costs: NodeCostModel = DEFAULT_BYZANTINE_COSTS
    seed: int = 2023

    def costs_for(self, model: FailureModel) -> NodeCostModel:
        if model is FailureModel.CRASH:
            return self.crash_costs
        return self.byzantine_costs


@dataclass(frozen=True, kw_only=True)
class WorkloadMix:
    """The workload mix (the knobs of §8), shared by
    :class:`WorkloadConfig` and :class:`~repro.scenarios.spec.WorkloadSpec`.

    ``cross_domain_ratio`` — fraction of transactions that touch two height-1
    domains; ``contention_ratio`` — fraction of transactions that read/write a
    small hot set of accounts (the paper's 10/50/90 % read-write-conflict
    knob); ``mobile_ratio`` — fraction of transactions issued by a device while
    visiting a remote domain.

    ``zipf_skew`` — when positive, account choice within a domain follows a
    Zipf distribution with this exponent over the whole per-domain keyspace
    (rank 1 hottest), *replacing* the two-tier hot/cold draw.  ``0.0`` (the
    default) keeps the historical hot-set model bit-identical.
    """

    num_transactions: int = knob(400, ge=1)
    cross_domain_ratio: float = knob(0.0, ge=0, le=1)
    contention_ratio: float = knob(0.1, ge=0, le=1)
    mobile_ratio: float = knob(0.0, ge=0, le=1)
    hot_accounts_per_domain: int = 4
    accounts_per_domain: int = 256
    mobile_txns_per_excursion: int = knob(10, ge=1)
    involved_domains: int = knob(2, ge=2)
    initial_balance: int = knob(1_000_000, ge=0)
    zipf_skew: float = knob(0.0, ge=0)

    def __post_init__(self) -> None:
        check_knobs(self)
        if self.accounts_per_domain < self.hot_accounts_per_domain:
            raise ConfigurationError(
                "accounts_per_domain must be >= hot_accounts_per_domain"
            )


@dataclass(frozen=True)
class WorkloadConfig(WorkloadMix):
    """The :class:`WorkloadMix` the generator draws, plus the seed it draws with."""

    seed: int = 7
