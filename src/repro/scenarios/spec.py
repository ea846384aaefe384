"""The declarative scenario specification.

A :class:`Scenario` is a frozen, fully serialisable description of one Saguaro
experiment: which system runs (``engine``), over which topology, with which
application, under which workload mix, under which fault plan, and for
which replication seeds.  Because a scenario is plain data, experiments can be
stored as JSON, diffed, swept, and replayed bit-for-bit:

    >>> scenario = Scenario.build().workload(num_transactions=100).finish()
    >>> Scenario.from_dict(scenario.to_dict()) == scenario
    True

Scenarios are *specs*, not live objects — they hold no simulator, no nodes,
no RNG state.  :mod:`repro.scenarios.runner` materialises and executes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.common.config import (
    DEFAULT_BYZANTINE_COSTS,
    DEFAULT_CRASH_COSTS,
    DeploymentConfig,
    DomainSpec,
    EngineKnobs,
    HierarchySpec,
    RoundConfig,
    WorkloadConfig,
    WorkloadMix,
    knob,
)
from repro.common.types import CrossDomainProtocol, DomainId, FailureModel
from repro.errors import ConfigurationError
from repro.faults.plan import FaultAction, FaultPlan
from repro.serde import DictSerializable
from repro.workloads.generator import WORKLOAD_STYLES

__all__ = [
    "SAGUARO_COORDINATOR",
    "SAGUARO_OPTIMISTIC",
    "BASELINE_AHL",
    "BASELINE_SHARPER",
    "ENGINES",
    "BASELINE_ENGINES",
    "WORKLOAD_STYLES",
    "APPLICATION_KINDS",
    "DomainOverride",
    "TopologySpec",
    "ApplicationSpec",
    "WorkloadSpec",
    "FaultAction",
    "FaultPlan",
    "Scenario",
    "parse_domain_name",
]


# ---------------------------------------------------------------------------
# Engine identifiers
# ---------------------------------------------------------------------------

#: The four systems the paper evaluates.
SAGUARO_COORDINATOR = "saguaro-coordinator"
SAGUARO_OPTIMISTIC = "saguaro-optimistic"
BASELINE_AHL = "baseline-ahl"
BASELINE_SHARPER = "baseline-sharper"

ENGINES: Tuple[str, ...] = (
    SAGUARO_COORDINATOR,
    SAGUARO_OPTIMISTIC,
    BASELINE_AHL,
    BASELINE_SHARPER,
)
BASELINE_ENGINES: Tuple[str, ...] = (BASELINE_AHL, BASELINE_SHARPER)

APPLICATION_KINDS: Tuple[str, ...] = ("micropayment", "ridesharing", "keyvalue")

TOPOLOGY_KINDS: Tuple[str, ...] = ("auto", "tree", "flat")


def parse_domain_name(name: str) -> DomainId:
    """Parse a ``D<height><index>`` domain name (e.g. ``"D11"``, ``"D21"``)."""
    if not isinstance(name, str) or len(name) < 3 or not name.startswith("D"):
        raise ConfigurationError(f"invalid domain name {name!r}; expected 'D<h><i>'")
    try:
        return DomainId(height=int(name[1]), index=int(name[2:]))
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"invalid domain name {name!r}") from exc


def _as_tuple(value: Any) -> Tuple[Any, ...]:
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list, set, frozenset)):
        return tuple(value)
    return (value,)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainOverride(DictSerializable):
    """Per-domain deviation from the topology's default failure model/size."""

    domain: str
    failure_model: Optional[FailureModel] = None
    faults: Optional[int] = None
    region: Optional[str] = None

    def __post_init__(self) -> None:
        parse_domain_name(self.domain)  # validates the name
        if isinstance(self.failure_model, str):
            object.__setattr__(self, "failure_model", FailureModel(self.failure_model))
        if self.faults is not None and self.faults < 0:
            raise ConfigurationError("faults must be non-negative")


@dataclass(frozen=True)
class TopologySpec(DictSerializable):
    """Shape of the domain tree (or flat shard set for the baselines).

    ``kind`` is ``"tree"`` (Saguaro's hierarchy), ``"flat"`` (the baselines'
    shard set), or ``"auto"`` — pick whichever matches the scenario's engine.
    """

    kind: str = "auto"
    levels: int = 4
    branching: int = 2
    clients_per_leaf: int = 8
    failure_model: FailureModel = FailureModel.CRASH
    faults: int = 1
    num_domains: Optional[int] = None
    per_domain: Tuple[DomainOverride, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.failure_model, str):
            object.__setattr__(self, "failure_model", FailureModel(self.failure_model))
        object.__setattr__(
            self,
            "per_domain",
            tuple(
                o if isinstance(o, DomainOverride) else DomainOverride.from_dict(o)
                for o in _as_tuple(self.per_domain)
            ),
        )
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}; known: {TOPOLOGY_KINDS}"
            )
        if self.num_domains is not None and self.num_domains < 1:
            raise ConfigurationError("num_domains must be >= 1 when given")
        seen = set()
        for override in self.per_domain:
            if override.domain in seen:
                raise ConfigurationError(f"duplicate override for {override.domain}")
            seen.add(override.domain)
        # Delegate range checks on levels/branching/faults to the config layer.
        self.hierarchy_spec()

    def default_domain_spec(self) -> DomainSpec:
        return DomainSpec(failure_model=self.failure_model, faults=self.faults)

    def hierarchy_spec(self) -> HierarchySpec:
        default = self.default_domain_spec()
        per_domain: Dict[str, DomainSpec] = {}
        for override in self.per_domain:
            per_domain[override.domain] = DomainSpec(
                failure_model=override.failure_model or default.failure_model,
                faults=override.faults if override.faults is not None else default.faults,
                region=override.region,
            )
        return HierarchySpec(
            levels=self.levels,
            branching=self.branching,
            clients_per_leaf=self.clients_per_leaf,
            default_spec=default,
            per_domain=per_domain,
        )

    def resolved_kind(self, engine: str) -> str:
        if self.kind != "auto":
            return self.kind
        return "flat" if engine in BASELINE_ENGINES else "tree"

    def resolved_num_domains(self) -> int:
        if self.num_domains is not None:
            return self.num_domains
        return self.hierarchy_spec().num_height1_domains


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApplicationSpec(DictSerializable):
    """Which application executes transactions, and its knobs.

    ``accounts_per_domain`` defaults to the workload's value so the two stay
    consistent; ``hour_cap`` only applies to the ridesharing application.
    """

    kind: str = "micropayment"
    accounts_per_domain: Optional[int] = None
    hour_cap: float = 40.0

    def __post_init__(self) -> None:
        if self.kind not in APPLICATION_KINDS:
            raise ConfigurationError(
                f"unknown application kind {self.kind!r}; known: {APPLICATION_KINDS}"
            )
        if self.accounts_per_domain is not None and self.accounts_per_domain < 1:
            raise ConfigurationError("accounts_per_domain must be >= 1 when given")
        if self.hour_cap <= 0:
            raise ConfigurationError("hour_cap must be positive")

    def build(self, workload: "WorkloadSpec"):
        """Instantiate the application for ``workload``."""
        if self.kind == "micropayment":
            from repro.workloads.micropayment import MicropaymentApplication

            accounts = self.accounts_per_domain or workload.accounts_per_domain
            return MicropaymentApplication(accounts_per_domain=accounts)
        if self.kind == "ridesharing":
            from repro.workloads.ridesharing import RidesharingApplication

            return RidesharingApplication(hour_cap=self.hour_cap)
        from repro.core.application import KeyValueApplication

        return KeyValueApplication()


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec(DictSerializable, WorkloadMix):
    """The :class:`~repro.common.config.WorkloadMix` plus the payload style.

    ``style`` selects what the generated transactions *do*: ``"transfer"``
    produces micropayment transfers, ``"rides"`` produces ridesharing rides
    (``ride_hours`` / ``ride_fare`` per trip).  The per-run seed comes from
    the scenario's ``seeds``, not from this spec, so one spec replicates
    cleanly across seeds.
    """

    style: str = "transfer"
    ride_hours: float = knob(0.5, gt=0)
    ride_fare: float = knob(10.0, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.style not in WORKLOAD_STYLES:
            raise ConfigurationError(
                f"unknown workload style {self.style!r}; known: {WORKLOAD_STYLES}"
            )

    def to_workload_config(self, seed: int) -> WorkloadConfig:
        mix = {f.name: getattr(self, f.name) for f in fields(WorkloadMix)}
        return WorkloadConfig(**mix, seed=seed)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario(DictSerializable, EngineKnobs):
    """One fully described Saguaro experiment.

    The engine knobs (batching, grouping, sharding, speculation, durability,
    control, timers, latency profile) are the inherited
    :class:`~repro.common.config.EngineKnobs` block — declared, documented
    and bounded there, and handed to the deployment as-is.
    """

    name: str = "scenario"
    engine: str = SAGUARO_COORDINATOR
    topology: TopologySpec = field(default_factory=TopologySpec)
    application: ApplicationSpec = field(default_factory=ApplicationSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    num_clients: int = knob(8, ge=1)
    seeds: Tuple[int, ...] = (2023,)
    round_interval_ms: float = knob(25.0, gt=0)
    think_time_ms: float = knob(0.5, ge=0)
    max_simulated_ms: float = knob(600_000.0, gt=0)
    drain_ms: Optional[float] = knob(None, ge=0)
    #: When set, overrides both cost models' per-key execution charge —
    #: scenarios modelling execution-heavy state (contract evaluation,
    #: authenticated storage) dial this up so the lanes, not the ordering
    #: messages, are what saturates a node.  ``None`` keeps the defaults.
    execute_ms: Optional[float] = knob(None, gt=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "seeds", tuple(_as_tuple(self.seeds)))
        if isinstance(self.fault_plan, Mapping):
            object.__setattr__(self, "fault_plan", FaultPlan.from_dict(self.fault_plan))
        if not isinstance(self.fault_plan, FaultPlan):
            raise ConfigurationError(
                "fault_plan must be a FaultPlan (or its dict form), got "
                f"{type(self.fault_plan).__name__}"
            )
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {ENGINES}"
            )
        if not self.seeds:
            raise ConfigurationError("a scenario needs at least one seed")
        if any(not isinstance(seed, int) for seed in self.seeds):
            raise ConfigurationError("seeds must be integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")

    # ------------------------------------------------------------------ building blocks

    @classmethod
    def build(cls) -> "ScenarioBuilder":
        """Start a fluent builder: ``Scenario.build().workload(...).finish()``."""
        from repro.scenarios.builder import ScenarioBuilder

        return ScenarioBuilder()

    @property
    def protocol(self) -> CrossDomainProtocol:
        if self.engine == SAGUARO_OPTIMISTIC:
            return CrossDomainProtocol.OPTIMISTIC
        return CrossDomainProtocol.COORDINATOR

    @property
    def is_baseline(self) -> bool:
        return self.engine in BASELINE_ENGINES

    def deployment_config(self, seed: int) -> DeploymentConfig:
        costs: Dict[str, Any] = {}
        if self.execute_ms is not None:
            costs = dict(
                crash_costs=replace(
                    DEFAULT_CRASH_COSTS, execute_ms=self.execute_ms
                ),
                byzantine_costs=replace(
                    DEFAULT_BYZANTINE_COSTS, execute_ms=self.execute_ms
                ),
            )
        knobs = {f.name: getattr(self, f.name) for f in fields(EngineKnobs)}
        return DeploymentConfig(
            **costs,
            **knobs,
            hierarchy=self.topology.hierarchy_spec(),
            protocol=self.protocol,
            rounds=RoundConfig(height1_interval_ms=self.round_interval_ms),
            seed=seed,
        )

    def build_hierarchy(self):
        """Build (and region-place) the hierarchy this scenario runs over."""
        from repro.topology.builders import build_flat_domains, build_tree
        from repro.topology.regions import placement_for_profile

        if self.topology.resolved_kind(self.engine) == "flat":
            hierarchy = build_flat_domains(
                self.topology.resolved_num_domains(),
                self.topology.default_domain_spec(),
            )
        else:
            hierarchy = build_tree(self.topology.hierarchy_spec())
        return placement_for_profile(hierarchy, self.latency_profile)

    def build_application(self):
        return self.application.build(self.workload)

    # ------------------------------------------------------------------ derivation

    def with_overrides(self, **overrides: Any) -> "Scenario":
        """A copy of this scenario with named knobs changed.

        Keys resolve against the scenario's own fields first, then against the
        workload, topology, and application specs (in that order), so sweeps
        can say ``with_overrides(num_clients=32)`` or
        ``with_overrides(cross_domain_ratio=0.8)`` without spelling the nested
        path.  ``seed=n`` is shorthand for ``seeds=(n,)``; ``application`` and
        ``engine`` accept their string forms.
        """
        top: Dict[str, Any] = {}
        nested: Dict[str, Dict[str, Any]] = {"workload": {}, "topology": {}, "application": {}}
        scenario_fields = {f.name for f in fields(Scenario)}
        workload_fields = {f.name for f in fields(WorkloadSpec)}
        topology_fields = {f.name for f in fields(TopologySpec)}
        application_fields = {f.name for f in fields(ApplicationSpec)}
        for key, value in overrides.items():
            if key == "seed":
                top["seeds"] = _as_tuple(value)
            elif key == "application" and isinstance(value, str):
                top["application"] = replace(self.application, kind=value)
            elif key in scenario_fields:
                top[key] = value
            elif key in workload_fields:
                nested["workload"][key] = value
            elif key in topology_fields:
                nested["topology"][key] = value
            elif key in application_fields:
                nested["application"][key] = value
            else:
                raise ConfigurationError(
                    f"unknown scenario override {key!r}; not a Scenario, "
                    "WorkloadSpec, TopologySpec, or ApplicationSpec field"
                )
        # Whole-spec replacements first, then field-level changes on top, so
        # e.g. (workload=spec, cross_domain_ratio=0.8) applies the ratio to
        # the replacement spec instead of silently discarding it.
        updated = replace(self, **top) if top else self
        for attr, changes in nested.items():
            if changes:
                updated = replace(updated, **{attr: replace(getattr(updated, attr), **changes)})
        return updated

    def with_clients(self, num_clients: int) -> "Scenario":
        return self.with_overrides(num_clients=num_clients)

    def replicate(self, seeds: Union[int, Sequence[int]]) -> "Scenario":
        """Replicate across seeds: an int ``n`` derives ``n`` consecutive seeds
        from the scenario's first seed; a sequence is used as-is."""
        if isinstance(seeds, bool) or not isinstance(seeds, (int, Sequence)):
            raise ConfigurationError("replicate() takes an int or a seed sequence")
        if isinstance(seeds, int):
            if seeds < 1:
                raise ConfigurationError("replicate() needs at least one seed")
            base = self.seeds[0]
            seed_tuple = tuple(base + offset for offset in range(seeds))
        else:
            seed_tuple = tuple(seeds)
        return replace(self, seeds=seed_tuple)

    # ------------------------------------------------------------------ description

    def describe(self) -> str:
        workload = self.workload
        lines = [
            f"Scenario {self.name!r}: engine={self.engine}, "
            f"profile={self.latency_profile}, seeds={list(self.seeds)}",
            f"  topology: {self.topology.resolved_kind(self.engine)} "
            f"(levels={self.topology.levels}, branching={self.topology.branching}, "
            f"{self.topology.failure_model.value} f={self.topology.faults})",
            f"  workload: {workload.style} x{workload.num_transactions} "
            f"(cross={workload.cross_domain_ratio:.0%}, "
            f"contention={workload.contention_ratio:.0%}, "
            f"mobile={workload.mobile_ratio:.0%}) over {self.num_clients} clients",
            f"  application: {self.application.kind}",
        ]
        if self.batch_size > 1:
            lines.append(
                f"  batching: size={self.batch_size}, "
                f"timeout={self.batch_timeout_ms:g}ms"
            )
        if self.xdomain_batch_size > 1:
            lines.append(
                f"  xdomain batching: size={self.xdomain_batch_size}, "
                f"timeout={self.xdomain_batch_timeout_ms:g}ms"
            )
        if self.state_shards > 1 or self.execution_lanes > 1:
            lines.append(
                f"  sharding: shards={self.state_shards}, "
                f"lanes={self.execution_lanes}"
            )
        if self.execute_ms is not None:
            lines.append(f"  execution: execute_ms={self.execute_ms:g}")
        if self.speculation:
            lines.append("  speculation: on")
        if self.durability:
            lines.append(
                f"  durability: on (wal_sync={self.wal_sync_ms:g}ms, "
                f"checkpoint_interval={self.checkpoint_interval})"
            )
        if workload.zipf_skew > 0:
            lines.append(f"  zipf: skew={workload.zipf_skew:g}")
        if self.control.enabled:
            lines.append(
                f"  control: {self.control.policy} "
                f"(interval={self.control.interval_ms:g}ms, "
                f"batch=[{self.control.batch_min},{self.control.batch_max}], "
                f"group=[{self.control.group_min},{self.control.group_max}], "
                f"rebalance={'on' if self.control.rebalance_lanes else 'off'})"
            )
        if self.fault_plan:
            lines.append(f"  fault plan: {self.fault_plan.describe()}")
        return "\n".join(lines)
