"""Fluent builder for :class:`~repro.scenarios.spec.Scenario`.

The builder exists so that scenario construction reads as one declarative
sentence and fails fast with :class:`~repro.errors.ConfigurationError` on
inconsistent input::

    scenario = (
        Scenario.build()
        .name("quickstart")
        .engine(SAGUARO_COORDINATOR)
        .topology(levels=4, branching=2)
        .application("micropayment")
        .workload(num_transactions=200, cross_domain_ratio=0.2)
        .clients(8)
        .latency("nearby-eu")
        .replicate(seeds=3)
        .finish()
    )

Every method returns the builder; :meth:`ScenarioBuilder.finish` produces the
frozen spec (and is aliased as ``build()``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from repro.common.config import TimerConfig
from repro.control.policy import ControlPolicy
from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    ApplicationSpec,
    Scenario,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["ScenarioBuilder"]


class ScenarioBuilder:
    """Accumulates scenario fields and assembles the frozen spec."""

    def __init__(self) -> None:
        self._fields: Dict[str, Any] = {}
        self._replicate: Optional[Union[int, Sequence[int]]] = None

    def _set(self, **values: Any) -> "ScenarioBuilder":
        """Record the given scenario fields; ``None`` means "leave the default"."""
        self._fields.update(
            {key: value for key, value in values.items() if value is not None}
        )
        return self

    def _spec(self, key: str, cls: type, spec: Any, kwargs: Dict[str, Any]) -> "ScenarioBuilder":
        """Record a nested spec given either ready-made or as its kwargs."""
        if spec is not None and kwargs:
            raise ConfigurationError(
                f"pass either a ready {cls.__name__} or its kwargs, not both"
            )
        return self._set(**{key: spec if spec is not None else cls(**kwargs)})

    # ------------------------------------------------------------------ identity

    def name(self, name: str) -> "ScenarioBuilder":
        return self._set(name=name)

    def engine(self, engine: str) -> "ScenarioBuilder":
        return self._set(engine=engine)

    # ------------------------------------------------------------------ structure

    def topology(
        self, spec: Optional[TopologySpec] = None, **kwargs: Any
    ) -> "ScenarioBuilder":
        """Set the topology, either as a spec or as :class:`TopologySpec` kwargs."""
        return self._spec("topology", TopologySpec, spec, kwargs)

    def application(
        self, kind_or_spec: Union[str, ApplicationSpec] = "micropayment", **kwargs: Any
    ) -> "ScenarioBuilder":
        if isinstance(kind_or_spec, ApplicationSpec):
            return self._spec("application", ApplicationSpec, kind_or_spec, kwargs)
        return self._set(application=ApplicationSpec(kind=kind_or_spec, **kwargs))

    def workload(
        self, spec: Optional[WorkloadSpec] = None, **kwargs: Any
    ) -> "ScenarioBuilder":
        """Set the workload, either as a spec or as :class:`WorkloadSpec` kwargs."""
        return self._spec("workload", WorkloadSpec, spec, kwargs)

    # ------------------------------------------------------------------ load & timing

    def clients(self, num_clients: int) -> "ScenarioBuilder":
        return self._set(num_clients=num_clients)

    def latency(self, profile: str) -> "ScenarioBuilder":
        return self._set(latency_profile=profile)

    def rounds(self, interval_ms: float) -> "ScenarioBuilder":
        return self._set(round_interval_ms=interval_ms)

    def timers(self, timers: Optional[TimerConfig] = None, **kwargs: Any) -> "ScenarioBuilder":
        return self._spec("timers", TimerConfig, timers, kwargs)

    def think_time(self, think_time_ms: float) -> "ScenarioBuilder":
        return self._set(think_time_ms=think_time_ms)

    def batching(
        self, batch_size: int, batch_timeout_ms: Optional[float] = None
    ) -> "ScenarioBuilder":
        """Configure consensus request batching (``batch_size=1`` disables)."""
        return self._set(batch_size=batch_size, batch_timeout_ms=batch_timeout_ms)

    def xdomain_batching(
        self, xdomain_batch_size: int, xdomain_batch_timeout_ms: Optional[float] = None
    ) -> "ScenarioBuilder":
        """Configure grouped cross-domain 2PC (``xdomain_batch_size=1`` disables)."""
        return self._set(
            xdomain_batch_size=xdomain_batch_size,
            xdomain_batch_timeout_ms=xdomain_batch_timeout_ms,
        )

    def sharding(
        self, state_shards: int, execution_lanes: Optional[int] = None
    ) -> "ScenarioBuilder":
        """Configure state sharding and parallel execution lanes.

        ``execution_lanes`` defaults to ``state_shards`` so every shard gets
        its own lane; ``sharding(1)`` disables both (bit-identical to the
        unsharded, free-execution model).
        """
        return self._set(
            state_shards=state_shards,
            execution_lanes=(
                execution_lanes if execution_lanes is not None else state_shards
            ),
        )

    def speculation(self, enabled: bool = True) -> "ScenarioBuilder":
        """Arm speculative out-of-order execution with in-order commit.

        ``speculation()`` turns it on; ``speculation(False)`` is the inert
        default (bit-identical to the pre-speculation engine).
        """
        return self._set(speculation=enabled)

    def durability(
        self,
        enabled: bool = True,
        wal_sync_ms: Optional[float] = None,
        checkpoint_interval: Optional[int] = None,
    ) -> "ScenarioBuilder":
        """Arm the write-ahead log + certified-checkpoint recovery subsystem.

        ``durability()`` turns it on with the default WAL sync cost and
        checkpoint cadence; ``durability(False)`` is the inert default
        (bit-identical to the pre-durability deployment).
        """
        return self._set(
            durability=enabled,
            wal_sync_ms=wal_sync_ms,
            checkpoint_interval=checkpoint_interval,
        )

    def control(
        self,
        policy_or_spec: Union[str, ControlPolicy] = "adaptive",
        **kwargs: Any,
    ) -> "ScenarioBuilder":
        """Configure the self-tuning control plane.

        Pass a ready :class:`ControlPolicy`, or a policy name plus
        :class:`ControlPolicy` kwargs: ``.control()`` arms the adaptive
        controllers with defaults, ``.control("adaptive", interval_ms=5)``
        tunes them, ``.control("static")`` is the inert default.
        """
        if isinstance(policy_or_spec, ControlPolicy):
            return self._spec("control", ControlPolicy, policy_or_spec, kwargs)
        return self._set(control=ControlPolicy(policy=policy_or_spec, **kwargs))

    def limits(
        self,
        max_simulated_ms: Optional[float] = None,
        drain_ms: Optional[float] = None,
    ) -> "ScenarioBuilder":
        return self._set(max_simulated_ms=max_simulated_ms, drain_ms=drain_ms)

    # ------------------------------------------------------------------ replication

    def seed(self, seed: int) -> "ScenarioBuilder":
        return self._set(seeds=(seed,))

    def seeds(self, seeds: Sequence[int]) -> "ScenarioBuilder":
        return self._set(seeds=tuple(seeds))

    def replicate(self, seeds: Union[int, Sequence[int]] = 5) -> "ScenarioBuilder":
        """Replicate over seeds (int = that many consecutive seeds)."""
        self._replicate = seeds
        return self

    # ------------------------------------------------------------------ assembly

    def finish(self) -> Scenario:
        """Validate and freeze the scenario."""
        scenario = Scenario(**self._fields)
        if self._replicate is not None:
            scenario = scenario.replicate(self._replicate)
        return scenario

    #: Alias so both ``Scenario.build()...finish()`` and ``...build()`` read well.
    build = finish
