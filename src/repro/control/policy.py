"""The :class:`ControlPolicy` spec: what the self-tuning control plane does.

A control policy is plain, validated, JSON-round-trippable data, exactly like
the rest of the configuration layer: it travels
``Scenario -> DeploymentConfig -> SaguaroNode`` and fully describes the
feedback loop one deployment runs.  ``policy="static"`` (the default) turns
the whole subsystem off — no telemetry bus, no control timer, no controller —
and is bit-identical to a deployment built before the control plane existed.

``policy="adaptive"`` arms, per node:

* an AIMD batch controller resizing the consensus batcher's target
  (``batch_min``..``batch_max``, ``+batch_increase`` while demand saturates,
  ``*batch_decrease`` when measured decide latency overruns
  ``target_decide_latency_ms``);
* the same AIMD rule for the coordinator's grouped-2PC target
  (``group_*`` knobs against the measured group vote round-trip and
  abort-retry counts);
* a greedy lane rebalancer moving the hottest account shards off the
  busiest execution lane whenever the window's busiest/idlest lane ratio
  exceeds ``imbalance_ratio`` (at most ``max_moves_per_interval`` shard
  moves per control tick, applied only between execution windows).

Phase 2 adds two opt-in mechanisms (both default off, both requiring an
adaptive policy):

* ``conflict_leases`` — a grouped-2PC member held back by a *foreign*
  coordinator's in-flight conflict is granted a short lease
  (``lease_ms``) and joins the *next* group order instead of falling back
  to the per-transaction 2PC path;
* ``split_shards`` — when the lane rebalancer's single-resident guard
  blocks ``split_after_blocked`` consecutive evaluations, the hot shard's
  key range is split into two child shards between execution windows
  (at most ``max_splits`` splits per node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.serde import DictSerializable

__all__ = ["CONTROL_POLICIES", "ControlPolicy"]

#: Recognised policy kinds. ``static`` = feedback loop off (bit-identical to
#: the pre-control deployments); ``adaptive`` = controllers armed.
CONTROL_POLICIES: Tuple[str, ...] = ("static", "adaptive")


@dataclass(frozen=True)
class ControlPolicy(DictSerializable):
    """Per-deployment spec of the self-tuning control plane (all times ms)."""

    policy: str = "static"
    interval_ms: float = 10.0
    window: int = 256
    # AIMD over the consensus batcher's target size.
    batch_min: int = 1
    batch_max: int = 128
    batch_increase: int = 8
    batch_decrease: float = 0.5
    target_decide_latency_ms: float = 50.0
    # AIMD over the coordinator's grouped-2PC target size.
    group_min: int = 1
    group_max: int = 32
    group_increase: int = 2
    group_decrease: float = 0.5
    target_vote_rtt_ms: float = 500.0
    # Greedy hot-shard rebalancing across execution lanes.
    rebalance_lanes: bool = True
    imbalance_ratio: float = 1.25
    max_moves_per_interval: int = 1
    # Phase 2: grouped-2PC conflict leases (held-back members join the
    # next group instead of the per-transaction fallback path).
    conflict_leases: bool = False
    lease_ms: float = 50.0
    # Phase 2: hot-shard splitting when whole-shard rebalancing is blocked.
    split_shards: bool = False
    split_after_blocked: int = 3
    max_splits: int = 8

    def __post_init__(self) -> None:
        if self.policy not in CONTROL_POLICIES:
            raise ConfigurationError(
                f"unknown control policy {self.policy!r}; known: {CONTROL_POLICIES}"
            )
        if not self.interval_ms > 0 or not math.isfinite(self.interval_ms):
            raise ConfigurationError("interval_ms must be positive and finite")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        for prefix in ("batch", "group"):
            low = getattr(self, f"{prefix}_min")
            high = getattr(self, f"{prefix}_max")
            increase = getattr(self, f"{prefix}_increase")
            decrease = getattr(self, f"{prefix}_decrease")
            if low < 1:
                raise ConfigurationError(f"{prefix}_min must be >= 1")
            if high < low:
                raise ConfigurationError(f"{prefix}_max must be >= {prefix}_min")
            if increase < 1:
                raise ConfigurationError(f"{prefix}_increase must be >= 1")
            if not 0.0 < decrease < 1.0:
                raise ConfigurationError(
                    f"{prefix}_decrease must be within (0, 1)"
                )
        if self.target_decide_latency_ms <= 0:
            raise ConfigurationError("target_decide_latency_ms must be positive")
        if self.target_vote_rtt_ms <= 0:
            raise ConfigurationError("target_vote_rtt_ms must be positive")
        if self.imbalance_ratio <= 1.0:
            raise ConfigurationError("imbalance_ratio must be > 1")
        if self.max_moves_per_interval < 1:
            raise ConfigurationError("max_moves_per_interval must be >= 1")
        if not self.lease_ms > 0 or not math.isfinite(self.lease_ms):
            raise ConfigurationError("lease_ms must be positive and finite")
        if self.split_after_blocked < 1:
            raise ConfigurationError("split_after_blocked must be >= 1")
        if self.max_splits < 1:
            raise ConfigurationError("max_splits must be >= 1")
        if not self.enabled and (self.conflict_leases or self.split_shards):
            raise ConfigurationError(
                "phase-2 mechanisms (conflict_leases, split_shards) "
                "require an adaptive policy"
            )

    @property
    def enabled(self) -> bool:
        """Whether any controller runs at all (``static`` means none do)."""
        return self.policy != "static"
