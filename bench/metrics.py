"""Metric definitions: the single source ``BENCHMARK.json`` is generated from.

``kind`` says how to read a number: ``sim`` metrics are simulated ms or exact
counts and repeat bit-identically for a given seed, so two commits compare
exactly; ``host`` metrics are wall seconds / memory on the benchmark box and
carry its noise.  A change that only speeds the simulator must leave every
``sim`` metric identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from bench.workloads import WORKLOADS

#: How long one contract run measures (``--seconds``), at least
#: ``MIN_REPEATS`` repeats.  Sized so 4 + 22 x 6 runs fit the driver's cap.
RUN_SECONDS = 14
MIN_REPEATS = 3


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    kind: str  # "sim" | "host"
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen.  Sized
    #: from the spread over ten *different* seeds (see README "Bounds"):
    #: with the same seed on both sides ``compare`` demands sim equality.
    bound: float


END_TO_END: Tuple[EndToEnd, ...] = (
    # worker-process start (before `import repro`) to materialize() returning
    EndToEnd("setup_s", "s", "host", "lower", 0.25),
    # wall time of ScenarioRun.run() / of ScenarioRun.check_invariants()
    EndToEnd("host_run_s", "s", "host", "lower", 0.25),
    EndToEnd("host_check_s", "s", "host", "lower", 0.25),
    # ru_maxrss of the worker process (one repeat per process)
    EndToEnd("peak_rss_mb", "MiB", "host", "lower", 0.05),
    # commits per simulated second over the central 80 % of commits
    EndToEnd("sim_tps", "tx/s", "sim", "higher", 0.25),
    # issue-to-commit latency on the height-1 ledger(s): median, and the
    # workload's tail percentile (p99, p98 or p90)
    EndToEnd("sim_latency_p50_ms", "ms", "sim", "lower", 0.15),
    EndToEnd("sim_latency_tail_ms", "ms", "sim", "lower", 0.05),
    # committed / issued: aborted and pending transactions count against it
    EndToEnd("sim_commit_share", "ratio", "sim", "higher", 0.05),
    # NetworkStats.messages_sent / committed
    EndToEnd("sim_msgs_per_tx", "msgs/tx", "sim", "lower", 0.12),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: Written before measuring: the end-to-end metric this should move, and
    #: the workload it should move it on.
    moves: Tuple[str, str]


_LAN, _WAN, _COORD, _OPT, _CTL, _CHURN = (w.name for w in WORKLOADS if w.contract)

PER_LAYER: Tuple[PerLayer, ...] = (
    # -- sim ------------------------------------------------------------------
    PerLayer("sim.events_executed", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("sim.events_per_tx", "ev/tx", "lower", ("host_run_s", _CTL)),
    PerLayer("sim.host_events_per_s", "1/s", "higher", ("host_run_s", _LAN)),
    PerLayer("sim.bare_dispatch_events_per_s", "1/s", "higher", ("host_run_s", _LAN)),
    PerLayer("sim.dispatch_ratio", "ratio", "higher", ("host_run_s", _LAN)),
    PerLayer("sim.dispatch_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("sim.queue_calls", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("sim.queue_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("sim.network_calls", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("sim.network_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("sim.msgs_per_tx", "msgs/tx", "lower", ("sim_msgs_per_tx", _CTL)),
    PerLayer("sim.kb_per_tx", "KiB/tx", "lower", ("sim_msgs_per_tx", _CTL)),
    PerLayer("sim.wan_msgs_per_tx", "msgs/tx", "lower", ("sim_msgs_per_tx", _WAN)),
    PerLayer("sim.wan_kb_per_tx", "KiB/tx", "lower", ("sim_msgs_per_tx", _WAN)),
    PerLayer("sim.msgs_dropped", "count", "lower", ("sim_latency_tail_ms", _CHURN)),
    PerLayer("sim.lane_parallelism", "ratio", "higher", ("sim_tps", _LAN)),
    PerLayer("sim.max_commit_gap_ms", "ms", "lower", ("sim_latency_tail_ms", _CHURN)),
    PerLayer("sim.failed_share", "ratio", "lower", ("sim_commit_share", _OPT)),
    # -- consensus ------------------------------------------------------------
    PerLayer("consensus.calls", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("consensus.self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("consensus.msgs_per_tx", "msgs/tx", "lower", ("sim_msgs_per_tx", _LAN)),
    PerLayer("consensus.slots_decided", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("consensus.entries_per_slot", "ratio", "higher", ("sim_tps", _LAN)),
    PerLayer("consensus.order_ms", "ms", "lower", ("sim_latency_p50_ms", _COORD)),
    PerLayer("consensus.view_changes", "count", "lower", ("sim_latency_tail_ms", _CHURN)),
    # -- core -----------------------------------------------------------------
    PerLayer("core.deliver_calls", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("core.node_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("core.coordinator_self_s", "s", "lower", ("host_run_s", _WAN)),
    PerLayer("core.coordinator_calls", "count", "lower", ("host_run_s", _WAN)),
    PerLayer("core.optimistic_self_s", "s", "lower", ("host_run_s", _OPT)),
    PerLayer("core.mobile_self_s", "s", "lower", ("host_run_s", _COORD)),
    PerLayer("core.internal_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("core.lazy_self_s", "s", "lower", ("host_run_s", _CTL)),
    PerLayer("core.client_self_s", "s", "lower", ("host_run_s", _WAN)),
    PerLayer("core.xdomain_msgs_per_tx", "msgs/tx", "lower", ("sim_msgs_per_tx", _WAN)),
    PerLayer("core.lazy_msgs_per_tx", "msgs/tx", "lower", ("sim_msgs_per_tx", _CTL)),
    PerLayer("core.group_fill", "ratio", "higher", ("sim_tps", _WAN)),
    PerLayer("core.prepare_attempts_per_commit", "ratio", "lower", ("sim_tps", _CTL)),
    PerLayer("core.xdomain_prepare_ms", "ms", "lower", ("sim_latency_p50_ms", _WAN)),
    PerLayer("core.xdomain_commit_ms", "ms", "lower", ("sim_latency_p50_ms", _WAN)),
    # -- ledger ---------------------------------------------------------------
    PerLayer("ledger.dag_calls", "count", "lower", ("host_run_s", _OPT)),
    PerLayer("ledger.dag_self_s", "s", "lower", ("host_run_s", _OPT)),
    PerLayer("ledger.state_calls", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("ledger.state_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("ledger.chain_appends", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("ledger.chain_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("ledger.appends_per_tx", "ratio", "lower", ("host_run_s", _LAN)),
    # -- crypto ---------------------------------------------------------------
    PerLayer("crypto.digest_calls", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("crypto.digest_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("crypto.digests_per_tx", "ratio", "lower", ("host_run_s", _LAN)),
    PerLayer("crypto.cert_calls", "count", "lower", ("host_run_s", _LAN)),
    PerLayer("crypto.cert_self_s", "s", "lower", ("host_run_s", _LAN)),
    # -- faults ---------------------------------------------------------------
    PerLayer("faults.trace_events", "count", "lower", ("peak_rss_mb", _LAN)),
    PerLayer("faults.trace_events_per_tx", "ev/tx", "lower", ("host_check_s", _WAN)),
    PerLayer("faults.trace_self_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("faults.check_self_s", "s", "lower", ("host_check_s", _WAN)),
    PerLayer("faults.violations", "count", "lower", ("sim_commit_share", _WAN)),
    PerLayer("faults.injected", "count", "lower", ("sim_latency_tail_ms", _CHURN)),
    # -- control --------------------------------------------------------------
    PerLayer("control.decisions", "count", "higher", ("sim_tps", _CTL)),
    PerLayer("control.lease_grants", "count", "lower", ("sim_tps", _CTL)),
    PerLayer("control.self_s", "s", "lower", ("host_run_s", _CTL)),
    # -- recovery -------------------------------------------------------------
    PerLayer("recovery.wal_appends", "count", "lower", ("sim_latency_p50_ms", _CHURN)),
    PerLayer("recovery.wal_self_s", "s", "lower", ("host_run_s", _CHURN)),
    PerLayer("recovery.checkpoints", "count", "lower", ("host_run_s", _CHURN)),
    PerLayer("recovery.rejoins", "count", "higher", ("sim_latency_tail_ms", _CHURN)),
    PerLayer("recovery.rejoin_ms", "ms", "lower", ("sim_latency_tail_ms", _CHURN)),
    PerLayer("recovery.catchup_msgs", "count", "lower", ("sim_msgs_per_tx", _CHURN)),
    # -- set-up and reporting ---------------------------------------------------
    PerLayer("workloads.generate_s", "s", "lower", ("setup_s", _WAN)),
    PerLayer("topology.build_s", "s", "lower", ("setup_s", _LAN)),
    PerLayer("scenarios.materialize_s", "s", "lower", ("setup_s", _LAN)),
    PerLayer("analysis.summary_s", "s", "lower", ("host_run_s", _LAN)),
    PerLayer("analysis.makespan_tps", "tx/s", "higher", ("sim_tps", _COORD)),
    # -- the tracer itself ------------------------------------------------------
    PerLayer("bench.trace_overhead_ratio", "ratio", "lower", ("host_run_s", _LAN)),
    PerLayer("bench.unattributed_share", "ratio", "lower", ("host_run_s", _LAN)),
)

END_TO_END_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}


def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json`` (checked by the self-check test)."""
    return {
        "command": ["python3", "-m", "bench", "run"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS if w.contract
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
