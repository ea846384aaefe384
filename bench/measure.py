"""One repeat: materialize -> run -> check, and the metrics read off it.

``run_once`` is the only place the benchmark touches live ``repro`` objects.
Every count comes from public state (``NetworkStats``, the run trace, the
metrics collector) and is exact; host times are ``perf_counter`` deltas.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Any, Dict, List, Optional

from bench.trace import Tracer
from bench.workloads import Workload

__all__ = ["run_once", "add_untraced_ratios", "percentile"]


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile, as ``repro.analysis.metrics`` computes it."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def steady_tps(commit_times: List[float]) -> float:
    """Commit rate (tx per simulated second) over the central 80 % of commits.

    ``PerformanceSummary.throughput_tps`` divides by the whole span from first
    issue to last commit, which in a closed loop with a fixed amount of work
    is set by the last straggling client: across seeds it spreads 18 % on
    ``eu-mixed-coordinator`` where this rate spreads 4 %.  Dropping the first
    and last tenth of the commits drops ramp-up and stragglers.
    """
    ordered = sorted(commit_times)
    low, high = len(ordered) // 10, (9 * len(ordered)) // 10
    span_ms = ordered[high] - ordered[low] if ordered else 0.0
    return _ratio(high - low, span_ms / 1000.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_once(
    workload: Workload,
    seed: int,
    tracer: Optional[Tracer] = None,
    num_transactions: Optional[int] = None,
) -> Dict[str, Any]:
    """One materialize/run/check cycle of ``workload`` on ``seed``.

    Returns ``{"end_to_end", "checks", "samples", "issued", "unresolved", ...}``
    plus ``"per_layer"`` when a (not yet installed) ``tracer`` is passed.
    ``end_to_end`` lacks ``setup_s`` and ``peak_rss_mb``: those belong to the
    worker process, which derives the first from ``materialized_at`` (the
    ``perf_counter`` reading when ``materialize()`` returned).
    """
    from repro.errors import InvariantViolationError
    from repro.scenarios.runner import materialize

    scenario = workload.scenario(num_transactions)
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        call = tracer.call if tracer is not None else (lambda _name, func: func())
        run = call("bench:materialize", lambda: materialize(scenario, seed))
        materialized_at = clock()
        gc.collect()
        start = clock()
        result = call("bench:run", run.run)
        run_s = clock() - start
        gc.collect()
        start = clock()
        violation_text = ""
        try:
            call("bench:check", run.check_invariants)  # raises on any violation
        except InvariantViolationError as error:
            violation_text = str(error)
        check_s = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    summary = result.summary
    records = run.deployment.metrics.committed_records()
    latencies = [record.latency_ms for record in records]
    issued = summary.committed + summary.aborted + summary.pending
    stats = run.deployment.network.stats
    counts = mechanism_counts(run, result)
    checks = {
        "invariants": not violation_text,
        "no_pending": summary.pending == 0,
        "committed_floor": (
            summary.committed >= workload.committed_floor or num_transactions is not None
        ),
        "evidence": all(counts[key] >= need for key, need in workload.evidence.items())
        or num_transactions is not None,
    }
    outcome: Dict[str, Any] = {
        "seed": seed,
        "end_to_end": {
            "host_run_s": run_s,
            "host_check_s": check_s,
            "sim_tps": steady_tps([record.committed_at for record in records]),
            "sim_latency_p50_ms": summary.p50_latency_ms,
            "sim_latency_tail_ms": percentile(latencies, workload.tail_percentile)
            if latencies else 0.0,
            "sim_commit_share": _ratio(summary.committed, issued),
            "sim_msgs_per_tx": _ratio(stats.messages_sent, summary.committed),
        },
        "materialized_at": materialized_at,
        "checks": checks,
        "detail": violation_text,
        "evidence": {key: counts[key] for key in workload.evidence},
        "samples": summary.committed,
        "issued": issued,
        "unresolved": summary.pending,
    }
    if tracer is not None:
        outcome["per_layer"] = per_layer(run, result, tracer, counts)
        outcome["per_layer"]["faults.violations"] = int(bool(violation_text))
    return outcome


def mechanism_counts(run: Any, result: Any) -> Dict[str, int]:
    """How often each protocol mechanism fired (the workloads' evidence)."""
    kinds = run.trace.kinds()
    payloads = run.deployment.network.stats.per_payload_type
    return {
        "batch_proposals": kinds.get("batch-propose", 0),
        "pbft_messages": sum(n for kind, n in payloads.items() if kind.startswith("Pbft")),
        "grouped_exchanges": kinds.get("handoff:group-commit", 0),
        "ungrouped_prepares": kinds.get("handoff:prepare", 0),
        "mobile_state_transfers": payloads.get("StateMessage", 0),
        "optimistic_decisions": payloads.get("OptimisticDecision", 0),
        "control_decisions": sum(n for kind, n in kinds.items() if kind.startswith("control:")),
        "lease_grants": sum(
            1 for event in run.trace.events("control:lease") if event.get("action") == "grant"
        ),
        "rejoins": len(result.time_to_rejoin_ms),
        "wal_appends": sum(
            len(node.wal.records()) for node in run.deployment.nodes.values() if node.wal
        ),
        "checkpoints": kinds.get("recovery:checkpoint", 0),
    }


def per_layer(
    run: Any, result: Any, tracer: Tracer, counts: Dict[str, int]
) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` (0 where a layer is idle).

    All but ``faults.violations`` (the caller knows it) and the three that
    compare against the *untraced* run of the same seed, which
    :func:`add_untraced_ratios` adds.  ``counts`` is :func:`mechanism_counts`.
    """
    from repro.common.types import TransactionKind
    from repro.sim.bench import simulator_events_per_sec

    deployment, trace, summary = run.deployment, run.trace, result.summary
    stats = deployment.network.stats
    payloads = stats.per_payload_type
    kinds = trace.kinds()
    committed = summary.committed
    records = deployment.metrics.committed_records()
    cross = sum(1 for record in records if record.kind is TransactionKind.CROSS_DOMAIN)
    layers = tracer.layer_totals()
    aggregates = tracer.aggregates

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> float:
        return layers.get(layer, {}).get("calls", 0)

    def span_calls(name: str) -> float:
        return aggregates.get(name, (0, 0.0, 0.0))[0]

    def span_total(name: str) -> float:
        return aggregates.get(name, (0, 0.0, 0.0))[1]

    def sent(*prefixes: str) -> int:
        return sum(n for kind, n in payloads.items() if kind.startswith(prefixes))

    events = deployment.simulator.events_executed
    commit_times = sorted(record.committed_at for record in records)
    nodes = list(deployment.nodes.values())
    height1 = [node for node in nodes if node.is_height1]
    slots = sum(
        max(deployment.node(name).engine.decided_count for name in domain.node_names)
        for domain in deployment.hierarchy.server_domains()
    )
    view_changes = sum(
        max(deployment.node(name).engine.view for name in domain.node_names)
        for domain in deployment.hierarchy.server_domains()
    )
    stages = _xdomain_stages(trace)
    run_total = span_total("bench:run")
    group_sizes = [len(event.get("tids", ())) for event in trace.events("handoff:group-prepare")]

    return {
        "sim.events_executed": events,
        "sim.events_per_tx": _ratio(events, committed),
        "sim.bare_dispatch_events_per_s": simulator_events_per_sec(),
        "sim.dispatch_self_s": self_s("sim.dispatch"),
        "sim.queue_calls": calls("sim.queue"),
        "sim.queue_self_s": self_s("sim.queue"),
        "sim.network_calls": calls("sim.network"),
        "sim.network_self_s": self_s("sim.network"),
        "sim.msgs_per_tx": _ratio(stats.messages_sent, committed),
        "sim.kb_per_tx": _ratio(stats.kilobytes_sent, committed),
        "sim.wan_msgs_per_tx": _ratio(stats.wide_area_messages, committed),
        "sim.wan_kb_per_tx": _ratio(stats.wide_area_kilobytes, committed),
        "sim.msgs_dropped": stats.messages_dropped,
        "sim.lane_parallelism": _mean([node.lanes.parallelism() for node in height1]),
        "sim.max_commit_gap_ms": max(
            (later - earlier for earlier, later in zip(commit_times, commit_times[1:])),
            default=0.0,
        ),
        "sim.failed_share": _ratio(
            summary.aborted + summary.pending,
            committed + summary.aborted + summary.pending,
        ),
        "consensus.calls": calls("consensus"),
        "consensus.self_s": self_s("consensus"),
        "consensus.msgs_per_tx": _ratio(sent("Pbft", "Paxos"), committed),
        "consensus.slots_decided": slots,
        "consensus.entries_per_slot": _ratio(
            sum(node.engine.delivery_seq for node in nodes),
            sum(node.engine.decided_count for node in nodes),
        ),
        "consensus.order_ms": _order_ms(trace),
        "consensus.view_changes": view_changes,
        "core.deliver_calls": span_calls("core.node:SaguaroNode.deliver"),
        "core.node_self_s": self_s("core.node"),
        "core.coordinator_self_s": self_s("core.coordinator"),
        "core.coordinator_calls": calls("core.coordinator"),
        "core.optimistic_self_s": self_s("core.optimistic"),
        "core.mobile_self_s": self_s("core.mobile"),
        "core.internal_self_s": self_s("core.internal"),
        "core.lazy_self_s": self_s("core.lazy"),
        "core.client_self_s": self_s("core.client"),
        "core.xdomain_msgs_per_tx": _ratio(sent("Cross", "GroupCross", "Optimistic"), cross),
        "core.lazy_msgs_per_tx": _ratio(payloads.get("BlockPropagate", 0), committed),
        "core.group_fill": _mean(group_sizes),
        "core.prepare_attempts_per_commit": _ratio(
            kinds.get("handoff:prepare", 0) + sum(group_sizes), cross
        ),
        "core.xdomain_prepare_ms": stages["prepare_ms"],
        "core.xdomain_commit_ms": stages["commit_ms"],
        "ledger.dag_calls": calls("ledger.dag"),
        "ledger.dag_self_s": self_s("ledger.dag"),
        "ledger.state_calls": calls("ledger.state"),
        "ledger.state_self_s": self_s("ledger.state"),
        "ledger.chain_appends": kinds.get("append", 0),
        "ledger.chain_self_s": self_s("ledger.chain"),
        "ledger.appends_per_tx": _ratio(kinds.get("append", 0), committed),
        "crypto.digest_calls": calls("crypto.digest"),
        "crypto.digest_self_s": self_s("crypto.digest"),
        "crypto.digests_per_tx": _ratio(calls("crypto.digest"), committed),
        "crypto.cert_calls": calls("crypto.cert"),
        "crypto.cert_self_s": self_s("crypto.cert"),
        "faults.trace_events": len(trace),
        "faults.trace_events_per_tx": _ratio(len(trace), committed),
        "faults.trace_self_s": self_s("faults.trace"),
        "faults.check_self_s": self_s("faults.check"),
        "faults.injected": sum(n for kind, n in kinds.items() if kind.startswith("fault:")),
        "control.decisions": counts["control_decisions"],
        "control.lease_grants": counts["lease_grants"],
        "control.self_s": self_s("control"),
        "recovery.wal_appends": calls("recovery.wal"),
        "recovery.wal_self_s": self_s("recovery.wal"),
        "recovery.checkpoints": counts["checkpoints"],
        "recovery.rejoins": counts["rejoins"],
        "recovery.rejoin_ms": _mean([delta for _node, delta in result.time_to_rejoin_ms]),
        "recovery.catchup_msgs": sent("CatchUp"),
        "workloads.generate_s": span_total("workloads.generate:WorkloadGenerator.generate"),
        "topology.build_s": span_total("topology.build:Scenario.build_hierarchy"),
        "scenarios.materialize_s": _warm_materialize_s(run),
        "analysis.summary_s": span_total("analysis.summary:MetricsCollector.summary"),
        "analysis.makespan_tps": summary.throughput_tps,
        "bench.unattributed_share": _ratio(
            aggregates.get("bench:run", (0, 0.0, 0.0))[2], run_total
        ),
    }


def add_untraced_ratios(
    layers: Dict[str, float], traced_run_s: float, untraced_run_s: float
) -> None:
    """Fill in the metrics that set the traced run against the untraced one."""
    rate = _ratio(layers["sim.events_executed"], untraced_run_s)
    layers["sim.host_events_per_s"] = rate
    layers["sim.dispatch_ratio"] = _ratio(rate, layers["sim.bare_dispatch_events_per_s"])
    layers["bench.trace_overhead_ratio"] = _ratio(traced_run_s, untraced_run_s)


def _warm_materialize_s(run: Any, repeats: int = 3) -> float:
    """Median wall time of ``materialize`` once imports and caches are warm."""
    from repro.scenarios.runner import materialize

    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        materialize(run.scenario, run.seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _order_ms(trace: Any) -> float:
    """Mean simulated ms from ``propose`` to the proposer's own ``decide``."""
    proposed: Dict[Any, float] = {}
    waits: List[float] = []
    for event in trace:
        key = (event.node, event.slot, event.view)
        if event.kind == "propose":
            proposed.setdefault(key, event.at_ms)
        elif event.kind == "decide" and key in proposed:
            waits.append(event.at_ms - proposed.pop(key))
    return _mean(waits)


def _xdomain_stages(trace: Any) -> Dict[str, float]:
    """Mean simulated ms of the two 2PC stages of committed cross-domain txs.

    ``prepare``: the LCA receives the forwarded request -> the last
    participant orders its prepare.  ``commit``: that -> the last ``append``.
    Grouped exchanges carry member ids in ``tids``.
    """
    forwarded: Dict[str, float] = {}
    prepared: Dict[str, float] = {}
    appended: Dict[str, float] = {}
    for event in trace:
        if event.kind == "handoff:forward":
            forwarded.setdefault(event.tid, event.at_ms)
        elif event.kind == "handoff:prepared":
            prepared[event.tid] = event.at_ms
        elif event.kind == "handoff:group-prepared":
            for tid in event.get("tids", ()):
                prepared[tid] = event.at_ms
        elif event.kind == "append" and event.get("tx_kind") == "cross_domain":
            appended[event.tid] = event.at_ms
    done = [tid for tid in appended if tid in forwarded and tid in prepared]
    return {
        "prepare_ms": _mean([prepared[tid] - forwarded[tid] for tid in done]),
        "commit_ms": _mean([appended[tid] - prepared[tid] for tid in done]),
    }
