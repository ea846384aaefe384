"""CI smoke check: small invariant-checked scenarios, one mode per subsystem.

Run with ``python -m repro.faults.smoke [mode]``.  Every mode executes a short
list of scenarios with ``check_invariants=True`` — every safety invariant
(and, where faults permit, bounded liveness) is asserted, so a regression in
the protocols, the fault subsystem, or the checker itself fails CI within
seconds.

Modes (the dispatch is table-driven; add a mode by adding one entry):

``default``
    A scaled-down Figure 7(a) plus the equivocation fault-plan scenario.
``batch``
    Hostile scenarios ordered through the consensus batcher
    (``batch_size > 1``), proving safety — including batch atomicity —
    survives batching under adversaries.
``xbatch``
    Grouped cross-domain 2PC (``xdomain_batch_size > 1``) on the fig10
    wide-area topology, plus a hostile partition-flap run with grouping on —
    proving cross-domain atomicity and the group-atomicity invariant hold
    when 2PC exchanges are batched.
``shard``
    Sharded state stores with parallel execution lanes armed
    (``state_shards > 1, execution_lanes > 1``): a batched figure run and a
    hostile equivocation run — proving safety (and the ledger-level
    consistency invariants) survive when execution is split across shard
    lanes.
``control``
    The self-tuning control plane armed (``policy="adaptive"``): a scaled
    zipf-sweep run plus hostile scenarios with controllers resizing batches,
    2PC groups, and the shard -> lane map online — proving every safety
    invariant holds while the knobs move mid-run.
``control2``
    The phase-2 control plane armed: the white-hot ``zipf-hot-split`` run
    (shard splitting under a skew whole-shard moves cannot fix), the
    ``lease-rejoin`` run (conflict leases granting and adopting held-back
    group members), and the white-hot run again under an equivocating
    primary — proving the ``lease-safety`` and ``split-partition`` invariant
    passes (and every pre-existing one) hold while shards split and leases
    move members between groups.
``pipeline``
    Speculative out-of-order execution armed (``speculation=True``): a
    scaled pipeline-sweep run whose stalled slots force speculation to
    fire, plus hostile equivocation and crash-recovery runs with
    speculation on — proving in-order commit, rollback, and the
    speculation-safety invariant survive adversaries mid-speculation.
``recovery``
    Durable crash recovery armed (``durability=True``): a scaled churn-sweep
    run where every height-1 replica suffers an amnesia crash (``wipe``) and
    must replay its WAL, catch up from peers, and rejoin, plus a hostile run
    layering an equivocating primary over the churn — proving the
    ``recovery-safety`` invariant pass (promise consistency, replay/catch-up
    well-formedness, recovered-state replay) holds under adversaries.
``perf``
    The simulator speed and parallel-runner guarantees: the dispatch-loop
    events/sec microbenchmark (printed, not gated — a wall-clock rate on a
    shared CI runner; ``benchmarks/test_bench_events.py`` holds the gate),
    then a two-worker ``sweep_grid(..., parallel=2)`` whose
    :class:`ResultSet` must equal the serial run bit for bit.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List

from repro.scenarios import Scenario, ScenarioRunner, registry


def _default_checks() -> List[Scenario]:
    return [
        registry.get("fig07a").with_overrides(num_transactions=48, num_clients=8),
        registry.get("byz-equivocation"),
    ]


def _batch_checks() -> List[Scenario]:
    batched = dict(batch_size=8, batch_timeout_ms=2.0)
    return [
        # batch_size=2 under equivocation is the historical event-storm
        # configuration (forged-payload refusal wedged a replica forever);
        # run it at full size now that honest decide echoes override.
        registry.get("byz-equivocation").with_overrides(
            batch_size=2, batch_timeout_ms=2.0
        ),
        registry.get("byz-crash-recover").with_overrides(**batched),
    ]


def _xbatch_checks() -> List[Scenario]:
    grouped = dict(xdomain_batch_size=8, xdomain_batch_timeout_ms=5.0)
    return [
        registry.get("xbatch-sweep-g008").with_overrides(
            num_transactions=48, num_clients=12
        ),
        registry.get("byz-partition-flap").with_overrides(**grouped),
    ]


def _shard_checks() -> List[Scenario]:
    sharded = dict(
        state_shards=8, execution_lanes=8, batch_size=8, batch_timeout_ms=2.0
    )
    return [
        registry.get("fig07a").with_overrides(
            num_transactions=48, num_clients=8, **sharded
        ),
        registry.get("byz-equivocation").with_overrides(**sharded),
    ]


def _control_checks() -> List[Scenario]:
    from repro.control.policy import ControlPolicy

    adaptive = ControlPolicy(policy="adaptive")
    return [
        registry.get("zipf-sweep-adaptive").with_overrides(
            num_transactions=96, num_clients=12
        ),
        registry.get("byz-equivocation").with_overrides(
            control=adaptive, state_shards=8, execution_lanes=4
        ),
        registry.get("byz-partition-flap").with_overrides(
            control=adaptive, xdomain_batch_size=4
        ),
    ]


def _control2_checks() -> List[Scenario]:
    from repro.faults.plan import FaultAction, FaultPlan

    hot_split = registry.get("zipf-hot-split")
    equivocating = FaultPlan(
        name="zipf-hot-equivocate",
        actions=(
            FaultAction(kind="equivocate", at_ms=10.0, domain="D11", until_ms=400.0),
        ),
    )
    return [
        hot_split,
        registry.get("lease-rejoin"),
        hot_split.with_overrides(
            name="zipf-hot-equivocate",
            num_transactions=300,
            fault_plan=equivocating,
        ),
    ]


def _pipeline_checks() -> List[Scenario]:
    from repro.faults.plan import FaultAction, FaultPlan

    base = registry.get("pipeline-sweep-on").with_overrides(
        num_transactions=120, num_clients=24
    )
    # Layer hostile actions on top of the stall plan: the stalls keep
    # opening delivery gaps (so speculation genuinely fires), while the
    # adversary equivocates or crashes nodes mid-speculation.
    equivocating = FaultPlan(
        name="pipeline-equivocate",
        actions=base.fault_plan.actions
        + (FaultAction(kind="equivocate", at_ms=10.0, domain="D11", until_ms=800.0),),
    )
    crashing = FaultPlan(
        name="pipeline-crash",
        actions=base.fault_plan.actions
        + (
            FaultAction(kind="crash", at_ms=100.0, domain="D12", node=2),
            FaultAction(kind="recover", at_ms=500.0, domain="D12", node=2),
        ),
    )
    return [
        registry.get("pipeline-sweep-on").with_overrides(
            num_transactions=200, num_clients=40
        ),
        base.with_overrides(name="pipeline-equivocate", fault_plan=equivocating),
        base.with_overrides(name="pipeline-crash", fault_plan=crashing),
    ]


def _recovery_checks() -> List[Scenario]:
    from repro.faults.plan import FaultAction, FaultPlan

    base = registry.get("churn-sweep")
    # Layer an equivocating primary over the churn: D12's primary lies about
    # payloads while D12's replicas are being wiped and recovered around it,
    # so recovered nodes must rejoin without ever double-voting.
    hostile = FaultPlan(
        name="churn-equivocate",
        actions=base.fault_plan.actions
        + (
            FaultAction(
                kind="equivocate", at_ms=10.0, domain="D12", until_ms=700.0
            ),
        ),
    )
    return [
        base,
        registry.get("churn-sweep-primaries"),
        base.with_overrides(name="churn-equivocate", fault_plan=hostile),
    ]


#: mode name -> scenario list factory (the whole dispatch table).
MODES: Dict[str, Callable[[], List[Scenario]]] = {
    "default": _default_checks,
    "batch": _batch_checks,
    "xbatch": _xbatch_checks,
    "shard": _shard_checks,
    "control": _control_checks,
    "control2": _control2_checks,
    "pipeline": _pipeline_checks,
    "recovery": _recovery_checks,
}


def _perf_checks() -> int:
    """The ``perf`` smoke: events/sec microbench + parallel-sweep equality."""
    from repro.sim.bench import simulator_events_per_sec

    dispatch = simulator_events_per_sec(num_messages=10_000)
    print(f"dispatch loop: {dispatch:,.0f} ev/s")

    scenario = registry.get("fig07a").with_overrides(
        num_transactions=24, num_clients=4
    )
    runner = ScenarioRunner(check_invariants=True)
    grid = {"cross_domain_ratio": (0.0, 0.2)}
    serial = runner.sweep_grid(scenario, grid)
    parallel = runner.sweep_grid(scenario, grid, parallel=2)
    assert serial == parallel, (
        "sweep_grid(parallel=2) diverged from the serial ResultSet"
    )
    print(
        f"parallel sweep: {len(parallel)} cells across 2 workers equal the "
        "serial ResultSet bit for bit — determinism ok"
    )
    return 0


def main(mode: str = "default") -> int:
    if mode == "perf":
        return _perf_checks()
    checks_factory = MODES.get(mode)
    if checks_factory is None:
        known = ", ".join(sorted([*MODES, "perf"]))
        print(f"unknown smoke mode {mode!r}; known: {known}", file=sys.stderr)
        return 2
    runner = ScenarioRunner(check_invariants=True)
    for scenario in checks_factory():
        run = runner.execute(scenario)
        assert run.summary is not None
        trace = run.trace
        knobs = ""
        if scenario.batch_size > 1:
            knobs += f" batch_size={scenario.batch_size}"
        if scenario.xdomain_batch_size > 1:
            knobs += f" xdomain_batch_size={scenario.xdomain_batch_size}"
        if scenario.state_shards > 1 or scenario.execution_lanes > 1:
            knobs += (
                f" state_shards={scenario.state_shards}"
                f" execution_lanes={scenario.execution_lanes}"
            )
        if scenario.control.enabled:
            knobs += f" control={scenario.control.policy}"
            if trace is not None:
                phase2 = {
                    kind: len(trace.events(f"control:{kind}"))
                    for kind in ("lease", "split")
                }
                knobs += "".join(
                    f" {kind}_events={count}"
                    for kind, count in phase2.items()
                    if count
                )
        if scenario.speculation:
            spec_count = (
                len(trace.events_with_prefix("spec:")) if trace is not None else 0
            )
            knobs += f" speculation=on spec_events={spec_count}"
        if scenario.durability:
            wipes = len(trace.events("fault:wipe")) if trace is not None else 0
            rejoins = (
                len(trace.events("recovery:rejoin")) if trace is not None else 0
            )
            knobs += f" durability=on wipes={wipes} rejoins={rejoins}"
        print(
            f"{scenario.name}: committed={run.summary.committed} "
            f"aborted={run.summary.aborted} pending={run.summary.pending} "
            f"trace_events={len(trace) if trace is not None else 0}{knobs}"
            " — invariants ok"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "default"))
