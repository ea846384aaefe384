"""Named-scenario registry, pre-populated with the paper's figure setups.

Every evaluation figure of the paper (§8, Figures 7–13) is registered here as
a declarative :class:`~repro.scenarios.spec.Scenario`, so benchmarks, notebooks
and ad-hoc runs all start from the same specs::

    from repro.scenarios import ScenarioRunner, registry

    scenario = registry.get("fig07a")          # 20% cross-domain, CFT, nearby EU
    results = ScenarioRunner().sweep(scenario, over="num_clients", values=[8, 32])

Multi-panel figures register one scenario per sub-figure (``fig07a`` ...
``fig07c``); the bare figure name (``fig07``) aliases panel (a).  The figures
that plot six system series share one base scenario per panel — derive the
series with :func:`series_scenarios`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.types import FailureModel
from repro.control.policy import ControlPolicy
from repro.errors import ConfigurationError
from repro.faults.plan import FaultAction, FaultPlan
from repro.scenarios.spec import (
    BASELINE_AHL,
    BASELINE_SHARPER,
    SAGUARO_COORDINATOR,
    SAGUARO_OPTIMISTIC,
    Scenario,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "register",
    "get",
    "names",
    "items",
    "CROSS_DOMAIN_SERIES",
    "SCALABILITY_SERIES",
    "series_scenarios",
    "figure_base",
    "PAPER_FIGURES",
    "ADVERSARIAL_SCENARIOS",
    "BATCH_SWEEP_SIZES",
    "SHARD_SWEEP_SIZES",
    "PIPELINE_STALL_EVERY",
    "PIPELINE_STALL_DELAY_MS",
    "CHURN_WIPE_OUTAGE_MS",
    "CHURN_INTRA_DOMAIN_STEP_MS",
    "CHURN_INTER_DOMAIN_STEP_MS",
    "ZIPF_SWEEP_BATCHES",
    "ZIPF_HOT_SKEW",
    "CONTROL2_SCENARIOS",
]

_REGISTRY: Dict[str, Scenario] = {}


def register(name: str, scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Register ``scenario`` under ``name`` and return it."""
    if not name:
        raise ConfigurationError("registry names must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"scenario {name!r} is already registered")
    _REGISTRY[name] = scenario
    return scenario


def get(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from exc


def names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def items() -> Tuple[Tuple[str, Scenario], ...]:
    return tuple(_REGISTRY.items())


# ---------------------------------------------------------------------------
# Series derivation (the six lines of the cross-domain figures)
# ---------------------------------------------------------------------------

#: (label, engine, contention override) for Figures 7, 8 and 10.
CROSS_DOMAIN_SERIES: Tuple[Tuple[str, str, Optional[float]], ...] = (
    ("AHL", BASELINE_AHL, None),
    ("SharPer", BASELINE_SHARPER, None),
    ("Coordinator", SAGUARO_COORDINATOR, None),
    ("Opt-10%C", SAGUARO_OPTIMISTIC, 0.10),
    ("Opt-50%C", SAGUARO_OPTIMISTIC, 0.50),
    ("Opt-90%C", SAGUARO_OPTIMISTIC, 0.90),
)

#: (label, engine, contention override) for the scalability figures 12/13.
SCALABILITY_SERIES: Tuple[Tuple[str, str, Optional[float]], ...] = (
    ("AHL", BASELINE_AHL, None),
    ("SharPer", BASELINE_SHARPER, None),
    ("Coordinator", SAGUARO_COORDINATOR, None),
    ("Optimistic", SAGUARO_OPTIMISTIC, None),
)


def series_scenarios(
    base: Scenario,
    series: Tuple[Tuple[str, str, Optional[float]], ...] = CROSS_DOMAIN_SERIES,
) -> Dict[str, Scenario]:
    """Derive one scenario per figure series (label → scenario)."""
    derived: Dict[str, Scenario] = {}
    for label, engine, contention in series:
        overrides: Dict[str, object] = {"engine": engine, "name": f"{base.name}/{label}"}
        if contention is not None:
            overrides["contention_ratio"] = contention
        derived[label] = base.with_overrides(**overrides)
    return derived


# ---------------------------------------------------------------------------
# The paper's figures
# ---------------------------------------------------------------------------

#: Workload sizes matching the benchmark harness: small enough to keep a full
#: figure regeneration fast, large enough to span several lazy rounds.
_TRANSACTIONS_CFT = 144
_TRANSACTIONS_BFT = 112
_PAPER_SEED = 2023


def figure_base(
    name: str,
    failure_model: FailureModel,
    latency_profile: str,
    cross_domain_ratio: float,
    mobile_ratio: float = 0.0,
    faults: int = 1,
    num_clients: int = 12,
) -> Scenario:
    """The shared shape of every evaluation scenario (engine = coordinator).

    This is the single source of the figure parameters (workload sizes, seed,
    round interval); both the registered fig07–fig13 scenarios and the
    benchmark harness derive from it.
    """
    num_transactions = (
        _TRANSACTIONS_CFT
        if failure_model is FailureModel.CRASH
        else _TRANSACTIONS_BFT
    )
    return Scenario(
        name=name,
        engine=SAGUARO_COORDINATOR,
        topology=TopologySpec(failure_model=failure_model, faults=faults),
        workload=WorkloadSpec(
            num_transactions=num_transactions,
            cross_domain_ratio=cross_domain_ratio,
            contention_ratio=0.1,
            mobile_ratio=mobile_ratio,
        ),
        num_clients=num_clients,
        seeds=(_PAPER_SEED,),
        latency_profile=latency_profile,
        round_interval_ms=10.0,
    )


def _register_paper_figures() -> None:
    crash, byz = FailureModel.CRASH, FailureModel.BYZANTINE
    # Figures 7/8: cross-domain ratio panels (a) 20%, (b) 80%, (c) 100%.
    for figure, model in (("fig07", crash), ("fig08", byz)):
        for panel, ratio in (("a", 0.2), ("b", 0.8), ("c", 1.0)):
            register(
                f"{figure}{panel}",
                figure_base(f"{figure}{panel}", model, "nearby-eu", ratio),
            )
    # Figures 9/11: device mobility; sweep `mobile_ratio` over these bases.
    for figure, profile in (("fig09", "nearby-eu"), ("fig11", "wide-area")):
        for panel, model in (("a", crash), ("b", byz)):
            register(
                f"{figure}{panel}",
                figure_base(
                    f"{figure}{panel}", model, profile,
                    cross_domain_ratio=0.0, num_clients=24,
                ),
            )
    # Figure 10: 10% cross-domain over the seven-region wide-area placement.
    for panel, model in (("a", crash), ("b", byz)):
        register(
            f"fig10{panel}",
            figure_base(f"fig10{panel}", model, "wide-area", cross_domain_ratio=0.10),
        )
    # Figures 12/13: domain-size scalability; sweep `faults` over these bases.
    register(
        "fig12",
        figure_base("fig12", crash, "lan", cross_domain_ratio=0.10, num_clients=24),
    )
    register(
        "fig13",
        figure_base("fig13", byz, "lan", cross_domain_ratio=0.10, num_clients=16),
    )
    # Bare figure names alias panel (a) of the multi-panel figures.
    for figure in ("fig07", "fig08", "fig09", "fig10", "fig11"):
        register(figure, get(f"{figure}a"))


_register_paper_figures()


# ---------------------------------------------------------------------------
# Adversarial (Byzantine fault-plan) scenarios
# ---------------------------------------------------------------------------


def _register_adversarial_scenarios() -> None:
    """Hostile variants of the paper's BFT setup, one per adversary class.

    All run the coordinator engine over Byzantine domains with a modest
    workload, so the invariant checker can verify safety (and, where the
    faults stay within ``f``, bounded liveness) quickly in tests and CI.
    """
    from repro.common.config import TimerConfig

    # Aggressive timers: faulty-period recovery paths (view changes, abort
    # retries, commit queries) resolve in simulated hundreds of milliseconds
    # instead of seconds, keeping the hostile scenarios fast enough to check
    # in every test run.
    quick_timers = TimerConfig(
        request_timeout_ms=400.0,
        cross_domain_timeout_ms=250.0,
        deadlock_backoff_ms=20.0,
        commit_query_timeout_ms=250.0,
        view_change_timeout_ms=300.0,
    )
    base = figure_base(
        "byz-base", FailureModel.BYZANTINE, "nearby-eu", cross_domain_ratio=0.15,
        num_clients=8,
    ).with_overrides(
        num_transactions=48, timers=quick_timers, round_interval_ms=25.0
    )

    def adversarial(name: str, *actions: FaultAction) -> Scenario:
        return base.with_overrides(
            name=name, fault_plan=FaultPlan(name=name, actions=tuple(actions))
        )

    # A fail-silent height-1 primary: peers must view-change around it, then
    # it wakes back up in the stale view.
    register(
        "byz-leader-silence",
        adversarial(
            "byz-leader-silence",
            FaultAction(kind="silence", at_ms=30.0, domain="D11", until_ms=500.0),
        ),
    )
    # An equivocating height-1 primary: conflicting pre-prepares for the same
    # slots; the real 2f+1 quorum rule must keep every replica consistent.
    register(
        "byz-equivocation",
        adversarial(
            "byz-equivocation",
            FaultAction(kind="equivocate", at_ms=10.0, domain="D11", until_ms=500.0),
        ),
    )
    # Stale-certificate replays from two participant primaries mid-run.
    register(
        "byz-stale-certificate",
        adversarial(
            "byz-stale-certificate",
            FaultAction(kind="stale-cert", at_ms=150.0, domain="D12"),
            FaultAction(kind="stale-cert", at_ms=300.0, domain="D12"),
            FaultAction(kind="stale-cert", at_ms=300.0, domain="D13"),
        ),
    )
    # A healed partition between a participant domain and its coordinator,
    # overlapping a network-wide loss burst: commit queries must recover.
    register(
        "byz-partition-flap",
        adversarial(
            "byz-partition-flap",
            FaultAction(
                kind="partition", at_ms=30.0, until_ms=400.0,
                domain="D11", peer_domain="D21",
            ),
            FaultAction(kind="loss", at_ms=50.0, until_ms=300.0, rate=0.1),
        ),
    )
    # A crashed Byzantine replica (not the primary) that later recovers —
    # within f, so both safety and liveness must hold.
    register(
        "byz-crash-recover",
        adversarial(
            "byz-crash-recover",
            FaultAction(kind="crash", at_ms=100.0, domain="D12", node=2),
            FaultAction(kind="recover", at_ms=500.0, domain="D12", node=2),
        ),
    )


_register_adversarial_scenarios()


# ---------------------------------------------------------------------------
# Batch sweep (the fig_batch scenario family)
# ---------------------------------------------------------------------------

#: Batch sizes the fig_batch benchmark sweeps.
BATCH_SWEEP_SIZES: Tuple[int, ...] = (1, 8, 32, 128)


def _register_batch_sweep() -> None:
    """The batching throughput sweep: fig13's topology under saturating load.

    Derived from the fig13 base (BFT domains, LAN profile) at ``faults=2``
    (|p| = 7) with an internal-only workload and enough closed-loop clients
    to saturate the unbatched primaries — the regime where one-slot-per-
    request consensus is message-bound and batching pays.  One scenario per
    swept batch size; ``batch-sweep`` aliases the unbatched base.
    """
    base = get("fig13").with_overrides(
        name="batch-sweep",
        faults=2,
        cross_domain_ratio=0.0,
        num_clients=160,
        num_transactions=1000,
        batch_timeout_ms=2.0,
    )
    register("batch-sweep", base)
    for size in BATCH_SWEEP_SIZES:
        register(
            f"batch-sweep-b{size:03d}",
            base.with_overrides(name=f"batch-sweep-b{size:03d}", batch_size=size),
        )


_register_batch_sweep()


# ---------------------------------------------------------------------------
# Cross-domain batching sweep (the fig_xbatch scenario family)
# ---------------------------------------------------------------------------

#: Cross-domain group sizes the fig_xbatch benchmark sweeps.
XBATCH_SWEEP_SIZES: Tuple[int, ...] = (1, 8, 32)


def _register_xbatch_sweep() -> None:
    """The grouped-2PC throughput sweep: fig10's wide-area topology saturated
    with cross-domain traffic.

    Derived from the fig10(a) base (CFT domains over the seven-region
    wide-area placement) at 100% cross-domain ratio under enough closed-loop
    clients that the per-transaction prepare/commit exchanges queue at the
    coordinating domains — the regime where one-exchange-per-transaction 2PC
    is message-bound over WAN latencies and grouping pays.  One scenario per
    swept ``xdomain_batch_size``; ``xbatch-sweep`` aliases the ungrouped base.
    """
    base = get("fig10a").with_overrides(
        name="xbatch-sweep",
        cross_domain_ratio=1.0,
        num_clients=1600,
        num_transactions=3200,
        xdomain_batch_timeout_ms=10.0,
    )
    register("xbatch-sweep", base)
    for size in XBATCH_SWEEP_SIZES:
        register(
            f"xbatch-sweep-g{size:03d}",
            base.with_overrides(
                name=f"xbatch-sweep-g{size:03d}", xdomain_batch_size=size
            ),
        )


_register_xbatch_sweep()


# ---------------------------------------------------------------------------
# State-shard sweep (the fig_shard scenario family)
# ---------------------------------------------------------------------------

#: Account-shard counts the fig_shard benchmark sweeps.
SHARD_SWEEP_SIZES: Tuple[int, ...] = (1, 4, 16)

#: Execution lanes held fixed across the shard sweep, so the only mover is
#: how well the workload's shard footprints spread over the lanes.
SHARD_SWEEP_LANES = 16


def _register_shard_sweep() -> None:
    """The sharded-execution sweep: the batched fig13 topology, now
    execution-bound.

    Derived from the ``batch-sweep`` base (BFT domains, LAN profile,
    |p| = 7, saturating closed-loop load) with the batched ordering core on
    (``batch_size=32``) and ``execution_lanes=16`` armed: ordering is
    amortised, so per-batch state execution is what nodes spend time on.
    Sweeping ``state_shards`` ∈ {1, 4, 16} moves the shard footprints from
    one lane (fully serial execution) to all lanes — the apples-to-apples
    evidence that sharded state stops execution hiding behind ordering.
    ``shard-sweep`` aliases the single-shard (serial execution) base.
    """
    base = get("batch-sweep").with_overrides(
        name="shard-sweep",
        batch_size=32,
        execution_lanes=SHARD_SWEEP_LANES,
        num_transactions=1600,
        think_time_ms=0.1,
    )
    register("shard-sweep", base)
    for shards in SHARD_SWEEP_SIZES:
        register(
            f"shard-sweep-s{shards:03d}",
            base.with_overrides(
                name=f"shard-sweep-s{shards:03d}", state_shards=shards
            ),
        )


_register_shard_sweep()


# ---------------------------------------------------------------------------
# Pipelined-slots sweep (the fig_pipeline scenario family)
# ---------------------------------------------------------------------------

#: Every n-th consensus slot is stalled at decide time in the pipeline sweep.
PIPELINE_STALL_EVERY = 3

#: How long a stalled slot's decision is deferred.  Deliberately below the
#: engines' 150 ms gap-recovery timeout and the default view-change timers,
#: so the stall manifests purely as an in-order head-of-line blocking gap —
#: no recovery machinery fires, and the only way to use the window is
#: speculative out-of-order execution.
PIPELINE_STALL_DELAY_MS = 60.0


def _register_pipeline_sweep() -> None:
    """The speculation sweep: the sharded fig13 topology with stalled slots.

    Derived from the ``shard-sweep-s016`` base (BFT domains, LAN profile,
    |p| = 7, ``batch_size=32``, 16 shards over 16 lanes, saturating
    closed-loop load) with two changes: execution is expensive
    (``execute_ms=1.0``, so a 32-entry batch costs real simulated time to
    apply) and a ``stall`` fault defers every third slot's decision by 60 ms
    on every height-1 domain.  With in-order delivery the stall serialises:
    every batch decided behind the gap waits, then all of them execute
    back-to-back.  With ``speculation`` armed, decided batches whose shard
    footprints are disjoint from the gap execute *during* the stall window
    and merely commit in order afterwards — the classic out-of-order
    pipeline.  ``pipeline-sweep`` aliases the speculation-off point.
    """
    stall_actions = tuple(
        FaultAction(
            kind="stall",
            at_ms=10.0,
            domain=name,
            every=PIPELINE_STALL_EVERY,
            delay_ms=PIPELINE_STALL_DELAY_MS,
        )
        for name in ("D11", "D12", "D13", "D14")
    )
    base = get("shard-sweep-s016").with_overrides(
        name="pipeline-sweep",
        # Narrow footprints are what makes out-of-order slots independent:
        # a 2-entry batch declares at most 4 keys, so over 256 account
        # shards two batches are usually disjoint — a 32-entry batch over
        # 16 shards (the shard-sweep shape) touches every shard and nothing
        # could ever speculate past it.  Contention is off for the same
        # reason: hot accounts are shared shards.
        state_shards=256,
        batch_size=2,
        contention_ratio=0.0,
        # Execution-heavy: applying a decided batch costs real simulated
        # time, so the serial post-stall pileup is what the off-run pays
        # and what speculation hides inside the stall window.
        execute_ms=12.0,
        num_transactions=800,
        fault_plan=FaultPlan(name="pipeline-stall", actions=stall_actions),
    )
    register("pipeline-sweep", base)
    register(
        "pipeline-sweep-off",
        base.with_overrides(name="pipeline-sweep-off", speculation=False),
    )
    register(
        "pipeline-sweep-on",
        base.with_overrides(name="pipeline-sweep-on", speculation=True),
    )


_register_pipeline_sweep()


# ---------------------------------------------------------------------------
# Zipf control sweep (the fig_control scenario family)
# ---------------------------------------------------------------------------

#: Static batch sizes the fig_control benchmark compares the controller to —
#: a coarse power-of-four grid, the kind a static tuning pass would sweep.
#: The knee of the curve sits *between* grid points, which is the point of
#: the figure: the controller finds it online, the grid does not.
ZIPF_SWEEP_BATCHES: Tuple[int, ...] = (1, 4, 16)

#: Execution lanes of the zipf sweep: far fewer lanes than shards (8 shards
#: per lane), so the round-robin shard -> lane map is guaranteed to co-locate
#: the Zipf-hot shard with seven roommates — the structural imbalance the
#: lane rebalancer exists to fix.
ZIPF_SWEEP_LANES = 4
ZIPF_SWEEP_SHARDS = 32


def _register_zipf_sweep() -> None:
    """The control-plane sweep: the batched, sharded fig13 topology under a
    Zipf-skewed hot-account workload.

    Derived from the ``batch-sweep`` base (BFT domains, LAN profile,
    saturating closed-loop load) with ``zipf_skew=1.2`` concentrating writes
    on a handful of hot accounts, 32 account shards over 8 execution lanes.
    Static tuning has no good answer here: small batches stay message-bound,
    big batches stay execution-bound on whichever lane round-robin placement
    gave the hot shards to.  One scenario per static batch size, plus
    ``zipf-sweep-adaptive`` which starts at the *worst* static point and lets
    the control plane resize batches and re-place hot shards online.
    ``zipf-sweep`` aliases the smallest static point.
    """
    base = get("batch-sweep").with_overrides(
        name="zipf-sweep",
        state_shards=ZIPF_SWEEP_SHARDS,
        execution_lanes=ZIPF_SWEEP_LANES,
        zipf_skew=1.2,
        # Execution-heavy state: applying a decided key costs 16x the default,
        # so once batching amortises ordering, the busiest execution lane is
        # what a node's latency hangs off — and with the Zipf-hot shards
        # round-robined onto lanes, that lane carries far more than its fair
        # share.  This is the imbalance the adaptive lane rebalancer exists
        # to fix; no static batch size can.
        execute_ms=0.8,
        num_transactions=1600,
        think_time_ms=0.1,
    )
    for size in ZIPF_SWEEP_BATCHES:
        register(
            f"zipf-sweep-b{size:03d}",
            base.with_overrides(name=f"zipf-sweep-b{size:03d}", batch_size=size),
        )
    register("zipf-sweep", get(f"zipf-sweep-b{ZIPF_SWEEP_BATCHES[0]:03d}"))
    register(
        "zipf-sweep-adaptive",
        base.with_overrides(
            name="zipf-sweep-adaptive",
            batch_size=1,
            # Tick fast and probe hard: the sweep's runs last a few hundred
            # simulated ms, so a controller on the default 10 ms interval
            # would still be ramping when the run ends.  2 ms ticks with a
            # 16-entry additive step converge within the first ~5% of the
            # run, making the committed number a steady-state one.  The
            # decide-latency target is loose because this workload is
            # execution-heavy by construction (decide latencies sit near
            # 50 ms even at the optimum, which the default target would
            # misread as congestion).
            control=ControlPolicy(
                policy="adaptive",
                interval_ms=2.0,
                batch_increase=16,
                target_decide_latency_ms=250.0,
            ),
        ),
    )


_register_zipf_sweep()


# ---------------------------------------------------------------------------
# Control plane phase 2 (the fig_control2 scenario family)
# ---------------------------------------------------------------------------

#: Skew of the white-hot workload: at 1.4 over two base shards, one shard
#: carries nearly all writes — whole-shard rebalancing has nowhere to move
#: it, so shard *splitting* is the only mechanism that can spread the heat.
ZIPF_HOT_SKEW = 1.4

#: Scenario names of the phase-2 family.
CONTROL2_SCENARIOS: Tuple[str, ...] = (
    "zipf-hot-nosplit",
    "zipf-hot-split",
    "lease-rejoin",
)


def _register_control2() -> None:
    """The phase-2 control-plane family: shard splitting and conflict leases.

    ``zipf-hot-*`` is the zipf sweep pushed past what whole-shard moves can
    fix: only **two** base shards over four lanes at ``zipf_skew=1.4``, so
    the hot shard is its lane's single resident and the PR 6 rebalancer's
    single-resident guard blocks every move.  ``zipf-hot-nosplit`` runs the
    plain adaptive plane (the PR 6 best case) and livelocks politely on the
    guard; ``zipf-hot-split`` additionally arms shard splitting (and
    conflict leases, inert on this internal-only topology) and must beat it
    by splitting the white-hot shard's key range between execution windows.

    ``lease-rejoin`` exercises the conflict-lease path: three-domain
    transactions on a branching-3 tree give overlapping transactions
    *different* LCA coordinators, so a participant can be held back by a
    foreign coordinator's in-flight conflict.  With leases armed the held
    member re-joins a following group (``control:lease`` grant/adopt) or
    falls back to the per-transaction path on expiry — never silently stuck.
    """
    from dataclasses import replace as _replace

    adaptive = ControlPolicy(
        policy="adaptive",
        interval_ms=2.0,
        batch_increase=16,
        target_decide_latency_ms=250.0,
    )
    hot = get("zipf-sweep-adaptive").with_overrides(
        name="zipf-hot-nosplit",
        num_transactions=600,
        num_clients=24,
        state_shards=2,
        execution_lanes=4,
        zipf_skew=ZIPF_HOT_SKEW,
        seeds=(1,),
        control=adaptive,
    )
    register("zipf-hot-nosplit", hot)
    register(
        "zipf-hot-split",
        hot.with_overrides(
            name="zipf-hot-split",
            control=_replace(
                adaptive,
                conflict_leases=True,
                split_shards=True,
                split_after_blocked=2,
                max_splits=8,
            ),
        ),
    )
    lease_base = get("xbatch-sweep-g008")
    register(
        "lease-rejoin",
        lease_base.with_overrides(
            name="lease-rejoin",
            topology=_replace(lease_base.topology, branching=3),
            involved_domains=3,
            cross_domain_ratio=0.9,
            num_transactions=200,
            num_clients=48,
            xdomain_batch_size=3,
            seeds=(4,),
            control=ControlPolicy(
                policy="adaptive",
                interval_ms=2.0,
                target_decide_latency_ms=250.0,
                conflict_leases=True,
                # Generous relative to the WAN commit latencies that clear
                # the foreign conflict — a lease shorter than a cross-domain
                # round trip can only ever expire.
                lease_ms=3000.0,
            ),
        ),
    )


_register_control2()


# ---------------------------------------------------------------------------
# Churn sweep (the fig_churn scenario family)
# ---------------------------------------------------------------------------

#: Simulated length of one wipe outage in the churn sweep.
CHURN_WIPE_OUTAGE_MS = 100.0

#: Gap between successive wipes inside one domain — longer than the outage,
#: so a domain never has two of its replicas down at once (f = 1).
CHURN_INTRA_DOMAIN_STEP_MS = 130.0

#: Stagger between domains, so the cluster-wide churn is spread out rather
#: than synchronised.
CHURN_INTER_DOMAIN_STEP_MS = 30.0


def _register_churn_sweep() -> None:
    """The crash-recovery churn family: every height-1 replica wipe-crashes.

    Byzantine domains (f=1, four replicas each) on the nearby-EU profile
    with durability armed (WAL + checkpoints every 8 slots).  The fault plan
    rolls one ``wipe`` outage across *every* replica of every height-1
    domain — including each domain's view-0 primary — staggered so no domain
    ever exceeds its tolerated single fault, and finishes with a replica
    that is crashed again right after it recovers (an outage landing during
    catch-up).  Every wiped node must replay its WAL, catch up from peers,
    and rejoin; the ``recovery-safety`` invariant pass checks each one.

    ``churn-sweep-nofault`` is the identical deployment without the fault
    plan — the baseline the ``fig_churn`` benchmark measures dips against.
    ``churn-sweep-primaries`` wipes only the four view-0 primaries, twice
    each — the heavier view-change-plus-recovery variant.
    """
    from repro.common.config import TimerConfig

    quick_timers = TimerConfig(
        request_timeout_ms=400.0,
        cross_domain_timeout_ms=250.0,
        deadlock_backoff_ms=20.0,
        commit_query_timeout_ms=250.0,
        view_change_timeout_ms=300.0,
    )
    base = figure_base(
        "churn-sweep-nofault",
        FailureModel.BYZANTINE,
        "nearby-eu",
        cross_domain_ratio=0.0,
        num_clients=8,
    ).with_overrides(
        num_transactions=128,
        timers=quick_timers,
        round_interval_ms=25.0,
        # Closed-loop clients pace themselves so the workload spans the whole
        # ~700 ms churn schedule — the wipes must land under live load, not
        # on an already-drained system.
        think_time_ms=40.0,
        drain_ms=500.0,
        durability=True,
        wal_sync_ms=0.05,
        checkpoint_interval=8,
    )
    register("churn-sweep-nofault", base)

    domains = ("D11", "D12", "D13", "D14")
    nodes_per_domain = 4  # BFT f=1 -> 3f+1 replicas
    actions = []
    for d_index, domain in enumerate(domains):
        for node in range(nodes_per_domain):
            start = (
                60.0
                + node * CHURN_INTRA_DOMAIN_STEP_MS
                + d_index * CHURN_INTER_DOMAIN_STEP_MS
            )
            actions.append(
                FaultAction(
                    kind="wipe",
                    at_ms=start,
                    domain=domain,
                    node=node,
                    until_ms=start + CHURN_WIPE_OUTAGE_MS,
                )
            )
    # One replica is knocked over again immediately after its recovery —
    # if the crash lands mid-catch-up the attempt is abandoned and restarted.
    actions.append(
        FaultAction(kind="wipe", at_ms=650.0, domain="D11", node=1, until_ms=670.0)
    )
    actions.append(
        FaultAction(kind="crash", at_ms=670.3, domain="D11", node=1, until_ms=700.0)
    )
    register(
        "churn-sweep",
        base.with_overrides(
            name="churn-sweep",
            fault_plan=FaultPlan(name="churn", actions=tuple(actions)),
        ),
    )

    primary_actions = []
    for cycle in range(2):
        for d_index, domain in enumerate(domains):
            start = (
                60.0
                + cycle * 2 * CHURN_INTRA_DOMAIN_STEP_MS
                + d_index * CHURN_INTER_DOMAIN_STEP_MS
            )
            primary_actions.append(
                FaultAction(
                    kind="wipe",
                    at_ms=start,
                    domain=domain,
                    node=0,
                    until_ms=start + CHURN_WIPE_OUTAGE_MS,
                )
            )
    register(
        "churn-sweep-primaries",
        base.with_overrides(
            name="churn-sweep-primaries",
            fault_plan=FaultPlan(
                name="churn-primaries", actions=tuple(primary_actions)
            ),
        ),
    )


_register_churn_sweep()


# ---------------------------------------------------------------------------
# Edge-scale family: the deployment size the paper argues for
# ---------------------------------------------------------------------------


def _register_scale100() -> None:
    """Hundreds of domains, a thousand server nodes: the paper's §1 pitch.

    The evaluation figures top out at a handful of domains; this family
    builds the deployment shape the motivation actually describes — a
    three-level tree of 157 server domains (branching factor 12, so 144
    edge domains) with seven replicas per domain, 1,099 server nodes in
    all, under a mostly-local workload with a thin cross-domain tail.

    ``fig_scale100`` uses crash domains (f=3, 2f+1 = 7 nodes each);
    ``fig_scale100-byz`` the Byzantine variant (f=2, 3f+1 = 7) with a
    lighter workload, since BFT quorums at this scale cost ~4x the events.
    Rounds tick at 25 ms and the drain window is explicit — at 157 ticking
    domains, idle simulated time is the dominant event cost.
    """
    base = Scenario(
        name="fig_scale100",
        engine=SAGUARO_COORDINATOR,
        topology=TopologySpec(
            levels=4,
            branching=12,
            failure_model=FailureModel.CRASH,
            faults=3,
        ),
        workload=WorkloadSpec(
            num_transactions=240,
            cross_domain_ratio=0.05,
            contention_ratio=0.05,
        ),
        num_clients=48,
        seeds=(_PAPER_SEED,),
        latency_profile="lan",
        round_interval_ms=25.0,
        drain_ms=500.0,
        max_simulated_ms=30_000.0,
        think_time_ms=0.1,
    )
    register("fig_scale100", base)
    register(
        "fig_scale100-byz",
        base.with_overrides(
            name="fig_scale100-byz",
            failure_model=FailureModel.BYZANTINE,
            faults=2,
            num_transactions=96,
            num_clients=24,
        ),
    )


_register_scale100()

#: The figure names the registry guarantees (tested for completeness).
PAPER_FIGURES: Tuple[str, ...] = (
    "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
)

#: Registered Byzantine fault-plan scenarios (tested for safety invariants).
ADVERSARIAL_SCENARIOS: Tuple[str, ...] = (
    "byz-leader-silence",
    "byz-equivocation",
    "byz-stale-certificate",
    "byz-partition-flap",
    "byz-crash-recover",
)
