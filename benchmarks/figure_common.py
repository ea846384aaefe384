"""Shared machinery for the per-figure benchmark harnesses.

Every benchmark regenerates the series of one figure of the paper's
evaluation (§8) and prints them in a uniform format.  Absolute numbers are not
expected to match the paper (the substrate is a simulator, not a 15-VM EC2
testbed); the assertions check the *shape*: which system wins, how contention
degrades the optimistic protocol, how mobility and domain size affect
throughput.  Benchmarks run each figure exactly once (``pedantic`` with one
round) because a figure is itself an aggregate over many simulated runs.

Everything here runs through :mod:`repro.scenarios`: each figure is a
declarative base :class:`~repro.scenarios.Scenario`, the system series are
derived with :func:`repro.scenarios.registry.series_scenarios`, and the load
sweeps go through :class:`~repro.scenarios.ScenarioRunner`.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.metrics import PerformanceSummary
from repro.analysis.reporting import (
    format_mobile_table,
    format_series_table,
    peak_throughput,
)
from repro.common.types import FailureModel, domain_size_for_failures
from repro.scenarios import LoadPoint, Scenario, ScenarioRunner, registry

__all__ = [
    "LOAD_LEVELS",
    "BENCH_HISTORY_LABEL",
    "cross_domain_figure",
    "mobile_figure",
    "scalability_figure",
    "batch_figure",
    "xbatch_figure",
    "shard_figure",
    "pipeline_figure",
    "control_figure",
    "churn_figure",
    "derive_history_label",
    "wide_area_saturated_point",
    "run_once",
    "record_bench",
    "load_bench_baseline",
    "load_bench_history",
    "write_bench_results",
]

#: Concurrent-client counts used to sweep each throughput/latency curve.
LOAD_LEVELS: Sequence[int] = (8, 32)

#: Every figure run is an invariant-checked execution, not a trusted one.
_RUNNER = ScenarioRunner(check_invariants=True)

# ---------------------------------------------------------------------------
# Cross-PR performance tracking (BENCH_results.json)
# ---------------------------------------------------------------------------

#: Where the headline numbers of one benchmark session are written.
BENCH_RESULTS_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_results.json")
)


def derive_history_label(path: Optional[str] = None) -> str:
    """The ``history`` label of the PR in flight, derived instead of hand-set.

    Every landed PR's commit subject starts ``"PR <n>:"``, so the work on top
    of the latest commit is PR ``max(n) + 1`` — stable across re-runs within
    one session (re-runs replace their own history entry) and automatically
    one step ahead of the committed trajectory.  Without a usable git history
    the committed ``history`` labels themselves are the fallback; a bare
    checkout starts at ``"PR1"``.
    """
    numbers: List[int] = []
    try:
        proc = subprocess.run(
            ["git", "log", "--pretty=%s"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            check=False,
        )
        if proc.returncode == 0:
            numbers = [
                int(match.group(1))
                for match in re.finditer(r"^PR\s*(\d+)\s*:", proc.stdout, re.M)
            ]
    except (OSError, subprocess.SubprocessError):
        numbers = []
    if not numbers:
        for entry in load_bench_history(path):
            match = re.fullmatch(r"PR\s*(\d+)", str(entry.get("label", "")))
            if match:
                numbers.append(int(match.group(1)))
    return f"PR{max(numbers) + 1}" if numbers else "PR1"


_BENCH_RECORDS: List[Dict[str, Any]] = []


def record_bench(
    figure: str,
    *,
    throughput_tps: float,
    avg_latency_ms: float,
    events_per_sec: Optional[float] = None,
) -> None:
    """Remember one figure's headline numbers for :func:`write_bench_results`."""
    _BENCH_RECORDS.append(
        {
            "figure": figure,
            "throughput_tps": round(throughput_tps, 1),
            "avg_latency_ms": round(avg_latency_ms, 3),
            "events_per_sec": (
                round(events_per_sec) if events_per_sec is not None else None
            ),
        }
    )


#: Throughput regressions beyond this fraction of the committed baseline are
#: flagged (warned about, never failed — absolute numbers are machine-bound).
BASELINE_REGRESSION_TOLERANCE = 0.10


def _load_bench_payload(path: Optional[str] = None) -> Dict[str, Any]:
    target = path or BENCH_RESULTS_PATH
    try:
        with open(target, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def load_bench_baseline(path: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
    """The committed ``BENCH_results.json`` of the previous session, by figure.

    Returns an empty mapping when no baseline exists yet (first run) or the
    file is unreadable — the trajectory starts accumulating from this session.
    """
    baseline: Dict[str, Dict[str, Any]] = {}
    for entry in _load_bench_payload(path).get("results", ()):
        figure = entry.get("figure")
        if figure:
            baseline[figure] = entry
    return baseline


def load_bench_history(path: Optional[str] = None) -> List[Dict[str, Any]]:
    """The committed per-PR history: ``[{"label", "figures": {...}}, ...]``.

    One entry per PR, oldest first; each maps figure name to its headline
    numbers (throughput_tps / avg_latency_ms / events_per_sec) at that PR.
    """
    history = _load_bench_payload(path).get("history", [])
    return [entry for entry in history if isinstance(entry, dict)]


_derived_label: Optional[str] = None


def bench_history_label() -> str:
    """:func:`derive_history_label`, derived lazily once per process."""
    global _derived_label
    if _derived_label is None:
        _derived_label = derive_history_label()
    return _derived_label


def __getattr__(name: str) -> Any:
    # PEP 562: ``BENCH_HISTORY_LABEL`` — the committed file's ``history``
    # entry this session writes into (one entry per PR: figure ->
    # tps/latency/events_per_sec) — stays importable as a module constant,
    # but the git subprocess deriving it only runs on first use, never at
    # import time.
    if name == "BENCH_HISTORY_LABEL":
        return bench_history_label()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _report_bench_deltas(
    baseline: Dict[str, Dict[str, Any]], records: List[Dict[str, Any]]
) -> None:
    """Print per-figure deltas against the committed baseline (warn only)."""
    if not baseline:
        print("\nBENCH baseline: none committed yet; starting the trajectory.")
        return
    print("\nBENCH deltas vs committed baseline:")
    for entry in records:
        figure = entry["figure"]
        previous = baseline.get(figure)
        if previous is None or not previous.get("throughput_tps"):
            print(f"  {figure:24s} NEW  {entry['throughput_tps']:10.1f} tps")
            continue
        before = previous["throughput_tps"]
        after = entry["throughput_tps"]
        change = (after - before) / before
        print(
            f"  {figure:24s} {before:10.1f} -> {after:10.1f} tps "
            f"({change:+.1%})"
        )
        if change < -BASELINE_REGRESSION_TOLERANCE:
            import warnings

            warnings.warn(
                f"benchmark {figure}: throughput regressed {change:.1%} "
                f"vs the committed baseline ({before:.1f} -> {after:.1f} tps)",
                stacklevel=2,
            )


def _report_bench_history(
    history: List[Dict[str, Any]], records: List[Dict[str, Any]]
) -> None:
    """Print the trend over the whole committed trajectory, not just the
    last-vs-current delta: one line per re-run figure, one point per PR."""
    past = [
        entry for entry in history if entry.get("label") != bench_history_label()
    ]
    if not past:
        return
    print("\nBENCH trend over history (tps per PR):")
    for entry in records:
        figure = entry["figure"]
        points = []
        for snapshot in past:
            figures = snapshot.get("figures", {})
            if figure in figures:
                points.append(
                    f"{figures[figure].get('throughput_tps', 0.0):.1f} "
                    f"({snapshot.get('label', '?')})"
                )
        points.append(f"{entry['throughput_tps']:.1f} ({bench_history_label()})")
        print(f"  {figure:24s} " + " -> ".join(points))


def write_bench_results(path: Optional[str] = None) -> Optional[str]:
    """Dump every recorded figure result as JSON; returns the path written.

    Called from the benchmark conftest at session end so the performance
    trajectory (throughput, latency, simulator events/second) is tracked
    across PRs.  Before overwriting, the committed baseline is loaded and
    per-figure deltas plus the trend over the whole committed ``history``
    (one entry per PR) are printed — a >10% throughput regression warns but
    never fails, since absolute numbers are machine-bound.  Baseline figures
    *not* re-run this session are carried over unchanged, so a partial run
    (e.g. one figure's benchmark file) never erases the rest of the history.
    The session's numbers are also folded into the history entry labelled
    :data:`BENCH_HISTORY_LABEL` (replacing it, so re-runs within one PR stay
    one entry).  No-op when no benchmark recorded anything this session.
    """
    if not _BENCH_RECORDS:
        return None
    target = path or BENCH_RESULTS_PATH
    records = sorted(_BENCH_RECORDS, key=lambda entry: entry["figure"])
    baseline = load_bench_baseline(target)
    history = load_bench_history(target)
    _report_bench_deltas(baseline, records)
    _report_bench_history(history, records)
    merged = dict(baseline)
    merged.update({entry["figure"]: entry for entry in records})
    current_figures: Dict[str, Dict[str, Any]] = {}
    for entry in history:
        if entry.get("label") == bench_history_label():
            current_figures = dict(entry.get("figures", {}))
    current_figures.update(
        {
            entry["figure"]: {
                key: value for key, value in entry.items() if key != "figure"
            }
            for entry in records
        }
    )
    history = [
        entry for entry in history if entry.get("label") != bench_history_label()
    ]
    history.append({"label": bench_history_label(), "figures": current_figures})
    payload = {
        "results": [merged[figure] for figure in sorted(merged)],
        "history": history,
    }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def _base_config(
    failure_model: FailureModel,
    latency_profile: str,
    cross_domain_ratio: float,
    mobile_ratio: float = 0.0,
    faults: int = 1,
    seed: int = 2023,
) -> Scenario:
    """The base scenario one figure panel sweeps (engine = coordinator).

    Delegates to :func:`repro.scenarios.registry.figure_base` so the figure
    parameters (workload sizes, round interval) have a single source of truth.
    """
    return registry.figure_base(
        "figure",
        failure_model,
        latency_profile,
        cross_domain_ratio,
        mobile_ratio=mobile_ratio,
        faults=faults,
    ).with_overrides(seed=seed)


def _timed_checked_run(scenario: Scenario):
    """Execute one scenario, timing the simulation alone.

    The invariant check runs *after* the timer stops, so the recorded
    events/second reflects the simulator — a slower checker must not read as
    a simulator regression in the cross-PR trajectory.
    """
    from repro.scenarios.runner import materialize

    run = materialize(scenario)
    started = time.perf_counter()
    run.run()
    elapsed = time.perf_counter() - started
    if _RUNNER.check_invariants:
        run.check_invariants()
    events_per_sec = (
        run.deployment.simulator.events_executed / elapsed if elapsed > 0 else None
    )
    return run, events_per_sec


def run_once(scenario: Scenario, figure: Optional[str] = None) -> PerformanceSummary:
    """Run one scenario once.

    With ``figure`` given, the run's headline numbers — including the
    simulator's real-time event rate — are recorded for ``BENCH_results.json``.
    """
    run, events_per_sec = _timed_checked_run(scenario)
    assert run.summary is not None
    if figure is not None:
        record_bench(
            figure,
            throughput_tps=run.summary.throughput_tps,
            avg_latency_ms=run.summary.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
    return run.summary


def cross_domain_figure(
    title: str,
    cross_domain_ratio: float,
    failure_model: FailureModel,
    latency_profile: str = "nearby-eu",
    load_levels: Sequence[int] = LOAD_LEVELS,
    faults: int = 1,
    figure: Optional[str] = None,
) -> Dict[str, List[LoadPoint]]:
    """One sub-figure of Figures 7, 8, 10, 12 or 13: six system series."""
    base = _base_config(
        failure_model, latency_profile, cross_domain_ratio, faults=faults
    )
    scenarios = registry.series_scenarios(base)
    series: Dict[str, List[LoadPoint]] = {}
    for label, scenario in scenarios.items():
        sweep = _RUNNER.sweep(scenario, over="num_clients", values=load_levels)
        series[label] = sweep.load_points()
    print()
    print(format_series_table(series, title))
    if figure is not None and "Coordinator" in series:
        best = max(series["Coordinator"], key=lambda point: point.throughput_tps)
        # One extra timed run of the recorded cell gives the simulator's
        # real-time event rate for the perf trajectory.
        _, events_per_sec = _timed_checked_run(
            scenarios["Coordinator"].with_clients(best.clients)
        )
        record_bench(
            figure,
            throughput_tps=best.throughput_tps,
            avg_latency_ms=best.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
    return series


def mobile_figure(
    title: str,
    failure_model: FailureModel,
    latency_profile: str = "nearby-eu",
    mobile_ratios: Sequence[float] = (0.0, 0.2, 0.8, 1.0),
    num_clients: int = 24,
    figure: Optional[str] = None,
) -> Dict[str, PerformanceSummary]:
    """Figures 9 and 11: Saguaro throughput under increasing device mobility."""
    base = _base_config(
        failure_model, latency_profile, cross_domain_ratio=0.0
    ).with_clients(num_clients)
    sweep = _RUNNER.sweep(base, over="mobile_ratio", values=list(mobile_ratios))
    results: Dict[str, PerformanceSummary] = {
        f"{int(ratio * 100)}% mobile": bucket[0].summary
        for ratio, bucket in sweep.grouped("mobile_ratio").items()
    }
    print()
    print(format_mobile_table(results, title))
    if figure is not None and results:
        headline = results.get("100% mobile") or next(iter(results.values()))
        headline_ratio = 1.0 if "100% mobile" in results else mobile_ratios[0]
        _, events_per_sec = _timed_checked_run(
            base.with_overrides(mobile_ratio=headline_ratio)
        )
        record_bench(
            figure,
            throughput_tps=headline.throughput_tps,
            avg_latency_ms=headline.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
    return results


def scalability_figure(
    title: str,
    failure_model: FailureModel,
    faults_levels: Sequence[int] = (1, 2, 4),
    load: int = 24,
    figure: Optional[str] = None,
) -> Dict[str, Dict[str, PerformanceSummary]]:
    """Figures 12 and 13: impact of domain size (|p|) on every protocol."""
    results: Dict[str, Dict[str, PerformanceSummary]] = {}
    print()
    print(title)
    print("-" * len(title))
    base = _base_config(failure_model, "lan", cross_domain_ratio=0.10).with_clients(load)
    for index, faults in enumerate(faults_levels):
        domain_size = domain_size_for_failures(faults, failure_model)
        row: Dict[str, PerformanceSummary] = {}
        for label, scenario in registry.series_scenarios(
            base.with_overrides(faults=faults), registry.SCALABILITY_SERIES
        ).items():
            row[label] = run_once(
                scenario,
                figure=(
                    figure if index == 0 and label == "Coordinator" else None
                ),
            )
        results[f"|p|={domain_size}"] = row
        rendered = "  ".join(
            f"{label}: {summary.throughput_tps:8.1f} tps" for label, summary in row.items()
        )
        print(f"|p| = {domain_size:2d}  ->  {rendered}")
    return results


def batch_figure(
    title: str,
    batch_sizes: Optional[Sequence[int]] = None,
    figure: str = "fig_batch",
) -> Dict[int, PerformanceSummary]:
    """The batching sweep (fig_batch): throughput across consensus batch sizes.

    Sweeps the registered ``batch-sweep`` scenario family — the fig13
    topology (BFT, LAN) at |p| = 7 under saturating closed-loop load — over
    ``batch_sizes``, recording one headline entry per size so the cross-PR
    trajectory tracks how the batched ordering core scales.
    """
    sizes = tuple(batch_sizes if batch_sizes is not None else registry.BATCH_SWEEP_SIZES)
    results: Dict[int, PerformanceSummary] = {}
    print()
    print(title)
    print("-" * len(title))
    for size in sizes:
        scenario = registry.get(f"batch-sweep-b{size:03d}")
        run, events_per_sec = _timed_checked_run(scenario)
        assert run.summary is not None
        results[size] = run.summary
        record_bench(
            f"{figure}/b{size:03d}",
            throughput_tps=run.summary.throughput_tps,
            avg_latency_ms=run.summary.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
        print(
            f"batch={size:3d}  ->  {run.summary.throughput_tps:9.1f} tps  "
            f"{run.summary.avg_latency_ms:7.2f} ms avg  "
            f"{run.summary.p95_latency_ms:8.2f} ms p95"
        )
    return results


def shard_figure(
    title: str,
    shard_counts: Optional[Sequence[int]] = None,
    figure: str = "fig_shard",
) -> Dict[int, PerformanceSummary]:
    """The sharded-execution sweep (fig_shard): throughput across shard counts.

    Sweeps the registered ``shard-sweep`` scenario family — the batched
    fig13 topology under saturating load with ``execution_lanes=16`` armed,
    so per-batch state execution is what nodes spend their time on — over
    ``state_shards``.  Same workload, same load, same lanes; only the shard
    count moves, so the sweep isolates how much sharded state lets execution
    overlap instead of hiding behind ordering.
    """
    counts = tuple(
        shard_counts if shard_counts is not None else registry.SHARD_SWEEP_SIZES
    )
    results: Dict[int, PerformanceSummary] = {}
    print()
    print(title)
    print("-" * len(title))
    for shards in counts:
        scenario = registry.get(f"shard-sweep-s{shards:03d}")
        run, events_per_sec = _timed_checked_run(scenario)
        assert run.summary is not None
        results[shards] = run.summary
        record_bench(
            f"{figure}/s{shards:03d}",
            throughput_tps=run.summary.throughput_tps,
            avg_latency_ms=run.summary.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
        print(
            f"shards={shards:3d}  ->  {run.summary.throughput_tps:9.1f} tps  "
            f"{run.summary.avg_latency_ms:7.2f} ms avg  "
            f"{run.summary.p95_latency_ms:8.2f} ms p95"
        )
    return results


def pipeline_figure(
    title: str,
    figure: str = "fig_pipeline",
) -> Dict[str, PerformanceSummary]:
    """The speculation sweep (fig_pipeline): stalled slots, off versus on.

    Runs the registered ``pipeline-sweep`` pair — the sharded fig13 topology
    under saturating load with every third consensus slot's decision stalled
    by 60 ms on every height-1 domain — once with speculation off (in-order
    delivery serialises behind every stall) and once with speculative
    out-of-order execution armed (decided batches with disjoint shard
    footprints execute during the stall window and merely commit in order).
    Both runs are invariant-checked, including speculation safety.
    """
    results: Dict[str, PerformanceSummary] = {}
    print()
    print(title)
    print("-" * len(title))
    for name in registry.PIPELINE_SWEEP_SCENARIOS:
        scenario = registry.get(name)
        mode = "on" if scenario.speculation else "off"
        run, events_per_sec = _timed_checked_run(scenario)
        assert run.summary is not None
        results[mode] = run.summary
        spec_commits = (
            len(run.trace.events("spec:commit")) if run.trace is not None else 0
        )
        rollbacks = (
            len(run.trace.events("spec:rollback")) if run.trace is not None else 0
        )
        record_bench(
            f"{figure}/{mode}",
            throughput_tps=run.summary.throughput_tps,
            avg_latency_ms=run.summary.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
        print(
            f"speculation={mode:3s}  ->  {run.summary.throughput_tps:9.1f} tps  "
            f"{run.summary.avg_latency_ms:7.2f} ms avg  "
            f"{run.summary.p95_latency_ms:8.2f} ms p95  "
            f"(spec commits: {spec_commits}, rollbacks: {rollbacks})"
        )
    speedup = (
        results["on"].throughput_tps / results["off"].throughput_tps
        if results.get("off") and results["off"].throughput_tps > 0
        else float("nan")
    )
    print(f"speculation speedup: {speedup:.2f}x")
    return results


def _first_commit_times(trace) -> Dict[str, float]:
    """Earliest committed ``append`` per transaction id, from the run trace.

    Every replica of a domain appends the same committed entry, so the trace
    holds one ``append`` event per (transaction, replica); deduplicating on
    the first occurrence (events are in simulated-time order) yields the
    moment each transaction first reached a ledger — the commit timeline the
    churn figure windows over.
    """
    times: Dict[str, float] = {}
    for event in trace.events("append"):
        if event.get("status") != "committed":
            continue
        if event.tid is not None and event.tid not in times:
            times[event.tid] = event.at_ms
    return times


def _windowed_min_tps(commits: Sequence[float], window_ms: float = 100.0) -> float:
    """The worst ``window_ms``-windowed commit rate over the commit timeline."""
    if not commits:
        return 0.0
    ordered = sorted(commits)
    start, end = ordered[0], ordered[-1]
    if end - start <= window_ms:
        return len(ordered) / ((end - start + window_ms) / 1000.0)
    worst = float("inf")
    edge = start
    while edge < end:
        count = sum(1 for at in ordered if edge <= at < edge + window_ms)
        worst = min(worst, count / (window_ms / 1000.0))
        edge += window_ms
    return worst


def churn_figure(
    title: str,
    figure: str = "fig_churn",
) -> Dict[str, Any]:
    """The crash-recovery sweep (fig_churn): churned replicas vs no faults.

    Runs the registered ``churn-sweep`` pair — a paced closed-loop Byzantine
    workload with durability on (WAL + certified checkpoints) — once with no
    faults and once under the churn plan that wipes every height-1 replica
    (an amnesia crash: ledger, state, and consensus engine all lost) on a
    staggered schedule.  Each wiped replica must replay its write-ahead log,
    catch up from its peers, and rejoin; both runs are invariant-checked,
    including the recovery-safety pass.

    Beyond the headline throughput of each run, the figure extracts the
    recovery-specific numbers from the churn run's trace: per-node time to
    rejoin (wipe -> ``recovery:rejoin``), the deepest 100 ms-windowed commit
    dip while replicas were down, and the post-recovery throughput — commits
    strictly after the last rejoin over the remaining span — which the bench
    test gates against the no-fault baseline.
    """
    from repro.scenarios.runner import _rejoin_times

    results: Dict[str, Any] = {}
    print()
    print(title)
    print("-" * len(title))
    for name, mode in (("churn-sweep-nofault", "nofault"), ("churn-sweep", "churn")):
        scenario = registry.get(name)
        run, events_per_sec = _timed_checked_run(scenario)
        assert run.summary is not None
        assert run.trace is not None
        results[mode] = run.summary
        record_bench(
            figure if mode == "churn" else f"{figure}/{mode}",
            throughput_tps=run.summary.throughput_tps,
            avg_latency_ms=run.summary.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
        line = (
            f"{mode:7s}  ->  {run.summary.throughput_tps:9.1f} tps  "
            f"{run.summary.avg_latency_ms:7.2f} ms avg  "
            f"{run.summary.p95_latency_ms:8.2f} ms p95"
        )
        if mode == "churn":
            trace = run.trace
            rejoins = _rejoin_times(trace)
            wipes = len(trace.events("fault:wipe"))
            commits = _first_commit_times(trace)
            rejoin_events = trace.events("recovery:rejoin")
            last_rejoin = max((e.at_ms for e in rejoin_events), default=0.0)
            after = [at for at in commits.values() if at > last_rejoin]
            span_ms = max(commits.values(), default=0.0) - last_rejoin
            post_tps = (
                len(after) / (span_ms / 1000.0) if span_ms > 0 and after else 0.0
            )
            results["post_recovery_tps"] = post_tps
            results["time_to_rejoin_ms"] = rejoins
            results["dip_tps"] = _windowed_min_tps(list(commits.values()))
            mean_rejoin = (
                sum(ms for _, ms in rejoins) / len(rejoins) if rejoins else 0.0
            )
            line += (
                f"  (wipes: {wipes}, rejoins: {len(rejoins)}, "
                f"mean rejoin {mean_rejoin:.0f} ms)"
            )
        print(line)
    print(
        f"post-recovery: {results['post_recovery_tps']:.1f} tps after the last "
        f"rejoin (baseline {results['nofault'].throughput_tps:.1f} tps); "
        f"deepest 100 ms commit window during churn: {results['dip_tps']:.1f} tps"
    )
    return results


def _summarise_control_decisions(run) -> None:
    """Print what the control plane did during one run, from its trace.

    Reads the ``control:*`` events: the final adapted batch/group target per
    node (first ``size_from`` -> last ``size_to``) and the lane-map churn
    (rebalance moves, also as a rate over the adapted span — guarded, since
    a run whose decisions all land at one instant has a zero-length span).
    """
    trace = run.trace
    if trace is None:
        return
    decisions = trace.control_decisions()
    if not decisions:
        print("    control: no adaptation events recorded")
        return
    total_moves = 0
    first_at: Optional[float] = None
    last_at: Optional[float] = None
    for node in sorted(decisions):
        buckets = decisions[node]
        for bucket in buckets.values():
            for event in bucket:
                if first_at is None or event.at_ms < first_at:
                    first_at = event.at_ms
                if last_at is None or event.at_ms > last_at:
                    last_at = event.at_ms
        parts = []
        if buckets["batch"]:
            parts.append(
                f"batch {buckets['batch'][0].get('size_from')}"
                f"->{buckets['batch'][-1].get('size_to')}"
            )
        if buckets["group"]:
            parts.append(
                f"group {buckets['group'][0].get('size_from')}"
                f"->{buckets['group'][-1].get('size_to')}"
            )
        moves = len(buckets["rebalance"])
        total_moves += moves
        if moves:
            parts.append(f"lane moves={moves}")
        if parts:
            print(f"    control[{node}]: " + ", ".join(parts))
    span_ms = (last_at - first_at) if first_at is not None and last_at is not None else 0.0
    if total_moves and span_ms > 0:
        print(
            f"    control: {total_moves} lane moves over {span_ms:.0f} ms "
            f"simulated ({total_moves / (span_ms / 1000.0):.1f} moves/s)"
        )
    elif total_moves:
        print(f"    control: {total_moves} lane moves (zero-length decision span)")


def control_figure(
    title: str,
    batch_sizes: Optional[Sequence[int]] = None,
    figure: str = "fig_control",
) -> Dict[str, PerformanceSummary]:
    """The control-plane sweep (fig_control): static Zipf points vs adaptive.

    Runs the registered ``zipf-sweep`` scenario family — the sharded fig13
    topology under a Zipf-skewed (s = 1.2) saturating closed-loop load —
    once per static batch size and once with the adaptive control plane
    armed, starting from the *worst* static operating point (batch = 1).
    Same workload, same load, same shards and lanes; only who picks the
    knobs differs, so the sweep isolates what online AIMD batch/group
    resizing plus hot-shard lane rebalancing buys over any fixed setting.
    The adaptive run's trace is summarised (final adapted sizes, lane-map
    churn) so the committed numbers show what the controllers actually did.
    """
    sizes = tuple(
        batch_sizes if batch_sizes is not None else registry.ZIPF_SWEEP_BATCHES
    )
    results: Dict[str, PerformanceSummary] = {}
    print()
    print(title)
    print("-" * len(title))
    for size in sizes:
        scenario = registry.get(f"zipf-sweep-b{size:03d}")
        run, events_per_sec = _timed_checked_run(scenario)
        assert run.summary is not None
        results[f"b{size:03d}"] = run.summary
        record_bench(
            f"{figure}/b{size:03d}",
            throughput_tps=run.summary.throughput_tps,
            avg_latency_ms=run.summary.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
        print(
            f"static batch={size:3d}  ->  {run.summary.throughput_tps:9.1f} tps  "
            f"{run.summary.avg_latency_ms:7.2f} ms avg  "
            f"{run.summary.p95_latency_ms:8.2f} ms p95"
        )
    run, events_per_sec = _timed_checked_run(registry.get("zipf-sweep-adaptive"))
    assert run.summary is not None
    results["adaptive"] = run.summary
    record_bench(
        figure,
        throughput_tps=run.summary.throughput_tps,
        avg_latency_ms=run.summary.avg_latency_ms,
        events_per_sec=events_per_sec,
    )
    print(
        f"adaptive        ->  {run.summary.throughput_tps:9.1f} tps  "
        f"{run.summary.avg_latency_ms:7.2f} ms avg  "
        f"{run.summary.p95_latency_ms:8.2f} ms p95"
    )
    _summarise_control_decisions(run)
    return results


def control2_figure(
    title: str,
    figure: str = "fig_control2",
) -> Dict[str, Any]:
    """The phase-2 control sweep (fig_control2): splitting and leases.

    Two legs.  The white-hot leg runs ``zipf-hot-nosplit`` vs
    ``zipf-hot-split`` — the same adaptive plane on a Zipf-1.4 workload with
    only two base shards, where the hot shard is its lane's single resident
    and whole-shard rebalancing is blocked by the single-resident guard.
    The split run may additionally split the hot shard's key range between
    execution windows; everything else is identical, so the throughput gap
    is what splitting buys past PR 6's rebalancer.  The lease leg runs
    ``lease-rejoin`` (three-domain transactions, branching-3 tree) and
    reports the conflict-lease ledger: grants, adoptions into following
    groups, expiries to the per-transaction path, and drops.

    Returns the per-leg summaries plus the trace evidence the acceptance
    gates check (split counts per leg and the lease action counts).
    """
    from collections import Counter

    results: Dict[str, PerformanceSummary] = {}
    splits: Dict[str, int] = {}
    print()
    print(title)
    print("-" * len(title))
    for label, name in (("nosplit", "zipf-hot-nosplit"), ("split", "zipf-hot-split")):
        run, events_per_sec = _timed_checked_run(registry.get(name))
        assert run.summary is not None
        results[label] = run.summary
        splits[label] = (
            len(run.trace.events("control:split")) if run.trace is not None else 0
        )
        record_bench(
            figure if label == "split" else f"{figure}/{label}",
            throughput_tps=run.summary.throughput_tps,
            avg_latency_ms=run.summary.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
        print(
            f"{label:8s}  ->  {run.summary.throughput_tps:9.1f} tps  "
            f"{run.summary.avg_latency_ms:7.2f} ms avg  "
            f"{run.summary.p95_latency_ms:8.2f} ms p95  "
            f"splits={splits[label]}"
        )
        if label == "split":
            _summarise_control_decisions(run)
    run, events_per_sec = _timed_checked_run(registry.get("lease-rejoin"))
    assert run.summary is not None
    results["lease"] = run.summary
    lease_actions = Counter(
        event.get("action")
        for event in (run.trace.events("control:lease") if run.trace else ())
    )
    record_bench(
        f"{figure}/lease",
        throughput_tps=run.summary.throughput_tps,
        avg_latency_ms=run.summary.avg_latency_ms,
        events_per_sec=events_per_sec,
    )
    print(
        f"lease     ->  {run.summary.throughput_tps:9.1f} tps  "
        f"committed={run.summary.committed}  "
        + " ".join(
            f"{action}={lease_actions[action]}" for action in sorted(lease_actions)
        )
    )
    return {
        "summaries": results,
        "splits": splits,
        "lease_actions": dict(lease_actions),
    }


def xbatch_figure(
    title: str,
    group_sizes: Optional[Sequence[int]] = None,
    figure: str = "fig_xbatch",
) -> Dict[int, PerformanceSummary]:
    """The cross-domain batching sweep (fig_xbatch): grouped 2PC throughput.

    Sweeps the registered ``xbatch-sweep`` scenario family — fig10's
    wide-area topology saturated with cross-domain traffic — over
    ``xdomain_batch_size``, recording one headline entry per group size.
    This is the apples-to-apples evidence for the grouped 2PC win: same
    workload, same load, only the grouping knob moves.
    """
    sizes = tuple(
        group_sizes if group_sizes is not None else registry.XBATCH_SWEEP_SIZES
    )
    base = registry.get("xbatch-sweep")
    results: Dict[int, PerformanceSummary] = {}
    print()
    print(title)
    print("-" * len(title))
    for size in sizes:
        scenario = base.with_overrides(
            name=f"xbatch-sweep-g{size:03d}", xdomain_batch_size=size
        )
        run, events_per_sec = _timed_checked_run(scenario)
        assert run.summary is not None
        results[size] = run.summary
        record_bench(
            f"{figure}/g{size:03d}",
            throughput_tps=run.summary.throughput_tps,
            avg_latency_ms=run.summary.avg_latency_ms,
            events_per_sec=events_per_sec,
        )
        print(
            f"xdomain_batch={size:3d}  ->  {run.summary.throughput_tps:9.1f} tps  "
            f"{run.summary.avg_latency_ms:7.2f} ms avg  "
            f"{run.summary.p95_latency_ms:8.2f} ms p95"
        )
    return results


#: Saturating closed-loop load for the wide-area headline point: enough
#: concurrent clients that the cross-domain exchanges queue instead of the
#: run ending while the system idles (the 8/32-client sweep of the shape
#: table stays far below capacity on the wide-area profile).
WIDE_AREA_SATURATED_CLIENTS = 640
WIDE_AREA_SATURATED_TRANSACTIONS = 1920


def wide_area_saturated_point(
    figure: str,
    failure_model: FailureModel,
    group_sizes: Sequence[int] = (1, 8, 32),
) -> Dict[int, PerformanceSummary]:
    """The recorded fig10 headline: the wide-area figure at saturating load.

    Runs the fig10 base (10% cross-domain, wide-area regions) under
    saturating closed-loop load with the batched ordering core on, sweeping
    ``xdomain_batch_size`` and recording the best point — the committed
    wide-area number now reflects the system's actual capacity instead of
    the tail latency of a nearly idle run.
    """
    base = _base_config(
        failure_model, "wide-area", cross_domain_ratio=0.10
    ).with_overrides(
        num_clients=WIDE_AREA_SATURATED_CLIENTS,
        num_transactions=WIDE_AREA_SATURATED_TRANSACTIONS,
        batch_size=32,
        batch_timeout_ms=2.0,
        xdomain_batch_timeout_ms=10.0,
    )
    results: Dict[int, PerformanceSummary] = {}
    best: Optional[PerformanceSummary] = None
    best_events: Optional[float] = None
    for size in group_sizes:
        run, events_per_sec = _timed_checked_run(
            base.with_overrides(
                name=f"{figure}-saturated-g{size:03d}", xdomain_batch_size=size
            )
        )
        assert run.summary is not None
        results[size] = run.summary
        print(
            f"  {figure} saturated xdomain_batch={size:3d}  ->  "
            f"{run.summary.throughput_tps:9.1f} tps  "
            f"{run.summary.avg_latency_ms:7.2f} ms avg"
        )
        if best is None or run.summary.throughput_tps > best.throughput_tps:
            best, best_events = run.summary, events_per_sec
    assert best is not None
    record_bench(
        figure,
        throughput_tps=best.throughput_tps,
        avg_latency_ms=best.avg_latency_ms,
        events_per_sec=best_events,
    )
    return results


def assert_saguaro_not_worse_than_ahl(series: Dict[str, List[LoadPoint]], slack: float = 0.85) -> None:
    """Shape check shared by the cross-domain figures."""
    assert peak_throughput(series["Coordinator"]) >= slack * peak_throughput(series["AHL"])


def assert_optimistic_low_contention_wins(series: Dict[str, List[LoadPoint]]) -> None:
    best_traditional = max(
        peak_throughput(series["AHL"]),
        peak_throughput(series["SharPer"]),
        peak_throughput(series["Coordinator"]),
    )
    assert peak_throughput(series["Opt-10%C"]) >= best_traditional
