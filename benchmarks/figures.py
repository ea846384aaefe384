"""The paper's evaluation figures (§8, Figs. 7-13) and this repo's own, as data.

Every figure is the same experiment: a fixed deployment, a handful of cells
(each a registry scenario plus overrides), and a claim about who wins.
``FIGURES`` declares them; :func:`run_figure` runs one figure's cells —
invariant-checked, fanned over the machine's cores — prints one uniform
table and returns the per-cell results for the figure's gate.

``BENCH_results.json`` records what every cell *simulates* (commit counts,
throughput, latency percentiles, abort rate): exact numbers, a pure function
of the code.  ``pytest benchmarks`` recomputes them and asserts equality;
running this module as a script is the only thing that rewrites the file::

    PYTHONPATH=src python benchmarks/figures.py

Absolute numbers are not expected to match the paper (the substrate is a
simulator, not a 15-VM EC2 testbed); the gates check the *shape*.  Wall-clock
evidence lives in ``bench/``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.analysis.metrics import PerformanceSummary
from repro.analysis.reporting import latency_at_peak, peak_throughput
from repro.faults.trace import TraceRecorder
from repro.scenarios import (
    BASELINE_AHL,
    SAGUARO_COORDINATOR,
    SAGUARO_OPTIMISTIC,
    LoadPoint,
    RunResult,
    Scenario,
    materialize,
    registry,
)

LEDGER_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_results.json"
)

#: Concurrent-client counts swept by the six-system throughput/latency panels.
LOAD_LEVELS = (8, 32)


# ---------------------------------------------------------------------------
# One cell: a checked run plus the trace evidence some gates need
# ---------------------------------------------------------------------------


class Cell(NamedTuple):
    """What one cell's worker sends back (everything here pickles)."""

    result: RunResult
    #: Trace events by kind (``spec:commit``, ``control:split``, ``fault:wipe``, ...).
    kinds: Dict[str, int]
    #: ``control:lease`` events by action (grant / adopt / expire / drop).
    lease_actions: Dict[str, int]
    #: Commit rate after the last ``recovery:rejoin``; 0.0 without recoveries.
    post_recovery_tps: float

    @property
    def summary(self) -> PerformanceSummary:
        return self.result.summary

    @property
    def tps(self) -> float:
        return self.result.summary.throughput_tps

    @property
    def avg_ms(self) -> float:
        return self.result.summary.avg_latency_ms


def _post_recovery_tps(trace: TraceRecorder) -> float:
    """Commits strictly after the last rejoin, over the remaining span.

    Every replica appends the same committed entry, so a transaction's first
    ``append`` is the moment it reached a ledger.
    """
    rejoins = trace.events("recovery:rejoin")
    if not rejoins:
        return 0.0
    last_rejoin = max(event.at_ms for event in rejoins)
    first_commit: Dict[str, float] = {}
    for event in trace.events("append"):
        if event.get("status") == "committed" and event.tid is not None:
            first_commit.setdefault(event.tid, event.at_ms)
    after = [at for at in first_commit.values() if at > last_rejoin]
    span_ms = max(first_commit.values(), default=0.0) - last_rejoin
    return len(after) / (span_ms / 1000.0) if after and span_ms > 0 else 0.0


def run_cell(scenario: Scenario) -> Cell:
    """Run one scenario on its registered seed, invariant-checked."""
    run = materialize(scenario)
    result = run.run()
    run.check_invariants()
    trace = run.trace
    return Cell(
        result=result,
        kinds=trace.kinds(),
        lease_actions=dict(
            Counter(event.get("action") for event in trace.events("control:lease"))
        ),
        post_recovery_tps=_post_recovery_tps(trace),
    )


# ---------------------------------------------------------------------------
# Figures as data
# ---------------------------------------------------------------------------

Cells = Dict[str, Cell]


@dataclass(frozen=True)
class Figure:
    id: str
    title: str
    #: label -> scenario; the label is the cell's row in the table and ledger.
    cells: Mapping[str, Scenario]
    #: The figure's claim: asserts over the cells' results.
    gate: Callable[[Cells], None]


def series(base: Scenario) -> Dict[str, Scenario]:
    """``"<system>@<clients>"`` cells: the six system series at every load."""
    return {
        f"{label}@{clients}": scenario.with_clients(clients)
        for label, scenario in registry.series_scenarios(base).items()
        for clients in LOAD_LEVELS
    }


def sweep(base: Scenario, key: str, values: Mapping[str, Any]) -> Dict[str, Scenario]:
    """One cell per ``label -> value`` of a single override key."""
    return {label: base.with_overrides(**{key: value}) for label, value in values.items()}


def family(prefix: str, tag: str, values: Sequence[int]) -> Dict[str, Scenario]:
    """A registered sweep family: ``<tag>NNN`` -> ``registry.get("<prefix>-<tag>NNN")``."""
    return {
        f"{tag}{value:03d}": registry.get(f"{prefix}-{tag}{value:03d}") for value in values
    }


def curve(cells: Cells, system: str) -> List[LoadPoint]:
    """One system's load curve out of a :func:`series` panel."""
    return [
        cell.result.as_load_point()
        for label, cell in cells.items()
        if label.startswith(f"{system}@")
    ]


def _all(cells: Cells, **expected: int) -> None:
    """Every cell's summary carries exactly these counts (``pending=0`` ...)."""
    for label, cell in cells.items():
        for name, value in expected.items():
            assert getattr(cell.summary, name) == value, (label, name)


# -- Figures 7, 8, 10: six systems over a load sweep -------------------------


def _saguaro_keeps_up_with_ahl(cells: Cells) -> None:
    coordinator = peak_throughput(curve(cells, "Coordinator"))
    assert coordinator >= 0.85 * peak_throughput(curve(cells, "AHL"))


def _fig07_gate(cells: Cells) -> None:
    # §8.1: the hierarchical coordinator keeps up with the single-committee
    # baseline, and the optimistic protocol at low contention is fastest.
    _saguaro_keeps_up_with_ahl(cells)
    best_traditional = max(
        peak_throughput(curve(cells, system))
        for system in ("AHL", "SharPer", "Coordinator")
    )
    assert peak_throughput(curve(cells, "Opt-10%C")) >= best_traditional


def _fig08_vs_crash_gate(cells: Cells) -> None:
    # §8.1: Byzantine domains show lower throughput / higher latency than CFT.
    assert cells["byzantine"].tps < cells["crash"].tps
    assert cells["byzantine"].avg_ms > cells["crash"].avg_ms


def _fig10_cells(name: str) -> Dict[str, Scenario]:
    base = registry.get(name)
    # The 8/32-client sweep stays far below capacity on the wide-area
    # profile, so the headline is the same figure under saturating load with
    # the batched ordering core on, swept over the 2PC group size.
    saturated = base.with_overrides(
        num_clients=640,
        num_transactions=1920,
        batch_size=32,
        batch_timeout_ms=2.0,
        xdomain_batch_timeout_ms=10.0,
    )
    return {
        **series(base),
        **sweep(
            saturated,
            "xdomain_batch_size",
            {"saturated-g001": 1, "saturated-g008": 8, "saturated-g032": 32},
        ),
    }


def _fig10_gate(floor_tps: float) -> Callable[[Cells], None]:
    def gate(cells: Cells) -> None:
        coordinator, optimistic = curve(cells, "Coordinator"), curve(cells, "Opt-10%C")
        # §8.3: the optimistic protocol (low contention) still performs best
        # over the wide area because it commits locally, while every
        # coordinated system pays wide-area round trips before commit ...
        assert peak_throughput(optimistic) >= peak_throughput(coordinator)
        assert latency_at_peak(coordinator) > latency_at_peak(optimistic)
        # ... an order of magnitude more than in the nearby-EU deployment.
        assert latency_at_peak(coordinator) > 10.0
        saturated = {
            label: cell for label, cell in cells.items() if label.startswith("saturated-")
        }
        # Saturating load and grouping together must at least double the
        # pre-grouping baseline, and a grouped size must be the best point
        # (the same-load grouping gate is fig_xbatch).
        assert max(cell.tps for cell in saturated.values()) >= 2.0 * floor_tps
        grouped_best = max(
            cell.tps for label, cell in saturated.items() if label != "saturated-g001"
        )
        assert grouped_best >= saturated["saturated-g001"].tps
        _all(saturated, pending=0, aborted=0)

    return gate


# -- Figures 9, 11: device mobility ------------------------------------------

_MOBILE_RATIOS = {"0% mobile": 0.0, "20% mobile": 0.2, "80% mobile": 0.8, "100% mobile": 1.0}


def _fig09_gate(max_drop: float) -> Callable[[Cells], None]:
    def gate(cells: Cells) -> None:
        local, mobile = cells["0% mobile"].tps, cells["100% mobile"].tps
        assert mobile > 0
        # Mobility costs something, but the state-transfer protocol amortises
        # it over the excursion, so the drop stays bounded.
        assert 1.0 - mobile / local < max_drop
        _all(cells, pending=0)

    return gate


def _fig11_gate(cells: Cells) -> None:
    local, mobile = cells["0% mobile"], cells["100% mobile"]
    assert mobile.tps > 0
    assert mobile.tps < local.tps  # mobility over WAN is not free ...
    assert mobile.tps > 0.05 * local.tps  # ... but the system keeps committing
    # Each excursion pays one wide-area state transfer before the remote
    # domain can execute locally.
    assert mobile.avg_ms > local.avg_ms


# -- Figures 12, 13: domain size ---------------------------------------------


def _scalability_cells(name: str, sizes: Mapping[int, int]) -> Dict[str, Scenario]:
    """``"|p|=<size>/<system>"`` cells: four systems at each fault level."""
    base = registry.get(name)
    return {
        f"|p|={size}/{label}": scenario
        for faults, size in sizes.items()
        for label, scenario in registry.series_scenarios(
            base.with_overrides(faults=faults), registry.SCALABILITY_SERIES
        ).items()
    }


def _fig12_gate(cells: Cells) -> None:
    small, large = cells["|p|=3/Coordinator"].tps, cells["|p|=9/Coordinator"].tps
    assert large > 0
    # Larger quorums cost something, but the degradation stays moderate.
    assert large >= 0.5 * small
    _all(cells, pending=0)


def _fig13_gate(cells: Cells) -> None:
    small, large = cells["|p|=4/Coordinator"].tps, cells["|p|=13/Coordinator"].tps
    assert large > 0
    assert large <= small  # bigger BFT domains are never faster
    _all(cells, pending=0)


# -- This repo's mechanisms: same workload, one knob moves -------------------


def _knob_gate(
    baseline: str, factor: float, faster: Optional[str] = None
) -> Callable[[Cells], None]:
    """``faster`` (default: the best cell) carries ``factor`` x ``baseline``'s
    throughput at lower latency, and nothing is left pending or aborted."""

    def gate(cells: Cells) -> None:
        slow = cells[baseline]
        fast = cells[faster] if faster else max(cells.values(), key=lambda c: c.tps)
        assert slow.tps > 0
        assert fast.tps >= factor * slow.tps, f"{fast.tps / slow.tps:.2f}x < {factor}x"
        assert fast.avg_ms < slow.avg_ms
        _all(cells, pending=0, aborted=0)

    return gate


def _fig_shard_gate(cells: Cells) -> None:
    _knob_gate("s001", 1.5)(cells)
    # Parallel lanes drain execution faster, so latency must drop too.
    assert cells["s016"].avg_ms < cells["s001"].avg_ms


def _fig_pipeline_gate(cells: Cells) -> None:
    _knob_gate("off", 1.3, faster="on")(cells)
    _all(cells, committed=800)
    # The gap must come from slots that actually ran early.
    assert cells["on"].kinds.get("spec:commit", 0) > 0
    assert cells["off"].kinds.get("spec:commit", 0) == 0


def _fig_control_gate(cells: Cells) -> None:
    statics = [cell.tps for label, cell in cells.items() if label != "adaptive"]
    adaptive = cells["adaptive"].tps
    assert min(statics) > 0
    # Starting *at* the worst static point the controllers must climb out of
    # it (>= 1.3x) and reach the best one.
    assert adaptive >= max(statics)
    assert adaptive >= 1.3 * min(statics)
    _all(cells, pending=0, aborted=0)


def _fig_control2_gate(cells: Cells) -> None:
    nosplit, split, lease = cells["nosplit"], cells["split"], cells["lease"]
    assert nosplit.tps > 0
    # Splitting is the only mechanism that can spread one white-hot shard.
    assert split.tps >= 1.15 * nosplit.tps
    # The gap must come from actual splits, not noise.
    assert nosplit.kinds.get("control:split", 0) == 0
    assert split.kinds.get("control:split", 0) > 0
    # The lease leg exercised the full grant -> adopt path.
    assert lease.lease_actions.get("grant", 0) > 0
    assert lease.lease_actions.get("adopt", 0) > 0
    _all(cells, pending=0)


def _fig_churn_gate(cells: Cells) -> None:
    nofault, churn = cells["nofault"], cells["churn"]
    assert nofault.tps > 0
    # Every scheduled wipe rejoined (16 staggered across the four height-1
    # domains plus one repeat on D11/n1), and no work was lost.
    rejoins = churn.result.time_to_rejoin_ms
    assert len(rejoins) == churn.kinds["fault:wipe"] == 17
    _all(cells, committed=128, pending=0, aborted=0)
    # Once the last replica has rejoined, the churned system must be back
    # within 25% of the no-fault baseline.
    assert churn.post_recovery_tps >= 0.75 * nofault.tps
    # Catch-up is a handful of simulated round trips, not a restart-the-world stall.
    assert max(ms for _, ms in rejoins) < 500.0


def _fig_scale100_gate(cells: Cells) -> None:
    # The scale claims the figure stands on: a three-level tree of 157 server
    # domains (144 at the edge), seven replicas each.
    hierarchy = registry.get("fig_scale100").build_hierarchy()
    assert len(hierarchy.height1_domains()) == 144
    assert len(list(hierarchy.all_server_nodes())) == 157 * 7 == 1099
    assert len(list(hierarchy.all_domains())) == 301
    # Both deployments commit their full workload inside the drain window.
    assert cells["crash"].summary.committed == 240
    assert cells["byz"].summary.committed == 96
    _all(cells, pending=0, aborted=0)


# -- Ablations ---------------------------------------------------------------


def _ablation_lca_gate(cells: Cells) -> None:
    # Distributing coordination over the hierarchy must not be slower than
    # funnelling everything through one committee.
    assert cells["lca"].tps >= 0.9 * cells["single-committee"].tps


def _ablation_rounds_gate(cells: Cells) -> None:
    # Faster rounds mean earlier inconsistency detection, hence no more (and
    # usually fewer) cascaded aborts than with slow rounds.
    short, long = cells["round-8ms"].summary, cells["round-40ms"].summary
    assert short.abort_rate <= long.abort_rate + 0.05


def _figures() -> Dict[str, Figure]:
    get = registry.get
    rows: List[Figure] = []
    for number, model, gate in (
        (7, "crash-only", _fig07_gate),
        (8, "Byzantine", _saguaro_keeps_up_with_ahl),
    ):
        for panel, percent in (("a", 20), ("b", 80), ("c", 100)):
            rows.append(Figure(
                f"fig0{number}{panel}",
                f"Figure {number}({panel}): {percent}% cross-domain, {model} domains, nearby EU",
                series(get(f"fig0{number}{panel}")),
                gate,
            ))
    rows.append(Figure(
        "fig08-vs-crash",
        "Figure 8 vs 7: the coordinator at 20% cross-domain, 24 clients",
        {"crash": get("fig07a").with_clients(24), "byzantine": get("fig08a").with_clients(24)},
        _fig08_vs_crash_gate,
    ))
    for name, model, max_drop in (("fig09a", "crash", 0.60), ("fig09b", "byzantine", 0.70)):
        rows.append(Figure(
            name,
            f"Figure 9({name[-1]}): mobile devices, {model} domains, nearby EU",
            sweep(get(name), "mobile_ratio", _MOBILE_RATIOS),
            _fig09_gate(max_drop),
        ))
    # The floors are the committed fig10 headline numbers before grouped
    # cross-domain 2PC (PR 3's ledger), which the saturated point must double.
    for name, model, floor_tps in (("fig10a", "crash", 148.9), ("fig10b", "byzantine", 123.5)):
        rows.append(Figure(
            name,
            f"Figure 10({name[-1]}): 10% cross-domain, {model} domains, wide-area",
            _fig10_cells(name),
            _fig10_gate(floor_tps),
        ))
    for name, model in (("fig11a", "crash"), ("fig11b", "byzantine")):
        rows.append(Figure(
            name,
            f"Figure 11({name[-1]}): mobile devices, {model} domains, wide-area",
            sweep(get(name), "mobile_ratio", _MOBILE_RATIOS),
            _fig11_gate,
        ))
    rows += [
        Figure(
            "fig12",
            "Figure 12: increasing crash-only domain size (|p| = 3, 5, 9)",
            _scalability_cells("fig12", {1: 3, 2: 5, 4: 9}),
            _fig12_gate,
        ),
        Figure(
            "fig13",
            "Figure 13: increasing Byzantine domain size (|p| = 4, 7, 13)",
            _scalability_cells("fig13", {1: 4, 2: 7, 4: 13}),
            _fig13_gate,
        ),
        Figure(
            "fig_batch",
            "fig_batch: batched ordering core (fig13 topology, |p| = 7)",
            family("batch-sweep", "b", registry.BATCH_SWEEP_SIZES),
            # One slot per request is message-bound; batching amortises it.
            _knob_gate("b001", 3.0, faster="b032"),
        ),
        Figure(
            "fig_xbatch",
            "fig_xbatch: grouped cross-domain 2PC (fig10 topology, wide-area, 100% cross)",
            family("xbatch-sweep", "g", registry.XBATCH_SWEEP_SIZES),
            # One 2PC exchange per transaction queues on the WAN; grouping
            # amortises it across a (coordinator, participant-set) group.
            _knob_gate("g001", 2.0),
        ),
        Figure(
            "fig_shard",
            "fig_shard: sharded execution lanes (fig13 topology, |p| = 7, 16 lanes)",
            family("shard-sweep", "s", registry.SHARD_SWEEP_SIZES),
            _fig_shard_gate,
        ),
        Figure(
            "fig_pipeline",
            "fig_pipeline: speculative execution, every third slot stalled 60 ms",
            {"off": get("pipeline-sweep-off"), "on": get("pipeline-sweep-on")},
            _fig_pipeline_gate,
        ),
        Figure(
            "fig_control",
            "fig_control: adaptive control plane vs static batch sizes (zipf s = 1.2)",
            {
                **family("zipf-sweep", "b", registry.ZIPF_SWEEP_BATCHES),
                "adaptive": get("zipf-sweep-adaptive"),
            },
            _fig_control_gate,
        ),
        Figure(
            "fig_control2",
            "fig_control2: shard splitting + conflict leases (zipf-hot, s = 1.4)",
            {
                "nosplit": get("zipf-hot-nosplit"),
                "split": get("zipf-hot-split"),
                "lease": get("lease-rejoin"),
            },
            _fig_control2_gate,
        ),
        Figure(
            "fig_churn",
            "fig_churn: durable recovery, every height-1 replica wiped and rejoined",
            {"nofault": get("churn-sweep-nofault"), "churn": get("churn-sweep")},
            _fig_churn_gate,
        ),
        Figure(
            "fig_scale100",
            "fig_scale100: 157 server domains, 1,099 server nodes",
            {"crash": get("fig_scale100"), "byz": get("fig_scale100-byz")},
            _fig_scale100_gate,
        ),
        Figure(
            "ablation-lca",
            "Ablation: LCA coordinators vs one global committee (100% cross-domain)",
            sweep(
                get("fig07c").with_clients(32),
                "engine",
                {"lca": SAGUARO_COORDINATOR, "single-committee": BASELINE_AHL},
            ),
            _ablation_lca_gate,
        ),
        Figure(
            "ablation-rounds",
            "Ablation: lazy-propagation round interval vs optimistic aborts (90% contention)",
            sweep(
                get("fig07b").with_overrides(
                    num_clients=24, engine=SAGUARO_OPTIMISTIC, contention_ratio=0.9
                ),
                "round_interval_ms",
                {"round-8ms": 8.0, "round-40ms": 40.0},
            ),
            _ablation_rounds_gate,
        ),
    ]
    return {figure.id: figure for figure in rows}


FIGURES: Dict[str, Figure] = _figures()


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def cell_pool() -> ProcessPoolExecutor:
    """One worker per core; create it once and pass it to :func:`run_figure`."""
    return ProcessPoolExecutor(
        max_workers=os.cpu_count(), mp_context=multiprocessing.get_context("spawn")
    )


def run_figure(figure: Figure, pool: ProcessPoolExecutor) -> Cells:
    """Run every cell across the pool's workers and print the figure's table.

    Cells are independent and seed-deterministic, and ``Executor.map`` yields
    in submission order, so the table is the one a serial run prints.
    """
    outcomes = pool.map(run_cell, figure.cells.values())
    cells = dict(zip(figure.cells, outcomes))
    width = max(len(label) for label in cells)
    print(f"\n{figure.title}\n{'-' * len(figure.title)}")
    for label, cell in cells.items():
        s = cell.summary
        print(
            f"{label:>{width}}  {s.throughput_tps:9.1f} tps  "
            f"avg {s.avg_latency_ms:8.2f}  p50 {s.p50_latency_ms:8.2f}  "
            f"p95 {s.p95_latency_ms:8.2f}  p99 {s.p99_latency_ms:8.2f} ms  "
            f"committed {s.committed:5d}  aborted {s.aborted:4d}  pending {s.pending:3d}"
        )
    return cells


_LEDGER_FIELDS = (
    "committed", "aborted", "pending", "throughput_tps",
    "p50_latency_ms", "p95_latency_ms", "p99_latency_ms", "abort_rate",
)  # fmt: skip


def ledger_rows(cells: Cells) -> Dict[str, Dict[str, float]]:
    """What ``BENCH_results.json`` records for one figure: label -> numbers."""
    rows = {}
    for label, cell in cells.items():
        rounded = cell.summary.as_dict()
        rows[label] = {name: rounded[name] for name in _LEDGER_FIELDS}
    return rows


def load_ledger() -> Dict[str, Dict[str, Dict[str, float]]]:
    with open(LEDGER_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def format_ledger(ledger: Mapping[str, Mapping[str, Mapping[str, float]]]) -> str:
    """One line per cell, so a re-record's diff names the cells that moved."""
    figures = []
    for figure_id, rows in ledger.items():
        lines = ",\n".join(
            f"    {json.dumps(label)}: {json.dumps(row)}" for label, row in rows.items()
        )
        figures.append(f"  {json.dumps(figure_id)}: {{\n{lines}\n  }}")
    return "{\n" + ",\n".join(figures) + "\n}\n"


def main() -> None:
    ledger = {}
    with cell_pool() as pool:
        for figure in FIGURES.values():
            cells = run_figure(figure, pool)
            figure.gate(cells)
            ledger[figure.id] = ledger_rows(cells)
    with open(LEDGER_PATH, "w", encoding="utf-8") as handle:
        handle.write(format_ledger(ledger))
    print(f"\nrecorded {len(ledger)} figures in {os.path.normpath(LEDGER_PATH)}")


if __name__ == "__main__":
    main()
