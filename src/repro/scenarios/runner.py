"""Materialise and execute scenarios; collect structured results.

The runner is the only place where a :class:`~repro.scenarios.spec.Scenario`
meets live objects: it builds the hierarchy, application, workload, and
deployment for one seed, arms the fault plan, runs the workload, and
wraps the outcome in serialisable :class:`RunResult` / :class:`ResultSet`
records.  Grid sweeps reuse the same machinery — every (override, seed) cell
is an independent, reproducible run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import PerformanceSummary
from repro.errors import ConfigurationError, ExperimentError
from repro.faults.invariants import InvariantChecker, InvariantReport
from repro.faults.trace import TraceRecorder
from repro.scenarios.spec import BASELINE_AHL, Scenario
from repro.serde import check_known_keys
from repro.workloads.generator import Workload, WorkloadGenerator

__all__ = ["LoadPoint", "RunResult", "ResultSet", "ScenarioRun", "ScenarioRunner"]


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadPoint:
    """One point of a throughput-versus-latency curve."""

    clients: int
    throughput_tps: float
    avg_latency_ms: float
    p95_latency_ms: float
    abort_rate: float
    summary: PerformanceSummary


@dataclass(frozen=True)
class RunResult:
    """The outcome of one (scenario, overrides, seed) execution."""

    scenario: str
    engine: str
    seed: int
    num_clients: int
    summary: PerformanceSummary
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Per recovered node: simulated ms from its wipe (``fault:wipe``) to its
    #: completed rejoin (``recovery:rejoin``).  One entry per recovery, in
    #: rejoin order; empty on runs without amnesia crashes.
    time_to_rejoin_ms: Tuple[Tuple[str, float], ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def as_load_point(self) -> LoadPoint:
        return LoadPoint(
            clients=self.num_clients,
            throughput_tps=self.summary.throughput_tps,
            avg_latency_ms=self.summary.avg_latency_ms,
            p95_latency_ms=self.summary.p95_latency_ms,
            abort_rate=self.summary.abort_rate,
            summary=self.summary,
        )

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "scenario": self.scenario,
            "engine": self.engine,
            "seed": self.seed,
            "num_clients": self.num_clients,
            "params": [[key, value] for key, value in self.params],
            "summary": asdict(self.summary),
        }
        # Emitted only when recoveries happened, so runs without amnesia
        # crashes serialise exactly as they always did (golden stability).
        if self.time_to_rejoin_ms:
            data["time_to_rejoin_ms"] = [
                [node, delta] for node, delta in self.time_to_rejoin_ms
            ]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        check_known_keys(data, [f.name for f in fields(cls)], "RunResult")
        return cls(
            scenario=data["scenario"],
            engine=data["engine"],
            seed=data["seed"],
            num_clients=data["num_clients"],
            params=tuple((key, value) for key, value in data.get("params", ())),
            summary=PerformanceSummary(**data["summary"]),
            time_to_rejoin_ms=tuple(
                (node, delta)
                for node, delta in data.get("time_to_rejoin_ms", ())
            ),
        )


class ResultSet:
    """An ordered collection of :class:`RunResult` with aggregation helpers."""

    def __init__(self, results: Sequence[RunResult] = ()) -> None:
        self.results: Tuple[RunResult, ...] = tuple(results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> RunResult:
        return self.results[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResultSet) and self.results == other.results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({len(self.results)} runs)"

    # ------------------------------------------------------------------ selection

    def seeds(self) -> Tuple[int, ...]:
        return tuple(sorted({r.seed for r in self.results}))

    def filter(self, **params: Any) -> "ResultSet":
        """Results whose sweep params (or num_clients/seed) match exactly."""
        selected = []
        for result in self.results:
            match = True
            for key, value in params.items():
                if key in ("seed", "num_clients", "scenario", "engine"):
                    match = getattr(result, key) == value
                else:
                    match = result.param(key) == value
                if not match:
                    break
            if match:
                selected.append(result)
        return ResultSet(selected)

    def grouped(self, key: str) -> "Dict[Any, ResultSet]":
        """Group results by one sweep axis (insertion-ordered)."""
        groups: Dict[Any, List[RunResult]] = {}
        for result in self.results:
            value = (
                getattr(result, key)
                if key in ("seed", "num_clients", "scenario", "engine")
                else result.param(key)
            )
            groups.setdefault(value, []).append(result)
        return {value: ResultSet(runs) for value, runs in groups.items()}

    # ------------------------------------------------------------------ aggregation

    def mean(self, attribute: str) -> float:
        """Mean of one :class:`PerformanceSummary` attribute across runs."""
        if not self.results:
            raise ExperimentError("cannot aggregate an empty result set")
        values = [getattr(r.summary, attribute) for r in self.results]
        return sum(values) / len(values)

    def aggregate(self) -> Dict[str, float]:
        """Per-seed means of the headline metrics."""
        return {
            "runs": float(len(self.results)),
            "throughput_tps": self.mean("throughput_tps"),
            "avg_latency_ms": self.mean("avg_latency_ms"),
            "p95_latency_ms": self.mean("p95_latency_ms"),
            "abort_rate": self.mean("abort_rate"),
            "committed": self.mean("committed"),
            "aborted": self.mean("aborted"),
        }

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict[str, Any]:
        return {"results": [result.to_dict() for result in self.results]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultSet":
        check_known_keys(data, ("results",), "ResultSet")
        return cls([RunResult.from_dict(entry) for entry in data.get("results", ())])


# ---------------------------------------------------------------------------
# Materialisation
# ---------------------------------------------------------------------------


@dataclass
class ScenarioRun:
    """One materialised scenario run: live deployment + workload + outcome.

    Unlike :class:`RunResult` this holds the live simulation objects, so
    examples and tests can inspect ledgers, state stores, and summarized views
    after the run.  Not serialisable by design.
    """

    scenario: Scenario
    seed: int
    deployment: Any
    workload: Workload
    summary: Optional[PerformanceSummary] = None

    @property
    def executed(self) -> bool:
        return self.summary is not None

    @property
    def trace(self) -> Optional[TraceRecorder]:
        """The run's recorded protocol event trace."""
        return getattr(self.deployment, "trace", None)

    def expect_liveness(self) -> bool:
        """Whether bounded liveness should hold for this scenario's faults."""
        return self.scenario.fault_plan.within_tolerance(self.deployment.hierarchy)

    def check_invariants(
        self, expect_liveness: Optional[bool] = None
    ) -> InvariantReport:
        """Run the :class:`InvariantChecker` over this executed run.

        Raises :class:`~repro.errors.InvariantViolationError` on any
        violation.  ``expect_liveness`` defaults to an automatic decision:
        liveness is asserted only when the scenario's faults stay within each
        domain's tolerance.
        """
        if expect_liveness is None:
            expect_liveness = self.expect_liveness()
        checker = InvariantChecker(self.deployment, trace=self.trace)
        return checker.assert_ok(expect_liveness=expect_liveness)

    def run(self) -> RunResult:
        """Execute the workload (once) and return the structured result."""
        if self.summary is None:
            self.summary = self.deployment.run_workload(
                self.workload.transactions,
                max_simulated_ms=self.scenario.max_simulated_ms,
                drain_ms=self.scenario.drain_ms,
                think_time_ms=self.scenario.think_time_ms,
            )
        return RunResult(
            scenario=self.scenario.name,
            engine=self.scenario.engine,
            seed=self.seed,
            num_clients=self.scenario.num_clients,
            summary=self.summary,
            time_to_rejoin_ms=_rejoin_times(self.trace),
        )


def _rejoin_times(trace: Optional[TraceRecorder]) -> Tuple[Tuple[str, float], ...]:
    """Per-node wipe-to-rejoin deltas, one entry per completed recovery.

    Each ``recovery:rejoin`` is matched to that node's *earliest* unmatched
    ``fault:wipe`` (pop-on-match), so the delta covers the full outage even
    when the fault plan wipes the node again before it recovers.
    """
    if trace is None:
        return ()
    wiped: Dict[str, List[float]] = {}
    deltas: List[Tuple[str, float]] = []
    for event in trace.events():
        if event.kind == "fault:wipe":
            wiped.setdefault(event.node, []).append(event.at_ms)
        elif event.kind == "recovery:rejoin":
            pending = wiped.get(event.node)
            if pending:
                deltas.append((event.node, event.at_ms - pending.pop(0)))
    return tuple(deltas)


def materialize(scenario: Scenario, seed: Optional[int] = None) -> ScenarioRun:
    """Build the live deployment and workload for one seed, without running.

    The workload is generated (and its clients registered with the
    application) *before* the deployment instantiates nodes, so that every
    mobile device's personal account exists in its home domain's state.
    """
    from repro.baselines.deployment import AHL, SHARPER, BaselineDeployment
    from repro.core.system import SaguaroDeployment

    if seed is None:
        seed = scenario.seeds[0]
    config = scenario.deployment_config(seed)
    hierarchy = scenario.build_hierarchy()
    workload = WorkloadGenerator(
        hierarchy,
        scenario.workload.to_workload_config(seed),
        num_clients=scenario.num_clients,
        style=scenario.workload.style,
        ride_hours=scenario.workload.ride_hours,
        ride_fare=scenario.workload.ride_fare,
    ).generate()
    application = scenario.build_application()
    workload.configure_application(application)
    if scenario.is_baseline:
        deployment = BaselineDeployment(
            system=AHL if scenario.engine == BASELINE_AHL else SHARPER,
            config=config,
            application=application,
            hierarchy=hierarchy,
        )
    else:
        deployment = SaguaroDeployment(
            config=config, application=application, hierarchy=hierarchy
        )
    scenario.fault_plan.arm(deployment)
    return ScenarioRun(
        scenario=scenario, seed=seed, deployment=deployment, workload=workload
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _execute_cell(payload: Tuple[Scenario, int, bool]) -> RunResult:
    """Run one (scenario, seed) cell; the unit of work for parallel sweeps.

    Module-level so worker processes can import it; the scenario and the
    returned :class:`RunResult` both travel by pickle, which preserves every
    float bit-exactly — a parallel sweep is therefore indistinguishable from
    a serial one.
    """
    scenario, seed, check = payload
    run = materialize(scenario, seed)
    result = run.run()
    if check:
        run.check_invariants()
    return result


class ScenarioRunner:
    """Executes scenarios: single runs, seed replication, and grid sweeps.

    With ``check_invariants=True`` every executed run is verified by the
    :class:`~repro.faults.invariants.InvariantChecker` before its result is
    returned (safety always; liveness when the scenario's faults are within
    tolerance), turning each figure into a checked execution.  The per-call
    ``check_invariants`` argument overrides the constructor default.

    With ``parallel=N`` (constructor default or per-call override on
    :meth:`run`, :meth:`sweep`, and :meth:`sweep_grid`), the independent
    (override, seed) cells fan out across ``N`` worker processes.  Every run
    is deterministic and isolated, and results are merged back in row-major
    cell order, so the returned :class:`ResultSet` is identical to the serial
    one — bit for bit, not just statistically.
    """

    def __init__(
        self, check_invariants: bool = False, parallel: Optional[int] = None
    ) -> None:
        self.check_invariants = check_invariants
        self.parallel = self._validate_parallel(parallel)

    def _should_check(self, check_invariants: Optional[bool]) -> bool:
        return self.check_invariants if check_invariants is None else check_invariants

    @staticmethod
    def _validate_parallel(parallel: Optional[int]) -> Optional[int]:
        if parallel is None:
            return None
        if isinstance(parallel, bool) or not isinstance(parallel, int):
            raise ConfigurationError(
                f"parallel must be an int >= 1 or None, got {parallel!r}"
            )
        if parallel < 1:
            raise ConfigurationError(f"parallel must be >= 1, got {parallel}")
        return parallel

    def _resolve_parallel(self, parallel: Optional[int]) -> int:
        value = self._validate_parallel(parallel)
        if value is None:
            value = self.parallel
        return 1 if value is None else value

    def _run_cells(
        self, cells: Sequence[Tuple[Scenario, int]], check: bool, workers: int
    ) -> List[RunResult]:
        """Execute cells serially or across processes; order is preserved."""
        payloads = [(scenario, seed, check) for scenario, seed in cells]
        if workers > 1 and len(cells) > 1:
            from concurrent.futures import ProcessPoolExecutor

            # Executor.map yields results in submission order regardless of
            # which worker finishes first, keeping the merge deterministic.
            with ProcessPoolExecutor(
                max_workers=min(workers, len(cells))
            ) as executor:
                return list(executor.map(_execute_cell, payloads))
        return [_execute_cell(payload) for payload in payloads]

    def execute(
        self,
        scenario: Scenario,
        seed: Optional[int] = None,
        check_invariants: Optional[bool] = None,
    ) -> ScenarioRun:
        """Run one seed and return the live :class:`ScenarioRun` for inspection."""
        run = materialize(scenario, seed)
        run.run()
        if self._should_check(check_invariants):
            run.check_invariants()
        return run

    def run(
        self,
        scenario: Scenario,
        check_invariants: Optional[bool] = None,
        parallel: Optional[int] = None,
    ) -> ResultSet:
        """Run every seed of the scenario; one :class:`RunResult` per seed."""
        check = self._should_check(check_invariants)
        workers = self._resolve_parallel(parallel)
        cells = [(scenario, seed) for seed in scenario.seeds]
        return ResultSet(self._run_cells(cells, check, workers))

    # ------------------------------------------------------------------ sweeps

    def sweep(
        self,
        scenario: Scenario,
        over: str,
        values: Sequence[Any],
        check_invariants: Optional[bool] = None,
        parallel: Optional[int] = None,
    ) -> ResultSet:
        """Sweep one knob: for each value, override the scenario and run all seeds.

        ``over`` may be any :meth:`Scenario.with_overrides` key —
        ``"num_clients"``, ``"cross_domain_ratio"``, ``"mobile_ratio"``,
        ``"faults"``, ``"engine"``, ...  Results are tagged with
        ``params=((over, value),)`` so curves can be regrouped afterwards.
        """
        if not values:
            raise ConfigurationError("sweep() needs at least one value")
        return self.sweep_grid(
            scenario,
            {over: values},
            check_invariants=check_invariants,
            parallel=parallel,
        )

    def sweep_grid(
        self,
        scenario: Scenario,
        grid: Mapping[str, Sequence[Any]],
        check_invariants: Optional[bool] = None,
        parallel: Optional[int] = None,
    ) -> ResultSet:
        """Cartesian sweep over several knobs at once (row-major order)."""
        if not grid:
            raise ConfigurationError("sweep_grid() needs at least one axis")
        axes = [(key, tuple(values)) for key, values in grid.items()]
        for key, values in axes:
            if not values:
                raise ConfigurationError(f"sweep axis {key!r} has no values")
        check = self._should_check(check_invariants)
        workers = self._resolve_parallel(parallel)
        cells: List[Tuple[Scenario, int]] = []
        combos: List[Tuple[Tuple[str, Any], ...]] = []
        for combo in _cartesian(axes):
            derived = scenario.with_overrides(**dict(combo))
            for seed in derived.seeds:
                cells.append((derived, seed))
                combos.append(combo)
        outcomes = self._run_cells(cells, check, workers)
        results = [
            RunResult(
                scenario=outcome.scenario,
                engine=outcome.engine,
                seed=outcome.seed,
                num_clients=outcome.num_clients,
                summary=outcome.summary,
                params=combo,
                time_to_rejoin_ms=outcome.time_to_rejoin_ms,
            )
            for combo, outcome in zip(combos, outcomes)
        ]
        return ResultSet(results)


def _cartesian(
    axes: Sequence[Tuple[str, Tuple[Any, ...]]]
) -> Iterator[Tuple[Tuple[str, Any], ...]]:
    if not axes:
        yield ()
        return
    key, values = axes[0]
    for value in values:
        for rest in _cartesian(axes[1:]):
            yield ((key, value),) + rest
