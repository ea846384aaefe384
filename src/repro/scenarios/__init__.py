"""Declarative scenarios: one serialisable spec to build, sweep, and run
any Saguaro experiment.

* :class:`Scenario` — frozen, JSON round-trippable description of one
  experiment (engine + topology + application + workload + fault plan +
  seeds); build one fluently with ``Scenario.build()...finish()``.
* :class:`ScenarioRunner` — executes a spec (or a sweep grid) and returns
  structured :class:`RunResult` / :class:`ResultSet` records.
* :mod:`repro.scenarios.registry` — named scenarios, pre-populated with the
  paper's Figure 7–13 setups (``registry.get("fig07a")``).
"""

from repro.scenarios import registry
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.runner import (
    LoadPoint,
    ResultSet,
    RunResult,
    ScenarioRun,
    ScenarioRunner,
    materialize,
)
from repro.scenarios.spec import (
    BASELINE_AHL,
    BASELINE_SHARPER,
    ENGINES,
    SAGUARO_COORDINATOR,
    SAGUARO_OPTIMISTIC,
    ApplicationSpec,
    DomainOverride,
    FaultAction,
    FaultPlan,
    Scenario,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "registry",
    "Scenario",
    "ScenarioBuilder",
    "ScenarioRunner",
    "ScenarioRun",
    "RunResult",
    "ResultSet",
    "LoadPoint",
    "materialize",
    "TopologySpec",
    "ApplicationSpec",
    "WorkloadSpec",
    "DomainOverride",
    "FaultAction",
    "FaultPlan",
    "SAGUARO_COORDINATOR",
    "SAGUARO_OPTIMISTIC",
    "BASELINE_AHL",
    "BASELINE_SHARPER",
    "ENGINES",
]
