"""Saguaro: an edge computing-enabled hierarchical permissioned blockchain.

This package reproduces the system described in "Saguaro: An Edge
Computing-Enabled Hierarchical Permissioned Blockchain" (ICDE 2023): a
hierarchical permissioned blockchain in which height-1 (edge-server) domains
execute transactions, the lowest common ancestor of the involved domains
coordinates cross-domain transactions, ledgers are lazily propagated and
summarized up the hierarchy, cross-domain transactions can be processed
optimistically, and mobile edge devices are supported through a dedicated
state-transfer protocol.

The public entry points most users need:

* :class:`repro.scenarios.Scenario` / :class:`repro.scenarios.ScenarioRunner`
  — describe a whole experiment as one serialisable spec, then run or sweep
  it (the recommended entry point; ``repro.scenarios.registry`` holds the
  paper's Figure 7–13 setups).
* :class:`repro.core.SaguaroDeployment` — build and run a simulated deployment.
* :class:`repro.common.DeploymentConfig` / :class:`repro.common.WorkloadConfig`
  — describe the deployment and the workload.
* :class:`repro.workloads.WorkloadGenerator` and the micropayment /
  ridesharing applications.
* :mod:`repro.baselines` — the AHL and SharPer comparison systems.
"""

from repro.common import (
    CrossDomainProtocol,
    DeploymentConfig,
    DomainSpec,
    FailureModel,
    HierarchySpec,
    RoundConfig,
    TimerConfig,
    WorkloadConfig,
)
from repro.core import SaguaroDeployment
from repro.scenarios import (
    ResultSet,
    RunResult,
    Scenario,
    ScenarioRunner,
    TopologySpec,
    WorkloadSpec,
)
from repro.workloads import (
    MicropaymentApplication,
    RidesharingApplication,
    Workload,
    WorkloadGenerator,
)

__version__ = "1.1.0"

__all__ = [
    "CrossDomainProtocol",
    "DeploymentConfig",
    "DomainSpec",
    "FailureModel",
    "HierarchySpec",
    "RoundConfig",
    "TimerConfig",
    "WorkloadConfig",
    "SaguaroDeployment",
    "Scenario",
    "ScenarioRunner",
    "RunResult",
    "ResultSet",
    "TopologySpec",
    "WorkloadSpec",
    "MicropaymentApplication",
    "RidesharingApplication",
    "Workload",
    "WorkloadGenerator",
    "__version__",
]
