"""Determinism regression: same scenario + same seed ⇒ bit-identical results.

Every registered scenario (paper figures and adversarial fault plans alike) is
run twice with the same seed — once in each of two worker processes — and the
structured :class:`RunResult`, the full recorded event trace and the executed
event count must match byte for byte.  Scenarios are scaled down so the whole
sweep stays fast — determinism does not depend on workload size.
"""

import pytest

from repro.scenarios import registry
from tests.conftest import run_canonical


def _unique_scenarios():
    seen = set()
    unique = []
    for name, scenario in registry.items():
        if id(scenario) in seen:
            continue  # bare figure names alias panel (a)
        seen.add(id(scenario))
        unique.append((name, scenario))
    return unique


def _scaled(scenario):
    return scenario.with_overrides(
        num_transactions=min(scenario.workload.num_transactions, 24),
        num_clients=min(scenario.num_clients, 4),
    )


@pytest.mark.parametrize(
    "name,scenario",
    _unique_scenarios(),
    ids=[name for name, _ in _unique_scenarios()],
)
def test_scenario_is_bit_identical_across_runs(name, scenario, two_workers):
    scaled = _scaled(scenario)
    first, second = two_workers.map(run_canonical, [scaled, scaled])
    for once, again in zip(first, second):  # result, trace, events, kinds
        assert once == again
