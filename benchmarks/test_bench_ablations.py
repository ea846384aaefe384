"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. **LCA coordinator vs. single global coordinator** — the benefit of picking
   the lowest common ancestor (and thereby spreading coordination over several
   domains) instead of routing every cross-domain transaction through one
   committee.  This is exactly Saguaro-coordinator vs. AHL on the same
   workload, isolated at a high cross-domain ratio.
2. **Lazy-propagation round interval** — shorter rounds let higher-level
   domains detect optimistic ordering inconsistencies earlier, which bounds
   cascading aborts (§6 notes the optimistic protocol uses smaller intervals).
"""

import pytest

from repro.common.types import FailureModel
from repro.scenarios import (
    BASELINE_AHL,
    SAGUARO_COORDINATOR,
    SAGUARO_OPTIMISTIC,
    Scenario,
    ScenarioRunner,
    registry,
)


def _summary(scenario: Scenario):
    return ScenarioRunner().run(scenario)[0].summary


def test_ablation_lca_vs_single_coordinator(benchmark):
    def run():
        base = registry.figure_base(
            "ablation-lca", FailureModel.CRASH, "nearby-eu",
            cross_domain_ratio=1.0, num_clients=32,
        )
        saguaro = _summary(base.with_engine(SAGUARO_COORDINATOR))
        single = _summary(base.with_engine(BASELINE_AHL))
        return saguaro, single

    saguaro, single = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nLCA coordinators: {saguaro.throughput_tps:.1f} tps @ {saguaro.avg_latency_ms:.2f} ms | "
        f"single committee: {single.throughput_tps:.1f} tps @ {single.avg_latency_ms:.2f} ms"
    )
    # Distributing coordination over the hierarchy must not be slower than
    # funnelling everything through one committee.
    assert saguaro.throughput_tps >= 0.9 * single.throughput_tps


@pytest.mark.parametrize("intervals", [(8.0, 40.0)])
def test_ablation_round_interval_vs_aborts(benchmark, intervals):
    short_interval, long_interval = intervals

    def run():
        base = registry.figure_base(
            "ablation-rounds", FailureModel.CRASH, "nearby-eu",
            cross_domain_ratio=0.8, num_clients=24,
        ).with_overrides(engine=SAGUARO_OPTIMISTIC, contention_ratio=0.9)
        return {
            interval: _summary(base.with_overrides(round_interval_ms=interval))
            for interval in (short_interval, long_interval)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    short, long = results[short_interval], results[long_interval]
    print(
        f"\nround {short_interval} ms: abort rate {short.abort_rate:.3f} | "
        f"round {long_interval} ms: abort rate {long.abort_rate:.3f}"
    )
    # Faster rounds mean earlier inconsistency detection, hence no more (and
    # usually fewer) cascaded aborts than with slow rounds.
    assert short.abort_rate <= long.abort_rate + 0.05
