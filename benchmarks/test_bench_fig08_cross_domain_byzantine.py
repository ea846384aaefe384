"""Figure 8: cross-domain transactions with Byzantine domains, nearby regions."""

import pytest

from repro.common.types import FailureModel

from figure_common import (
    assert_saguaro_not_worse_than_ahl,
    cross_domain_figure,
)


@pytest.mark.parametrize("cross_ratio,label", [(0.2, "a"), (0.8, "b"), (1.0, "c")])
def test_figure8_cross_domain_byzantine(benchmark, cross_ratio, label):
    def run():
        return cross_domain_figure(
            title=(
                f"Figure 8({label}): {int(cross_ratio * 100)}% cross-domain, "
                "Byzantine domains, nearby EU regions"
            ),
            cross_domain_ratio=cross_ratio,
            failure_model=FailureModel.BYZANTINE,
            latency_profile="nearby-eu",
            figure=f"fig08{label}",
        )

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    assert_saguaro_not_worse_than_ahl(series)


def test_figure8_byzantine_costs_more_than_crash(benchmark):
    """§8.1: Byzantine domains show lower throughput / higher latency than CFT."""
    from figure_common import run_once, _base_config  # type: ignore

    # figure_base scenarios run the coordinator engine.
    def run():
        crash = run_once(
            _base_config(FailureModel.CRASH, "nearby-eu", 0.2).with_clients(24)
        )
        byzantine = run_once(
            _base_config(FailureModel.BYZANTINE, "nearby-eu", 0.2).with_clients(24)
        )
        return crash, byzantine

    crash, byzantine = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\ncrash-only: {crash.throughput_tps:.1f} tps @ {crash.avg_latency_ms:.2f} ms | "
        f"Byzantine: {byzantine.throughput_tps:.1f} tps @ {byzantine.avg_latency_ms:.2f} ms"
    )
    assert byzantine.throughput_tps < crash.throughput_tps
    assert byzantine.avg_latency_ms > crash.avg_latency_ms
