"""Tests for metrics collection and benchmark reporting helpers."""

import pytest

from repro.scenarios import LoadPoint
from repro.analysis.metrics import MetricsCollector, PerformanceSummary
from repro.analysis.reporting import (
    format_summary_row,
    latency_at_peak,
    peak_throughput,
)
from repro.common.types import TransactionId, TransactionKind
from repro.errors import ExperimentError


def _tid(number):
    return TransactionId(number=number)


class TestMetricsCollector:
    def test_commit_latency_and_throughput(self):
        metrics = MetricsCollector()
        for number in range(1, 11):
            metrics.record_issue(_tid(number), TransactionKind.INTERNAL, issued_at=0.0)
            metrics.record_commit(_tid(number), committed_at=100.0)
        summary = metrics.summary()
        assert summary.committed == 10
        assert summary.avg_latency_ms == pytest.approx(100.0)
        assert summary.throughput_tps == pytest.approx(10 / 0.1)

    def test_double_issue_rejected(self):
        metrics = MetricsCollector()
        metrics.record_issue(_tid(1), TransactionKind.INTERNAL, 0.0)
        with pytest.raises(ExperimentError):
            metrics.record_issue(_tid(1), TransactionKind.INTERNAL, 1.0)

    def test_duplicate_commits_keep_first_timestamp(self):
        metrics = MetricsCollector()
        metrics.record_issue(_tid(1), TransactionKind.INTERNAL, 0.0)
        metrics.record_commit(_tid(1), 10.0)
        metrics.record_commit(_tid(1), 50.0)
        assert metrics.record(_tid(1)).latency_ms == 10.0

    def test_unknown_commit_and_abort_are_ignored(self):
        metrics = MetricsCollector()
        metrics.record_commit(_tid(9), 1.0)
        metrics.record_abort(_tid(9), 1.0)
        assert len(metrics) == 0

    def test_abort_excludes_from_committed(self):
        metrics = MetricsCollector()
        metrics.record_issue(_tid(1), TransactionKind.CROSS_DOMAIN, 0.0)
        metrics.record_commit(_tid(1), 5.0)
        metrics.record_abort(_tid(1), 20.0, reason="inconsistency")
        summary = metrics.summary()
        assert summary.committed == 0
        assert summary.aborted == 1
        assert summary.abort_rate == 1.0

    def test_pending_transactions_counted(self):
        metrics = MetricsCollector()
        metrics.record_issue(_tid(1), TransactionKind.INTERNAL, 0.0)
        metrics.record_issue(_tid(2), TransactionKind.INTERNAL, 0.0)
        metrics.record_commit(_tid(1), 5.0)
        assert metrics.summary().pending == 1

    def test_percentiles_are_ordered(self):
        metrics = MetricsCollector()
        for number in range(1, 101):
            metrics.record_issue(_tid(number), TransactionKind.INTERNAL, 0.0)
            metrics.record_commit(_tid(number), float(number))
        summary = metrics.summary()
        assert summary.p50_latency_ms <= summary.p95_latency_ms <= summary.p99_latency_ms
        assert summary.p50_latency_ms == pytest.approx(50.0)
        assert summary.p99_latency_ms == pytest.approx(99.0)

    def test_empty_summary_is_all_zero(self):
        summary = MetricsCollector().summary()
        assert summary.committed == 0
        assert summary.throughput_tps == 0.0
        assert summary.abort_rate == 0.0

    def test_as_dict_is_json_friendly(self):
        metrics = MetricsCollector()
        metrics.record_issue(_tid(1), TransactionKind.INTERNAL, 0.0)
        metrics.record_commit(_tid(1), 2.0)
        data = metrics.summary().as_dict()
        assert set(data) >= {"committed", "throughput_tps", "avg_latency_ms"}


def _point(clients, tput, latency):
    summary = PerformanceSummary(
        committed=100,
        aborted=0,
        pending=0,
        duration_ms=1000.0,
        throughput_tps=tput,
        avg_latency_ms=latency,
        p50_latency_ms=latency,
        p95_latency_ms=latency * 2,
        p99_latency_ms=latency * 3,
        abort_rate=0.0,
    )
    return LoadPoint(
        clients=clients,
        throughput_tps=tput,
        avg_latency_ms=latency,
        p95_latency_ms=latency * 2,
        abort_rate=0.0,
        summary=summary,
    )


class TestReporting:
    def test_peak_and_latency_at_peak(self):
        points = [_point(4, 100.0, 5.0), _point(16, 400.0, 9.0), _point(64, 380.0, 30.0)]
        assert peak_throughput(points) == 400.0
        assert latency_at_peak(points) == 9.0
        assert peak_throughput([]) == 0.0

    def test_format_summary_row(self):
        summary = _point(4, 120.0, 3.0).summary
        row = format_summary_row("Opt-10%C", summary)
        assert "Opt-10%C" in row and "120.0" in row
