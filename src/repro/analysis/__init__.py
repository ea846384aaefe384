"""Metrics and reporting utilities.

Only the metrics primitives are re-exported eagerly; the reporting helpers
live in :mod:`repro.analysis.reporting` and are imported lazily on attribute
access to avoid a circular import with :mod:`repro.core` (core nodes record
metrics, and reporting formats the scenario runner's results).
"""

from repro.analysis.metrics import MetricsCollector, PerformanceSummary, TransactionRecord

_REPORTING_NAMES = ("format_summary_row", "latency_at_peak", "peak_throughput")

__all__ = [
    "MetricsCollector",
    "PerformanceSummary",
    "TransactionRecord",
    *_REPORTING_NAMES,
]


def __getattr__(name):
    if name in _REPORTING_NAMES:
        from repro.analysis import reporting

        return getattr(reporting, name)
    raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
