"""What the invariant check allocates, gated on a count (tracemalloc bytes).

The trace passes keep one first-seen value per key, and sets only for keys
that showed two values; batches are let go as their instant passes.  On a
``churn-sweep`` run (128 transactions, every height-1 replica wiped and
rejoined) the whole ``check()`` peaks over its starting level at about
106 KiB on Python 3.11 and 3.12 and 146 KiB on 3.10 (most of it the state
replay), against about 352 KiB for the reference pass bodies
(``tests/reference_invariants.py``), which keep a set per vote key.  The
bound leaves 30 % above the 3.10 figure and stays well below the
reference's, which the test also measures, so it fails if the passes go
back to a set per key.
"""

import pytest

from repro.faults.invariants import InvariantChecker
from repro.scenarios import materialize, registry
from tests.conftest import check_peak
from tests.reference_invariants import ReferenceChecker

#: Bytes ``check()`` may allocate above its starting level at its peak.
CHECK_PEAK_BOUND = 192 * 1024


@pytest.fixture(scope="module")
def churn_run():
    run = materialize(registry.get("churn-sweep"), 1)
    run.run()
    return run


def _peak(checker_class, run) -> int:
    report, peak = check_peak(run, checker_class)
    assert report.ok and "recovery-safety" in report.checks_run
    return peak


def test_the_check_peak_stays_under_its_bound(churn_run):
    assert _peak(InvariantChecker, churn_run) <= CHECK_PEAK_BOUND


def test_the_reference_passes_break_the_bound(churn_run):
    assert _peak(ReferenceChecker, churn_run) > CHECK_PEAK_BOUND
