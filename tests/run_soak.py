"""Soak: what a long grouped cross-domain run keeps once it is decided.

Runs the ``wan-cross-grouped`` benchmark workload's scenario
(``xbatch-sweep-g008``, 600 clients) at 1,200 and at 9,600 transactions and
gates on deterministic counts only:

* nothing is left in flight or settled-but-whole: ``stuck_cross_domain_state``
  and ``settled_2pc_state`` are all zero at the end of both runs;
* what stays per decided transaction stays compact: the bytes of the
  outcome records (each coordinator replica's ``_Outcome``, each participant
  replica's committed vote and group votes, counted once each with the
  tuples they hold) per committed transaction differ by at most 1.1x
  between the two lengths, so they grow with the run, never faster.

It prints host seconds per transaction at both lengths and does not gate on
them (a shared runner's clock says little), and the tracemalloc peak of the
invariant check over its starting level (``tests/test_checker_memory.py``
gates that on a short churn run).  Not part of tier-1 — the file
name keeps it out of collection; CI's ``soak`` job runs it by path::

    PYTHONPATH=src python -m pytest tests/run_soak.py -q -s
"""

import sys
import time

import pytest

from repro.core.coordinator import CoordinatorCrossDomainProtocol
from repro.scenarios import materialize, registry
from tests.conftest import check_peak, settled_2pc_state, stuck_cross_domain_state

LENGTHS = (1_200, 9_600)


def record_bytes(deployment) -> int:
    """``sys.getsizeof`` of every outcome record the coordinator components
    keep, and of the tuples each holds, each object counted once."""
    seen = set()
    total = 0

    def count(value) -> None:
        nonlocal total
        if id(value) in seen:
            return
        seen.add(id(value))
        total += sys.getsizeof(value)
        for name in getattr(type(value), "__slots__", ()):
            held = getattr(value, name, None)
            if isinstance(held, tuple):
                count(held)

    for node in deployment.nodes.values():
        for component in node.components:
            if isinstance(component, CoordinatorCrossDomainProtocol):
                for table in (component._coord, component._part, component._pgroups):
                    for record in table.values():
                        count(record)
    return total


def _soak(transactions):
    scenario = registry.get("xbatch-sweep-g008").with_overrides(
        num_clients=600, num_transactions=transactions
    )
    run = materialize(scenario, 1)
    started = time.perf_counter()
    result = run.run()
    elapsed = time.perf_counter() - started
    summary = result.summary
    assert summary.pending == 0 and summary.committed == transactions
    stuck = stuck_cross_domain_state(run.deployment)
    assert stuck == dict.fromkeys(stuck, 0)
    assert settled_2pc_state(run.deployment) == {"states": 0, "groups": 0, "holding": 0}
    per_transaction = record_bytes(run.deployment) / summary.committed
    report, peak = check_peak(run)
    assert report.ok
    print(
        f"\n{transactions} transactions: host_run_s per transaction "
        f"{elapsed / transactions * 1e3:.3f} ms, outcome records "
        f"{per_transaction:.1f} B per committed transaction, check peak "
        f"{peak / 1024:.0f} KiB"
    )
    return per_transaction


@pytest.fixture(scope="module")
def record_bytes_per_transaction():
    return {length: _soak(length) for length in LENGTHS}


def test_records_grow_with_the_run_and_no_faster(record_bytes_per_transaction):
    short, long = (record_bytes_per_transaction[length] for length in LENGTHS)
    assert short > 0
    assert max(short, long) / min(short, long) <= 1.1, (short, long)
