"""Three-domain cross-domain commit (ROADMAP item 1): the known safety bugs
and the quiescence sweep, plus one liveness loss under churn, and the
checkpoint-root sweep.

Each JSON case is a run that once broke the invariant it names.  Two pins per
case: the invariant holds, and the participants end the run holding nothing.
Cases in ``STILL_RED`` still break their invariant and are checked in red.
The sweep runs ``lease-rejoin`` over seeds 1-20 at ``xdomain_batch_size`` 1
and 3 with static control and asks every run to end with nothing in flight.
The checkpoint-root sweep runs ``churn-sweep`` and ``churn-sweep-primaries``
over seeds 1-10 and checks every certified checkpoint root, which a replica
maintains from its state store's version-ordered key map, against a full
re-hash of the snapshot (tier-1 runs seed 1 of each).

Not part of tier-1 — the file name keeps it out of collection; CI's
``regressions`` job runs it by path::

    PYTHONPATH=src python -m pytest tests/regressions/run_regressions.py -q

``xfail(strict=True)`` turns the job red the moment a red case stops failing,
so the PR that fixes it must also take it out of ``STILL_RED`` (and may then
move the cases into tier-1 as plain passing scenarios).
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.common.config import ControlPolicy
from repro.errors import InvariantViolationError
from repro.faults.invariants import InvariantChecker
from repro.scenarios import Scenario, materialize, registry
from tests.conftest import (
    PARTICIPANT_HOLDINGS,
    checkpoints_rehashed,
    stuck_cross_domain_state,
)

HERE = Path(__file__).parent
CASES = sorted(HERE.glob("*.json"))

#: Cases that still break their invariant: conflicting transactions ordered
#: differently across domains (lead B, left to ROADMAP 1(d)), and a
#: transaction that never finishes under adaptive control with churn
#: (finding F).  Lead B is timing-dependent: since lazy rounds with nothing
#: new are no longer sent, ``lease-rejoin-g3-static-seed09`` and
#: ``lease-rejoin-seed10`` pass and stay as plain pins, and the sweep's
#: ``g=3`` seeds 1, 4 and 13 break replica-consistency instead.
STILL_RED = {
    "churn-sweep-adaptive-seed2023",
    "lease-rejoin-g3-static-seed04",
}
RED = pytest.mark.xfail(strict=True, raises=InvariantViolationError)


@lru_cache(maxsize=None)
def _finished_run(path):
    """One run per case, shared by both pins."""
    case = json.loads(path.read_text(encoding="utf-8"))
    run = materialize(Scenario.from_dict(case["scenario"]), case["seed"])
    run.run()
    return case, run


@pytest.mark.parametrize(
    "path",
    [
        pytest.param(path, id=path.stem, marks=RED if path.stem in STILL_RED else ())
        for path in CASES
    ],
)
def test_known_violation(path):
    case, run = _finished_run(path)
    report = InvariantChecker(run.deployment, trace=run.trace).check(
        expect_liveness=run.expect_liveness()
    )
    if not report.ok:
        # Any other invariant breaking is a new bug, not the one pinned here.
        assert report.of(case["invariant"]), report.violations
    report.raise_if_violated()


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_participants_quiescent(path):
    """Lead A at its source: no held prepare, prepared-undecided state or
    deferred commit outlives the run on the participants."""
    _, run = _finished_run(path)
    stuck = stuck_cross_domain_state(run.deployment)
    assert {key: stuck[key] for key in PARTICIPANT_HOLDINGS} == dict.fromkeys(
        PARTICIPANT_HOLDINGS, 0
    ), stuck


def three_domain_cell(cell):
    """One sweep run: (g, seed, pending, non-zero stuck counts)."""
    group_size, seed = cell
    base = json.loads((HERE / "lease-rejoin-seed02.json").read_text(encoding="utf-8"))
    scenario = Scenario.from_dict(base["scenario"]).with_overrides(
        control=ControlPolicy(), num_transactions=160, xdomain_batch_size=group_size
    )
    run = materialize(scenario, seed)
    summary = run.run().summary
    stuck = stuck_cross_domain_state(run.deployment)
    return group_size, seed, summary.pending, {k: v for k, v in stuck.items() if v}


def test_three_domain_sweep_quiescent(two_workers):
    """Every run of the sweep ends with nothing pending and nothing in flight
    on any replica: no coordinator state (``coord_live_replicas`` included),
    no queued or held prepare, no prepared-undecided state, no deferred
    commit."""
    cells = [(group_size, seed) for group_size in (1, 3) for seed in range(1, 21)]
    unfinished = {
        f"g={group_size} seed={seed}": (pending, stuck)
        for group_size, seed, pending, stuck in two_workers.map(three_domain_cell, cells)
        if pending or stuck
    }
    assert not unfinished, unfinished


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("name", ["churn-sweep", "churn-sweep-primaries"])
def test_checkpoint_roots_equal_a_full_rehash(name, seed):
    """Every checkpoint a replica certifies under churn (wipes, catch-up
    adoption, ``restore_from_checkpoint``) carries the from-scratch root."""
    _, checked = checkpoints_rehashed(registry.get(name), seed)
    assert checked > 50
