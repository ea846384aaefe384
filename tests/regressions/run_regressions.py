"""Known safety bugs, checked in red: each JSON case must still violate the
invariant it names, and must still end with participant state stuck
(ROADMAP item 1: three-domain cross-domain commit).

Not part of tier-1 — the file name keeps it out of collection; CI's
``regressions`` job runs it by path::

    PYTHONPATH=src python -m pytest tests/regressions/run_regressions.py -q

``xfail(strict=True)`` turns the job red the moment a case stops failing, so
the PR that fixes the protocol must also delete the mark (and may then move
the cases into tier-1 as plain passing scenarios).
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.errors import InvariantViolationError
from repro.faults.invariants import InvariantChecker
from repro.scenarios import Scenario, materialize
from tests.conftest import PARTICIPANT_HOLDINGS, stuck_cross_domain_state

CASES = sorted(Path(__file__).parent.glob("*.json"))
IDS = [path.stem for path in CASES]


@lru_cache(maxsize=None)
def _finished_run(path):
    """One run per case, shared by both pins."""
    case = json.loads(path.read_text(encoding="utf-8"))
    run = materialize(Scenario.from_dict(case["scenario"]), case["seed"])
    run.run()
    return case, run


@pytest.mark.xfail(strict=True, raises=InvariantViolationError)
@pytest.mark.parametrize("path", CASES, ids=IDS)
def test_known_violation(path):
    case, run = _finished_run(path)
    report = InvariantChecker(run.deployment, trace=run.trace).check(
        expect_liveness=run.expect_liveness()
    )
    if not report.ok:
        # Any other invariant breaking is a new bug, not the one pinned here.
        assert report.of(case["invariant"]), report.violations
    report.raise_if_violated()


@pytest.mark.xfail(strict=True, raises=AssertionError)
@pytest.mark.parametrize("path", CASES, ids=IDS)
def test_participants_quiescent(path):
    """Lead A at its source: held prepares, prepared-undecided states and
    deferred commits outlive the run on the participants."""
    _, run = _finished_run(path)
    stuck = stuck_cross_domain_state(run.deployment)
    assert {key: stuck[key] for key in PARTICIPANT_HOLDINGS} == dict.fromkeys(
        PARTICIPANT_HOLDINGS, 0
    ), stuck
