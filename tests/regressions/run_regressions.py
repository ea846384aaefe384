"""Known safety bugs, checked in red: each JSON case must still violate the
invariant it names (ROADMAP item 1: three-domain cross-domain commit).

Not part of tier-1 — the file name keeps it out of collection; CI's
``regressions`` job runs it by path::

    PYTHONPATH=src python -m pytest tests/regressions/run_regressions.py -q

``xfail(strict=True)`` turns the job red the moment a case stops failing, so
the PR that fixes the protocol must also delete the mark (and may then move
the cases into tier-1 as plain passing scenarios).
"""

import json
from pathlib import Path

import pytest

from repro.errors import InvariantViolationError
from repro.faults.invariants import InvariantChecker
from repro.scenarios import Scenario, materialize

CASES = sorted(Path(__file__).parent.glob("*.json"))


@pytest.mark.xfail(strict=True, raises=InvariantViolationError)
@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_known_violation(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    run = materialize(Scenario.from_dict(case["scenario"]), case["seed"])
    run.run()
    report = InvariantChecker(run.deployment, trace=run.trace).check(
        expect_liveness=run.expect_liveness()
    )
    if not report.ok:
        # Any other invariant breaking is a new bug, not the one pinned here.
        assert report.of(case["invariant"]), report.violations
    report.raise_if_violated()
