"""Self-check of the benchmark harness: ``python -m pytest bench -q``.

Not part of tier-1 (``pyproject.toml`` collects ``tests`` and ``benchmarks``
only).  Runs each workload shrunk to 100 transactions, in-process.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src")) if p not in sys.path]

from bench.compare import compare  # noqa: E402
from bench.measure import add_untraced_ratios, run_once  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER, manifest  # noqa: E402
from bench.runner import BenchError, out_path  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import BY_NAME, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SIM = [m.name for m in END_TO_END if m.kind == "sim"]


def test_benchmark_json_is_the_manifest_and_meets_the_contract():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert recorded == manifest()
    assert [w["name"] for w in recorded["workloads"]] == [
        w.name for w in WORKLOADS if w.contract
    ]
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in recorded[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for item in recorded["end_to_end"] + recorded["per_layer"]:
        assert UNIT.fullmatch(item["unit"]) and item["better"] in ("lower", "higher")
    for item in recorded["workloads"]:
        assert len(item["why"]) <= 200 and "\n" not in item["why"]
    assert all(0 < m["bound"] <= 0.25 for m in recorded["end_to_end"])
    setup = next(m for m in recorded["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in recorded["end_to_end"])
    workload_names = {w.name for w in WORKLOADS}
    metric_names = {m.name for m in END_TO_END}
    assert all(m.moves[0] in metric_names and m.moves[1] in workload_names for m in PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_shrunk_workload_runs_checks_and_repeats_exactly(workload):
    first = run_once(workload, workload.seed, num_transactions=100)
    second = run_once(workload, workload.seed, num_transactions=100)
    for outcome in (first, second):
        assert all(outcome["checks"].values()), outcome
        assert outcome["samples"] > 0
        values = outcome["end_to_end"]
        # setup_s and peak_rss_mb belong to the worker process, not a repeat.
        assert set(values) == {m.name for m in END_TO_END} - {"setup_s", "peak_rss_mb"}
        assert all(value > 0 for value in values.values())
    assert [first["end_to_end"][name] for name in SIM if name in first["end_to_end"]] == [
        second["end_to_end"][name] for name in SIM if name in second["end_to_end"]
    ]


def test_tracer_accounts_for_its_time_and_leaves_nothing_behind():
    from repro.core.node import SaguaroNode
    from repro.crypto import digests
    from repro.sim.events import EventQueue

    originals = (SaguaroNode.deliver, EventQueue.push, digests.digest)
    workload = BY_NAME["eu-mixed-coordinator"]
    tracer = Tracer(max_records=20_000)
    traced = run_once(workload, workload.seed, tracer, num_transactions=100)
    untraced = run_once(workload, workload.seed, num_transactions=100)

    assert (SaguaroNode.deliver, EventQueue.push, digests.digest) == originals
    assert all(
        vars(module).get("digest", digests.digest) is digests.digest
        for name, module in sys.modules.items() if name.startswith("repro")
    )
    assert {name: traced["end_to_end"][name] for name in SIM} == {
        name: untraced["end_to_end"][name] for name in SIM
    }

    roots = sum(total for name, (_c, total, _s) in tracer.aggregates.items()
                if name.startswith("bench:"))
    assert sum(self_s for _c, _t, self_s in tracer.aggregates.values()) <= roots * (1 + 1e-9)
    assert all(-1e-9 <= self_s <= total + 1e-9 for _c, total, self_s in tracer.aggregates.values())
    assert len(tracer.records) == 20_000
    by_id = {record[0]: record for record in tracer.records}
    for span_id, _name, start, end, parent, _tid in tracer.records:
        assert start <= end
        if parent in by_id:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]
    assert any(record[5] for record in tracer.records), "no span carried a transaction id"

    layers = traced["per_layer"]
    add_untraced_ratios(layers, traced["end_to_end"]["host_run_s"],
                        untraced["end_to_end"]["host_run_s"])
    assert set(layers) == {m.name for m in PER_LAYER}
    assert layers["core.coordinator_calls"] > 0 and layers["core.optimistic_self_s"] == 0
    assert layers["faults.violations"] == 0


def _entry(**changes):
    repeats = [
        {"seed": seed, "end_to_end": {m.name: 10.0 for m in END_TO_END}} for seed in (1, 2, 3)
    ]
    entry = {
        "correct": True, "problems": [], "repeats": repeats,
        "metrics": {m.name: {"value": 10.0, "unit": m.unit} for m in END_TO_END},
    }
    for name, value in changes.items():
        entry["metrics"][name]["value"] = value
    return entry


def _verdicts(a, b):
    lines, regressed = compare({"workloads": {"w": a}}, {"workloads": {"w": b}})
    return {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}, regressed


def test_compare_verdicts():
    same, regressed = _verdicts(_entry(), _entry())
    assert set(same.values()) - {"verdict"} == {"ok"} and not regressed

    changed, regressed = _verdicts(_entry(), _entry(sim_tps=10.1, host_run_s=10.5))
    assert changed["sim_tps"] == "sim-changed" and changed["host_run_s"] == "ok"
    assert not regressed

    worse, regressed = _verdicts(_entry(), _entry(host_run_s=13.0, sim_commit_share=9.99))
    assert worse["host_run_s"] == "regressed" and worse["sim_commit_share"] == "regressed"
    assert regressed

    noisy = _entry()
    noisy["repeats"][0]["end_to_end"]["host_run_s"] = 20.0
    unresolved, regressed = _verdicts(noisy, _entry(host_run_s=10.5))
    assert unresolved["host_run_s"] == "unresolved" and not regressed

    other_seeds = copy.deepcopy(_entry(sim_tps=10.1))
    other_seeds["repeats"][0]["seed"] = 9
    assert _verdicts(_entry(), other_seeds)[0]["sim_tps"] == "ok"


def test_runner_refuses_to_write_outside_out(tmp_path):
    assert out_path(tmp_path, "results.json").parent == tmp_path.resolve()
    with pytest.raises(BenchError):
        out_path(tmp_path, "../escaped.json")
