"""Tests for the declarative scenario layer (spec, builder, runner, registry)."""

import json

import pytest

from repro.common.types import FailureModel
from repro.errors import ConfigurationError
from repro.scenarios import (
    BASELINE_AHL,
    SAGUARO_COORDINATOR,
    SAGUARO_OPTIMISTIC,
    DomainOverride,
    FaultAction,
    FaultPlan,
    ResultSet,
    RunResult,
    Scenario,
    ScenarioRunner,
    TopologySpec,
    WorkloadSpec,
    registry,
)


def small_scenario(**overrides) -> Scenario:
    """A fast-to-run scenario for determinism checks."""
    scenario = (
        Scenario.build()
        .name("small")
        .workload(num_transactions=12, cross_domain_ratio=0.25)
        .clients(2)
        .rounds(10.0)
        .seed(11)
        .finish()
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


class TestScenarioValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(engine="saguaro-quantum")

    def test_unknown_latency_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(latency_profile="interplanetary")

    def test_empty_and_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(seeds=())
        with pytest.raises(ConfigurationError):
            Scenario(seeds=(1, 1))

    def test_workload_ratio_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(cross_domain_ratio=1.5)

    def test_unknown_workload_style_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(style="teleport")

    def test_unknown_application_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.build().application("matchmaking")

    def test_fault_plan_must_be_a_plan_or_its_dict_form(self):
        with pytest.raises(ConfigurationError):
            Scenario(fault_plan=[("crash", "D11")])
        plan = {"actions": [{"kind": "crash", "at_ms": 1.0, "domain": "D11"}]}
        assert Scenario(fault_plan=plan).fault_plan == FaultPlan.from_dict(plan)

    def test_topology_duplicate_override_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(
                per_domain=(
                    DomainOverride(domain="D11", faults=2),
                    DomainOverride(domain="D11", faults=3),
                )
            )

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigurationError):
            small_scenario().with_overrides(warp_factor=9)

    def test_builder_rejects_spec_plus_kwargs(self):
        with pytest.raises(ConfigurationError):
            Scenario.build().workload(WorkloadSpec(), num_transactions=5)

    def test_whole_spec_and_field_overrides_combine(self):
        # A field-level override must apply on top of a whole-spec replacement
        # passed in the same call, not be discarded by it.
        scenario = Scenario().with_overrides(
            workload=WorkloadSpec(), cross_domain_ratio=0.8
        )
        assert scenario.workload.cross_domain_ratio == 0.8

    def test_replicate_derives_consecutive_seeds(self):
        scenario = small_scenario().replicate(3)
        assert scenario.seeds == (11, 12, 13)
        assert small_scenario().replicate([4, 9]).seeds == (4, 9)
        with pytest.raises(ConfigurationError):
            small_scenario().replicate(0)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


class TestScenarioSerialisation:
    def test_default_scenario_round_trips(self):
        scenario = Scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_rich_scenario_round_trips_through_json(self):
        scenario = (
            Scenario.build()
            .name("rich")
            .engine(SAGUARO_OPTIMISTIC)
            .topology(
                levels=3,
                branching=2,
                failure_model=FailureModel.BYZANTINE,
                faults=2,
                per_domain=(DomainOverride(domain="D11", faults=1, region="FR"),),
            )
            .application("ridesharing", hour_cap=20.0)
            .workload(style="rides", num_transactions=30, mobile_ratio=0.5)
            .clients(4)
            .latency("wide-area")
            .rounds(15.0)
            .timers(request_timeout_ms=500.0)
            .limits(max_simulated_ms=90_000.0, drain_ms=250.0)
            .replicate(seeds=(5, 6))
            .finish()
            .with_overrides(
                fault_plan=FaultPlan(
                    actions=(FaultAction(kind="crash", at_ms=10.0, domain="D12", node=1),)
                )
            )
        )
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        # The wire format is pure JSON (no enum/object leakage).
        assert json.loads(scenario.to_json()) == scenario.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        data = Scenario().to_dict()
        data["hyperdrive"] = True
        with pytest.raises(ConfigurationError):
            Scenario.from_dict(data)
        # The PR-1 crash/recover list is gone, not aliased.
        with pytest.raises(ConfigurationError, match="unknown Scenario"):
            Scenario.from_dict({"fault_schedule": []})

    def test_registry_scenarios_all_round_trip(self):
        for name, scenario in registry.items():
            assert Scenario.from_dict(scenario.to_dict()) == scenario, name

    def test_run_result_round_trips(self):
        result = ScenarioRunner().run(small_scenario())[0]
        restored = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        restored_set = ResultSet.from_dict(ResultSet([result]).to_dict())
        assert restored_set == ResultSet([result])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_paper_figures_complete(self):
        for name in registry.PAPER_FIGURES:
            assert isinstance(registry.get(name), Scenario), name
        # Multi-panel figures also register their panels.
        for name in ("fig07a", "fig07b", "fig07c", "fig08c", "fig09b",
                     "fig10b", "fig11a"):
            assert isinstance(registry.get(name), Scenario), name

    def test_figure_parameters_match_the_paper(self):
        fig08 = registry.get("fig08")
        assert fig08.topology.failure_model is FailureModel.BYZANTINE
        assert registry.get("fig10").latency_profile == "wide-area"
        assert registry.get("fig12").latency_profile == "lan"
        assert registry.get("fig07c").workload.cross_domain_ratio == 1.0

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            registry.get("fig99")

    def test_duplicate_registration_requires_overwrite(self):
        name = "test-duplicate-registration"
        registry.register(name, small_scenario())
        try:
            with pytest.raises(ConfigurationError):
                registry.register(name, small_scenario())
            registry.register(name, small_scenario(), overwrite=True)
        finally:
            registry._REGISTRY.pop(name, None)

    def test_series_scenarios_derive_engines(self):
        series = registry.series_scenarios(registry.get("fig07a"))
        assert list(series) == [
            "AHL", "SharPer", "Coordinator", "Opt-10%C", "Opt-50%C", "Opt-90%C",
        ]
        assert series["AHL"].engine == BASELINE_AHL
        assert series["Opt-90%C"].workload.contention_ratio == 0.90
        assert series["Coordinator"].engine == SAGUARO_COORDINATOR


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


class TestScenarioRunner:
    def test_multi_seed_run_is_deterministic(self):
        scenario = small_scenario().replicate([11, 12])
        runner = ScenarioRunner()
        first = runner.run(scenario)
        second = runner.run(scenario)
        assert [r.seed for r in first] == [11, 12]
        assert [r.summary for r in first] == [r.summary for r in second]
        for result in first:
            assert result.summary.committed + result.summary.aborted == 12

    def test_json_round_trip_reproduces_byte_identical_results(self):
        scenario = small_scenario()
        restored = Scenario.from_json(scenario.to_json())
        original = ScenarioRunner().run(scenario)[0].summary
        replayed = ScenarioRunner().run(restored)[0].summary
        assert original == replayed

    def test_sweep_tags_params_and_groups(self):
        sweep = ScenarioRunner().sweep(
            small_scenario(), over="num_clients", values=[2, 4]
        )
        assert [r.param("num_clients") for r in sweep] == [2, 4]
        assert [r.num_clients for r in sweep] == [2, 4]
        grouped = sweep.grouped("num_clients")
        assert list(grouped) == [2, 4]
        aggregate = grouped[4].aggregate()
        assert aggregate["runs"] == 1.0
        assert aggregate["throughput_tps"] > 0

    def test_sweep_grid_covers_the_cartesian_product(self):
        grid = ScenarioRunner().sweep_grid(
            small_scenario(),
            {"engine": [SAGUARO_COORDINATOR, SAGUARO_OPTIMISTIC],
             "num_clients": [2, 3]},
        )
        combos = {(r.param("engine"), r.param("num_clients")) for r in grid}
        assert len(grid) == 4 and len(combos) == 4
        assert grid.filter(engine=SAGUARO_OPTIMISTIC, num_clients=3)[0].num_clients == 3

    def test_crash_action_crashes_a_replica_without_losing_commits(self):
        # f = 1 is tolerated by a 3-node crash domain, so a crashed replica
        # must not block any commitment.
        scenario = small_scenario(
            fault_plan=FaultPlan(
                actions=(FaultAction(kind="crash", at_ms=2.0, domain="D11", node=2),)
            ),
            cross_domain_ratio=0.0,
        )
        run = ScenarioRunner().execute(scenario)
        assert run.summary.committed == 12
        crashed = [n for n in run.deployment.nodes.values() if n.crashed]
        assert len(crashed) == 1
        assert crashed[0].domain.id.name == "D11"

    def test_rides_workload_reaches_the_ridesharing_application(self):
        scenario = small_scenario(
            application="ridesharing",
            style="rides",
            mobile_ratio=0.5,
            num_transactions=8,
            ride_hours=1.0,
        )
        run = ScenarioRunner().execute(scenario)
        assert run.summary.committed == 8
        totals = run.deployment.application.total_hours_by_driver(
            run.deployment.root_summary()
        )
        assert sum(totals.values()) == pytest.approx(8.0)


class TestParallelRunner:
    """The parallel sweep fan-out must be invisible in the results."""

    def test_parallel_sweep_grid_matches_serial_bit_for_bit(self):
        runner = ScenarioRunner()
        grid = {"num_clients": (2, 3)}
        serial = runner.sweep_grid(small_scenario(), grid)
        parallel = runner.sweep_grid(small_scenario(), grid, parallel=2)
        assert list(serial) == list(parallel)

    def test_parallel_run_matches_serial_across_seeds(self):
        scenario = small_scenario().replicate([11, 12])
        runner = ScenarioRunner()
        assert list(runner.run(scenario)) == list(runner.run(scenario, parallel=2))

    def test_constructor_default_parallel_applies_to_sweeps(self):
        serial = ScenarioRunner().sweep(
            small_scenario(), over="num_clients", values=[2, 3]
        )
        fanned = ScenarioRunner(parallel=2).sweep(
            small_scenario(), over="num_clients", values=[2, 3]
        )
        assert list(serial) == list(fanned)

    def test_parallel_validation_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ScenarioRunner(parallel=0)
        with pytest.raises(ConfigurationError):
            ScenarioRunner(parallel=True)
        with pytest.raises(ConfigurationError):
            ScenarioRunner(parallel=2.5)
        with pytest.raises(ConfigurationError):
            ScenarioRunner().run(small_scenario(), parallel=-1)

    def test_check_invariants_threads_through_sweeps(self, monkeypatch):
        from repro.scenarios import runner as runner_module

        calls = []
        monkeypatch.setattr(
            runner_module.ScenarioRun,
            "check_invariants",
            lambda self, expect_liveness=None: calls.append(self.seed),
        )
        runner = ScenarioRunner()  # constructor default: checking off
        runner.sweep(small_scenario(), over="num_clients", values=[2, 3])
        assert calls == []
        runner.sweep(
            small_scenario(), over="num_clients", values=[2, 3],
            check_invariants=True,
        )
        assert len(calls) == 2
        calls.clear()
        checked = ScenarioRunner(check_invariants=True)
        checked.sweep_grid(
            small_scenario(), {"num_clients": (2,)}, check_invariants=False
        )
        assert calls == []
        checked.sweep_grid(small_scenario(), {"num_clients": (2,)})
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Deployment single-shot guard
# ---------------------------------------------------------------------------


class TestRunWorkloadGuard:
    def test_run_workload_twice_raises_a_clear_error(self):
        run = ScenarioRunner().execute(small_scenario())
        with pytest.raises(ConfigurationError, match="single-shot"):
            run.deployment.run_workload(run.workload.transactions)

    def test_run_workload_after_create_clients_raises(self):
        from repro.scenarios.runner import materialize

        prepared = materialize(small_scenario())
        prepared.deployment.create_clients(prepared.workload.transactions[:2])
        with pytest.raises(ConfigurationError, match="create_clients"):
            prepared.deployment.run_workload(prepared.workload.transactions[2:])
