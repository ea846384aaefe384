"""FaultPlan/FaultAction validation, JSON round-trips, and arming behavior."""

import pytest

from repro.common.types import FailureModel
from repro.errors import ConfigurationError, NetworkError
from repro.faults import FAULT_KINDS, FaultAction, FaultPlan
from repro.scenarios import Scenario, ScenarioRunner, registry
from repro.scenarios.runner import materialize
from tests.conftest import make_deployment


def _plan(*actions: FaultAction, name: str = "plan") -> FaultPlan:
    return FaultPlan(name=name, actions=tuple(actions))


class TestFaultActionValidation:
    def test_all_documented_kinds_are_accepted(self):
        for kind in FAULT_KINDS:
            kwargs = {"kind": kind, "at_ms": 1.0, "domain": "D11"}
            if kind in ("partition", "heal"):
                kwargs["peer_domain"] = "D21"
            if kind == "loss":
                kwargs = {"kind": kind, "at_ms": 1.0, "rate": 0.1}
            if kind == "stall":
                kwargs.update(every=3, delay_ms=10.0)
            assert FaultAction(**kwargs).kind == kind

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultAction(kind="meteor-strike", at_ms=1.0, domain="D11")

    def test_negative_time_is_rejected(self):
        with pytest.raises(ConfigurationError, match="negative time"):
            FaultAction(kind="crash", at_ms=-5.0, domain="D11")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["at_ms", "until_ms", "delay_ms", "rate"])
    def test_non_finite_times_and_rates_are_rejected(self, field, bad):
        # nan slipped past every `<` check and died at arm time with a bare
        # ValueError (inf: OverflowError) from inside the event queue.
        kwargs = {"kind": "crash", "at_ms": 1.0, "domain": "D11", field: bad}
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            FaultAction(**kwargs)

    def test_non_finite_time_is_rejected_on_the_json_path(self):
        text = '{"name":"x","actions":[{"kind":"crash","at_ms":NaN,"domain":"D11"}]}'
        with pytest.raises(ConfigurationError, match="at_ms must be finite"):
            FaultPlan.from_json(text)

    def test_window_must_end_after_it_starts(self):
        with pytest.raises(ConfigurationError, match="until_ms"):
            FaultAction(kind="silence", at_ms=100.0, until_ms=50.0, domain="D11")

    def test_negative_node_index_is_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            FaultAction(kind="crash", at_ms=1.0, domain="D11", node=-1)

    @pytest.mark.parametrize("node", [True, 1.5, "2"])
    def test_non_integer_node_index_is_rejected(self, node):
        # True used to be accepted and silently target node 1; 1.5 died with
        # a bare TypeError inside FaultPlan.arm.
        with pytest.raises(ConfigurationError, match="int or None"):
            FaultAction(kind="crash", at_ms=1.0, domain="D11", node=node)

    def test_malformed_domain_name_is_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultAction(kind="crash", at_ms=1.0, domain="not-a-domain")

    def test_partition_needs_two_distinct_domains(self):
        with pytest.raises(ConfigurationError, match="peer_domain"):
            FaultAction(kind="partition", at_ms=1.0, domain="D11")
        with pytest.raises(ConfigurationError, match="itself"):
            FaultAction(
                kind="partition", at_ms=1.0, domain="D11", peer_domain="D11"
            )

    def test_loss_needs_a_valid_rate(self):
        with pytest.raises(ConfigurationError, match="rate"):
            FaultAction(kind="loss", at_ms=1.0)
        with pytest.raises(ConfigurationError, match="rate"):
            FaultAction(kind="loss", at_ms=1.0, rate=1.0)


class TestFaultPlanRoundTrip:
    def test_plan_json_round_trip(self):
        plan = _plan(
            FaultAction(kind="silence", at_ms=10.0, domain="D11", until_ms=200.0),
            FaultAction(kind="partition", at_ms=20.0, until_ms=60.0,
                        domain="D11", peer_domain="D21"),
            FaultAction(kind="loss", at_ms=30.0, until_ms=90.0, rate=0.05),
            FaultAction(kind="stale-cert", at_ms=50.0, domain="D12", node=1),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_plan_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown FaultPlan"):
            FaultPlan.from_dict({"actions": [], "frequency": "daily"})
        with pytest.raises(ConfigurationError, match="unknown FaultAction"):
            FaultPlan.from_dict(
                {"actions": [{"kind": "crash", "at_ms": 1.0, "domain": "D11",
                              "severity": "high"}]}
            )

    def test_scenario_with_fault_plan_round_trips(self):
        scenario = registry.get("byz-partition-flap")
        assert scenario.fault_plan  # non-empty by construction
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.fault_plan == scenario.fault_plan

    def test_every_registered_scenario_round_trips(self):
        seen = set()
        for name, scenario in registry.items():
            if id(scenario) in seen:
                continue
            seen.add(id(scenario))
            assert Scenario.from_json(scenario.to_json()) == scenario, name

    def test_fault_plan_override_is_preserved(self):
        plan = _plan(FaultAction(kind="crash", at_ms=5.0, domain="D11"))
        scenario = registry.get("fig07a").with_overrides(fault_plan=plan)
        assert scenario.fault_plan == plan
        assert "fault plan" in scenario.describe()


class TestFaultPlanArming:
    def test_unknown_domain_is_rejected_at_arm_time(self):
        scenario = registry.get("fig07a").with_overrides(
            num_transactions=4, num_clients=2,
            fault_plan=_plan(FaultAction(kind="crash", at_ms=5.0, domain="D19")),
        )
        with pytest.raises(ConfigurationError, match="unknown domain"):
            materialize(scenario)

    def test_out_of_range_node_is_rejected_at_arm_time(self):
        scenario = registry.get("fig07a").with_overrides(
            num_transactions=4, num_clients=2,
            fault_plan=_plan(
                FaultAction(kind="silence", at_ms=5.0, domain="D11", node=99)
            ),
        )
        with pytest.raises(ConfigurationError, match="out of range"):
            materialize(scenario)

    def test_negative_node_smuggled_past_validation_is_rejected_at_arm_time(self):
        # FaultAction validates node >= 0 at construction; arming keeps a
        # second guard so an action smuggled past validation still fails
        # loudly instead of crashing a node picked by negative indexing.
        action = FaultAction(kind="crash", at_ms=1.0, domain="D11", node=0)
        object.__setattr__(action, "node", -1)
        scenario = registry.get("fig07a").with_overrides(
            num_transactions=4, num_clients=2, fault_plan=_plan(action)
        )
        with pytest.raises(ConfigurationError, match="out of range"):
            materialize(scenario)

    def test_crash_action_crashes_and_recovers_the_primary(self):
        deployment = make_deployment()
        plan = _plan(
            FaultAction(kind="crash", at_ms=10.0, domain="D11", until_ms=50.0)
        )
        plan.arm(deployment)
        primary = deployment.primary_node_of(
            deployment.hierarchy.height1_domains()[0].id
        )
        deployment.simulator.run(until_ms=20.0)
        assert primary.crashed
        deployment.simulator.run(until_ms=60.0)
        assert not primary.crashed

    def test_loss_burst_restores_the_previous_drop_rate(self):
        deployment = make_deployment()
        plan = _plan(FaultAction(kind="loss", at_ms=10.0, until_ms=40.0, rate=0.25))
        plan.arm(deployment)
        deployment.simulator.run(until_ms=20.0)
        assert deployment.network.drop_rate == 0.25
        deployment.simulator.run(until_ms=50.0)
        assert deployment.network.drop_rate == 0.0

    def test_overlapping_loss_bursts_compose_and_restore_base_rate(self):
        deployment = make_deployment()
        plan = _plan(
            FaultAction(kind="loss", at_ms=10.0, until_ms=60.0, rate=0.1),
            FaultAction(kind="loss", at_ms=30.0, until_ms=80.0, rate=0.2),
        )
        plan.arm(deployment)
        sim = deployment.simulator
        sim.run(until_ms=20.0)
        assert deployment.network.drop_rate == 0.1
        sim.run(until_ms=40.0)
        assert deployment.network.drop_rate == 0.2  # max of active bursts
        sim.run(until_ms=70.0)
        assert deployment.network.drop_rate == 0.2  # second burst still active
        sim.run(until_ms=90.0)
        assert deployment.network.drop_rate == 0.0  # base restored at the end

    def test_set_drop_rate_validates_range(self):
        deployment = make_deployment()
        with pytest.raises(NetworkError):
            deployment.network.set_drop_rate(1.5)


class TestLivenessTolerance:
    def _hierarchy(self, failure_model=FailureModel.BYZANTINE):
        return make_deployment(failure_model=failure_model).hierarchy

    def test_empty_plan_is_within_tolerance(self):
        assert FaultPlan().within_tolerance(self._hierarchy())

    def test_bounded_silence_is_tolerated(self):
        plan = _plan(
            FaultAction(kind="silence", at_ms=5.0, domain="D11", until_ms=50.0)
        )
        assert plan.within_tolerance(self._hierarchy())

    def test_unhealed_partition_voids_liveness(self):
        plan = _plan(
            FaultAction(kind="partition", at_ms=5.0, domain="D11", peer_domain="D21")
        )
        assert not plan.within_tolerance(self._hierarchy())

    def test_too_many_permanent_crashes_void_liveness(self):
        plan = _plan(
            FaultAction(kind="crash", at_ms=5.0, domain="D11", node=0),
            FaultAction(kind="crash", at_ms=6.0, domain="D11", node=1),
        )
        assert not plan.within_tolerance(self._hierarchy())

    def test_crash_with_matching_recover_is_tolerated(self):
        plan = _plan(
            FaultAction(kind="crash", at_ms=5.0, domain="D11", node=0),
            FaultAction(kind="crash", at_ms=6.0, domain="D11", node=1),
            FaultAction(kind="recover", at_ms=50.0, domain="D11", node=1),
        )
        assert plan.within_tolerance(self._hierarchy())

    def test_tolerance_replays_a_shuffled_plan_in_time_order(self):
        # Two crashes with one recovery in between: only one node is down at
        # any instant.  The plan lists the recovery *first* — a replay in list
        # order would see both crashes as outstanding and give up on liveness.
        crash_1 = FaultAction(kind="crash", at_ms=1.0, domain="D11", node=1)
        recover_1 = FaultAction(kind="recover", at_ms=3.0, domain="D11", node=1)
        crash_2 = FaultAction(kind="crash", at_ms=4.0, domain="D11", node=2)
        hierarchy = self._hierarchy(FailureModel.CRASH)
        assert _plan(crash_1, recover_1, crash_2).within_tolerance(hierarchy)
        assert _plan(recover_1, crash_2, crash_1).within_tolerance(hierarchy)
        # Control: without the recovery the same crashes exceed f=1.
        assert not _plan(crash_2, crash_1).within_tolerance(hierarchy)
        # And the runner's automatic liveness decision is the plan's.
        run = materialize(
            registry.get("fig07a").with_overrides(
                num_transactions=4, num_clients=2,
                fault_plan=_plan(recover_1, crash_2, crash_1),
            )
        )
        assert run.expect_liveness() is True
