"""Unit tests for configuration dataclasses, and the knob contract."""

from dataclasses import fields

import pytest

from repro.common.config import (
    DEFAULT_BYZANTINE_COSTS,
    DEFAULT_CRASH_COSTS,
    DeploymentConfig,
    DomainSpec,
    EngineKnobs,
    HierarchySpec,
    NodeCostModel,
    RoundConfig,
    TimerConfig,
    WorkloadConfig,
    WorkloadMix,
)
from repro.common.types import FailureModel
from repro.control.policy import ControlPolicy
from repro.errors import ConfigurationError
from repro.scenarios import Scenario, WorkloadSpec, materialize


class TestNodeCostModel:
    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeCostModel(base_handling_ms=-1.0)

    def test_certificate_cost_scales_with_signatures(self):
        model = NodeCostModel(verify_ms=0.5)
        assert model.certificate_verify_ms(3) == pytest.approx(1.5)

    def test_certificate_cost_rejects_negative_count(self):
        with pytest.raises(ConfigurationError):
            NodeCostModel().certificate_verify_ms(-1)

    def test_byzantine_defaults_cost_more_than_crash(self):
        assert DEFAULT_BYZANTINE_COSTS.verify_ms > DEFAULT_CRASH_COSTS.verify_ms
        assert DEFAULT_BYZANTINE_COSTS.sign_ms > DEFAULT_CRASH_COSTS.sign_ms


class TestTimerAndRoundConfig:
    def test_timers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TimerConfig(request_timeout_ms=0)

    def test_round_interval_grows_with_height(self):
        rounds = RoundConfig(height1_interval_ms=50.0, interval_growth=2.0)
        assert rounds.interval_for_height(1) == 50.0
        assert rounds.interval_for_height(2) == 100.0
        assert rounds.interval_for_height(3) == 200.0

    def test_round_interval_rejects_height_zero(self):
        with pytest.raises(ConfigurationError):
            RoundConfig().interval_for_height(0)

    def test_interval_growth_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundConfig(interval_growth=0.5)


class TestDomainAndHierarchySpec:
    def test_domain_spec_node_count(self):
        assert DomainSpec(failure_model=FailureModel.CRASH, faults=2).num_nodes == 5
        assert DomainSpec(failure_model=FailureModel.BYZANTINE, faults=2).num_nodes == 7

    def test_negative_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            DomainSpec(faults=-1)

    def test_hierarchy_spec_height1_count(self):
        assert HierarchySpec(levels=4, branching=2).num_height1_domains == 4
        assert HierarchySpec(levels=3, branching=3).num_height1_domains == 3

    def test_hierarchy_spec_per_domain_override(self):
        override = DomainSpec(failure_model=FailureModel.BYZANTINE)
        spec = HierarchySpec(per_domain={"D21": override})
        assert spec.spec_for("D21") is override
        assert spec.spec_for("D11").failure_model is FailureModel.CRASH

    def test_hierarchy_needs_two_levels(self):
        with pytest.raises(ConfigurationError):
            HierarchySpec(levels=1)

    def test_deployment_config_costs_for(self):
        config = DeploymentConfig()
        assert config.costs_for(FailureModel.CRASH) is config.crash_costs
        assert config.costs_for(FailureModel.BYZANTINE) is config.byzantine_costs


class TestWorkloadConfig:
    def test_ratios_must_be_fractions(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(cross_domain_ratio=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(contention_ratio=-0.1)

    def test_hot_set_must_fit_in_accounts(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(accounts_per_domain=2, hot_accounts_per_domain=4)

    def test_cross_domain_needs_at_least_two_domains(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(involved_domains=1)

    def test_defaults_are_valid(self):
        config = WorkloadConfig()
        assert config.num_transactions > 0
        assert 0 <= config.cross_domain_ratio <= 1


# ---------------------------------------------------------------------------
# The knob contract: one declaration, every holder
# ---------------------------------------------------------------------------

#: Knobs that are not plain numbers or switches: (a good non-default value,
#: values every holder must reject).  A new int/float/bool knob needs no entry
#: here — its probe values are derived from its declared type and bound.
_STRUCTURED_KNOBS = {
    "latency_profile": ("lan", ["interplanetary", None]),
    "timers": (TimerConfig(request_timeout_ms=500.0), [500.0, "fast"]),
    "control": (ControlPolicy(policy="adaptive", interval_ms=5.0), ["adaptive", 3]),
}


def _probe_values(knob):
    """A valid non-default value and a list of invalid ones for ``knob``."""
    if knob.name in _STRUCTURED_KNOBS:
        return _STRUCTURED_KNOBS[knob.name]
    bound = knob.metadata
    if knob.type == "bool":
        return (not knob.default), [1, "yes", None]
    if knob.type == "int":
        bad = [1.5, 2.5, True, "3", None]
        if "ge" in bound:
            bad.append(bound["ge"] - 1)
        return knob.default + 3, bad
    assert knob.type == "float", f"teach _probe_values about {knob.type!r} knobs"
    bad = [float("nan"), float("inf"), True, "1.0", None]
    if "gt" in bound:
        bad.append(bound["gt"])
    if "ge" in bound:
        bad.append(bound["ge"] - 1.0)
    if "le" in bound:
        bad.append(bound["le"] + 0.5)
        return (bound["ge"] + bound["le"]) / 2, bad
    return knob.default + 1.5, bad


@pytest.mark.parametrize("knob", fields(EngineKnobs), ids=lambda knob: knob.name)
def test_engine_knob_contract(knob):
    """Every engine knob is one declaration that ``Scenario`` and
    ``DeploymentConfig`` both hold, bound-check identically, serialise, sweep,
    and hand to the live deployment unchanged."""
    good, bad = _probe_values(knob)
    assert good != knob.default
    scenario = Scenario(**{knob.name: good})
    assert getattr(scenario, knob.name) == good
    assert getattr(DeploymentConfig(**{knob.name: good}), knob.name) == good
    for value in bad:
        for holder in (Scenario, DeploymentConfig):
            with pytest.raises(ConfigurationError):
                holder(**{knob.name: value})
    assert knob.name in scenario.to_dict()
    assert Scenario.from_json(scenario.to_json()) == scenario
    assert Scenario().with_overrides(**{knob.name: good}) == scenario
    assert getattr(scenario.deployment_config(seed=1), knob.name) == good
    run = materialize(
        scenario.with_overrides(num_transactions=4, num_clients=2), seed=1
    )
    assert getattr(run.deployment.config, knob.name) == good


@pytest.mark.parametrize("knob", fields(WorkloadMix), ids=lambda knob: knob.name)
def test_workload_mix_knob_contract(knob):
    """The same contract for the mix ``WorkloadSpec`` and ``WorkloadConfig`` share."""
    good, bad = _probe_values(knob)
    spec = WorkloadSpec(**{knob.name: good})
    assert getattr(spec, knob.name) == good
    assert getattr(WorkloadConfig(**{knob.name: good}), knob.name) == good
    for value in bad:
        for holder in (WorkloadSpec, WorkloadConfig):
            with pytest.raises(ConfigurationError):
                holder(**{knob.name: value})
    assert WorkloadSpec.from_dict(spec.to_dict()) == spec
    scenario = Scenario().with_overrides(**{knob.name: good})
    assert scenario.workload == spec
    assert Scenario.from_json(scenario.to_json()) == scenario
    config = spec.to_workload_config(seed=5)
    assert getattr(config, knob.name) == good and config.seed == 5


def test_no_knob_is_declared_twice():
    """The shared blocks are inherited, never restated, by their holders."""
    for block, holders in (
        (EngineKnobs, (Scenario, DeploymentConfig)),
        (WorkloadMix, (WorkloadSpec, WorkloadConfig)),
    ):
        for holder in holders:
            assert issubclass(holder, block)
            restated = set(vars(holder).get("__annotations__", {})) & {
                f.name for f in fields(block)
            }
            assert not restated, (holder.__name__, restated)


@pytest.mark.parametrize(
    "build, expected, described",
    [
        (
            lambda b: b.batching(16, batch_timeout_ms=3.5),
            dict(batch_size=16, batch_timeout_ms=3.5),
            "batching: size=16",
        ),
        (
            lambda b: b.xdomain_batching(16, xdomain_batch_timeout_ms=3.5),
            dict(xdomain_batch_size=16, xdomain_batch_timeout_ms=3.5),
            "xdomain batching: size=16",
        ),
        (
            lambda b: b.sharding(8, execution_lanes=4),
            dict(state_shards=8, execution_lanes=4),
            "shards=8",
        ),
        (  # lanes default to the shard count
            lambda b: b.sharding(16),
            dict(state_shards=16, execution_lanes=16),
            "lanes=16",
        ),
    ],
    ids=["batching", "xdomain_batching", "sharding", "sharding-default-lanes"],
)
def test_builder_methods_set_the_shared_knobs(build, expected, described):
    scenario = build(Scenario.build()).finish()
    assert {name: getattr(scenario, name) for name in expected} == expected
    assert described in scenario.describe()
    assert Scenario.from_json(scenario.to_json()) == scenario
    config = scenario.deployment_config(seed=1)
    assert {name: getattr(config, name) for name in expected} == expected
