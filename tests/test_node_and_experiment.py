"""Tests for node-level behaviour and every engine end to end."""

import pytest

from repro.common.types import DomainId, FailureModel
from repro.scenarios import (
    ENGINES,
    Scenario,
    ScenarioRunner,
    WorkloadSpec,
    materialize,
    registry,
)
from tests.conftest import internal_transfer, make_deployment

D01, D11, D21 = DomainId(0, 1), DomainId(1, 1), DomainId(2, 1)


class TestSaguaroNode:
    def test_height1_nodes_hold_ledger_and_state(self, coordinator_deployment):
        node = coordinator_deployment.primary_node_of(D11)
        assert node.ledger is not None and node.state is not None
        assert node.dag is None and node.summary is None

    def test_height2_nodes_hold_dag_and_summary(self, coordinator_deployment):
        node = coordinator_deployment.primary_node_of(D21)
        assert node.dag is not None and node.summary is not None
        assert node.ledger is None and node.state is None

    def test_certificate_size_depends_on_failure_model(self):
        crash = make_deployment(failure_model=FailureModel.CRASH)
        assert len(crash.primary_node_of(D11).certify(b"x" * 32).signatures) == 1
        byz = make_deployment(failure_model=FailureModel.BYZANTINE)
        assert len(byz.primary_node_of(D11).certify(b"x" * 32).signatures) == 3

    def test_service_cost_grows_with_signature_count(self, coordinator_deployment):
        node = coordinator_deployment.primary_node_of(D11)

        class _Light:
            verify_count = 1

        class _Heavy:
            verify_count = 5

        assert node._service_cost(_Heavy()) > node._service_cost(_Light())

    def test_append_and_execute_is_idempotent_per_transaction(self, coordinator_deployment):
        node = coordinator_deployment.primary_node_of(D11)
        tx = internal_transfer(D11, amount=10.0)
        node.append_and_execute(tx)
        balance_after_first = node.state.balance("acct:D11:0")
        assert node.execute_once(tx) is None  # second execution is a no-op
        assert node.state.balance("acct:D11:0") == balance_after_first
        assert node.has_executed(tx.tid)

    def test_crashed_node_ignores_traffic(self, coordinator_deployment):
        node = coordinator_deployment.primary_node_of(D11)
        node.crash()
        assert node.crashed
        assert coordinator_deployment.network.is_crashed(node.address)
        node.recover()
        assert not node.crashed

    def test_primary_rotates_with_view(self, coordinator_deployment):
        node = coordinator_deployment.primary_node_of(D11)
        assert node.is_primary
        replica = coordinator_deployment.nodes_of(D11)[1]
        assert not replica.is_primary


class TestEnginesEndToEnd:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_each_engine_runs_a_small_point(self, engine):
        scenario = registry.figure_base(
            "small-point", FailureModel.CRASH, "nearby-eu", cross_domain_ratio=0.25,
            num_clients=4,
        ).with_overrides(engine=engine, num_transactions=24)
        summary = ScenarioRunner().run(scenario)[0].summary
        assert summary.committed + summary.aborted == 24
        assert summary.throughput_tps > 0

    def test_materialize_registers_mobile_clients_with_the_application(self):
        run = materialize(
            Scenario(
                workload=WorkloadSpec(
                    num_transactions=20, mobile_ratio=1.0, cross_domain_ratio=0.0
                ),
                num_clients=4,
            )
        )
        mobile_clients = {t.client for t in run.workload.transactions}
        homes = {run.workload.clients[c] for c in mobile_clients}
        for home in homes:
            state = run.deployment.state_of(home)
            assert any(key.startswith("acct:client:") for key in state.keys())
