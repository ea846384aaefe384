"""Tests for edge-device consensus, payment channels, and client behaviour."""

from dataclasses import replace

import pytest

from repro.common.types import ClientId, DomainId, TransactionId, TransactionKind
from repro.core.device import EdgeDeviceQuorum, PaymentChannel
from repro.errors import InsufficientBalanceError, TransactionError
from repro.ledger.transaction import Transaction
from repro.workloads.micropayment import account_key
from tests.conftest import internal_transfer, make_deployment

D01, D11 = DomainId(0, 1), DomainId(1, 1)
DEVICES = [ClientId(home=D01, index=i) for i in range(1, 6)]


def _leaf_tx(number):
    sender, recipient = account_key(D11, number), account_key(D11, number + 1)
    return Transaction(
        tid=TransactionId(number=number, origin=DEVICES[0]),
        kind=TransactionKind.INTERNAL,
        involved_domains=(D11,),
        payload={"op": "transfer", "sender": sender, "recipient": recipient, "amount": 1.0},
        read_keys=(sender, recipient),
        write_keys=(sender, recipient),
        client=DEVICES[0],
    )


class TestEdgeDeviceQuorum:
    def test_needs_at_least_three_devices(self):
        with pytest.raises(TransactionError):
            EdgeDeviceQuorum(D01, DEVICES[:2])

    def test_transaction_ordered_after_majority_acks(self):
        quorum = EdgeDeviceQuorum(D01, DEVICES)
        tx = _leaf_tx(1)
        quorum.propose(tx)
        assert not quorum.acknowledge(tx.tid, DEVICES[1])
        assert quorum.acknowledge(tx.tid, DEVICES[2])  # 3rd ack = majority of 5
        assert quorum.ordered_transactions() == (tx,)

    def test_unknown_device_cannot_ack(self):
        quorum = EdgeDeviceQuorum(D01, DEVICES)
        tx = _leaf_tx(1)
        quorum.propose(tx)
        with pytest.raises(TransactionError):
            quorum.acknowledge(tx.tid, ClientId(home=DomainId(0, 2), index=9))

    def test_duplicate_proposal_rejected(self):
        quorum = EdgeDeviceQuorum(D01, DEVICES)
        tx = _leaf_tx(1)
        quorum.propose(tx)
        with pytest.raises(TransactionError):
            quorum.propose(tx)

    def test_batches_contain_only_new_transactions(self):
        quorum = EdgeDeviceQuorum(D01, DEVICES)
        first, second = _leaf_tx(1), _leaf_tx(2)
        for tx in (first, second):
            quorum.propose(tx)
            quorum.acknowledge(tx.tid, DEVICES[1])
            quorum.acknowledge(tx.tid, DEVICES[2])
        batch = quorum.next_batch()
        assert batch is not None and len(batch.transactions) == 2
        assert quorum.next_batch() is None

    def test_batch_committed_by_parent_height1_domain(self):
        deployment = make_deployment()
        quorum = EdgeDeviceQuorum(D01, DEVICES)
        transactions = [_leaf_tx(n) for n in (1, 2, 3)]
        for tx in transactions:
            quorum.propose(tx)
            quorum.acknowledge(tx.tid, DEVICES[1])
            quorum.acknowledge(tx.tid, DEVICES[2])
        batch = quorum.next_batch()
        deployment.start()
        primary = deployment.primary_node_of(D11)
        # The leaf sends the agreed batch to its parent's primary (§6.1).
        deployment.network.register(
            type("LeafStub", (), {"address": "leaf", "region": primary.region,
                                  "deliver": lambda self, e: None})()
        )
        deployment.network.send("leaf", primary.address, batch)
        deployment.simulator.run(until_ms=50.0)
        deployment.stop_rounds()
        for tx in transactions:
            assert tx.tid in deployment.ledger_of(D11)


class TestPaymentChannel:
    def _channel(self):
        return PaymentChannel(
            channel_id="ch1",
            party_a=account_key(D11, 0),
            party_b=account_key(D11, 1),
            deposit_a=100.0,
            deposit_b=50.0,
        )

    def test_payments_shift_in_channel_balances(self):
        channel = self._channel()
        channel.pay(account_key(D11, 0), 30.0)
        channel.pay(account_key(D11, 1), 10.0)
        assert channel.balances == (80.0, 70.0)
        assert channel.payments_made == 2

    def test_overdraft_inside_channel_rejected(self):
        channel = self._channel()
        with pytest.raises(InsufficientBalanceError):
            channel.pay(account_key(D11, 1), 500.0)

    def test_non_member_cannot_pay(self):
        channel = self._channel()
        with pytest.raises(TransactionError):
            channel.pay("acct:D11:9", 1.0)

    def test_closed_channel_rejects_payments(self):
        channel = self._channel()
        channel.close_transaction(TransactionId(number=99), D11)
        with pytest.raises(TransactionError):
            channel.pay(account_key(D11, 0), 1.0)

    def test_open_and_close_settle_on_chain(self):
        deployment = make_deployment()
        channel = self._channel()
        client = ClientId(home=D01, index=1)
        open_tx = channel.open_transaction(TransactionId(number=500, origin=client), D11)
        open_tx = replace(open_tx, client=client)
        channel.pay(account_key(D11, 0), 40.0)
        close_tx = channel.close_transaction(TransactionId(number=501, origin=client), D11)
        close_tx = replace(close_tx, client=client)
        summary = deployment.run_workload([open_tx, close_tx], drain_ms=200.0)
        assert summary.committed == 2
        state = deployment.state_of(D11)
        # A paid 40 to B inside the channel; net on-chain effect after settling.
        assert state.balance(account_key(D11, 0)) == pytest.approx(1_000_000 - 40.0)
        assert state.balance(account_key(D11, 1)) == pytest.approx(1_000_000 + 40.0)


class TestClientRetransmission:
    def test_client_finishes_after_a_dropped_request(self):
        deployment = make_deployment()
        client_id = ClientId(home=D01, index=1)
        tx = internal_transfer(D11, client=client_id)
        deployment.start()
        clients = deployment.create_clients([tx], think_time_ms=0.0)
        primary = deployment.primary_node_of(D11)
        # Drop the first request by partitioning the client from the primary,
        # then heal before the retransmission timer fires: the client then
        # multicasts to every node of the domain (§4.2) and still commits.
        deployment.network.partition(client_id.name, primary.address)
        for client in clients:
            client.start()
        deployment.simulator.run(until_ms=100.0)
        deployment.network.heal(client_id.name, primary.address)
        deployment.simulator.run(until_ms=6_000.0, stop_when=lambda: clients[0].done)
        deployment.stop_rounds()
        assert clients[0].done
        assert tx.tid in deployment.ledger_of(D11)
