"""The micropayment application (§2, §8).

The blockchain state maintains the balance of every account; clients carry out
transfers that move assets from a sender to a recipient when the sender's
balance suffices.  Cross-domain transfers touch accounts held by different
height-1 domains, each of which applies its local side.  Per-domain exchanged
volume is tracked under ``volume:`` keys; the abstraction function forwards
only those keys up the hierarchy, so the root can answer "total amount of
exchanged assets" without seeing individual balances.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.common.types import ClientId, DomainId
from repro.core.application import BaseApplication, ExecutionResult
from repro.errors import WorkloadError
from repro.ledger.abstraction import AbstractionFunction, SelectKeysAbstraction
from repro.ledger.state import StateStore
from repro.ledger.transaction import Transaction
from repro.topology.domain import Domain

__all__ = [
    "MicropaymentApplication",
    "account_key",
    "client_account_key",
    "volume_key",
]


def account_key(domain: DomainId, index: int) -> str:
    """State key of the ``index``-th account hosted by ``domain``."""
    return f"acct:{domain.name}:{index}"


def client_account_key(client: ClientId) -> str:
    """State key of an edge device's own account (used by mobile consensus)."""
    return f"acct:client:{client.name}"


def volume_key(domain: DomainId) -> str:
    """Per-domain counter of exchanged assets (aggregated up the hierarchy)."""
    return f"volume:{domain.name}"


class MicropaymentApplication(BaseApplication):
    """Balances, transfers, and per-domain volume counters."""

    name = "micropayment"

    def __init__(
        self,
        accounts_per_domain: int = 256,
        initial_balance: float = 1_000_000.0,
        client_initial_balance: float = 10_000.0,
    ) -> None:
        if accounts_per_domain < 1:
            raise WorkloadError("accounts_per_domain must be >= 1")
        self._accounts_per_domain = accounts_per_domain
        self._initial_balance = initial_balance
        self._client_initial_balance = client_initial_balance
        self._client_homes: Dict[ClientId, DomainId] = {}
        # Every transfer writes its domain's volume key, and the state's
        # write log keeps each written key: one shared string per domain.
        self._volume_keys: Dict[DomainId, str] = {}

    # ------------------------------------------------------------------ setup

    def register_client(self, client: ClientId, home_domain: DomainId) -> None:
        """Declare that ``client`` is registered in ``home_domain``.

        The client's personal account is created in that domain's state when
        the domain initialises; mobile consensus later moves this account's
        value between domains as the device travels.
        """
        self._client_homes[client] = home_domain

    def initialize_domain(self, domain: Domain, state: StateStore) -> None:
        for index in range(self._accounts_per_domain):
            state.create_account(account_key(domain.id, index), self._initial_balance)
        state.put(volume_key(domain.id), 0.0)
        for client, home in self._client_homes.items():
            if home == domain.id:
                state.create_account(
                    client_account_key(client), self._client_initial_balance
                )

    # ------------------------------------------------------------------ execution

    def execute(
        self, transaction: Transaction, state: StateStore, domain: DomainId
    ) -> ExecutionResult:
        payload = transaction.payload
        operation = payload.get("op", "transfer")
        if operation == "transfer":
            return self._execute_transfer(payload, state, domain)
        if operation == "deposit":
            return self._execute_deposit(payload, state)
        if operation == "balance":
            account = payload["account"]
            value = state.get(account)
            return ExecutionResult(success=value is not None, result={"balance": value})
        if operation in ("channel_open", "channel_close"):
            # Channel funding/settlement simply adjusts the parties' balances.
            return self._execute_channel(operation, payload, state)
        return ExecutionResult(success=False, error=f"unknown op {operation!r}")

    def _execute_transfer(
        self, payload: Mapping[str, Any], state: StateStore, domain: DomainId
    ) -> ExecutionResult:
        sender = payload["sender"]
        recipient = payload["recipient"]
        amount = float(payload["amount"])
        if amount <= 0:
            return ExecutionResult(success=False, error="amount must be positive")
        written = []
        # Each involved domain applies only the side(s) of the transfer whose
        # account it hosts; the other side is executed by the other domain.
        if state.has_account(sender):
            if state.balance(sender) < amount:
                return ExecutionResult(success=False, error="insufficient balance")
            state.withdraw(sender, amount)
            written.append(sender)
        if state.has_account(recipient):
            state.deposit(recipient, amount)
            written.append(recipient)
        if not written:
            return ExecutionResult(success=False, error="no local account involved")
        volume = self._volume_keys.get(domain)
        if volume is None:
            volume = self._volume_keys[domain] = volume_key(domain)
        state.increment(volume, amount)
        written.append(volume)
        return ExecutionResult(success=True, written_keys=tuple(written))

    def _execute_deposit(
        self, payload: Mapping[str, Any], state: StateStore
    ) -> ExecutionResult:
        account = payload["account"]
        amount = float(payload["amount"])
        if not state.has_account(account):
            state.create_account(account, 0.0)
        state.deposit(account, amount)
        return ExecutionResult(success=True, written_keys=(account,))

    def _execute_channel(
        self, operation: str, payload: Mapping[str, Any], state: StateStore
    ) -> ExecutionResult:
        party_a = payload["party_a"]
        party_b = payload["party_b"]
        channel_key = f"channel:{payload['channel']}"
        if operation == "channel_open":
            deposit_a = float(payload["deposit_a"])
            deposit_b = float(payload["deposit_b"])
            if state.has_account(party_a):
                state.withdraw(party_a, deposit_a)
            if state.has_account(party_b):
                state.withdraw(party_b, deposit_b)
            state.put(channel_key, deposit_a + deposit_b)
            return ExecutionResult(
                success=True, written_keys=(party_a, party_b, channel_key)
            )
        final_a = float(payload["final_a"])
        final_b = float(payload["final_b"])
        if state.has_account(party_a):
            state.deposit(party_a, final_a)
        if state.has_account(party_b):
            state.deposit(party_b, final_b)
        state.put(channel_key, 0.0)
        return ExecutionResult(
            success=True, written_keys=(party_a, party_b, channel_key)
        )

    # ------------------------------------------------------------------ abstraction & mobility

    def abstraction(self) -> AbstractionFunction:
        """λ: only the per-domain exchanged-volume counters flow upwards."""
        return SelectKeysAbstraction(prefixes=("volume:",))

    def client_state(self, client: ClientId, state: StateStore) -> Dict[str, Any]:
        key = client_account_key(client)
        if key in state:
            return {key: state.get(key)}
        return {}

    def apply_client_state(
        self, client: ClientId, incoming: Mapping[str, Any], state: StateStore
    ) -> None:
        for key, value in incoming.items():
            state.put(key, value)
