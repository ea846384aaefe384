"""Ledgers and blockchain state: linear chains, DAGs, abstraction, accounts."""

from repro.ledger.abstraction import (
    AbstractionFunction,
    PrefixSumAbstraction,
    SelectKeysAbstraction,
    SummarizedView,
    identity_abstraction,
)
from repro.ledger.block import BlockMessage
from repro.ledger.chain import ChainRecord, LinearLedger
from repro.ledger.dag import (
    DagLedger,
    DagVertex,
    OrderInconsistency,
    deterministic_abort_choice,
)
from repro.ledger.state import StateStore, shard_of_key
from repro.ledger.transaction import CommittedEntry, Transaction

__all__ = [
    "AbstractionFunction",
    "PrefixSumAbstraction",
    "SelectKeysAbstraction",
    "SummarizedView",
    "identity_abstraction",
    "BlockMessage",
    "ChainRecord",
    "LinearLedger",
    "DagLedger",
    "DagVertex",
    "OrderInconsistency",
    "deterministic_abort_choice",
    "StateStore",
    "shard_of_key",
    "CommittedEntry",
    "Transaction",
]
