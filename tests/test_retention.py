"""What a run keeps once its transactions are decided.

Several kinds of state used to grow with every committed transaction for no
reader's sake, and these tests hold each to its bound:

* consensus vote tallies: a decided slot's PBFT prepare / commit / echo
  tallies, its ``_commit_sent`` mark and the Paxos leader's accept tally are
  dropped when the slot is decided, and a late vote for it leaves nothing;
* the ledger records (``SequenceNumber``, ``CommittedEntry``,
  ``ChainRecord``) are slotted, and survive pickle, copy and ``replace`` in
  another process;
* trace details are shared (see ``tests/test_trace_invariants.py``), and
  what a domain's replicas compute identically per ledger position is kept
  once per domain (see ``tests/test_compute_once.py``);
* a decided cross-domain transaction leaves its coordinator, participant
  and group state: a coordinator replica keeps one compact outcome, a
  participant the vote it committed under (its ledger and abort memory
  answer the rest), and the duplicate-replay oracle below shows that late
  and duplicate messages are answered exactly as the whole state would.

A tracemalloc guard bounds the bytes the modules behind these, the DAG and
the digests retain per committed transaction per replica.
"""

import contextlib
import copy
import dataclasses
import gc
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc

from unittest import mock

import pytest

import repro
from repro.common.types import DomainId, SequenceNumber, TransactionStatus
from repro.consensus.messages import PaxosAccepted, PbftCommit, PbftPrepare
from repro.consensus.paxos import PaxosEngine
from repro.consensus.pbft import PbftEngine
from repro.core.coordinator import CoordinatorCrossDomainProtocol
from repro.core.messages import ClientRequest
from repro.ledger.chain import LinearLedger
from repro.recovery.wal import WalRecord
from repro.scenarios import registry
from repro.scenarios.runner import materialize
from repro.sim.network import Network
from tests.conftest import cross_transfer, internal_transfer, settled_2pc_state


def _tallies(engine):
    """``{table: slots}`` of every per-slot vote table ``engine`` keeps."""
    if isinstance(engine, PbftEngine):
        return {
            "prepare": set(engine._prepare_votes),
            "commit": set(engine._commit_votes),
            "echo": set(engine._echo_votes),
            "commit_sent": set(engine._commit_sent),
        }
    if isinstance(engine, PaxosEngine):
        return {"accept": set(engine._accept_votes)}
    return {}


def _decided_tally_keys(deployment):
    """Tally entries naming a decided slot, per (node, table): none is right."""
    stale = {}
    for node in deployment.nodes.values():
        for table, slots in _tallies(node.engine).items():
            decided = sorted(slot for slot in slots if node.engine.is_decided(slot))
            if decided:
                stale[(node.address, table)] = decided
    return stale


def _finished(name, seed=1, **overrides):
    run = materialize(registry.get(name).with_overrides(**overrides), seed)
    run.run()
    return run


@pytest.fixture(scope="module")
def bft_run():
    return _finished("shard-sweep-s016", num_transactions=240)


@pytest.fixture(scope="module")
def cft_run():
    return _finished("fig07a", num_transactions=48, num_clients=8)


class TestDecidedSlotsKeepNoTallies:
    def test_bft_run_keeps_tallies_of_undecided_slots_only(self, bft_run):
        engines = [node.engine for node in bft_run.deployment.nodes.values()]
        assert any(isinstance(e, PbftEngine) and e.is_decided(1) for e in engines)
        assert _decided_tally_keys(bft_run.deployment) == {}

    def test_cft_run_keeps_tallies_of_undecided_slots_only(self, cft_run):
        engines = [node.engine for node in cft_run.deployment.nodes.values()]
        assert any(isinstance(e, PaxosEngine) and e.is_decided(1) for e in engines)
        assert _decided_tally_keys(cft_run.deployment) == {}

    def test_wiped_and_rejoined_replicas_keep_no_decided_tallies(self):
        """WAL replay re-arms votes before their ``decide`` records, and a
        peer's checkpoint may cover slots the replay left undecided: both
        must end with the slot's tallies gone."""
        run = _finished("churn-sweep")
        kinds = run.trace.kinds()
        assert kinds.get("recovery:rejoin", 0) >= 16
        assert sum(e.get("votes") for e in run.trace.events("recovery:replay")) > 0
        assert _decided_tally_keys(run.deployment) == {}

    def _replica(self, run, engine_type):
        return next(
            node for node in run.deployment.nodes.values()
            if isinstance(node.engine, engine_type)
            and not node.engine.is_primary
            and node.engine.is_decided(1)
        )

    @pytest.mark.parametrize("message_type", [PbftCommit, PbftPrepare])
    def test_late_pbft_vote_for_a_decided_slot_leaves_nothing(
        self, bft_run, message_type
    ):
        node = self._replica(bft_run, PbftEngine)
        engine = node.engine
        peer = next(n for n in node.domain.node_names if n != node.address)
        digest = engine.payload_digest(engine._log.payload_of(1))
        events = len(bft_run.trace)
        vote = message_type(
            domain=node.domain.id, view=engine.view, slot=1,
            payload_digest=digest, sender=peer,
        )
        assert engine.handle_message(vote, peer)
        assert all(1 not in slots for slots in _tallies(engine).values())
        assert len(bft_run.trace) == events

    def test_replayed_votes_and_restored_checkpoints_leave_no_decided_tallies(self):
        """Directly, on one replica of a finished run: a WAL vote record for
        a decided slot re-adopts its payload but re-arms no tally, and a
        checkpoint cut drops the tallies of every slot it covers."""
        run = _finished("shard-sweep-s016", num_transactions=32)
        node = self._replica(run, PbftEngine)
        engine = node.engine
        digest = engine.payload_digest(engine._log.payload_of(1))
        for kind in ("prepare-vote", "commit-vote"):
            engine.rehydrate_vote(WalRecord(
                kind=kind, slot=1, view=engine.view, digest=digest,
                payload=engine._log.payload_of(1),
            ))
        assert all(1 not in slots for slots in _tallies(engine).values())
        assert engine._payloads[1] == engine._log.payload_of(1)

        ahead = engine.next_undelivered_slot + 2
        peer = next(n for n in node.domain.node_names if n != node.address)
        engine.handle_message(PbftPrepare(
            domain=node.domain.id, view=engine.view, slot=ahead,
            payload_digest=digest, sender=peer,
        ), peer)
        engine.rehydrate_vote(WalRecord(
            kind="commit-vote", slot=ahead, view=engine.view, digest=digest
        ))
        assert ahead in _tallies(engine)["prepare"] | _tallies(engine)["commit_sent"]
        engine.resume_from(ahead, engine.view)
        assert engine.is_decided(ahead)
        assert all(ahead not in slots for slots in _tallies(engine).values())

    def test_late_accepted_for_a_decided_slot_leaves_nothing(self, cft_run):
        leader = next(
            node for node in cft_run.deployment.nodes.values()
            if isinstance(node.engine, PaxosEngine)
            and node.engine.is_primary
            and node.engine.is_decided(1)
        )
        peer = next(n for n in leader.domain.node_names if n != leader.address)
        events = len(cft_run.trace)
        accepted = PaxosAccepted(
            domain=leader.domain.id, view=leader.engine.view, slot=1,
            payload_digest=b"late",
        )
        assert leader.engine.handle_message(accepted, peer)
        assert 1 not in leader.engine._accept_votes
        assert len(cft_run.trace) == events


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("xbatch-sweep-g008", {"num_transactions": 96}),
        ("fig07a", {"num_transactions": 48, "num_clients": 8}),
    ],
    ids=["grouped", "per-transaction"],
)
def test_settled_2pc_states_keep_no_timer(name, overrides):
    """With nothing pending, no coordinator, participant or group state is
    left to hold a timer — each went at its decision — and none of the
    compact records kept in their place (one per decided transaction per
    replica) holds a timer, an event or a closure."""
    run = _finished(name, **overrides)
    assert run.summary.pending == 0
    assert settled_2pc_state(run.deployment) == {"states": 0, "groups": 0, "holding": 0}
    records = sum(
        len(component._coord) + len(component._part)
        for node in run.deployment.nodes.values()
        for component in node.components
        if isinstance(component, CoordinatorCrossDomainProtocol)
    )
    assert records > 50


# ---------------------------------------------------------------------------
# Duplicate-replay oracle
# ---------------------------------------------------------------------------


def _keep_settled_state(table, key, record):
    """``CoordinatorCrossDomainProtocol._retire`` switched off: a decided
    state stays whole in its table, as it did before it was retired."""


def _replayed(name, seed, overrides, retire):
    """Run ``name``, then hand every component each 2PC message it processed
    and each payload it was decided, again, in the order it first got them.

    Returns what the run and the replay left behind: the result, the trace,
    every send the replay (and the simulated second it is given to settle)
    caused, and each replica's outcome of every transaction it knows."""
    processed = []
    handle = CoordinatorCrossDomainProtocol.handle_message
    decide = CoordinatorCrossDomainProtocol.on_decide

    def handle_message(component, payload, sender):
        if not isinstance(payload, ClientRequest):
            processed.append((component, handle, (payload, sender)))
        return handle(component, payload, sender)

    def on_decide(component, slot, payload):
        processed.append((component, decide, (slot, payload)))
        return decide(component, slot, payload)

    sends = []
    send = Network.send

    def spy(network, sender, recipient, payload, *args, **kwargs):
        sends.append((sender, recipient, payload))
        return send(network, sender, recipient, payload, *args, **kwargs)

    with contextlib.ExitStack() as stack:
        if not retire:
            stack.enter_context(
                mock.patch.object(
                    CoordinatorCrossDomainProtocol, "_retire", staticmethod(_keep_settled_state)
                )
            )
        with mock.patch.object(
            CoordinatorCrossDomainProtocol, "handle_message", handle_message
        ), mock.patch.object(CoordinatorCrossDomainProtocol, "on_decide", on_decide):
            run = materialize(registry.get(name).with_overrides(**overrides), seed)
            result = run.run()
        first = run.trace.to_json()
        with mock.patch.object(Network, "send", spy):
            for component, method, args in processed:
                method(component, *args)
            simulator = run.deployment.simulator
            simulator.run(until_ms=simulator.now + 1_000.0)
    outcomes, ledgers = {}, {}
    for node in run.deployment.nodes.values():
        for component in node.components:
            if isinstance(component, CoordinatorCrossDomainProtocol):
                tids = {*component._coord, *component._part, *component._aborted_tids}
                outcomes[node.address] = {tid: component.outcome_of(tid) for tid in tids}
        if node.ledger is not None:
            ledgers[node.address] = node.ledger.committed_order()
    replay = (run.trace.to_json(), sends, outcomes, ledgers)
    return result, first, replay, len(processed)


@pytest.mark.parametrize(
    "name, seed, overrides",
    [
        ("xbatch-sweep-g008", 1, {"num_transactions": 96}),
        ("fig07a", 1, {"num_transactions": 48, "num_clients": 8}),
        ("lease-rejoin", 4, {}),
    ],
    ids=["grouped", "per-transaction", "lease-rejoin"],
)
def test_replayed_messages_are_answered_as_by_the_whole_state(name, seed, overrides):
    """Duplicate-replay oracle: every 2PC message and decided payload each
    component processed is re-delivered after the run, once with decided
    state retired (as shipped) and once with it kept whole.  Both runs, and
    both replays, must send the same messages, trace the same events and
    leave every replica with the same outcomes."""
    result, first, replay, processed = _replayed(name, seed, overrides, retire=True)
    _, sends, outcomes, _ = replay
    assert processed > 300 and sends
    assert any(TransactionStatus.COMMITTED in table.values() for table in outcomes.values())
    assert (result, first, replay) == _replayed(name, seed, overrides, retire=False)[:3]


# ---------------------------------------------------------------------------
# Slotted ledger records
# ---------------------------------------------------------------------------


def _records():
    """One of each slotted record, with ``CommittedEntry``'s digest cached."""
    d11, d12 = DomainId(1, 1), DomainId(1, 2)
    ledger = LinearLedger(d11)
    ledger.append_transaction(internal_transfer(d11), commit_time_ms=1.5)
    record = ledger.append_transaction(
        cross_transfer([d11, d12]),
        sequence=SequenceNumber.single(d12, 7),
        commit_time_ms=2.5,
    )
    assert record.entry._canonical is not None
    return record.entry.sequence, record.entry, record


#: Run in a second interpreter: unpickle the records from stdin, copy and
#: ``replace`` them, and pickle everything back to stdout.
_ROUND_TRIP = """
import copy, dataclasses, pickle, sys
from repro.common.types import DomainId, SequenceNumber, TransactionStatus
sequence, entry, record = pickle.loads(sys.stdin.buffer.read())
assert not hasattr(entry, "__dict__") and entry._canonical is not None
out = {
    "loaded": (sequence, entry, record),
    "copies": (copy.copy(record), copy.deepcopy(record)),
    "replaced": (
        dataclasses.replace(entry, status=TransactionStatus.ABORTED),
        dataclasses.replace(record, block_hash=b"moved"),
        dataclasses.replace(sequence),
    ),
    "canonical": entry.canonical_bytes(),
    "rebuilt": SequenceNumber.multi(
        (DomainId(domain.height, domain.index), position)
        for domain, position in sequence.parts
    ),
}
sys.stdout.buffer.write(pickle.dumps(out))
"""


def _interpreters():
    """This interpreter, plus ``python3.10`` when one runs here (CI's floor)."""
    found = [sys.executable]
    other = shutil.which("python3.10")
    if other is not None and subprocess.run(
        [other, "--version"], capture_output=True
    ).returncode == 0:
        found.append(other)
    return found


def test_slotted_records_survive_pickle_copy_and_replace_in_another_process():
    sequence, entry, record = _records()
    for value in (sequence, entry, record):
        assert not hasattr(value, "__dict__"), type(value).__name__
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    for interpreter in _interpreters():
        done = subprocess.run(
            [interpreter, "-c", _ROUND_TRIP],
            input=pickle.dumps((sequence, entry, record), protocol=4),
            capture_output=True,
            env=env,
            check=True,
        )
        out = pickle.loads(done.stdout)
        assert out["loaded"] == (sequence, entry, record), interpreter
        assert out["copies"] == (record, record)
        aborted, moved, same_sequence = out["replaced"]
        assert aborted.status is TransactionStatus.ABORTED and aborted.tid == entry.tid
        assert aborted._canonical is None  # replace() starts the cache cold
        assert aborted.canonical_bytes() == entry.canonical_bytes()
        assert moved.block_hash == b"moved" and moved.entry == entry
        assert same_sequence == sequence
        assert out["canonical"] == entry.canonical_bytes()
        assert out["rebuilt"] == sequence and hash(out["rebuilt"]) == hash(sequence)
    # And the same three operations in this process.
    assert copy.deepcopy(record) == record
    assert dataclasses.replace(entry, status=TransactionStatus.ABORTED).tid == entry.tid
    assert pickle.loads(pickle.dumps(record)) == record


# ---------------------------------------------------------------------------
# Memory guard
# ---------------------------------------------------------------------------

#: Modules whose retained allocations the guard sums.
_GUARDED = (
    "faults/trace.py",
    "ledger/chain.py",
    "common/types.py",
    "consensus/pbft.py",
    "ledger/dag.py",
    "crypto/digests.py",
)

#: Bytes those modules retained per committed transaction per replica at the
#: end of the guard's run before replicas shared what they compute
#: identically and records stopped storing what their position gives, by
#: Python version (3.11 elsewhere).
_BEFORE = {(3, 10): 270.1, (3, 11): 269.9, (3, 12): 269.8}


def test_retained_bytes_per_committed_transaction_per_replica():
    """tracemalloc guard on ``shard-sweep-s016`` at 480 transactions, seed 1
    (28 height-1 replicas, every transaction committed).

    The first four guarded modules once retained 252.2 B (on Python 3.10),
    290.4 B (3.11) and 284.4 B (3.12) per committed transaction per replica,
    of which trace details, ledger records' attribute dicts and decided
    slots' PBFT tallies were most; about 145 B once those were gone.  With
    the DAG and the digests added, the six retained 270 B on each version;
    after each domain's replicas shared their sequence numbers, entry
    digests and block hashes, DAG vertices kept a single parent bare and an
    ordinal only when cross-domain, and trace events stopped storing their
    index, about 171 B.  The bound is 70 % of the before figure.
    """
    run = materialize(
        registry.get("shard-sweep-s016").with_overrides(num_transactions=480), 1
    )
    gc.collect()
    tracemalloc.start()
    try:
        result = run.run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = 0
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace(os.sep, "/")
        if filename.endswith(tuple("/repro/" + name for name in _GUARDED)):
            retained += stat.size
    replicas = sum(
        1 for node in run.deployment.nodes.values() if node.ledger is not None
    )
    committed = result.summary.committed
    assert committed == 480 and replicas == 28
    per_transaction = retained / committed / replicas
    before = _BEFORE.get(sys.version_info[:2], min(_BEFORE.values()))
    assert per_transaction <= 0.70 * before, per_transaction
