"""The golden table: scaled runs pinned, bit for bit, to digests recorded on
the tree *before* each opt-in mechanism landed.

Every row is one ``(scenario, overrides, seed)`` run, its sha256 of the
``RunResult`` JSON and of the trace JSON (plus, where it was recorded, the
executed event count), and the knobs that must sit at their off value for the
pin to mean anything: a mechanism that is switched off must leave the run
exactly as it was before the mechanism existed.  No digest here was ever
re-recorded by a refactor — a row changes only with a deliberate behaviour
change, and says so in its comment.

Every row was re-recorded once together, when a lazy-propagation round with
nothing new stopped being sent: the traces lose the empty ``BlockPropagate``
messages and their parents' consensus slots (events fall 5-10x); the
results of 22 rows stay byte-identical.
``ALWAYS_SEND`` keeps six rows' digest pairs with every round sent, and
:func:`test_sending_every_round_reproduces_the_old_digests` proves the send
rule is the only difference between the two.

Every row, and ``ALWAYS_SEND``, was re-recorded a second time together when
lazy blocks became acknowledged and re-sent: the traces gain the parents'
``BlockAck`` messages.  Acknowledgements draw their latency from their own
random stream, so no other message's latency moves; only their handling
time does.  Every replica's ledger (and so every committed set) is
unchanged in all 26 rows, and 25 result digests are byte-identical;
``byz-equivocation-2023``'s latency, duration and throughput figures moved
by under 0.02 %.  The state store's switch from a write log to a
version-ordered key map, applied alone to the tree before, reproduced every
digest.

The five executed-event counts, and nothing else, were re-recorded when
lazy propagation moved from a round timer per replica to one shared clock
per height that ticks only the primaries: a backup no longer gets a timer
event per round, so the counts fall (fig07a 6502 -> 1686, byz-equivocation
5834 -> 4026, fig10a 6967 -> 1732, fig07b 8830 -> 3790, batch-sweep-b032
18437 -> 6443) while every result and trace digest, and ``ALWAYS_SEND``,
stays as it was.

The table is also what ROADMAP item 2(ii) swaps for outcome-equivalence pins.
"""

from operator import attrgetter
from typing import Any, Dict, NamedTuple, Optional, Tuple

import pytest

from repro.core.lazy import LazyPropagation
from repro.scenarios import registry
from tests.conftest import run_digests


class Golden(NamedTuple):
    scenario: str
    overrides: Dict[str, Any]
    seed: int
    result_sha256: str
    trace_sha256: str
    events_executed: Optional[int] = None
    #: ``OFF`` knobs this pin guards (each feature's "off == before it existed").
    off: Tuple[str, ...] = ()

    def build(self):
        return registry.get(self.scenario).with_overrides(**self.overrides)


#: Off value of every opt-in knob a golden guards.
OFF = {
    "batch_size": 1,  # PR 3: one slot per request
    "xdomain_batch_size": 1,  # PR 4: one 2PC exchange per transaction
    "state_shards": 1,  # PR 5
    "execution_lanes": 1,  # PR 5
    "control.enabled": False,  # PR 6: policy="static"
    "speculation": False,  # PR 8
    "durability": False,  # PR 9
    "control.conflict_leases": False,  # PR 10
    "control.split_shards": False,  # PR 10
}

#: A phase-2 knob at its off value must also leave no event of its kind behind.
ABSENT_KIND = {
    "control.conflict_leases": "control:lease",
    "control.split_shards": "control:split",
}

_SMALL = {"num_transactions": 24, "num_clients": 4}
_PHASE2_OFF = ("control.conflict_leases", "control.split_shards")

GOLDENS = (
    # Recorded from the unbatched engines before the batching refactor (PR 3).
    # Re-recorded when empty rounds stopped being sent (644.80 -> 644.87 tps,
    # same 24 / 0 outcome).
    Golden(
        "fig07a", _SMALL, 2023,
        "fcd1045ffd0c892a2294c5372aaabbc88404f67d7bbf158258ce5e5f79d6624d",
        "9252fe9f5d945493e1ba27ca00be1a9120829fb664585e30a0228eb6b8a0d8c9",
        1686,
        off=("batch_size",),
    ),
    # Re-recorded three times, all deliberate: gap-recovery retries gained
    # capped exponential backoff (150 -> 1200 ms), decide-echo refusal became
    # overridable by f+1 distinct echoes (the batched-equivocation storm fix
    # adds a handful of echo-adopt events to the trace), and the coordinator's
    # deadlock aborts became ordered outcomes.  This is the only row whose
    # run fires a coordinator timeout: its deadlock retries are now ordered
    # through the coordinator domain's consensus before the abort is sent
    # (2 retries and 6 prepares instead of 3 retries and 7, 21.8 -> 28.8 tps).
    # The committed and aborted outcomes never changed (24 / 0).  A fourth
    # re-record came when empty rounds stopped being sent (28.843 -> 28.837
    # tps, same outcome).
    Golden(
        "byz-equivocation", _SMALL, 2023,
        "3ef505e7952bed9ba042499b9411f48d58de156d2c472c2d3eac5ddc9fb4d322",
        "605520aadac3ece818ddcb36b5a1fe547337255b8eea3576cdf7a7de059ff226",
        4026,
        off=("batch_size",),
    ),
    # The per-transaction coordinator before grouped 2PC (PR 4) — and, pinned
    # again unchanged on the trees before PRs 5, 6, 8 and 9, the flagship
    # wide-area run with every later mechanism off.  Re-recorded when empty
    # rounds stopped being sent: the height-2 coordinators no longer order
    # empty blocks, which re-times their 2PC slots (73.83 -> 72.69 tps, same
    # 24 / 0 outcome).
    Golden(
        "fig10a", _SMALL, 2023,
        "ddf518ff9bb18bab855686a98f67daf948b3ab5f4a94edafdf4696194fb45a86",
        "d98d77207b50967bd0485c621eaaf58f01c2c1329de14798393ea06c60c9c328",
        1732,
        off=(
            "xdomain_batch_size", "state_shards", "execution_lanes",
            "control.enabled", "speculation", "durability",
        ),
    ),  # fmt: skip
    # Re-recorded when empty rounds stopped being sent (126.71 -> 126.41 tps,
    # same 24 / 0 outcome).
    Golden(
        "fig07b", _SMALL, 2023,
        "caff3a64e221da6c2150db6be220b79f95ecaa486d6921133cbae88fb297c100",
        "9b1f1fe3ed5fde9a4624c26ed77ff66f14efd714a6ef0f289711f73deacdfd00",
        3790,
        off=("xdomain_batch_size",),
    ),
    # The batched sweep point before sharding/lanes (PR 5) and speculation (PR 8).
    # This row and every one below it: only the trace was re-recorded when
    # empty rounds stopped being sent; the result digest is the original.
    Golden(
        "batch-sweep-b032", {"num_transactions": 48, "num_clients": 8}, 2023,
        "50f6011f2748769df2da2156aee7a99a3f114d375899f64e713b9dad350c5389",
        "63ea7245bd9a37525a08217ff44d22c86b93469956a1d3b186c11449b4af58ff",
        6443,
        off=("state_shards", "execution_lanes", "speculation", "durability"),
    ),
    # The 16-lane sweep base on the PR 5 tree, before the control plane.
    Golden(
        "shard-sweep", _SMALL, 2023,
        "965dba420b32252f804d853dd9572788a9e3c316f8493fb6c2d5c51aecebff6f",
        "6c400ccf32a049a8faef4c999470921b80775b9e40d6e544c29e551f85e35b6a",
        off=("control.enabled", "durability"),
    ),
    # Ten static and ten adaptive zipf-sweep seeds captured on the PR 9 tree,
    # before any phase-2 control code: ``static`` pins the untouched fast
    # path, ``adaptive`` the live control plane with every phase-2 knob off.
    *(
        Golden("zipf-sweep", _SMALL, seed, result, trace, off=("control.enabled", *_PHASE2_OFF))
        for seed, (result, trace) in enumerate(
            (
                ("12a270f0d2fb376b9d1f495379bc490e6714c8a87325578da1567c89a2fcf65d",
                 "0dbb36f61b99a39b9319a7a6fdae4761c5198b2615bbd647dafc7bbc1108a5a4"),
                ("1276153cf74bc798e50ea759761c0df4e4678b82b95bfecbd8c7a4a6a16ef803",
                 "9a9f97d465bd324720dca68f6320f46c4dab9875095c1ef008dd7a661d136c8c"),
                ("7a2178eb398ca5541f305b228357baa40ff9071ab9031c4ff279b3a9c4b137a9",
                 "a0db2ca691457a97bb138faf8b8ecec7c995d738ee6867059bdb653ccd48dd75"),
                ("3853603ded9287168c9eca4d1bdb2db8cf628095c75c7128183dfc4e5644de95",
                 "97d1af4763e4555a672f6cf609615c4c9eede14145b5a8988f83ed214bb5bf9b"),
                ("74920cab3c0577f345470a1707e5a93407660819e7274f60e9759c35aa9e081c",
                 "55675b538eefea30cf23510987880c6f59fa7c8c4c6bd2d28e2542f4ad62a049"),
                ("99b7a1ba36f54d8312f85bf19b06d470a2ab2e6b68764846e1cd85fc5389fef0",
                 "274325bd17b1d2c86690302af69bbd5ee07b3685c7a9a24a7e40deafc6c38ea4"),
                ("c57b4290a310ddd2adc8780a6889f8fca0cd982091c53be48fa5a94e79cd5c0f",
                 "9a52082f5b14fc14e1ac2a3b126308ad8b09cb98179272c1fc553562f1978fd6"),
                ("e93d4bae1a38412b96b45234417263a16add1b1ae3066e86ba97cc155297acb6",
                 "922531a28ad8e69e2965a6033695d3fb9c1cdaaa860e1578cfa2777ee6e0b534"),
                ("faa1407cb5277d1858e068b45ad1ac4d7ea9c1564cbfc1c2e16f2103a4ea4ef5",
                 "314eb419aba936341a275b403b18c27e53b63ad3bbbdfb834f43f5acd4409c92"),
                ("04c22b43a2a1f4e8903aec080ec3b0e62e555cc03777334087af469bb08d1998",
                 "b05c8653c6ca7f8a198178e3b009c4266ba2f39ade691b0f1191197762bb426a"),
            ),
            start=1,
        )
    ),
    *(
        Golden(
            "zipf-sweep-adaptive", {"num_transactions": 48, "num_clients": 8},
            seed, result, trace, off=_PHASE2_OFF,
        )
        for seed, (result, trace) in enumerate(
            (
                ("2b273e53f7d9a9c08cf6c00f0f1ad4c4ae4732f8466e2085f5923dd505db0eb0",
                 "26d45cd833f0d093950a2f8f767424f29e50f905c8143518a7683dcd8983bd3d"),
                ("709e4bd65f0fc25d55e7f3aa58f11fc987fd22c436298291ed8d3df258a7fe77",
                 "0f116b6ed17b8f65a7ef7c5ec9ef4702b8ac3e7219cb9eebfc203f7049d81cbb"),
                ("c361427c821c0ed541bf98b7e9dbada40b86f5ec893786955527a43902601b91",
                 "35d12041518620bbfe4b5c38835f002840bb20676af69ef0898b5c115feb6b83"),
                ("0db330d262ce00c181f2b2645fef1415ab60c69635021274251573094aec46cc",
                 "6ca0b8585479cd6cc6c82f55de8ac24d733b06d41058007fae00716093cc56ff"),
                ("a015fb3891c0011f541016a7e1fdb00fc5b3490b58f9472011e9b04729d216ac",
                 "48626dd071adcdcc7bff1d1b9c679a97f6ab2fb6bc9b01134b420c16dfde4bc4"),
                ("8cb9fc0a7808b990e73b993471597092b828891e5add3475904ab4ed4f3c1538",
                 "f864cc7e49806b3bcdc6f5fd5d2b1f90262c2edcefac0aca1ef5744d791bc709"),
                ("1be2d5d43312b6a34aa993cefad513c737f474b137746b43071d0f6acd175a4c",
                 "9fb922830122f561d94ed72a4eed2ce4bf774dd5bb961a715ae59c12b2cde6f0"),
                ("b5a301dc2a0aae43dfe32b770f02ae79529d36048fde0bc7d03285886365ca0b",
                 "878a46390e4ef300eaf9f8faf960605af51a9b62074ee14b49a698c9a02753bf"),
                ("aa745590f6921941297bbb75c1f1e8d7338cd39ea423ae1218a8e2d49968040e",
                 "4b0352cd6f2cb00edc32f6ca56ee7b392b2def1448917dc2ab61f68435492b01"),
                ("ae1203d0251ee186d59e904cceaab7c9fff14789c9ba6b5d835b9d138cd46280",
                 "96945c3c69b18229865bb320a604ddb25a7a11214092d7ef33c01cd85e4f217c"),
            ),
            start=1,
        )
    ),
)  # fmt: skip


@pytest.fixture(scope="module")
def digests(two_workers):
    """Every row's run, executed once, the rows spread over two processes."""
    scenarios = [golden.build() for golden in GOLDENS]
    seeds = [golden.seed for golden in GOLDENS]
    return list(two_workers.map(run_digests, scenarios, seeds))


#: The (result, trace) digests six rows have when every lazy round is sent,
#: empty or not: the oracle for the send rule.
ALWAYS_SEND = {
    "fig07a-2023": (
        "6c4c123cf17afd038916fd837e88b4db9e15faae43199d64e92130c950ce52d5",
        "060625d280448e0fc868a600d4b24ebdf73a102fa534fad4d4a1e788fa0dde15",
    ),
    "byz-equivocation-2023": (
        "e7595bcd1a40d2beaec637a605ef5223dd86999de0378fb2d8ed8981d33895fb",
        "62d0154a278d45399dbaf3d7af87eb45cdbb22c34b161fba286e44eefa9db4d9",
    ),
    "fig10a-2023": (
        "ddb3a0a244c603e5870d1949d8e2b62396563ea33a6d5cfce4755b20da8f810c",
        "a5888709540c90d631629567862d90b88a06561221f818f1e502a3a610ce90c4",
    ),
    "batch-sweep-b032-2023": (
        "50f6011f2748769df2da2156aee7a99a3f114d375899f64e713b9dad350c5389",
        "c042e39d85a083dcd4211f9c7d0cd9b5f1954586a97cc2535ef99ef02172c8de",
    ),
    "shard-sweep-2023": (
        "965dba420b32252f804d853dd9572788a9e3c316f8493fb6c2d5c51aecebff6f",
        "78fbeb984c1e4fd09dff39fa6d6ce2a2b0849997c98172a356a031a45990f037",
    ),
    "zipf-sweep-adaptive-1": (
        "2b273e53f7d9a9c08cf6c00f0f1ad4c4ae4732f8466e2085f5923dd505db0eb0",
        "acc5e262f97865a882f828226be27067d2673d9ed3d05eaac59a591b8ebb403e",
    ),
}


def _golden_id(golden):
    return f"{golden.scenario}-{golden.seed}"


def always_send_digests(golden):
    """One row's digests with every lazy round sent, whatever it carries."""
    carries_news = LazyPropagation._carries_news
    LazyPropagation._carries_news = lambda lazy, block: True
    try:
        return run_digests(golden.build(), golden.seed)[:2]
    finally:
        LazyPropagation._carries_news = carries_news


def test_sending_every_round_reproduces_the_old_digests(two_workers):
    rows = [golden for golden in GOLDENS if _golden_id(golden) in ALWAYS_SEND]
    assert len(rows) == len(ALWAYS_SEND)
    digests = dict(zip(map(_golden_id, rows), two_workers.map(always_send_digests, rows)))
    assert digests == ALWAYS_SEND


@pytest.mark.parametrize(
    "index", range(len(GOLDENS)), ids=[_golden_id(g) for g in GOLDENS]
)
def test_run_matches_its_pinned_digests(index, digests):
    golden = GOLDENS[index]
    scenario = golden.build()
    for knob in golden.off:
        assert attrgetter(knob)(scenario) == OFF[knob], knob
    result_sha256, trace_sha256, events_executed, kinds = digests[index]
    assert (result_sha256, trace_sha256) == (golden.result_sha256, golden.trace_sha256)
    if golden.events_executed is not None:
        assert events_executed == golden.events_executed
    for knob in golden.off:
        if knob in ABSENT_KIND:
            assert ABSENT_KIND[knob] not in kinds
