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
``ALWAYS_SEND`` keeps the six digest pairs from before, and
:func:`test_sending_every_round_reproduces_the_old_digests` proves the send
rule is the only change.

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
    "control.shed": False,  # PR 10
}

#: A phase-2 knob at its off value must also leave no event of its kind behind.
ABSENT_KIND = {
    "control.conflict_leases": "control:lease",
    "control.split_shards": "control:split",
    "control.shed": "control:shed",
}

_SMALL = {"num_transactions": 24, "num_clients": 4}
_PHASE2_OFF = ("control.conflict_leases", "control.split_shards", "control.shed")

GOLDENS = (
    # Recorded from the unbatched engines before the batching refactor (PR 3).
    # Re-recorded when empty rounds stopped being sent (644.80 -> 644.87 tps,
    # same 24 / 0 outcome).
    Golden(
        "fig07a", _SMALL, 2023,
        "fcd1045ffd0c892a2294c5372aaabbc88404f67d7bbf158258ce5e5f79d6624d",
        "94ab02c3f2e68f0af873d913098b54ad9f5b3a1228c6e5f8049dfcaa7bdd96b8",
        6232,
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
        "31f36acc5073bb554b2545c1c3a5bc273c211abf30c4aeaa45a2b2719a1f3dad",
        "b449a39f631ef6144854970ad11ad6d33066ce33c16250defb961772950599a4",
        5608,
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
        "d63332347a7e13472c2957955a8d95a09fe2983b4eec3deb292e9167f479bcae",
        6664,
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
        "6dc6ba39babf2c23ce92ab1fef349e416173d6bbd94929c1c88e53e453ad9b02",
        8542,
        off=("xdomain_batch_size",),
    ),
    # The batched sweep point before sharding/lanes (PR 5) and speculation (PR 8).
    # This row and every one below it: only the trace was re-recorded when
    # empty rounds stopped being sent; the result digest is the original.
    Golden(
        "batch-sweep-b032", {"num_transactions": 48, "num_clients": 8}, 2023,
        "50f6011f2748769df2da2156aee7a99a3f114d375899f64e713b9dad350c5389",
        "4dd8f3fab1e97de7e65748c88ddca509727adfbb1006d620d80ae9971497235e",
        17830,
        off=("state_shards", "execution_lanes", "speculation", "durability"),
    ),
    # The 16-lane sweep base on the PR 5 tree, before the control plane.
    Golden(
        "shard-sweep", _SMALL, 2023,
        "965dba420b32252f804d853dd9572788a9e3c316f8493fb6c2d5c51aecebff6f",
        "65d3ff9cf9c62a1d33a5c3041142880063e3e4c060991946205964cc9330a776",
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
                 "58f19afdb9bc1a492b4efdedda6eff9c5c1f937d437ae470def7335f69e25a7e"),
                ("1276153cf74bc798e50ea759761c0df4e4678b82b95bfecbd8c7a4a6a16ef803",
                 "fbc556f4e1943c6b6a21ce00216ced0f1c851beb2db851d0f92d95d11cadd6ca"),
                ("7a2178eb398ca5541f305b228357baa40ff9071ab9031c4ff279b3a9c4b137a9",
                 "9f2fb88a464f12d6b5268105231dd02d9a8b6e3e3845b2c2b25837c0ff3d9ddc"),
                ("3853603ded9287168c9eca4d1bdb2db8cf628095c75c7128183dfc4e5644de95",
                 "d8c751d3c4821954b374455ad16359ac07c747191c946b380683d73178b62bc3"),
                ("74920cab3c0577f345470a1707e5a93407660819e7274f60e9759c35aa9e081c",
                 "fde4f7425ac0b691dbe54e7eeb5d35a1f0a4a9dbc90317a63b77c7dd77f198e9"),
                ("99b7a1ba36f54d8312f85bf19b06d470a2ab2e6b68764846e1cd85fc5389fef0",
                 "e1abe5c80dba33f28f1f04427389b3293a7198b88ce38e53b48038c78922fe3a"),
                ("c57b4290a310ddd2adc8780a6889f8fca0cd982091c53be48fa5a94e79cd5c0f",
                 "5d37fbd065bc3788284d3b4730b7fa6037d926360f2ad971f9acc3d70c44a32f"),
                ("e93d4bae1a38412b96b45234417263a16add1b1ae3066e86ba97cc155297acb6",
                 "c4d1d914b8ee5cfa6bf71daa4a20f62d5c9082a747392add71539a690989d325"),
                ("faa1407cb5277d1858e068b45ad1ac4d7ea9c1564cbfc1c2e16f2103a4ea4ef5",
                 "fb99a648707f5f1be4bf8cd476fd495b777875dd13d67ca17fa31eb112857e7b"),
                ("04c22b43a2a1f4e8903aec080ec3b0e62e555cc03777334087af469bb08d1998",
                 "fc441950708a067912703d85d3dfe406e53e0c7862de81aada5f2919ced70582"),
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
                 "f49f4eea4be89518b1c4cabaeb54225fa6fea59c563f458a1d09738593f4b1f4"),
                ("709e4bd65f0fc25d55e7f3aa58f11fc987fd22c436298291ed8d3df258a7fe77",
                 "2eb14e509bba0017f284f3b7e18002dc1c5fb1cf8d20e22b732f14c6bd55f556"),
                ("c361427c821c0ed541bf98b7e9dbada40b86f5ec893786955527a43902601b91",
                 "882ca6926fd98bd431a0bfe95f79cdbbf3fdc89e7811913f0d96c27161e41fdb"),
                ("0db330d262ce00c181f2b2645fef1415ab60c69635021274251573094aec46cc",
                 "76dbad60bad540c2de8f53e219758eb4ab1b25314a3ae59c08b5b02845c9da39"),
                ("a015fb3891c0011f541016a7e1fdb00fc5b3490b58f9472011e9b04729d216ac",
                 "0af607865661d18eb896383b9b23f6e17c61fc958d05d2dad378edcff0492e2f"),
                ("8cb9fc0a7808b990e73b993471597092b828891e5add3475904ab4ed4f3c1538",
                 "bfebdf07cb4752e4c905a8b0a0b04c0a7b373f435f5945c668bd439f7829319e"),
                ("1be2d5d43312b6a34aa993cefad513c737f474b137746b43071d0f6acd175a4c",
                 "8af93a9a599d25bf18aaa234385dd9124870187648c26e3b2cb11d29daa8b197"),
                ("b5a301dc2a0aae43dfe32b770f02ae79529d36048fde0bc7d03285886365ca0b",
                 "13a15bc31fd40716bcd772ababf9584cb077320cdcf914c67615791ddca2ff05"),
                ("aa745590f6921941297bbb75c1f1e8d7338cd39ea423ae1218a8e2d49968040e",
                 "ac18cb8c09d9641d7dd910a2a0a2222aa99e208aff1d5a4e9a19a9de3f442b0b"),
                ("ae1203d0251ee186d59e904cceaab7c9fff14789c9ba6b5d835b9d138cd46280",
                 "c39963652885e5520ba29c77bda31047e7ffe3dc51c45d44517070241cd3d177"),
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


#: The (result, trace) digests six rows had while every lazy round was sent,
#: empty or not: the oracle for the send rule.
ALWAYS_SEND = {
    "fig07a-2023": (
        "6c4c123cf17afd038916fd837e88b4db9e15faae43199d64e92130c950ce52d5",
        "6e42928e3c445223f9826b62f6c786c0fbb6d4cbbc383e0e98b6a89516428d15",
    ),
    "byz-equivocation-2023": (
        "8c99b87231d19b99bc0873c5ff8105084aff131ba6d7efd65262d768099a0c5a",
        "1dc669331917c303332b6e597e8bdfd8483187883bcd245d81e95421a75f7aef",
    ),
    "fig10a-2023": (
        "ddb3a0a244c603e5870d1949d8e2b62396563ea33a6d5cfce4755b20da8f810c",
        "aec7aa7a7a42810f828c7e85be5ea6f4b059d615b7227693cf24815b48531928",
    ),
    "batch-sweep-b032-2023": (
        "50f6011f2748769df2da2156aee7a99a3f114d375899f64e713b9dad350c5389",
        "2ad1168078d34616dd27acbed090fe814f5a7dd5ddece3640614caf55c2d858f",
    ),
    "shard-sweep-2023": (
        "965dba420b32252f804d853dd9572788a9e3c316f8493fb6c2d5c51aecebff6f",
        "a3a57552172095d86877c3019a418dc3d2a3169e3a345502bf7510e2c559643e",
    ),
    "zipf-sweep-adaptive-1": (
        "2b273e53f7d9a9c08cf6c00f0f1ad4c4ae4732f8466e2085f5923dd505db0eb0",
        "e0e473634e2ef23aad40b53c2c3d559552d755021de3e69083f8e7dfc7005378",
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
