"""The golden table: scaled runs pinned, bit for bit, to digests recorded on
the tree *before* each opt-in mechanism landed.

Every row is one ``(scenario, overrides, seed)`` run, its sha256 of the
``RunResult`` JSON and of the trace JSON (plus, where it was recorded, the
executed event count), and the knobs that must sit at their off value for the
pin to mean anything: a mechanism that is switched off must leave the run
exactly as it was before the mechanism existed.  No digest here was ever
re-recorded by a refactor — a row changes only with a deliberate behaviour
change, and says so in its comment.

The table is also what ROADMAP item 2(ii) swaps for outcome-equivalence pins.
"""

from operator import attrgetter
from typing import Any, Dict, NamedTuple, Optional, Tuple

import pytest

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
    Golden(
        "fig07a", _SMALL, 2023,
        "6c4c123cf17afd038916fd837e88b4db9e15faae43199d64e92130c950ce52d5",
        "6e42928e3c445223f9826b62f6c786c0fbb6d4cbbc383e0e98b6a89516428d15",
        36850,
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
    # The committed and aborted outcomes never changed (24 / 0).
    Golden(
        "byz-equivocation", _SMALL, 2023,
        "8c99b87231d19b99bc0873c5ff8105084aff131ba6d7efd65262d768099a0c5a",
        "1dc669331917c303332b6e597e8bdfd8483187883bcd245d81e95421a75f7aef",
        29591,
        off=("batch_size",),
    ),
    # The per-transaction coordinator before grouped 2PC (PR 4) — and, pinned
    # again unchanged on the trees before PRs 5, 6, 8 and 9, the flagship
    # wide-area run with every later mechanism off.
    Golden(
        "fig10a", _SMALL, 2023,
        "ddb3a0a244c603e5870d1949d8e2b62396563ea33a6d5cfce4755b20da8f810c",
        "aec7aa7a7a42810f828c7e85be5ea6f4b059d615b7227693cf24815b48531928",
        39558,
        off=(
            "xdomain_batch_size", "state_shards", "execution_lanes",
            "control.enabled", "speculation", "durability",
        ),
    ),  # fmt: skip
    Golden(
        "fig07b", _SMALL, 2023,
        "13154d6b369e1d8e9cd0ec4cfbcdfcef3d7e3b14e8a830a80daa71411b9466c1",
        "569326434b4a306f20eb942a6ff4616cbe900d45c563aba06875c07060f52b44",
        39805,
        off=("xdomain_batch_size",),
    ),
    # The batched sweep point before sharding/lanes (PR 5) and speculation (PR 8).
    Golden(
        "batch-sweep-b032", {"num_transactions": 48, "num_clients": 8}, 2023,
        "50f6011f2748769df2da2156aee7a99a3f114d375899f64e713b9dad350c5389",
        "2ad1168078d34616dd27acbed090fe814f5a7dd5ddece3640614caf55c2d858f",
        185083,
        off=("state_shards", "execution_lanes", "speculation", "durability"),
    ),
    # The 16-lane sweep base on the PR 5 tree, before the control plane.
    Golden(
        "shard-sweep", _SMALL, 2023,
        "965dba420b32252f804d853dd9572788a9e3c316f8493fb6c2d5c51aecebff6f",
        "a3a57552172095d86877c3019a418dc3d2a3169e3a345502bf7510e2c559643e",
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
                 "560bb58bad80211e9e78b7472e6201a8b43b4808c6d67b40b8362585c8fd4977"),
                ("1276153cf74bc798e50ea759761c0df4e4678b82b95bfecbd8c7a4a6a16ef803",
                 "6ecfc5034952df18d6e81f38c16bb8b93fd28affb0924b3df4bd4c221af22db1"),
                ("7a2178eb398ca5541f305b228357baa40ff9071ab9031c4ff279b3a9c4b137a9",
                 "c72e908107b8f00098f4eaa59c887949bab28710d5644c574cceccd86a402660"),
                ("3853603ded9287168c9eca4d1bdb2db8cf628095c75c7128183dfc4e5644de95",
                 "51e4186c271f64693b6995f584a31d38c525c6c72267c9ddd8033cc5955b4fc4"),
                ("74920cab3c0577f345470a1707e5a93407660819e7274f60e9759c35aa9e081c",
                 "10d892744736016fed8bdd0635539fd7845414e9fdbc33ed6ec37441f3b4a2ac"),
                ("99b7a1ba36f54d8312f85bf19b06d470a2ab2e6b68764846e1cd85fc5389fef0",
                 "3831f5e0b008ba3a073cd946e76f634fb5f2010d5df7c7f2230917e2505a76f7"),
                ("c57b4290a310ddd2adc8780a6889f8fca0cd982091c53be48fa5a94e79cd5c0f",
                 "434aa595cf0c3815b45d23381d0b9628a56f05fc1fb0c6b5573d862e4223ed69"),
                ("e93d4bae1a38412b96b45234417263a16add1b1ae3066e86ba97cc155297acb6",
                 "2d5e88a750846de7a0f61f6e3cf4e6f267f9cb773d235fa2e59b70dd45e0a607"),
                ("faa1407cb5277d1858e068b45ad1ac4d7ea9c1564cbfc1c2e16f2103a4ea4ef5",
                 "977cf5f0c0a313336e61381920cd937f31d86ff512131cd035894e0a1df5c167"),
                ("04c22b43a2a1f4e8903aec080ec3b0e62e555cc03777334087af469bb08d1998",
                 "1e87a70bb94db3f36b010bc5d3e9d5cfb3ac0c3e8f07886ba5ab4b51699fbd0d"),
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
                 "e0e473634e2ef23aad40b53c2c3d559552d755021de3e69083f8e7dfc7005378"),
                ("709e4bd65f0fc25d55e7f3aa58f11fc987fd22c436298291ed8d3df258a7fe77",
                 "f032ed82a60c2b5ae0e0b67884ad52a582490685e2d45b1db7b544e5ed4b7d30"),
                ("c361427c821c0ed541bf98b7e9dbada40b86f5ec893786955527a43902601b91",
                 "f3bf546e1275596f9dd71bf936bb85106fda8d722f3e87fa0238987c96fd7e76"),
                ("0db330d262ce00c181f2b2645fef1415ab60c69635021274251573094aec46cc",
                 "4dbe6a75782bda0a6c6ae98ce254cd156864ac9c1ff68816f72ba791cadfbbc6"),
                ("a015fb3891c0011f541016a7e1fdb00fc5b3490b58f9472011e9b04729d216ac",
                 "7593edf62ecb7cd492d6192d7fd26238a868cbd4c8f15b928afaefe2e6891d39"),
                ("8cb9fc0a7808b990e73b993471597092b828891e5add3475904ab4ed4f3c1538",
                 "93b8d8311399500d407a00001e24ff6776d3a024ed839a56aaa6b31839baf15d"),
                ("1be2d5d43312b6a34aa993cefad513c737f474b137746b43071d0f6acd175a4c",
                 "3a9a22361609f481a97fd79d0b160289e631688b594db9c2ad31ddb3f654d402"),
                ("b5a301dc2a0aae43dfe32b770f02ae79529d36048fde0bc7d03285886365ca0b",
                 "3372e86dd1aae43b78d33df5c407c715c791964f846ff5ec7d11ef635eda9348"),
                ("aa745590f6921941297bbb75c1f1e8d7338cd39ea423ae1218a8e2d49968040e",
                 "c93957ae6b898769b5b666404026d6f2196d0faa68d7166539f337af1054d19d"),
                ("ae1203d0251ee186d59e904cceaab7c9fff14789c9ba6b5d835b9d138cd46280",
                 "f4a28cc97252a54cf7fc0ab8e9d46f52fdcec6de88faabb01143409eb6898492"),
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


@pytest.mark.parametrize(
    "index", range(len(GOLDENS)), ids=[f"{g.scenario}-{g.seed}" for g in GOLDENS]
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
