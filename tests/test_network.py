"""Unit tests for the latency model and the simulated network."""

import pytest

from repro.errors import NetworkError
from repro.sim.latency import (
    lan_profile,
    latency_profile,
    nearby_eu_profile,
    uniform_profile,
    wide_area_profile,
)
from repro.sim.network import Network
from repro.sim.simulator import Simulator


class _Probe:
    """Minimal endpoint recording deliveries."""

    def __init__(self, address, region):
        self.address = address
        self.region = region
        self.received = []

    def deliver(self, envelope):
        self.received.append(envelope)


class TestLatencyProfiles:
    def test_nearby_profile_uses_paper_rtts(self):
        profile = nearby_eu_profile()
        assert profile.rtt("FR", "MI") == 11.0
        assert profile.rtt("MI", "LDN") == 25.0
        assert profile.rtt("LDN", "PAR") == 10.0

    def test_rtt_is_symmetric(self):
        profile = wide_area_profile()
        assert profile.rtt("TY", "VA") == profile.rtt("VA", "TY")

    def test_intra_region_rtt_is_small(self):
        profile = nearby_eu_profile()
        assert profile.rtt("FR", "FR") < 1.0

    def test_unknown_pair_raises(self):
        with pytest.raises(NetworkError):
            nearby_eu_profile().rtt("FR", "TY")

    def test_one_way_is_half_rtt_plus_serialization(self):
        profile = nearby_eu_profile()
        one_way = profile.one_way_ms("FR", "MI", size_kb=0.2, rng=None)
        assert one_way == pytest.approx(5.5 + 0.2 / profile.bandwidth_kb_per_ms)

    def test_wide_area_is_slower_than_nearby_on_average(self):
        assert wide_area_profile().mean_rtt() > nearby_eu_profile().mean_rtt()

    def test_lan_profile_has_single_region(self):
        assert lan_profile().regions == ("LOCAL",)

    def test_profile_lookup_by_name(self):
        assert latency_profile("nearby-eu").name == "nearby-eu"
        assert latency_profile("wide-area").name == "wide-area"
        with pytest.raises(NetworkError):
            latency_profile("mars")

    def test_uniform_profile(self):
        profile = uniform_profile(("A", "B", "C"), rtt_ms=30.0)
        assert profile.rtt("A", "C") == 30.0


class TestNetwork:
    def _build(self, drop_rate=0.0):
        sim = Simulator(seed=1)
        net = Network(sim, nearby_eu_profile(), drop_rate=drop_rate)
        a = _Probe("a", "FR")
        b = _Probe("b", "MI")
        net.register(a)
        net.register(b)
        return sim, net, a, b

    def test_delivery_happens_after_latency(self):
        sim, net, a, b = self._build()
        net.send("a", "b", {"kind": "ping"})
        sim.run_until_idle()
        assert len(b.received) == 1
        assert b.received[0].deliver_at >= 5.5

    def test_duplicate_registration_rejected(self):
        sim, net, a, b = self._build()
        with pytest.raises(NetworkError):
            net.register(a)

    def test_unknown_recipient_rejected(self):
        sim, net, a, b = self._build()
        with pytest.raises(NetworkError):
            net.send("a", "ghost", {})

    def test_partition_blocks_traffic_until_healed(self):
        sim, net, a, b = self._build()
        net.partition("a", "b")
        net.send("a", "b", "blocked")
        sim.run_until_idle()
        assert not b.received
        net.heal("a", "b")
        net.send("a", "b", "open")
        sim.run_until_idle()
        assert len(b.received) == 1

    def test_crashed_endpoint_receives_nothing(self):
        sim, net, a, b = self._build()
        net.crash("b")
        net.send("a", "b", "lost")
        sim.run_until_idle()
        assert not b.received
        assert net.stats.messages_dropped == 1
        net.recover("b")
        net.send("a", "b", "found")
        sim.run_until_idle()
        assert len(b.received) == 1

    def test_drop_rate_loses_some_messages(self):
        sim, net, a, b = self._build(drop_rate=0.5)
        for _ in range(200):
            net.send("a", "b", "maybe")
        sim.run_until_idle()
        assert 0 < len(b.received) < 200

    def test_multicast_skips_sender(self):
        sim, net, a, b = self._build()
        sent = net.multicast("a", ["a", "b"], "hello")
        assert sent == 1

    def test_stats_track_wide_area_traffic(self):
        sim, net, a, b = self._build()
        net.send("a", "b", "far")
        c = _Probe("c", "FR")
        net.register(c)
        net.send("a", "c", "near")
        sim.run_until_idle()
        assert net.stats.messages_sent == 2
        assert net.stats.wide_area_messages == 1


def test_retained_envelope_is_left_intact():
    """An endpoint may keep every envelope it is handed: each one still
    reads its own sender, payload and delivery time after later traffic."""
    sim = Simulator(seed=1)
    net = Network(sim, nearby_eu_profile())
    a, b = _Probe("a", "FR"), _Probe("b", "MI")
    net.register(a)
    net.register(b)
    for i in range(10):
        net.send("a", "b", ("early", i))
        net.send("b", "a", ("early-back", i))
    sim.run_until_idle()
    kept = a.received + b.received
    before = [(e.sender, e.payload, e.deliver_at) for e in kept]
    assert sorted(e.payload for e in b.received) == [("early", i) for i in range(10)]
    for i in range(1000):
        net.send("a", "b", ("late", i))
    sim.run_until_idle()
    assert [(e.sender, e.payload, e.deliver_at) for e in kept] == before
    assert len({id(e) for e in a.received + b.received}) == 1020
