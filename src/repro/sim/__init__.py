"""Discrete-event simulation substrate: clock, events, CPU model, network."""

from repro.sim.cpu import CpuQueue, ExecutionLanes
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.latency import (
    LatencyModel,
    lan_profile,
    latency_profile,
    nearby_eu_profile,
    uniform_profile,
    wide_area_profile,
)
from repro.sim.network import Endpoint, Envelope, Network, NetworkStats
from repro.sim.rng import RngRegistry
from repro.sim.simulator import SharedClock, Simulator, Timer

__all__ = [
    "CpuQueue",
    "ExecutionLanes",
    "EventQueue",
    "ScheduledEvent",
    "LatencyModel",
    "lan_profile",
    "latency_profile",
    "nearby_eu_profile",
    "uniform_profile",
    "wide_area_profile",
    "Endpoint",
    "Envelope",
    "Network",
    "NetworkStats",
    "RngRegistry",
    "SharedClock",
    "Simulator",
    "Timer",
]
