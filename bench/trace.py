"""Outside-in tracer: spans around ``repro``'s entry points, installed from here.

``Tracer.install()`` replaces the listed methods *on their classes* with
timing wrappers and must run before ``materialize()`` (some call sites bind
methods once per object).  Each call becomes a span ``name, start, end,
parent`` (plus the transaction id where the call carries one); a span's *self*
time is its duration minus the part its child spans cover, so self times of
all spans add up to the root span.  Aggregates are kept for every span, full
records only for the first ``max_records``.  ``uninstall()`` puts every
original back.

Tracing costs host time (see ``bench.trace_overhead_ratio``), so end-to-end
metrics are never taken from a traced run; it never touches simulated time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "TARGETS"]

MAX_SPAN_RECORDS = 50_000

#: Component hooks a ``ProtocolComponent`` subclass may override; only the
#: ones a class defines itself are wrapped (the base-class no-ops are not).
_HOOKS = ("handle_message", "on_decide", "on_block_integrated", "on_transaction_appended")

#: ``(layer, module, class or None, attributes)``.  Three private methods are
#: listed because the layer's real work would otherwise be billed to the event
#: loop: ``SaguaroNode._process`` is the continuation ``deliver`` schedules
#: through the CPU queue, and ``ControlPlane._tick`` / ``LazyPropagation.
#: _round_tick`` are those components' timer-driven loops.  ``Network._deliver`` must
#: stay unwrapped: its envelope pool depends on the exact refcount there.
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim.dispatch", "repro.sim.simulator", "Simulator", ("run",)),
    ("sim.queue", "repro.sim.events", "EventQueue", ("push", "pop")),
    ("sim.network", "repro.sim.network", "Network", ("send", "multicast")),
    ("consensus", "repro.consensus.base", "ConsensusEngine", ("submit", "submit_group")),
    ("consensus", "repro.consensus.pbft", "PbftEngine", ("handle_message", "propose")),
    ("consensus", "repro.consensus.paxos", "PaxosEngine", ("handle_message", "propose")),
    ("core.node", "repro.core.node", "SaguaroNode", ("deliver", "_process")),
    ("core.coordinator", "repro.core.coordinator", "CoordinatorCrossDomainProtocol", _HOOKS),
    ("core.optimistic", "repro.core.optimistic", "OptimisticCrossDomainProtocol", _HOOKS),
    ("core.mobile", "repro.core.mobile", "MobileConsensusProtocol", _HOOKS),
    ("core.internal", "repro.core.internal", "InternalTransactionProtocol", _HOOKS),
    ("core.lazy", "repro.core.lazy", "LazyPropagation", _HOOKS + ("_round_tick",)),
    ("core.client", "repro.core.client", "EdgeDeviceClient", ("deliver",)),
    ("ledger.dag", "repro.ledger.dag", "DagLedger",
     ("integrate_block", "find_order_inconsistencies")),
    ("ledger.state", "repro.ledger.state", "StateStore",
     ("put", "increment", "create_account", "deposit", "withdraw", "transfer", "remove",
      "delta_since", "snapshot", "restore")),
    ("ledger.chain", "repro.ledger.chain", "LinearLedger", ("append", "append_transaction")),
    ("crypto.digest", "repro.crypto.digests", None, ("digest",)),
    ("crypto.cert", "repro.crypto.certificates", "Signer", ("certify",)),
    ("crypto.cert", "repro.crypto.certificates", "QuorumCertificate", ("verify",)),
    ("crypto.cert", "repro.crypto.keys", "KeyStore", ("sign", "verify")),
    ("faults.trace", "repro.faults.trace", "TraceRecorder", ("record",)),
    ("faults.check", "repro.faults.invariants", "InvariantChecker", ("check",)),
    ("control", "repro.control.plane", "ControlPlane", _HOOKS + ("_tick",)),
    ("control", "repro.control.telemetry", "TelemetryBus", ("observe", "snapshot")),
    ("recovery.wal", "repro.recovery.wal", "WriteAheadLog", ("append",)),
    ("workloads.generate", "repro.workloads.generator", "WorkloadGenerator", ("generate",)),
    ("topology.build", "repro.scenarios.spec", "Scenario", ("build_hierarchy",)),
    ("analysis.summary", "repro.analysis.metrics", "MetricsCollector", ("summary",)),
)


def _tid_of(args: Tuple[Any, ...]) -> Optional[str]:
    """The transaction id a call carries (payload, envelope or entry), if any."""
    for arg in args[1:3]:
        payload = getattr(arg, "payload", arg)
        tid = getattr(getattr(payload, "transaction", payload), "tid", None)
        if tid is not None:
            return str(tid)
    return None


class Tracer:
    """Collects spans from wrappers it installs around :data:`TARGETS`."""

    def __init__(self, max_records: int = MAX_SPAN_RECORDS) -> None:
        #: span name -> [calls, total_s, self_s]
        self.aggregates: Dict[str, List[float]] = {}
        #: (id, name, start, end, parent id, tid) for the first ``max_records`` spans
        self.records: List[Tuple[int, str, float, float, Optional[int], Optional[str]]] = []
        self.max_records = max_records
        self._stack: List[List[float]] = []  # open spans: [id, child seconds]
        self._spans_started = 0
        self._patched: List[Tuple[Any, str, Any, Any]] = []  # owner, attr, original, wrapper

    # ------------------------------------------------------------------ spans

    def _wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        aggregate = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._spans_started
            self._spans_started = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                aggregate[0] += 1
                aggregate[1] += elapsed
                aggregate[2] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                if span_id < self.max_records:
                    self.records.append((
                        span_id, name, start, end,
                        None if parent is None else int(parent[0]), _tid_of(args),
                    ))

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def call(self, name: str, func: Callable[..., Any], *args: Any) -> Any:
        """Run ``func(*args)`` as a span of the benchmark's own (a root span)."""
        return self._wrap(name, func)(*args)

    # ------------------------------------------------------------------ patching

    def install(self) -> None:
        for layer, module_name, class_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in attrs:
                    self._patch_function(layer, module, attr)
                continue
            cls = getattr(module, class_name)
            for attr in attrs:
                if attr not in vars(cls):
                    if attr in _HOOKS:
                        continue  # hook not overridden by this component
                    raise AttributeError(f"{class_name}.{attr} is gone; update bench/trace.py")
                original = vars(cls)[attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{class_name}.{attr} is not a plain method")
                wrapper = self._wrap(f"{layer}:{class_name}.{attr}", original)
                setattr(cls, attr, wrapper)
                self._patched.append((cls, attr, original, wrapper))

    def _patch_function(self, layer: str, module: Any, attr: str) -> None:
        """Rebind a module-level function in every ``repro`` module holding it."""
        original = getattr(module, attr)
        wrapper = self._wrap(f"{layer}:{attr}", original)
        for holder in list(sys.modules.values()):
            name = getattr(holder, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and (
                getattr(holder, "__dict__", {}).get(attr) is original
            ):
                setattr(holder, attr, wrapper)
        self._patched.append((None, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in reversed(self._patched):
            if owner is not None:
                setattr(owner, attr, original)
                continue
            # Modules imported while tracing picked the wrapper up by name.
            for holder in list(sys.modules.values()):
                if getattr(holder, "__dict__", {}).get(attr) is wrapper:
                    setattr(holder, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------ results

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer (the span-name prefix): calls and self seconds."""
        layers: Dict[str, Dict[str, float]] = {}
        for name, (calls, _total, self_s) in self.aggregates.items():
            entry = layers.setdefault(name.split(":", 1)[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
        return layers

    def to_dict(self) -> Dict[str, Any]:
        return {
            "aggregates": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.aggregates.items())
            },
            "spans_started": self._spans_started,
            "span_fields": ["id", "name", "start", "end", "parent", "tid"],
            "spans": self.records,
        }
