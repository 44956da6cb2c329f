"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public calls into each ``repro`` layer (the
table in README.md) with a span: layer, start, end, parent span and the
message id where the call has one.  Spans live in flat arrays while the
run goes and are written out once it ends (:meth:`SpanRecorder.dump`).
A layer's self time is its span time minus the part its child spans
cover (:func:`self_times`); the wall time no span covers is the
residual.  Nothing here runs in the untraced runs that give the
end-to-end metrics.
"""

import gzip
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: layers that get spans, in report order
LAYERS = (
    "topology", "routing", "graph", "placement", "stamp", "delivery", "sim",
    "network", "trace", "faults", "reconfigure", "check", "asyncio",
    "service", "wire", "live",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}


class SpanRecorder:
    """In-memory span log plus per-layer counters."""

    def __init__(self, timer: Callable[[], float] = perf_counter):
        self._timer = timer
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.msg = array("l")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        #: program objects the wrappers saw created (routing tables,
        #: services) and detector suspicion times, for end-of-run readings
        self.instances: Dict[str, List[Any]] = defaultdict(list)

    def begin(self, layer: str, msg: int = -1) -> int:
        index = len(self.layer)
        self.layer.append(_INDEX[layer])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.msg.append(msg)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self._timer())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self._timer()
        if self._stack[-1] == index:
            self._stack.pop()
        else:  # a request span left open across an await in the server
            self._stack.remove(index)

    def spans(self) -> Iterable[Tuple[str, float, float, int, int]]:
        for i in range(len(self.layer)):
            yield (LAYERS[self.layer[i]], self.start[i], self.end[i],
                   self.parent[i], self.msg[i])

    def dump(self, path: str) -> None:
        """Write every span to a gzip file.

        One JSON header line (layer names, span count, array typecodes),
        then the raw ``layer``, ``start``, ``end``, ``parent`` and ``msg``
        arrays in that order, native byte order.
        """
        columns = (self.layer, self.start, self.end, self.parent, self.msg)
        header = {
            "layers": LAYERS,
            "spans": len(self.layer),
            "columns": ["layer", "start", "end", "parent", "msg"],
            "typecodes": [column.typecode for column in columns],
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                out.write(column.tobytes())


def self_times(
    spans: Iterable[Tuple[str, float, float, int, int]],
) -> Tuple[Dict[str, float], float]:
    """Per-layer self time, and the time covered by root spans.

    ``spans`` are ``(layer, start, end, parent, msg)`` in begin order, so
    a parent always precedes its children.
    """
    rows = list(spans)
    child_time = [0.0] * len(rows)
    for layer, start, end, parent, _ in rows:
        if parent >= 0:
            child_time[parent] += end - start
    own: Dict[str, float] = defaultdict(float)
    covered = 0.0
    for i, (layer, start, end, parent, _) in enumerate(rows):
        own[layer] += (end - start) - child_time[i]
        if parent < 0:
            covered += end - start
    return dict(own), covered


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def everywhere(self, func: Callable, value: Callable) -> None:
        """Replace ``func`` in every loaded module that holds it by name."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, held in list(namespace.items()):
                if held is func:
                    self.set(module, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _wrap(
    rec: SpanRecorder,
    layer: str,
    fn: Callable,
    after: Optional[Callable[[tuple, Any], None]] = None,
    msg_of: Optional[Callable[[tuple], int]] = None,
) -> Callable:
    begin, finish = rec.begin, rec.finish

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = begin(layer, msg_of(args) if msg_of is not None else -1)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(index)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def install(rec: SpanRecorder) -> Patches:
    """Wrap every layer's public calls; returns the patches to undo."""
    from repro.check import graph_verify, invariants
    from repro.check import churn as check_churn
    placement = importlib.import_module("repro.core.placement")
    reconfigure = importlib.import_module("repro.core.reconfigure")
    from repro.core.delivery import DeliveryState
    from repro.core.protocol import SequencingNodeProcess
    from repro.core.sequencing_graph import SequencingGraph
    from repro.faults import failover, plan
    from repro.faults.detector import HeartbeatDetector
    from repro.obs.live import LiveMonitor
    from repro.runtime import service as service_mod
    from repro.runtime.asyncio_backend import AsyncioChannel, AsyncioScheduler
    from repro.runtime.trace import Trace
    from repro.sim.events import Simulator
    from repro.sim.network import Channel
    from repro.topology import clusters, gtitm
    from repro.topology.routing import RoutingTable

    patches = Patches()
    counts, maxima = rec.counts, rec.maxima
    registry = rec.instances

    def method(cls: type, name: str, layer: str, **kw: Any) -> None:
        patches.set(cls, name, _wrap(rec, layer, cls.__dict__[name], **kw))

    def function(func: Callable, layer: str, **kw: Any) -> None:
        patches.everywhere(func, _wrap(rec, layer, func, **kw))

    def count(key: str, by: Callable[[tuple, Any], float] = lambda a, r: 1) -> Callable:
        def after(args: tuple, result: Any) -> None:
            counts[key] += by(args, result)
        return after

    # topology, routing
    for func in (gtitm.generate_transit_stub, clusters.attach_hosts):
        function(func, "topology", after=count("topology.calls"))
    init = RoutingTable.__dict__["__init__"]

    def routing_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        registry["routing"].append(self)

    patches.set(RoutingTable, "__init__", routing_init)
    for name in ("delay", "delays_from", "path", "nearest"):
        method(RoutingTable, name, "routing", after=count("routing.lookups"))

    # graph, placement
    def build_after(args: tuple, graph: Any) -> None:
        counts["graph.builds"] += 1
        counts["graph.atoms"] += len(graph.atoms)

    build = SequencingGraph.__dict__["build"].__func__
    patches.set(SequencingGraph, "build", classmethod(_wrap(rec, "graph", build, after=build_after)))
    method(SequencingGraph, "clone", "graph", after=count("graph.builds"))
    method(SequencingGraph, "add_group", "graph", after=count("graph.atoms", lambda a, r: len(r)))
    for name in ("remove_group", "compact"):
        method(SequencingGraph, name, "graph")
    function(placement.place, "placement", after=count("placement.nodes", lambda a, r: len(r.nodes)))
    function(placement.co_locate_and_order, "placement")

    # the per-message hot path
    method(SequencingNodeProcess, "process_at", "stamp",
           after=count("stamp.calls"), msg_of=lambda a: a[2].msg_id)

    def on_receive_after(args: tuple, result: Any) -> None:
        counts["delivery.arrivals"] += 1
        if not result:
            counts["delivery.buffered"] += 1
        depth = args[0].buffered_high_water
        if depth > maxima["delivery.holdback_max"]:
            maxima["delivery.holdback_max"] = depth

    method(DeliveryState, "on_receive", "delivery", after=on_receive_after,
           msg_of=lambda a: getattr(a[2], "msg_id", -1) if len(a) > 2 else -1)

    def step_after(args: tuple, result: Any) -> None:
        if result:
            counts["sim.events"] += 1
        depth = args[0].heap_high_water
        if depth > maxima["sim.heap_high_water"]:
            maxima["sim.heap_high_water"] = depth

    method(Simulator, "step", "sim", after=step_after)

    def send_after(args: tuple, result: Any) -> None:
        counts["network.sends"] += 1
        counts["network.bytes"] += args[2] if len(args) > 2 else 0
        if result is False:
            counts["network.drops"] += 1

    for cls in (Channel, AsyncioChannel):
        method(cls, "send", "network", after=send_after)
    method(Trace, "record", "trace", after=count("trace.records"))

    # faults, reconfiguration, audits
    function(failover.fail_over, "faults", after=count("faults.failovers"))
    method(HeartbeatDetector, "receive", "faults")

    def detector_stopped(args: tuple, result: Any) -> None:
        registry["suspicion_vms"].extend(silence for _, _, silence in args[0].suspicions)

    method(HeartbeatDetector, "stop", "faults", after=detector_stopped)
    for cls in (plan.CrashNode, plan.CrashHost, plan.LinkOutage, plan.Partition,
                plan.DelaySpike, plan.LossWindow):
        method(cls, "apply", "faults")

    def switch_after(args: tuple, result: Any) -> None:
        counts["reconfigure.switches"] += 1
        stats = args[0].epoch_switch_stats or {}
        counts["reconfigure.drain_events"] += stats.get("drain_events") or 0

    function(reconfigure.reconfigure, "reconfigure", after=switch_after)
    for func in (invariants.verify_run, check_churn.collect_epoch_log,
                 check_churn.verify_churn, graph_verify.verify_graph):
        function(func, "check")

    # the live path (serve_tcp's server process)
    def fire_after(args: tuple, result: Any) -> None:
        counts["asyncio.callbacks"] += 1
        depth = args[0].heap_high_water
        if depth > maxima["asyncio.timers_high_water"]:
            maxima["asyncio.timers_high_water"] = depth

    method(AsyncioScheduler, "_fire", "asyncio", after=fire_after)
    handle = service_mod.OrderingService.__dict__["handle"]

    async def handle_wrapper(self: Any, req: Dict[str, Any]) -> Dict[str, Any]:
        counts["service.requests"] += 1
        if req.get("op") == "drain":  # waits for quiescence: not service work
            return await handle(self, req)
        index = rec.begin("service")
        try:
            return await handle(self, req)
        finally:
            rec.finish(index)

    patches.set(service_mod.OrderingService, "handle", handle_wrapper)
    service_init = service_mod.OrderingService.__dict__["__init__"]

    def service_init_wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
        service_init(self, *args, **kwargs)
        registry["service"].append(self)

    patches.set(service_mod.OrderingService, "__init__", service_init_wrapper)

    class _TimedJson:
        loads = staticmethod(_wrap(rec, "wire", json.loads))
        dumps = staticmethod(_wrap(rec, "wire", json.dumps))

    patches.set(service_mod, "json", _TimedJson)
    method(LiveMonitor, "observe", "live", after=count("live.records"))
    return patches


# ---------------------------------------------------------------------------
# The per-layer report
# ---------------------------------------------------------------------------


def latency_metrics(latencies: List[float]) -> Dict[str, float]:
    """p50/p99/p999 of ascending latencies; p999 needs ten samples beyond it."""
    from calib import percentile, tail_percentile

    if tail_percentile(len(latencies)) < 99.9:
        raise ValueError(f"{len(latencies)} deliveries are too few for a p999")
    return {
        "latency.samples": len(latencies),
        "latency.p50_ms": percentile(latencies, 50.0),
        "latency.p99_ms": percentile(latencies, 99.0),
        "latency.p999_ms": percentile(latencies, 99.9),
    }


#: counters and maxima the wrappers keep (zero when a layer is idle)
COUNTED = (
    "topology.calls", "routing.lookups", "graph.builds", "graph.atoms",
    "placement.nodes", "stamp.calls", "delivery.arrivals", "delivery.buffered",
    "delivery.holdback_max", "sim.events", "sim.heap_high_water",
    "network.sends", "network.bytes", "network.drops", "trace.records",
    "faults.failovers", "reconfigure.switches", "reconfigure.drain_events",
    "asyncio.callbacks", "asyncio.timers_high_water", "service.requests",
    "live.records", "live.alerts",
)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(
    own: Dict[str, float],
    counts: Dict[str, float],
    maxima: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric from span self times, counters and readings."""
    metrics: Dict[str, float] = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    metrics.update(dict.fromkeys(COUNTED, 0.0))
    metrics["service.handle_s"] = metrics.pop("service.self_s")
    metrics["service.wire_s"] = metrics.pop("wire.self_s")
    metrics.update(counts)
    metrics.update(maxima)
    metrics["stamp.ns_per_call"] = _per(own.get("stamp", 0.0), counts["stamp.calls"], 1e9)
    metrics["delivery.ns_per_arrival"] = _per(
        own.get("delivery", 0.0), counts["delivery.arrivals"], 1e9)
    metrics["delivery.buffered_frac"] = _per(
        counts["delivery.buffered"], counts["delivery.arrivals"])
    metrics["network.sends_per_delivery"] = _per(
        counts["network.sends"], extra["latency.samples"])
    metrics.update(extra)
    return metrics
