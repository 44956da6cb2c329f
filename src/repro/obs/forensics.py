"""Ordering forensics: journey reconstruction and stall attribution.

The paper's contribution is an *instant* deliver-or-buffer decision made
from sequencing-atom stamps (Sections 3.1/3.3).  The hold-back gauges
say *that* a receiver buffered; this module says *why* — which missing
``(atom, expected_seq)`` pair blocked each message, for how long, and
what delayed the missing predecessor (loss, a link outage, a crashed
peer, failover replay, or nothing at all — it was genuinely in flight).

Everything is rebuilt from trace records by the one lifecycle fold
(:class:`repro.obs.lifecycle.Lifecycle`, which documents the kinds it
reads), so forensics works identically on a live
:class:`~repro.runtime.trace.Trace` and on a JSONL export loaded from
disk.  The ``atom_seq`` records double as a sequence-space registry: the
message assigned ``(atom, seq)`` *is* the missing predecessor a buffered
message waits for, so blocking pairs join exactly against the stamping
history — no guessing.  See ``docs/OBSERVABILITY.md`` ("Forensics") and
the ``repro explain`` CLI subcommand.
"""

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.lifecycle import PHASES, BufferEvent, Fault, Journey, Lifecycle
from repro.runtime.trace import TraceRecord

__all__ = [
    "JourneyIndex",
    "attribute_stall",
    "render_journey",
    "render_stalls",
    "waits_to_dot",
]

#: Attribution vocabulary, most specific first.  ``link_failure`` only
#: applies to never-drained gaps (an abandoned packet explains a message
#: that never arrived); ``epoch_switch`` attributes a stall overlapping
#: an online reconfiguration's fence drain (concrete fault evidence still
#: wins over it); ``in_flight`` is the no-evidence fallback.
CAUSE_EPOCH_SWITCH = "epoch_switch"
CAUSE_PRIORITY = (
    "failover_replay",
    "outage",
    "peer_down",
    "loss",
    CAUSE_EPOCH_SWITCH,
)
CAUSE_IN_FLIGHT = "in_flight"
CAUSE_LINK_FAILURE = "link_failure"

def attribute_stall(
    host: int,
    buffered_at: float,
    until: float,
    resolved: bool,
    missing: Optional[Tuple[float, int, Iterable[int]]],
    faults: Iterable[Fault],
    switches: Iterable[Tuple[float, Optional[float]]],
) -> Tuple[str, Dict[str, int]]:
    """The one stall-attribution rule (``repro explain`` and LM303).

    The window runs from the earlier of the buffering and the missing
    predecessor's publication to ``until`` (the drain, or the end of the
    evidence so far).  Given the predecessor's ``(publish time, sender,
    sequencing nodes visited)`` as ``missing``, only faults on links that
    touch its path or the stalled receiver count; else any fault does.
    Each epoch switch overlapping the window (``end`` ``None`` while
    open) counts as ``epoch_switch``.  Verdict: ``link_failure`` for a
    gap that never drained, else the first cause of
    :data:`CAUSE_PRIORITY` with evidence, else ``in_flight``.
    """
    since = buffered_at
    path: Optional[Set[str]] = None
    if missing is not None:
        publish_time, sender, nodes = missing
        since = min(since, publish_time)
        path = {repr(("host", sender)), repr(("host", host))}
        path.update(repr(("seq", node)) for node in nodes)
    evidence: Dict[str, int] = {}
    for time, cause, src, dst in faults:
        if since <= time <= until and (path is None or src in path or dst in path):
            evidence[cause] = evidence.get(cause, 0) + 1
    for begin, end in switches:
        if begin <= until and (end is None or end >= since):
            evidence[CAUSE_EPOCH_SWITCH] = evidence.get(CAUSE_EPOCH_SWITCH, 0) + 1
    if not resolved and evidence.get(CAUSE_LINK_FAILURE):
        # The predecessor (or its delivery copy) was abandoned for good —
        # the gap is permanent, not a slow retransmission.
        return CAUSE_LINK_FAILURE, evidence
    for cause in CAUSE_PRIORITY:
        if evidence.get(cause):
            return cause, evidence
    return CAUSE_IN_FLIGHT, evidence


class JourneyIndex(Lifecycle):
    """The lifecycle fold with retention: every journey and buffer event.

    Accepts any iterable of :class:`~repro.runtime.trace.TraceRecord` —
    a live :class:`~repro.runtime.trace.Trace` or the list returned by
    :func:`repro.obs.exporters.trace_from_jsonl` — and consumes it in
    one pass.  Records must be in emission (chronological) order, which
    both sources guarantee.

    Attribution runs eagerly: every :class:`BufferEvent` leaves the
    constructor with its ``cause`` and ``evidence`` resolved by
    :func:`attribute_stall` against the retransmission / link-failure /
    failover records in the same stream.
    """

    def __init__(self, records: Iterable[TraceRecord]):
        super().__init__()
        self.buffer_events: List[BufferEvent] = []
        self.end_time = 0.0
        #: per-host occupancy deltas (time, +1/-1), in stream order
        self._occupancy: Dict[int, List[Tuple[float, int]]] = {}
        for record in records:
            self.end_time = max(self.end_time, record.time)
            self.fold(record)
        # Numbers whose publication the stream never showed make no journey.
        for msg in [m for m, j in self.journeys.items() if j.publish_time is None]:
            del self.journeys[msg]
        #: (begin, end) per online epoch switch (fence drain window); a
        #: switch still open when the trace ends fences everything until
        #: the end of the recording
        self.epoch_switches = self.switch_windows()
        for event in self.buffer_events:
            self._attribute(event)

    @classmethod
    def from_jsonl(cls, text: str) -> "JourneyIndex":
        """Build from a JSONL export (see ``write_trace_jsonl``)."""
        from repro.obs.exporters import trace_from_jsonl

        return cls(trace_from_jsonl(text))

    def _on_buffer(self, record: TraceRecord) -> BufferEvent:
        event = super()._on_buffer(record)
        self.buffer_events.append(event)
        self._occupancy.setdefault(event.host, []).append((record.time, 1))
        return event

    def _on_drain(self, record: TraceRecord) -> Optional[BufferEvent]:
        event = super()._on_drain(record)
        if event is not None:
            self._occupancy.setdefault(event.host, []).append((record.time, -1))
        return event

    def _attribute(self, event: BufferEvent) -> None:
        until = self.end_time if event.drain_time is None else event.drain_time
        event.cause, event.evidence = attribute_stall(
            event.host, event.time, until, event.resolved,
            event.missing.path() if event.missing is not None else None,
            self.faults, self.epoch_switches,
        )

    # -- queries -----------------------------------------------------------

    def journey(self, msg_id: int) -> Optional[Journey]:
        """The reconstructed journey of one message, if it was published."""
        return self.journeys.get(msg_id)

    def stalls(self, threshold: float = 0.0) -> List[BufferEvent]:
        """Buffer events whose hold-back wait met ``threshold`` ms.

        Never-drained events always qualify — an unresolved gap is the
        worst stall there is.  Sorted by (buffer time, host, msg).
        """
        out = [
            event
            for event in self.buffer_events
            if not event.resolved
            or (event.waited is not None and event.waited >= threshold)
        ]
        out.sort(key=lambda e: (e.time, e.host, e.msg_id))
        return out

    def holdback_history(self, host: int) -> List[Tuple[float, int]]:
        """Hold-back occupancy steps ``(time, depth)`` for one receiver.

        Rebuilt from buffer/drain records, so it matches the live
        ``on_occupancy`` gauge stream for the same run.
        """
        deltas = sorted(self._occupancy.get(host, []), key=lambda d: d[0])
        history: List[Tuple[float, int]] = []
        depth = 0
        for time, delta in deltas:
            depth += delta
            history.append((time, depth))
        return history

    def waits_edges(self) -> List[Dict[str, Any]]:
        """Who-waited-on-whom: one edge per buffer event.

        ``waiter`` waited for ``on`` (the exact missing predecessor when
        reconstructable, else the arrival that released it) at
        ``host``, blocked on ``blocked_on``/``expected_seq``.
        """
        edges: List[Dict[str, Any]] = []
        for event in sorted(
            self.buffer_events, key=lambda e: (e.time, e.host, e.msg_id)
        ):
            on = event.missing_msg
            if on is None:
                on = event.unblocked_by
            edges.append(
                {
                    "waiter": event.msg_id,
                    "on": on,
                    "host": event.host,
                    "blocked_on": event.blocked_on,
                    "expected_seq": event.expected_seq,
                    "waited": event.waited,
                    "cause": event.cause,
                }
            )
        return edges

    def waits_to_json(self) -> Dict[str, Any]:
        """JSON document of the causal wait graph (nodes + edges)."""
        edges = self.waits_edges()
        nodes = sorted(
            {e["waiter"] for e in edges}
            | {e["on"] for e in edges if e["on"] is not None}
        )
        return {"messages": nodes, "waits": edges}

    def stall_report(self, threshold: float = 0.0) -> Dict[str, Any]:
        """JSON-able stall summary for one run (deterministic ordering)."""
        stalls = self.stalls(threshold)
        by_cause: Dict[str, int] = {}
        for event in self.buffer_events:
            assert event.cause is not None  # attribution ran in __init__
            by_cause[event.cause] = by_cause.get(event.cause, 0) + 1
        return {
            "threshold_ms": threshold,
            "messages": sum(1 for j in self.journeys.values() if not j.is_fence),
            "fences": sum(1 for j in self.journeys.values() if j.is_fence),
            "buffer_events": len(self.buffer_events),
            "unresolved": sum(1 for e in self.buffer_events if not e.resolved),
            "by_cause": {k: by_cause[k] for k in sorted(by_cause)},
            "stalls": [event.to_dict() for event in stalls],
        }


# -- rendering --------------------------------------------------------------


def render_journey(journey: Journey) -> str:
    """Text timeline of one message's end-to-end journey."""
    lines = [
        f"message {journey.msg_id}: group {journey.group}, "
        f"sender host {journey.sender}, published t={journey.publish_time:.3f}"
    ]
    for event in journey.atom_events:
        if event.action == "pass":
            what = "pass-through"
        else:
            parts = []
            if event.group_seq is not None:
                parts.append(f"group_seq={event.group_seq}")
            if event.seq is not None:
                parts.append(f"seq={event.seq}")
            what = "stamped " + ", ".join(parts)
        lines.append(
            f"  t={event.time:.3f}  node {event.node}  {event.atom}  {what}"
        )
    if journey.distribute_time is not None:
        lines.append(
            f"  t={journey.distribute_time:.3f}  distribute from node "
            f"{journey.distribute_node} to {len(journey.receipts)} receiver(s)"
        )
    for host, receipt in sorted(journey.receipts.items()):
        if receipt.buffer is None:
            delivered = (
                f"delivered t={receipt.deliver_time:.3f}"
                if receipt.deliver_time is not None
                else "never delivered"
            )
            lines.append(f"  host {host}: arrived and {delivered} (no hold-back)")
            continue
        event = receipt.buffer
        head = (
            f"  host {host}: arrived t={event.time:.3f}, buffered on "
            f"{event.blocked_on} expecting seq {event.expected_seq} "
            f"(carries {event.have_seq})"
        )
        if event.resolved:
            assert event.drain_time is not None and event.waited is not None
            head += (
                f"; drained t={event.drain_time:.3f} by message "
                f"{event.unblocked_by} after {event.waited:.3f} ms "
                f"[{event.cause}]"
            )
        else:
            head += f"; NEVER drained [{event.cause}]"
        lines.append(head)
        if event.missing_msg is not None:
            lines.append(
                f"           missing predecessor: message {event.missing_msg}"
            )
    for host in sorted(journey.receipts):
        breakdown = journey.breakdown(host)
        if breakdown is None:
            continue
        parts = " + ".join(f"{phase} {breakdown[phase]:.3f}" for phase in PHASES)
        lines.append(
            f"  host {host} latency: total {breakdown['total']:.3f} = {parts}"
        )
    return "\n".join(lines)


def render_stalls(report: Dict[str, Any]) -> str:
    """Text rendering of :meth:`JourneyIndex.stall_report`."""
    lines = [
        f"{report['messages']} message(s), {report['buffer_events']} buffer "
        f"event(s), {report['unresolved']} unresolved, threshold "
        f"{report['threshold_ms']:.1f} ms"
    ]
    if report["by_cause"]:
        causes = ", ".join(
            f"{cause}={count}" for cause, count in report["by_cause"].items()
        )
        lines.append(f"buffer events by cause: {causes}")
    for stall in report["stalls"]:
        waited = (
            f"waited {stall['waited']:.3f} ms"
            if stall["waited"] is not None
            else "never drained"
        )
        missing = (
            f" (missing message {stall['missing_msg']})"
            if stall["missing_msg"] is not None
            else ""
        )
        lines.append(
            f"  t={stall['time']:.3f} host {stall['host']} message "
            f"{stall['msg']} blocked on {stall['blocked_on']} seq "
            f"{stall['expected_seq']}{missing}: {waited} [{stall['cause']}]"
        )
    if not report["stalls"]:
        lines.append("  no stalls at this threshold")
    return "\n".join(lines)


def waits_to_dot(index: JourneyIndex) -> str:
    """Graphviz digraph of the who-waited-on-whom dependency graph.

    One node per message involved in a wait; one edge per buffer event,
    labelled with the receiver, the blocking pair, and the wait.
    """
    doc = index.waits_to_json()
    lines = ["digraph waits {", "  rankdir=LR;", "  node [shape=box];"]
    for msg in doc["messages"]:
        lines.append(f'  m{msg} [label="m{msg}"];')
    for edge in doc["waits"]:
        if edge["on"] is None:
            continue
        waited = (
            f"{edge['waited']:.2f}ms" if edge["waited"] is not None else "stuck"
        )
        label = (
            f"h{edge['host']}: {edge['blocked_on']}#{edge['expected_seq']} "
            f"{waited} [{edge['cause']}]"
        )
        lines.append(f'  m{edge["waiter"]} -> m{edge["on"]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
