"""One message's life, folded from the trace stream.

The paper's pipeline (Section 3.1) gives every published message one
life: publish, the ingress atom, the rest of its group's sequencing
path, distribution to the members, then each receiver's deliver-or-buffer
decision.  :class:`Lifecycle` rebuilds that life as one :class:`Journey`
per message, one trace record at a time, so the same fold runs post hoc
over a JSONL export (:class:`repro.obs.forensics.JourneyIndex`, which
keeps every journey) and live on the trace stream
(:class:`repro.obs.live.LiveMonitor`, which drops a journey once every
member delivered it).  Next to the journeys the fold keeps the
``(space, seq)`` owner of every sequence number, the fault evidence and
the epoch-switch windows that stall attribution reads.

:data:`PHASES` is the one phase vocabulary.  The four phases partition a
delivered copy's publish-to-deliver latency exactly; their sum is
``total``:

================  =======================  =======================
phase             starts at                ends at
================  =======================  =======================
``ingress``       publish                  first atom visit
``sequencing``    first atom visit         distribution fan-out
``distribution``  distribution fan-out     arrival at the receiver
``holdback``      arrival                  delivery (0 when direct)
================  =======================  =======================

The kinds folded, and the fields read:

===============  ==========================================================
kind             data fields
===============  ==========================================================
``publish``      ``msg``, ``group``, ``sender``
``seq_hop``      ``msg``, ``node`` (one sequencing-node visit)
``atom_seq``     ``msg``, ``node``, ``atom``, ``seq`` (overlap number or
                 null), ``group_seq`` (group-local number or null)
``atom_pass``    ``msg``, ``node``, ``atom`` (pass-through, arrival order)
``distribute``   ``msg``, ``node``
``deliver``      ``msg``, ``host``
``buffer``       ``msg``, ``host``, ``group``, ``blocked_kind``,
                 ``blocked_on``, ``have_seq``, ``expected_seq``
``drain``        ``msg``, ``host``, ``unblocked_by``, ``waited``
``retransmit``   ``src``, ``dst``, ``cause``
``link_failure`` ``src``, ``dst``
``failover``     ``node``
``epoch_fence``  ``phase`` ("publish"/"deliver"), ``msg``, ``group``,
                 ``sender`` (publish) / ``host`` (deliver)
``epoch_switch`` ``phase`` ("begin"/"end"), ``epoch``
===============  ==========================================================

Sequencing records exist only while tracing is enabled, and baseline
fabrics emit only ``publish``/``deliver``: such journeys have no phase
breakdown.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, List, NamedTuple, Optional, Tuple,
)

from repro.runtime.trace import TraceRecord

__all__ = [
    "PHASES",
    "SERIES",
    "AtomEvent",
    "BufferEvent",
    "Fault",
    "Journey",
    "Lifecycle",
    "Receipt",
    "breakdown_by_group",
    "fault_of",
    "render_phase_table",
]

#: The pipeline phases, in order; they partition publish -> deliver.
PHASES = ("ingress", "sequencing", "distribution", "holdback")

#: What a :meth:`Journey.breakdown` reports: the phases, then their sum.
SERIES = (*PHASES, "total")

#: One piece of fault evidence: ``(time, cause, src, dst)`` with process
#: names as the trace writes them (a failover names its node twice).
Fault = Tuple[float, str, str, str]


def fault_of(record: TraceRecord) -> Fault:
    """The evidence a ``retransmit``, ``link_failure`` or ``failover``
    record carries."""
    data = record.data
    if record.kind == "failover":
        name = repr(("seq", data["node"]))
        return (record.time, "failover_replay", name, name)
    cause = data["cause"] if record.kind == "retransmit" else "link_failure"
    return (record.time, cause, data["src"], data["dst"])


class AtomEvent(NamedTuple):
    """One atom's decision about one message (stamp or pass-through)."""

    time: float
    node: int
    atom: str
    #: ``"seq"`` (assigned at least one number) or ``"pass"``
    action: str
    #: overlap sequence number assigned, if any
    seq: Optional[int] = None
    #: group-local number assigned (ingress stamping), if any
    group_seq: Optional[int] = None


@dataclass
class BufferEvent:
    """One receiver-side buffering, from decision to (maybe) release."""

    msg_id: int
    host: int
    group: int
    #: arrival time at the receiver == buffering time
    time: float
    #: ``"group"`` or ``"atom"`` — which sequence space blocked
    blocked_kind: str
    #: stable key of the blocking space (``"Q(0,1)"`` or ``"group:3"``)
    blocked_on: str
    have_seq: int
    expected_seq: int
    drain_time: Optional[float] = None
    #: the arrival whose processing released this message from the buffer
    unblocked_by: Optional[int] = None
    waited: Optional[float] = None
    #: journey of the message that was assigned the missing
    #: ``(blocked_on, expected_seq)`` number — the exact predecessor this
    #: receiver waits for, known at buffering time because that number
    #: was assigned before the one the buffered message carries
    missing: Optional["Journey"] = field(default=None, repr=False, compare=False)
    #: attribution verdict (see :data:`repro.obs.forensics.CAUSE_PRIORITY`)
    cause: Optional[str] = None
    #: matched fault records per cause, the evidence behind the verdict
    evidence: Dict[str, int] = field(default_factory=dict)

    @property
    def resolved(self) -> bool:
        """Whether the buffered message was eventually released."""
        return self.drain_time is not None

    @property
    def missing_msg(self) -> Optional[int]:
        """Id of the missing predecessor, when the stream showed it."""
        return None if self.missing is None else self.missing.msg_id

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able summary (deterministic field order)."""
        return {
            "msg": self.msg_id,
            "host": self.host,
            "group": self.group,
            "time": self.time,
            "blocked_kind": self.blocked_kind,
            "blocked_on": self.blocked_on,
            "have_seq": self.have_seq,
            "expected_seq": self.expected_seq,
            "drain_time": self.drain_time,
            "unblocked_by": self.unblocked_by,
            "waited": self.waited,
            "missing_msg": self.missing_msg,
            "cause": self.cause,
            "evidence": {k: self.evidence[k] for k in sorted(self.evidence)},
        }


class Receipt:
    """One message copy at one receiver."""

    __slots__ = ("arrival_time", "deliver_time", "buffer")

    def __init__(self, arrival_time: float, buffer: Optional[BufferEvent] = None):
        #: the buffering time if the copy was held back, else the delivery
        self.arrival_time = arrival_time
        self.deliver_time: Optional[float] = None
        self.buffer = buffer


class Journey:
    """The life of one published message, as far as the stream showed it."""

    __slots__ = (
        "msg_id", "group", "sender", "publish_time", "is_fence", "visits",
        "atom_events", "group_seq", "stamp", "distribute_time",
        "distribute_node", "receipts", "done",
    )

    def __init__(
        self,
        msg_id: int,
        group: int,
        sender: int,
        publish_time: Optional[float],
        is_fence: bool = False,
    ):
        self.msg_id = msg_id
        self.group = group
        self.sender = sender
        #: ``None`` while the stream has shown numbers but no publication
        self.publish_time = publish_time
        #: epoch-fence markers are consumed by the fabric, not the app
        self.is_fence = is_fence
        #: ``(node, time)`` per sequencing-node visit (``seq_hop``)
        self.visits: List[Tuple[int, float]] = []
        self.atom_events: List[AtomEvent] = []
        self.group_seq: Optional[int] = None
        #: overlap-atom numbers in path order: ``(atom key, seq)``
        self.stamp: List[Tuple[str, int]] = []
        self.distribute_time: Optional[float] = None
        self.distribute_node: Optional[int] = None
        #: per-receiver copies, keyed by host id
        self.receipts: Dict[int, Receipt] = {}
        #: every member delivered it (set by a checker that knows members)
        self.done = False

    def nodes_visited(self) -> List[int]:
        """Sequencing nodes on the message's path, in visit order."""
        nodes: List[int] = []
        for event in self.atom_events:
            if not nodes or nodes[-1] != event.node:
                nodes.append(event.node)
        return nodes

    def path(self) -> Optional[Tuple[float, int, List[int]]]:
        """``(publish time, sender, nodes incl. the distributing one)`` —
        the predecessor facts :func:`repro.obs.forensics.attribute_stall`
        takes; ``None`` while the publication is unseen."""
        if self.publish_time is None:
            return None
        nodes = self.nodes_visited()
        if self.distribute_node is not None:
            nodes.append(self.distribute_node)
        return (self.publish_time, self.sender, nodes)

    def hop_intervals(self) -> List[Tuple[int, float, float]]:
        """``(node, start, end)`` per sequencing-node visit.

        A visit ends when the next one starts (or distribution does), so
        the intervals tile the ``sequencing`` phase.
        """
        if not self.visits:
            return []
        ends = [time for _, time in self.visits[1:]]
        last = self.visits[-1][1]
        ends.append(last if self.distribute_time is None else self.distribute_time)
        return [(node, start, end) for (node, start), end in zip(self.visits, ends)]

    def latencies(self, host: int) -> Optional[Tuple[float, ...]]:
        """The copy delivered to ``host``, split into :data:`SERIES` order
        (the phases, then their sum); ``None`` while that copy is
        undelivered or the stream lacks the message's publication or
        sequencing."""
        receipt = self.receipts.get(host)
        if (
            receipt is None
            or receipt.deliver_time is None
            or self.publish_time is None
            or self.distribute_time is None
            or not self.atom_events
        ):
            return None
        first_atom = self.atom_events[0].time
        return (
            first_atom - self.publish_time,
            self.distribute_time - first_atom,
            receipt.arrival_time - self.distribute_time,
            receipt.deliver_time - receipt.arrival_time,
            receipt.deliver_time - self.publish_time,
        )

    def breakdown(self, host: int) -> Optional[Dict[str, float]]:
        """:meth:`latencies` keyed by :data:`SERIES` name."""
        latencies = self.latencies(host)
        return None if latencies is None else dict(zip(SERIES, latencies))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able journey summary (deterministic ordering)."""
        return {
            "msg": self.msg_id,
            "group": self.group,
            "sender": self.sender,
            "publish_time": self.publish_time,
            "atom_events": [event._asdict() for event in self.atom_events],
            "distribute_time": self.distribute_time,
            "distribute_node": self.distribute_node,
            "receivers": [
                {
                    "host": host,
                    "arrival_time": receipt.arrival_time,
                    "deliver_time": receipt.deliver_time,
                    "buffered": (
                        receipt.buffer.to_dict() if receipt.buffer is not None else None
                    ),
                    "breakdown": self.breakdown(host),
                }
                for host, receipt in sorted(self.receipts.items())
            ],
        }


class Lifecycle:
    """The fold: trace records in stream order, journeys out.

    :meth:`fold` consumes one record.  Subclasses extend a kind by
    overriding its ``_on_<kind>`` handler and calling ``super()``; each
    handler returns what it touched (the journey, or the buffer event).
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, Callable[[TraceRecord], Any]] = {
            "publish": self._on_publish,
            "seq_hop": self._on_seq_hop,
            "atom_seq": self._on_atom,
            "atom_pass": self._on_atom,
            "distribute": self._on_distribute,
            "deliver": self._on_deliver,
            "buffer": self._on_buffer,
            "drain": self._on_drain,
            "retransmit": self._on_fault,
            "link_failure": self._on_fault,
            "failover": self._on_fault,
            "epoch_fence": self._on_epoch_fence,
            "epoch_switch": self._on_epoch_switch,
        }
        self.clear()

    def clear(self) -> None:
        """Forget every journey and all evidence."""
        self.journeys: Dict[int, Journey] = {}
        #: (space key, seq) -> the journey that was assigned that number
        self.owners: Dict[Tuple[str, int], Journey] = {}
        #: (host, msg) -> the buffering not yet drained
        self.open_buffers: Dict[Tuple[int, int], BufferEvent] = {}
        #: retransmissions, link failures and failovers, in stream order
        self.faults: Deque[Fault] = deque()
        #: closed epoch-switch windows (begin, end); epoch -> open begin
        self.switches: List[Tuple[float, float]] = []
        self.switch_open: Dict[int, float] = {}

    def fold(self, record: TraceRecord) -> None:
        """Consume one trace record."""
        handler = self._handlers.get(record.kind)
        if handler is not None:
            handler(record)

    def drop(self, journey: Journey) -> None:
        """Forget a settled journey and the sequence numbers it owns."""
        self.journeys.pop(journey.msg_id, None)
        keys = list(journey.stamp)
        if journey.group_seq is not None:
            keys.append((f"group:{journey.group}", journey.group_seq))
        for key in keys:
            if self.owners.get(key) is journey:
                del self.owners[key]

    def switch_windows(self) -> List[Tuple[float, Optional[float]]]:
        """Every epoch-switch window; one still open has no end."""
        return [
            *self.switches,
            *((self.switch_open[epoch], None) for epoch in sorted(self.switch_open)),
        ]

    # -- handlers ----------------------------------------------------------

    def _on_publish(self, record: TraceRecord) -> Journey:
        data = record.data
        journey = Journey(data["msg"], data["group"], data["sender"], record.time)
        self.journeys[journey.msg_id] = journey
        return journey

    def _on_seq_hop(self, record: TraceRecord) -> None:
        journey = self.journeys.get(record.data["msg"])
        if journey is not None:
            journey.visits.append((record.data["node"], record.time))

    def _on_atom(self, record: TraceRecord) -> None:
        data = record.data
        msg = data["msg"]
        journey = self.journeys.get(msg)
        if journey is None:
            # Stamped before the stream showed its publication: keep the
            # numbers, but it owns no sequence space.
            journey = self.journeys[msg] = Journey(msg, -1, -1, None)
        seq = data.get("seq")
        group_seq = data.get("group_seq")
        journey.atom_events.append(AtomEvent(
            record.time, data["node"], data["atom"],
            "seq" if record.kind == "atom_seq" else "pass", seq, group_seq,
        ))
        owned = journey.publish_time is not None
        if seq is not None:
            journey.stamp.append((data["atom"], seq))
            if owned:
                self.owners[(data["atom"], seq)] = journey
        if group_seq is not None:
            journey.group_seq = group_seq
            if owned:
                self.owners[(f"group:{journey.group}", group_seq)] = journey

    def _on_distribute(self, record: TraceRecord) -> None:
        journey = self.journeys.get(record.data["msg"])
        if journey is not None:
            journey.distribute_time = record.time
            journey.distribute_node = record.data["node"]

    def _on_deliver(self, record: TraceRecord) -> Optional[Journey]:
        data = record.data
        journey = self.journeys.get(data["msg"])
        if journey is not None:
            receipt = journey.receipts.get(data["host"])
            if receipt is None:
                receipt = journey.receipts[data["host"]] = Receipt(record.time)
            receipt.deliver_time = record.time
        return journey

    def _on_buffer(self, record: TraceRecord) -> BufferEvent:
        data = record.data
        event = BufferEvent(
            msg_id=data["msg"],
            host=data["host"],
            group=data["group"],
            time=record.time,
            blocked_kind=data.get("blocked_kind"),
            blocked_on=data.get("blocked_on"),
            have_seq=data.get("have_seq"),
            expected_seq=data.get("expected_seq"),
            missing=self.owners.get((data.get("blocked_on"), data.get("expected_seq"))),
        )
        self.open_buffers[(event.host, event.msg_id)] = event
        journey = self.journeys.get(event.msg_id)
        if journey is not None:
            journey.receipts[event.host] = Receipt(record.time, event)
        return event

    def _on_drain(self, record: TraceRecord) -> Optional[BufferEvent]:
        data = record.data
        event = self.open_buffers.pop((data["host"], data["msg"]), None)
        if event is not None:
            event.drain_time = record.time
            event.unblocked_by = data.get("unblocked_by")
            waited = data.get("waited")
            event.waited = record.time - event.time if waited is None else waited
        return event

    def _on_fault(self, record: TraceRecord) -> None:
        self.faults.append(fault_of(record))

    def _on_epoch_fence(self, record: TraceRecord) -> Optional[Journey]:
        # Fences travel the normal sequencing path, so their numbers own
        # sequence space like any message's: a gap blocked on a fence's
        # number is explainable.
        data = record.data
        if data.get("phase") != "publish":
            # The base receipt logic: a subclass's delivery hook counts
            # application deliveries, which a consumed fence is not.
            return Lifecycle._on_deliver(self, record)
        journey = Journey(
            data["msg"], data["group"], data["sender"], record.time, is_fence=True
        )
        self.journeys[journey.msg_id] = journey
        return journey

    def _on_epoch_switch(self, record: TraceRecord) -> None:
        data = record.data
        if data.get("phase") == "begin":
            self.switch_open[data["epoch"]] = record.time
        else:
            begin = self.switch_open.pop(data["epoch"], record.time)
            self.switches.append((begin, record.time))


# -- per-group aggregation ----------------------------------------------------


def breakdown_by_group(journeys: Dict[int, Journey]) -> Dict[int, Dict[str, float]]:
    """Mean phase latencies (and ``total``) per group, over every
    delivered copy with a breakdown; fences are skipped."""
    sums: Dict[int, Dict[str, float]] = {}
    counts: Dict[int, int] = {}
    for journey in journeys.values():
        if journey.is_fence:
            continue
        for host in journey.receipts:
            breakdown = journey.breakdown(host)
            if breakdown is None:
                continue
            bucket = sums.setdefault(journey.group, dict.fromkeys(breakdown, 0.0))
            for key, value in breakdown.items():
                bucket[key] += value
            counts[journey.group] = counts.get(journey.group, 0) + 1
    return {
        group: {key: total / counts[group] for key, total in sums[group].items()}
        for group in sums
    }


def render_phase_table(breakdown: Dict[int, Dict[str, float]]) -> str:
    """Aligned text table of :func:`breakdown_by_group`."""
    headers = ["group"] + [f"{column}_ms" for column in SERIES]
    widths = [max(10, len(h)) for h in headers]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for group in sorted(breakdown):
        cells = [str(group)] + [f"{breakdown[group][c]:.3f}" for c in SERIES]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)
