"""Bounded-memory streaming monitors over the runtime trace stream.

:class:`LiveMonitor` subscribes to the fabric's
:class:`~repro.runtime.trace.Trace` and feeds every delivery, with the
stamp its ``atom_seq`` records built, into the one ordering checker
(:class:`repro.check.invariants.OrderingChecker`): a streaming rule that
fires becomes an alert at once under its LM code (LM300 order, LM301
duplicate, LM302 group numbering, LM304 publisher FIFO).  LM303 is the
monitor's own: a message held back past the stall threshold, with the
cause and evidence of :func:`repro.obs.forensics.attribute_stall` — the
function ``repro explain`` uses.  docs/STATIC_ANALYSIS.md has the table.

Without ``retain_audit`` memory follows the *in-flight window*, not the
run length: the checker is bounded, and the monitor drops a message's
group number, stamp, sequence-space ownership and path once every member
delivered it.  Fault evidence is kept back to the oldest open stall
window or unconfirmed publication, whichever is earlier.  A duplicate
arriving after its message left that window is only caught post hoc —
the price of bounded state.  With ``retain_audit=True`` (the default, for
campaigns and CI) the checker keeps its audit state and
:meth:`LiveMonitor.final_findings` reports the same RT verdicts
:func:`repro.check.verify_run` derives from the fabric's logs.

The monitor is a pure function of the record stream: on the sim backend a
fixed seed gives a byte-identical alert feed.
"""

import heapq
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.check.findings import Finding
from repro.check.invariants import RULES, OrderingChecker, stamping_spaces
from repro.obs.forensics import Fault, attribute_stall, fault_of
from repro.obs.live.latency import PhaseLatencyTracker
from repro.obs.registry import MetricsRegistry
from repro.runtime.trace import TraceRecord

__all__ = ["LiveMonitor", "MonitorAlert", "MONITOR_RULES", "STALL_THRESHOLD_MS"]

#: checker rule key -> LM code, for the streaming rules
_LM_CODE = {rule.key: rule.lm for rule in RULES if rule.lm is not None}

#: rule id -> (severity, one-line description)
MONITOR_RULES: Dict[str, Tuple[str, str]] = dict(
    sorted(
        [(rule.lm, ("error", rule.text)) for rule in RULES if rule.lm]
        + [("LM303", ("warning", "hold-back stall past threshold, cause attributed"))]
    )
)

#: Default virtual-ms a message may sit buffered before LM303 fires.
STALL_THRESHOLD_MS = 50.0


@dataclass(frozen=True)
class MonitorAlert:
    """One streaming-monitor verdict, in stream order."""

    #: virtual time the monitor fired (not necessarily the fault time)
    time: float
    rule: str
    severity: str
    message: str
    anchor: str
    #: forensics cause verdict (LM303 only)
    cause: Optional[str] = None
    #: fault-evidence counts behind ``cause`` (LM303 only)
    evidence: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class _Flight:
    """What the monitor knows of one message until it is confirmed."""

    __slots__ = ("publish_time", "sender", "group", "group_seq", "stamp",
                 "nodes", "distributed", "done")

    def __init__(self, publish_time: Optional[float], sender: int, group: int):
        #: ``None`` when the stream never showed the publication
        self.publish_time = publish_time
        self.sender = sender
        self.group = group
        self.group_seq: Optional[int] = None
        #: overlap-atom numbers in path order: (atom key, seq)
        self.stamp: List[Tuple[str, int]] = []
        #: sequencing nodes visited, consecutive repeats collapsed
        self.nodes: List[int] = []
        self.distributed: Optional[int] = None
        self.done = False

    def missing(self) -> Optional[Tuple[float, int, List[int]]]:
        """The predecessor facts :func:`attribute_stall` takes."""
        if self.publish_time is None:
            return None
        path = self.nodes if self.distributed is None else self.nodes + [self.distributed]
        return (self.publish_time, self.sender, path)


class LiveMonitor:
    """Streaming ordering checks and stall attribution over a live trace.

    ``stall_threshold_ms`` is how long (virtual ms) a message may sit in
    a hold-back buffer before LM303 warns.  ``registry`` receives the
    phase-latency histograms (a private one when omitted).
    ``retain_audit`` keeps the checker's audit state for
    :meth:`final_findings`; turn it off for indefinitely-running
    services.  At most ``max_alerts`` alerts are kept; the rest are
    counted in :attr:`alerts_dropped`.
    """

    def __init__(
        self,
        node: str = "local",
        stall_threshold_ms: float = STALL_THRESHOLD_MS,
        registry: Optional[MetricsRegistry] = None,
        retain_audit: bool = True,
        max_alerts: int = 10_000,
    ):
        self.node = node
        self.stall_threshold_ms = stall_threshold_ms
        self.retain_audit = retain_audit
        self.max_alerts = max_alerts
        self.latency = PhaseLatencyTracker(registry)
        self.alerts: List[MonitorAlert] = []
        self.alerts_dropped = 0
        self.membership: Dict[int, FrozenSet[int]] = {}
        self.published_total = 0
        self.delivered_total = 0
        self.now = 0.0
        self.epoch: Optional[int] = None
        self._trace: Optional[Any] = None
        self._stamping: Optional[Dict[int, Tuple[str, ...]]] = None
        self._handlers: Dict[str, Callable[[TraceRecord], None]] = {
            "deliver": self._on_deliver,
            "buffer": self._on_buffer,
            "drain": self._on_drain,
            "publish": self._on_publish,
            "atom_seq": self._on_atom,
            "atom_pass": self._on_atom,
            "distribute": self._on_distribute,
            "retransmit": self._on_fault,
            "link_failure": self._on_fault,
            "failover": self._on_fault,
            "epoch_fence": self._on_epoch_fence,
            "epoch_switch": self._on_epoch_switch,
        }
        self._reset()

    # -- lifecycle ---------------------------------------------------------

    def attach(self, fabric: Any) -> None:
        """Adopt a fabric's membership and subscribe to its trace.

        Each attach starts a fresh monitoring window (checker and
        per-message state reset); alert and latency state persists.
        Re-attach on every epoch's fabric — agreement with the per-epoch
        post-hoc audit then holds epoch by epoch.
        """
        self.detach()
        self.membership = {
            group: frozenset(fabric.membership.members(group))
            for group in fabric.membership.groups()
        }
        self._stamping = stamping_spaces(fabric.graph, self.membership)
        self._reset()
        self._trace = fabric.trace
        fabric.trace.subscribe(self.observe)

    def detach(self) -> None:
        """Unsubscribe from the currently attached trace (idempotent)."""
        if self._trace is not None:
            self._trace.unsubscribe(self.observe)
            self._trace = None

    def adopt_membership(self, membership: Dict[int, FrozenSet[int]]) -> None:
        """Set the group->members map the monitors check against."""
        self.membership = dict(membership)
        self._checker.membership = self.membership

    def _reset(self) -> None:
        self._checker = OrderingChecker(
            self.membership,
            stamping=self._stamping,
            bounded=not self.retain_audit,
            on_violation=self._on_violation,
        )
        #: msg -> in-flight state (bounded: dropped on confirmation)
        self._flights: Dict[int, _Flight] = {}
        #: (publish time, msg) in publication order, for the evidence horizon
        self._unconfirmed: Deque[Tuple[float, int]] = deque()
        #: (space key, seq) -> the message that was assigned that number
        self._owners: Dict[Tuple[str, int], int] = {}
        #: (host, msg) -> (buffering time, the missing predecessor's state)
        self._buffered: Dict[Tuple[int, int], Tuple[float, Optional[_Flight]]] = {}
        #: min-heap of (deadline, host, msg) stall candidates
        self._stall_heap: List[Tuple[float, int, int]] = []
        self._stall_alerted: Set[Tuple[int, int]] = set()
        #: host -> current hold-back depth (buffer minus drain)
        self._holdback_depth: Dict[int, int] = {}
        #: fault evidence back to the evidence horizon; the ring length
        #: that triggers the next trim (amortizes its scan)
        self._faults: Deque[Fault] = deque()
        self._trim_at = 64
        #: closed epoch-switch windows (begin, end); epoch -> open begin
        self._switches: List[Tuple[float, float]] = []
        self._switch_open: Dict[int, float] = {}
        #: group -> (expected members, delivered members) of the live fence
        self._fence_expected: Dict[int, FrozenSet[int]] = {}
        self._fence_delivered: Dict[int, Set[int]] = {}

    # -- the stream --------------------------------------------------------

    def observe(self, record: TraceRecord) -> None:
        """Consume one trace record (the trace-subscriber entry point)."""
        now = self.now = record.time
        handler = self._handlers.get(record.kind)
        if handler is not None:
            handler(record)
        heap = self._stall_heap
        if heap and heap[0][0] <= now:
            self._expire_stalls(now)

    def _track(self, msg: int, time: float, sender: int, group: int) -> None:
        self._flights[msg] = _Flight(time, sender, group)
        self._unconfirmed.append((time, msg))

    def _on_publish(self, record: TraceRecord) -> None:
        data = record.data
        self.published_total += 1
        self.latency.observe(record)
        self._track(data["msg"], record.time, data["sender"], data["group"])
        self._checker.publish(data["msg"], data["group"], data["sender"], record.time)

    def _on_atom(self, record: TraceRecord) -> None:
        data = record.data
        msg = data["msg"]
        flight = self._flights.get(msg)
        if flight is None:
            # Stamped before the stream showed its publication: keep the
            # group number for LM302, but it owns no sequence space.
            flight = self._flights[msg] = _Flight(None, -1, -1)
        if not flight.nodes or flight.nodes[-1] != data["node"]:
            flight.nodes.append(data["node"])
        if record.kind == "atom_pass":
            return
        seq = data.get("seq")
        group_seq = data.get("group_seq")
        owned = flight.publish_time is not None
        if seq is not None:
            flight.stamp.append((data["atom"], seq))
            if owned:
                self._owners[(data["atom"], seq)] = msg
        if group_seq is not None:
            flight.group_seq = group_seq
            if owned:
                self._owners[(f"group:{flight.group}", group_seq)] = msg

    def _on_distribute(self, record: TraceRecord) -> None:
        self.latency.observe(record)
        flight = self._flights.get(record.data["msg"])
        if flight is not None:
            flight.distributed = record.data["node"]

    def _on_deliver(self, record: TraceRecord) -> None:
        data = record.data
        msg = data["msg"]
        self.delivered_total += 1
        self.latency.observe(record)
        flight = self._flights.get(msg)
        group_seq = flight.group_seq if flight is not None else None
        stamp = flight.stamp if flight is not None and self.retain_audit else None
        if self._checker.deliver(data["host"], msg, data["group"],
                                 data["sender"], record.time, group_seq, stamp):
            self._confirmed(msg)

    def _confirmed(self, msg: int) -> None:
        """Every member delivered ``msg``: its in-flight state is dead."""
        if self.retain_audit:
            flight = self._flights.get(msg)
            if flight is not None:
                flight.done = True
            return
        flight = self._flights.pop(msg, None)
        if flight is None:
            return
        keys = list(flight.stamp)
        if flight.group_seq is not None:
            keys.append((f"group:{flight.group}", flight.group_seq))
        for key in keys:
            if self._owners.get(key) == msg:
                del self._owners[key]

    def _on_buffer(self, record: TraceRecord) -> None:
        data = record.data
        host = data["host"]
        self._holdback_depth[host] = self._holdback_depth.get(host, 0) + 1
        # The number this message waits for was assigned before the one it
        # carries, so its owner is known now; keep the owner's state, which
        # confirmation may drop while this stall is still open.
        owner = self._owners.get((data.get("blocked_on"), data.get("expected_seq")))
        self._buffered[(host, data["msg"])] = (
            record.time, self._flights.get(owner) if owner is not None else None
        )
        heapq.heappush(
            self._stall_heap,
            (record.time + self.stall_threshold_ms, host, data["msg"]),
        )

    def _on_drain(self, record: TraceRecord) -> None:
        key = (record.data["host"], record.data["msg"])
        depth = self._holdback_depth.get(key[0], 0) - 1
        if depth > 0:
            self._holdback_depth[key[0]] = depth
        else:
            self._holdback_depth.pop(key[0], None)
        self._buffered.pop(key, None)
        self._stall_alerted.discard(key)
        self.latency.observe(record)

    def _on_fault(self, record: TraceRecord) -> None:
        faults = self._faults
        faults.append(fault_of(record))
        if len(faults) < self._trim_at:
            return
        horizon = self._evidence_horizon(record.time)
        while faults[0][0] < horizon:
            faults.popleft()
        self._switches = [w for w in self._switches if w[1] >= horizon]
        self._trim_at = max(64, 2 * len(faults))

    def _evidence_horizon(self, now: float) -> float:
        """No stall attributed later reaches evidence before this time: a
        window opens at the buffering or at the missing predecessor's
        publication, both known for an open stall, and a later stall
        waits on a message published after the oldest unconfirmed one."""
        unconfirmed = self._unconfirmed
        while unconfirmed:
            flight = self._flights.get(unconfirmed[0][1])
            if flight is not None and not flight.done:
                break
            unconfirmed.popleft()
        horizon = unconfirmed[0][0] if unconfirmed else now
        for key, (buffered_at, flight) in self._buffered.items():
            if key not in self._stall_alerted:
                horizon = min(horizon, buffered_at)
                if flight is not None and flight.publish_time is not None:
                    horizon = min(horizon, flight.publish_time)
        return min(horizon, now)

    def _expire_stalls(self, now: float) -> None:
        heap = self._stall_heap
        while heap and heap[0][0] <= now:
            _deadline, host, msg = heapq.heappop(heap)
            key = (host, msg)
            buffered = self._buffered.get(key)
            if buffered is None or key in self._stall_alerted:
                continue
            self._stall_alerted.add(key)
            buffered_at, flight = buffered
            switches: List[Tuple[float, Optional[float]]] = [*self._switches]
            switches += [(begin, None) for begin in self._switch_open.values()]
            cause, evidence = attribute_stall(
                host, buffered_at, now, False,
                flight.missing() if flight is not None else None,
                self._faults, switches,
            )
            self._alert(
                now, "LM303",
                f"host {host} has buffered message {msg} for "
                f"{now - buffered_at:.1f} ms (threshold "
                f"{self.stall_threshold_ms:.1f} ms), cause: {cause}",
                f"host {host}", "warning", cause, evidence,
            )

    def _on_epoch_fence(self, record: TraceRecord) -> None:
        data = record.data
        group = data["group"]
        self.epoch = data["epoch"]
        if data.get("phase") == "publish":
            self._fence_expected[group] = self.membership.get(group, frozenset())
            self._fence_delivered.setdefault(group, set())
            self._track(data["msg"], record.time, data["sender"], group)
        elif data.get("phase") == "deliver":
            delivered = self._fence_delivered.setdefault(group, set())
            delivered.add(data["host"])
            flight = self._flights.get(data["msg"])
            self._checker.consume_fence(
                data["host"], group, data["msg"],
                flight.group_seq if flight is not None else None, record.time,
            )
            expected = self._fence_expected.get(group)
            if expected is not None and delivered >= expected:
                self._fence_expected.pop(group, None)
                self._fence_delivered.pop(group, None)
                self._confirmed(data["msg"])

    def _on_epoch_switch(self, record: TraceRecord) -> None:
        epoch = self.epoch = record.data["epoch"]
        if record.data.get("phase") == "begin":
            self._switch_open[epoch] = record.time
        else:
            begin = self._switch_open.pop(epoch, record.time)
            self._switches.append((begin, record.time))

    # -- verdicts ----------------------------------------------------------

    def _on_violation(self, key: str, time: float, message: str, anchor: str) -> None:
        code = _LM_CODE.get(key)
        if code is not None:
            self._alert(time, code, message, anchor)

    def _alert(
        self, time: float, rule: str, message: str, anchor: str,
        severity: str = "error", cause: Optional[str] = None,
        evidence: Optional[Dict[str, int]] = None,
    ) -> None:
        if len(self.alerts) >= self.max_alerts:
            self.alerts_dropped += 1
            return
        self.alerts.append(
            MonitorAlert(time, rule, severity, message, anchor, cause, evidence or {})
        )

    @property
    def violations(self) -> int:
        """Number of error-severity alerts raised so far."""
        return sum(1 for alert in self.alerts if alert.severity == "error")

    def summary(self) -> Dict[str, Any]:
        """The alert feed and its verdict counts (reports and the wire)."""
        return {
            "alerts": [alert.to_dict() for alert in self.alerts],
            "alerts_dropped": self.alerts_dropped,
            "violations": self.violations,
            "warnings": sum(1 for a in self.alerts if a.severity == "warning"),
        }

    def holdback_occupancy(self) -> Dict[int, int]:
        """Hosts with messages currently parked in hold-back buffers."""
        return dict(sorted(self._holdback_depth.items()))

    def fences_outstanding(self) -> Dict[int, List[int]]:
        """Members yet to deliver their group's live epoch fence."""
        outstanding: Dict[int, List[int]] = {}
        for group in sorted(self._fence_expected):
            missing = sorted(
                self._fence_expected[group]
                - self._fence_delivered.get(group, set())
            )
            if missing:
                outstanding[group] = missing
        return outstanding

    def final_findings(self, complete: bool = True, causal: bool = True) -> List[Finding]:
        """The checker's RT verdicts over the streamed run — the checker
        :func:`repro.check.verify_run` feeds from the fabric, so a
        campaign can assert the two are identical."""
        if not self.retain_audit:
            raise RuntimeError(
                "monitor was constructed with retain_audit=False; "
                "it kept no audit state"
            )
        return self._checker.findings(
            "rt", complete, causal, self.holdback_occupancy()
        )
