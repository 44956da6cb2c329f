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
journey (:mod:`repro.obs.lifecycle`) and the sequence numbers it owns
once every member delivered it.  Fault evidence is kept back to the oldest open stall
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
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.check.findings import Finding
from repro.check.invariants import RULES, OrderingChecker, stamping_spaces
from repro.obs.forensics import attribute_stall
from repro.obs.lifecycle import BufferEvent, Journey, Lifecycle
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


class LiveMonitor(Lifecycle):
    """Streaming ordering checks and stall attribution over a live trace.

    The monitor is the lifecycle fold run live: its journeys feed the
    checker and the phase histograms, and without ``retain_audit`` a
    journey is dropped once every member delivered it.

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
        super().__init__()
        self._reset()

    # -- attachment --------------------------------------------------------

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
        self.clear()
        self._checker = OrderingChecker(
            self.membership,
            stamping=self._stamping,
            bounded=not self.retain_audit,
            on_violation=self._on_violation,
        )
        #: (publish time, msg) in publication order, for the evidence horizon
        self._unconfirmed: Deque[Tuple[float, int]] = deque()
        #: min-heap of (deadline, host, msg) stall candidates
        self._stall_heap: List[Tuple[float, int, int]] = []
        self._stall_alerted: Set[Tuple[int, int]] = set()
        #: host -> current hold-back depth (buffer minus drain)
        self._holdback_depth: Dict[int, int] = {}
        #: fault-ring length that triggers the next trim (amortizes its scan)
        self._trim_at = 64
        #: group -> (expected members, delivered members) of the live fence
        self._fence_expected: Dict[int, FrozenSet[int]] = {}
        self._fence_delivered: Dict[int, Set[int]] = {}

    # -- the stream --------------------------------------------------------

    def observe(self, record: TraceRecord) -> None:
        """Consume one trace record (the trace-subscriber entry point)."""
        now = self.now = record.time
        self.fold(record)
        heap = self._stall_heap
        if heap and heap[0][0] <= now:
            self._expire_stalls(now)

    def _on_publish(self, record: TraceRecord) -> Journey:
        journey = super()._on_publish(record)
        self.published_total += 1
        self._unconfirmed.append((record.time, journey.msg_id))
        self._checker.publish(journey.msg_id, journey.group, journey.sender, record.time)
        return journey

    def _on_deliver(self, record: TraceRecord) -> Optional[Journey]:
        journey = super()._on_deliver(record)
        data = record.data
        self.delivered_total += 1
        self.latency.observe(record, journey)
        group_seq = journey.group_seq if journey is not None else None
        stamp = journey.stamp if journey is not None and self.retain_audit else None
        if self._checker.deliver(data["host"], data["msg"], data["group"],
                                 data["sender"], record.time, group_seq, stamp):
            self._confirmed(journey)
        return journey

    def _confirmed(self, journey: Optional[Journey]) -> None:
        """Every member delivered the message: its journey is settled."""
        if journey is None:
            return
        if self.retain_audit:
            journey.done = True
        else:
            self.drop(journey)

    def _on_buffer(self, record: TraceRecord) -> BufferEvent:
        event = super()._on_buffer(record)
        host = event.host
        self._holdback_depth[host] = self._holdback_depth.get(host, 0) + 1
        heapq.heappush(
            self._stall_heap,
            (record.time + self.stall_threshold_ms, host, event.msg_id),
        )
        return event

    def _on_drain(self, record: TraceRecord) -> Optional[BufferEvent]:
        event = super()._on_drain(record)
        key = (record.data["host"], record.data["msg"])
        depth = self._holdback_depth.get(key[0], 0) - 1
        if depth > 0:
            self._holdback_depth[key[0]] = depth
        else:
            self._holdback_depth.pop(key[0], None)
        self._stall_alerted.discard(key)
        return event

    def _on_fault(self, record: TraceRecord) -> None:
        super()._on_fault(record)
        faults = self.faults
        if len(faults) < self._trim_at:
            return
        horizon = self._evidence_horizon(record.time)
        while faults[0][0] < horizon:
            faults.popleft()
        self.switches = [w for w in self.switches if w[1] >= horizon]
        self._trim_at = max(64, 2 * len(faults))

    def _evidence_horizon(self, now: float) -> float:
        """No stall attributed later reaches evidence before this time: a
        window opens at the buffering or at the missing predecessor's
        publication, both known for an open stall, and a later stall
        waits on a message published after the oldest unconfirmed one."""
        unconfirmed = self._unconfirmed
        while unconfirmed:
            journey = self.journeys.get(unconfirmed[0][1])
            if journey is not None and not journey.done:
                break
            unconfirmed.popleft()
        horizon = unconfirmed[0][0] if unconfirmed else now
        for key, event in self.open_buffers.items():
            if key not in self._stall_alerted:
                horizon = min(horizon, event.time)
                missing = event.missing
                if missing is not None and missing.publish_time is not None:
                    horizon = min(horizon, missing.publish_time)
        return min(horizon, now)

    def _expire_stalls(self, now: float) -> None:
        heap = self._stall_heap
        while heap and heap[0][0] <= now:
            _deadline, host, msg = heapq.heappop(heap)
            key = (host, msg)
            event = self.open_buffers.get(key)
            if event is None or key in self._stall_alerted:
                continue
            self._stall_alerted.add(key)
            cause, evidence = attribute_stall(
                host, event.time, now, False,
                event.missing.path() if event.missing is not None else None,
                self.faults, self.switch_windows(),
            )
            self._alert(
                now, "LM303",
                f"host {host} has buffered message {msg} for "
                f"{now - event.time:.1f} ms (threshold "
                f"{self.stall_threshold_ms:.1f} ms), cause: {cause}",
                f"host {host}", "warning", cause, evidence,
            )

    def _on_epoch_fence(self, record: TraceRecord) -> Optional[Journey]:
        journey = super()._on_epoch_fence(record)
        data = record.data
        group = data["group"]
        self.epoch = data["epoch"]
        if data.get("phase") == "publish":
            self._fence_expected[group] = self.membership.get(group, frozenset())
            self._fence_delivered.setdefault(group, set())
            self._unconfirmed.append((record.time, data["msg"]))
        elif data.get("phase") == "deliver":
            delivered = self._fence_delivered.setdefault(group, set())
            delivered.add(data["host"])
            self._checker.consume_fence(
                data["host"], group, data["msg"],
                journey.group_seq if journey is not None else None, record.time,
            )
            expected = self._fence_expected.get(group)
            if expected is not None and delivered >= expected:
                self._fence_expected.pop(group, None)
                self._fence_delivered.pop(group, None)
                self._confirmed(journey)
        return journey

    def _on_epoch_switch(self, record: TraceRecord) -> None:
        super()._on_epoch_switch(record)
        self.epoch = record.data["epoch"]

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
