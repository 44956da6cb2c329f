"""``repro top`` — a refreshing terminal operator view of the telemetry plane.

Renders :class:`~repro.obs.live.snapshot.TelemetrySnapshot` frames:
throughput, per-phase latency percentiles (p50/p99/p999), hold-back
occupancy, outstanding epoch fences, and the streaming-monitor alert
feed.  Two drivers produce the frames:

* **live** — poll a running ``repro serve`` instance's ``metrics`` verb
  over its newline-JSON TCP protocol every ``--interval`` seconds.
* **replay** — stream a JSONL trace export (``repro trace run`` /
  :func:`repro.obs.exporters.write_trace_jsonl`) through a fresh
  :class:`~repro.obs.live.LiveMonitor`, emitting one frame per window of
  *virtual* time.  Group membership is reconstructed from the trace's
  ``publish``/``distribute`` records, so the order/duplicate monitors run
  on replay exactly as they do live.

Rendering is pure (:func:`render_frame` maps snapshot -> text), so tests
and ``--frames N --no-clear`` CI runs get byte-stable output; rates are
computed from *virtual-time* deltas between consecutive frames, never
from the wall clock.  Keys: ``q`` + Enter quits the live view (the
replay view ends with its trace); ``Ctrl-C`` always works.
"""

import json
import socket
import sys
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO

from repro.obs.lifecycle import SERIES
from repro.obs.live.monitors import LiveMonitor
from repro.obs.live.snapshot import TelemetrySnapshot
from repro.runtime.trace import TraceRecord

__all__ = [
    "iter_live",
    "iter_replay",
    "membership_from_records",
    "render_frame",
    "run_top",
]

#: ANSI clear-screen + cursor-home, written between frames unless --no-clear.
CLEAR = "\x1b[2J\x1b[H"

#: Alerts shown in the feed section of one frame (newest last).
ALERT_TAIL = 8


def _fmt_ms(value: float) -> str:
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def render_frame(
    snapshot: TelemetrySnapshot,
    previous: Optional[TelemetrySnapshot] = None,
) -> str:
    """Render one snapshot as the operator view (pure; no I/O)."""
    lines: List[str] = []
    epoch = "-" if snapshot.epoch is None else str(snapshot.epoch)
    lines.append(
        f"repro top — node {snapshot.node}   epoch {epoch}   "
        f"t={snapshot.now:.1f} ms (virtual)"
    )
    if previous is not None and snapshot.now > previous.now:
        delta = snapshot.delivered - previous.delivered
        rate = f"{delta * 1000.0 / (snapshot.now - previous.now):10.1f}"
    else:
        rate = " " * 9 + "-"
    lines.append(
        f"published {snapshot.published:>8}   delivered {snapshot.delivered:>8}"
        f"   rate {rate} msg/s   alerts {snapshot.violations} err"
        f" / {snapshot.warnings} warn"
        + (f" ({snapshot.alerts_dropped} dropped)" if snapshot.alerts_dropped else "")
    )
    lines.append("")
    lines.append(
        f"{'phase':<12}{'count':>8}{'p50':>9}{'p99':>9}{'p999':>9}{'max':>9}"
        "   (virtual ms)"
    )
    summaries = snapshot.phase_summaries()
    for phase in SERIES:
        summary = summaries.get(phase)
        if summary is None:
            continue
        lines.append(
            f"{phase:<12}{int(summary['count']):>8}"
            f"{_fmt_ms(summary['p50']):>9}"
            f"{_fmt_ms(summary['p99']):>9}"
            f"{_fmt_ms(summary['p999']):>9}"
            f"{_fmt_ms(summary['max']):>9}"
        )
    lines.append("")
    buffered = sum(snapshot.holdback.values())
    if buffered:
        worst = sorted(
            snapshot.holdback.items(), key=lambda kv: (-kv[1], int(kv[0]))
        )[:4]
        detail = ", ".join(f"host {h}:{d}" for h, d in worst)
        lines.append(
            f"hold-back: {buffered} buffered across "
            f"{len(snapshot.holdback)} hosts ({detail})"
        )
    else:
        lines.append("hold-back: empty")
    if snapshot.fences:
        for group, missing in sorted(
            snapshot.fences.items(), key=lambda kv: int(kv[0])
        ):
            lines.append(f"fences: group {group} waiting on {missing}")
    else:
        lines.append("fences: none outstanding")
    lines.append("")
    lines.append(f"recent alerts (last {ALERT_TAIL}):")
    tail = snapshot.alerts[-ALERT_TAIL:]
    if not tail:
        lines.append("  (none)")
    for alert in tail:
        cause = f"  cause={alert['cause']}" if alert.get("cause") else ""
        lines.append(
            f"  [{alert.get('time', 0.0):9.1f}] {alert.get('rule', '?')} "
            f"{alert.get('severity', '?'):<7} {alert.get('message', '')}{cause}"
        )
    return "\n".join(lines) + "\n"


# -- replay driver ----------------------------------------------------------


def read_trace_jsonl(path: str) -> List[TraceRecord]:
    """Load a JSONL trace export back into :class:`TraceRecord` objects."""
    records: List[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            records.append(
                TraceRecord(
                    float(obj["time"]), str(obj["kind"]), dict(obj["data"])
                )
            )
    return records


def membership_from_records(
    records: Iterable[TraceRecord],
) -> Dict[int, frozenset]:
    """Reconstruct group membership from ``deliver``/``buffer`` records.

    Each carries the receiving ``host`` and its ``group``, so the union
    over the whole trace is exactly the set of hosts the monitors must
    see deliveries from (``distribute`` records only carry a member
    *count*).  A member that never delivered anything (e.g. crashed for
    the whole run) is invisible here, which shrinks the replay monitors'
    confirmation windows — safe, since eviction only ever happens after
    every *reconstructed* member delivered.
    """
    membership: Dict[int, set] = {}
    for record in records:
        if record.kind in ("deliver", "buffer"):
            group = record.data.get("group")
            host = record.data.get("host")
            if group is not None and host is not None:
                membership.setdefault(int(group), set()).add(int(host))
    return {group: frozenset(hosts) for group, hosts in membership.items()}


def iter_replay(
    path: str,
    window_ms: float = 100.0,
    node: str = "replay",
    stall_threshold_ms: Optional[float] = None,
) -> Iterator[TelemetrySnapshot]:
    """Stream a JSONL trace through a monitor, one frame per time window."""
    if window_ms <= 0:
        raise ValueError(f"window_ms must be positive, got {window_ms}")
    records = read_trace_jsonl(path)
    kwargs: Dict[str, Any] = {"node": node, "retain_audit": False}
    if stall_threshold_ms is not None:
        kwargs["stall_threshold_ms"] = stall_threshold_ms
    monitor = LiveMonitor(**kwargs)
    monitor.adopt_membership(membership_from_records(records))
    if not records:
        yield TelemetrySnapshot.from_monitor(monitor)
        return
    boundary = records[0].time + window_ms
    for record in records:
        while record.time >= boundary:
            yield TelemetrySnapshot.from_monitor(monitor)
            boundary += window_ms
        monitor.observe(record)
    yield TelemetrySnapshot.from_monitor(monitor)


# -- live driver ------------------------------------------------------------


def _rpc(host: str, port: int, req: Dict[str, Any]) -> Dict[str, Any]:
    """One blocking request/response round trip against ``repro serve``."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(json.dumps(req).encode() + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    body = b"".join(chunks)
    if not body:
        raise ConnectionError("service closed the connection")
    resp = json.loads(body)
    assert isinstance(resp, dict)
    return resp


def _wants_quit(interval: float) -> bool:
    """Sleep ``interval`` seconds; True if the user typed ``q`` + Enter."""
    if not sys.stdin.isatty():
        time.sleep(interval)
        return False
    import select

    ready, _, _ = select.select([sys.stdin], [], [], interval)
    if ready:
        line = sys.stdin.readline()
        return line.strip().lower() in ("q", "quit")
    return False


def iter_live(
    host: str,
    port: int,
    interval: float = 1.0,
    frames: Optional[int] = None,
) -> Iterator[TelemetrySnapshot]:
    """Poll a running service's ``metrics`` verb into snapshot frames."""
    emitted = 0
    while frames is None or emitted < frames:
        resp = _rpc(host, port, {"op": "metrics"})
        if not resp.get("ok"):
            raise RuntimeError(f"metrics request failed: {resp}")
        yield TelemetrySnapshot.from_dict(resp["snapshot"])
        emitted += 1
        if frames is not None and emitted >= frames:
            break
        if _wants_quit(interval):
            break


def run_top(
    snapshots: Iterable[TelemetrySnapshot],
    out: Optional[TextIO] = None,
    clear: bool = True,
) -> TelemetrySnapshot:
    """Render a frame stream; returns the final snapshot (for exit status)."""
    stream = sys.stdout if out is None else out
    previous: Optional[TelemetrySnapshot] = None
    last: Optional[TelemetrySnapshot] = None
    for snapshot in snapshots:
        if clear:
            stream.write(CLEAR)
        stream.write(render_frame(snapshot, previous))
        stream.flush()
        previous = last = snapshot
    if last is None:
        raise RuntimeError("no telemetry frames were produced")
    return last
