"""Serializable telemetry snapshots, mergeable across nodes.

A :class:`TelemetrySnapshot` is the wire form of one node's live
telemetry: throughput totals, per-phase latency histograms (bucket
counts, not pre-computed quantiles — so merging stays exact), hold-back
occupancy, outstanding epoch fences, and the streaming-monitor alert
feed.  The service façade answers its ``metrics`` verb with one of
these; an operator view aggregating a fabric merges the per-node
snapshots with :meth:`TelemetrySnapshot.merge` and computes percentiles
*after* the merge, which the fixed-bucket scheme makes exact
(:meth:`repro.obs.registry.Histogram.merge_counts`).
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.obs.live.latency import phase_summary
from repro.obs.registry import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live.monitors import LiveMonitor

__all__ = ["TelemetrySnapshot", "SNAPSHOT_FORMAT", "merge_snapshots"]

#: Schema tag embedded in every serialized snapshot.
SNAPSHOT_FORMAT = "repro-telemetry/1"


def _histogram_to_dict(histogram: Histogram) -> Dict[str, Any]:
    return {
        "buckets": list(histogram.buckets),
        "counts": list(histogram.bucket_counts),
        "count": histogram.count,
        "sum": histogram.sum,
        "max": histogram.max,
    }


def _histogram_from_dict(name: str, data: Dict[str, Any]) -> Histogram:
    histogram = Histogram(name, (), tuple(data["buckets"]))
    counts = list(data["counts"])
    if len(counts) != len(histogram.bucket_counts):
        raise ValueError(
            f"histogram {name!r}: {len(counts)} bucket counts for "
            f"{len(histogram.buckets)} bounds"
        )
    histogram.bucket_counts = counts
    histogram.count = int(data["count"])
    histogram.sum = float(data["sum"])
    histogram.max = float(data["max"])
    return histogram


@dataclass
class TelemetrySnapshot:
    """One node's telemetry at a point in virtual time."""

    node: str
    now: float = 0.0
    published: int = 0
    delivered: int = 0
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    alerts_dropped: int = 0
    #: host id (as str, JSON-friendly) -> hold-back depth
    holdback: Dict[str, int] = field(default_factory=dict)
    #: group id (as str) -> members yet to deliver the live fence
    fences: Dict[str, List[int]] = field(default_factory=dict)
    epoch: Optional[int] = None
    #: phase -> serialized histogram (bucket counts merge exactly)
    phases: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def from_monitor(cls, monitor: "LiveMonitor") -> "TelemetrySnapshot":
        """Capture a monitor's current state (cheap; copies counters)."""
        return cls(
            node=monitor.node,
            now=monitor.now,
            published=monitor.published_total,
            delivered=monitor.delivered_total,
            alerts=[alert.to_dict() for alert in monitor.alerts],
            alerts_dropped=monitor.alerts_dropped,
            holdback={
                str(host): depth
                for host, depth in monitor.holdback_occupancy().items()
            },
            fences={
                str(group): missing
                for group, missing in monitor.fences_outstanding().items()
            },
            epoch=monitor.epoch,
            phases={
                phase: _histogram_to_dict(histogram)
                for phase, histogram in monitor.latency.histograms.items()
            },
        )

    # -- verdict helpers ---------------------------------------------------

    @property
    def violations(self) -> int:
        return sum(1 for a in self.alerts if a.get("severity") == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for a in self.alerts if a.get("severity") == "warning")

    def phase_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{count, p50, p99, p999, max}`` from the counts."""
        out: Dict[str, Dict[str, float]] = {}
        for phase, data in self.phases.items():
            out[phase] = phase_summary(_histogram_from_dict(phase, data))
        return out

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SNAPSHOT_FORMAT,
            "node": self.node,
            "now": self.now,
            "published": self.published,
            "delivered": self.delivered,
            "violations": self.violations,
            "warnings": self.warnings,
            "alerts": list(self.alerts),
            "alerts_dropped": self.alerts_dropped,
            "holdback": dict(self.holdback),
            "fences": {g: list(m) for g, m in self.fences.items()},
            "epoch": self.epoch,
            "phases": {p: dict(d) for p, d in self.phases.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetrySnapshot":
        fmt = data.get("format", SNAPSHOT_FORMAT)
        if fmt != SNAPSHOT_FORMAT:
            raise ValueError(f"unknown telemetry snapshot format {fmt!r}")
        return cls(
            node=str(data.get("node", "unknown")),
            now=float(data.get("now", 0.0)),
            published=int(data.get("published", 0)),
            delivered=int(data.get("delivered", 0)),
            alerts=list(data.get("alerts", [])),
            alerts_dropped=int(data.get("alerts_dropped", 0)),
            holdback={
                str(k): int(v) for k, v in data.get("holdback", {}).items()
            },
            fences={
                str(k): [int(m) for m in v]
                for k, v in data.get("fences", {}).items()
            },
            epoch=data.get("epoch"),
            phases={
                str(p): dict(d) for p, d in data.get("phases", {}).items()
            },
        )

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Exact cross-node aggregate of two snapshots.

        Totals add, hold-back depths add per host, fence gaps union,
        histograms merge bucket-by-bucket (identical fixed schemes), and
        the alert feeds interleave by time.  Quantiles computed from the
        merged histogram equal those of a single histogram that observed
        the union of both nodes' samples.
        """
        merged = TelemetrySnapshot(
            node=f"{self.node}+{other.node}",
            now=max(self.now, other.now),
            published=self.published + other.published,
            delivered=self.delivered + other.delivered,
            alerts=sorted(
                list(self.alerts) + list(other.alerts),
                key=lambda a: (a.get("time", 0.0), a.get("rule", "")),
            ),
            alerts_dropped=self.alerts_dropped + other.alerts_dropped,
            holdback=dict(self.holdback),
            fences={g: list(m) for g, m in self.fences.items()},
            epoch=(
                other.epoch
                if self.epoch is None
                else self.epoch
                if other.epoch is None
                else max(self.epoch, other.epoch)
            ),
        )
        for host, depth in other.holdback.items():
            merged.holdback[host] = merged.holdback.get(host, 0) + depth
        for group, missing in other.fences.items():
            merged.fences[group] = sorted(
                set(merged.fences.get(group, [])) | set(missing)
            )
        for phase in sorted(set(self.phases) | set(other.phases)):
            ours, theirs = self.phases.get(phase), other.phases.get(phase)
            if ours is None or theirs is None:
                merged.phases[phase] = dict(ours or theirs or {})
                continue
            histogram = _histogram_from_dict(phase, ours)
            histogram.merge_counts(_histogram_from_dict(phase, theirs))
            merged.phases[phase] = _histogram_to_dict(histogram)
        return merged


def merge_snapshots(
    snapshots: List[TelemetrySnapshot],
) -> Optional[TelemetrySnapshot]:
    """Fold a list of per-node snapshots into one aggregate (None if empty)."""
    merged: Optional[TelemetrySnapshot] = None
    for snapshot in snapshots:
        merged = snapshot if merged is None else merged.merge(snapshot)
    return merged
