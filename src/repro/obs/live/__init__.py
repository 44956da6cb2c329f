"""Live telemetry plane: streaming monitors, latency SLOs, operator view.

Everything in this package consumes the runtime trace **as a stream**
(via :meth:`repro.runtime.trace.Trace.subscribe`) instead of post-hoc:

* :mod:`repro.obs.live.monitors` — :class:`LiveMonitor`, the lifecycle
  fold run live: it feeds the ordering checker from the stream (rules
  ``LM300-LM304``) and attributes stall alerts with the forensics
  attribution function.
* :mod:`repro.obs.live.latency` — :class:`PhaseLatencyTracker`,
  fixed-bucket log-scale histograms per lifecycle phase (ingress /
  sequencing / distribution / holdback, plus their sum ``total``) with
  p50/p99/p999 summaries, exactly mergeable across nodes.
* :mod:`repro.obs.live.snapshot` — :class:`TelemetrySnapshot`, the
  serializable wire form served by the runtime service's ``metrics``
  verb and merged across nodes.
* :mod:`repro.obs.live.top` — the ``repro top`` refreshing terminal
  operator view, driven live over TCP or by replaying a JSONL trace.

This package is sim-scoped (simlint's purity rules apply): no wall-clock
reads, no global RNG — monitors are pure functions of the record stream,
which is what makes their alert feeds byte-identical across fixed-seed
runs.
"""

from repro.obs.live.latency import PhaseLatencyTracker, phase_summary
from repro.obs.live.monitors import (
    MONITOR_RULES,
    STALL_THRESHOLD_MS,
    LiveMonitor,
    MonitorAlert,
)
from repro.obs.live.snapshot import (
    SNAPSHOT_FORMAT,
    TelemetrySnapshot,
    merge_snapshots,
)

__all__ = [
    "LiveMonitor",
    "MONITOR_RULES",
    "MonitorAlert",
    "PhaseLatencyTracker",
    "SNAPSHOT_FORMAT",
    "STALL_THRESHOLD_MS",
    "TelemetrySnapshot",
    "merge_snapshots",
    "phase_summary",
]
