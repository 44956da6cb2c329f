"""Streaming per-phase latency percentiles from the lifecycle fold.

The paper's evaluation (and the mean-only summaries PR 1 shipped) hide
tail behaviour; FlexCast-style evaluation reports percentile
distributions instead.  :class:`PhaseLatencyTracker` keeps one
fixed-bucket log-scale histogram (:func:`repro.obs.registry.log_buckets`,
0.01 ms .. 10 s, 4 buckets per decade) per phase of
:data:`repro.obs.lifecycle.PHASES` plus their sum ``total`` (the order
of :data:`repro.obs.lifecycle.SERIES`).  Every delivered copy is
observed once in each, with its phases read from the message's journey:
a copy delivered on arrival observes ``holdback`` 0.  A copy whose
journey lacks the sequencing records (a monitor attached mid-run, a
baseline fabric) observes only ``total``.

All values are **virtual milliseconds**, so the same percentiles come out
of a simulated run and a live asyncio run (scaled by the backend's
clock).  Fixed buckets make per-node histograms mergeable exactly
(:meth:`repro.obs.registry.Histogram.merge_counts`).
"""

from typing import Dict, Optional

from repro.obs.lifecycle import SERIES, Journey
from repro.obs.registry import Histogram, MetricsRegistry
from repro.runtime.trace import TraceRecord

__all__ = ["PhaseLatencyTracker", "phase_summary"]

#: Metric name shared by all phase histograms (label ``phase``).
PHASE_METRIC = "repro_phase_latency_ms"

#: Quantiles surfaced in summaries: median plus the SLO tails.
SUMMARY_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


class PhaseLatencyTracker:
    """Per-phase latency histograms, one observation per delivered copy."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.histograms: Dict[str, Histogram] = {
            name: self.registry.histogram(
                PHASE_METRIC,
                "Per-phase pipeline latency in virtual milliseconds",
                phase=name,
            )
            for name in SERIES
        }

    def observe(self, record: TraceRecord, journey: Optional[Journey]) -> None:
        """One ``deliver`` record, with its message's journey folded
        through that record (``None`` if the stream never showed it)."""
        latencies = (
            journey.latencies(record.data["host"]) if journey is not None else None
        )
        if latencies is None:
            self.histograms["total"].observe(
                record.time - float(record.data["publish_time"])
            )
            return
        for histogram, value in zip(self.histograms.values(), latencies):
            histogram.observe(value)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-series ``{count, p50, p99, p999, max}`` (virtual ms)."""
        return {
            name: phase_summary(histogram)
            for name, histogram in self.histograms.items()
        }


def phase_summary(histogram: Histogram) -> Dict[str, float]:
    """Quantile summary of one histogram (count, p50/p99/p999, max)."""
    out: Dict[str, float] = {"count": float(histogram.count)}
    for label, q in SUMMARY_QUANTILES:
        out[label] = histogram.quantile(q)
    out["max"] = histogram.max
    return out

