"""Observability for the sequencing pipeline.

The package has these parts:

* :mod:`repro.obs.registry` — ``Counter``/``Gauge``/``Histogram`` instruments
  behind a :class:`~repro.obs.registry.MetricsRegistry` that is near-zero-cost
  when disabled (call sites hold no-op null instruments).
* :mod:`repro.obs.lifecycle` — the one message-lifecycle model: a fold from
  trace records to one :class:`~repro.obs.lifecycle.Journey` per message
  (``publish -> ingress atom -> sequencing path -> distribution -> each
  receiver's arrival, hold-back and delivery``) and the one phase
  vocabulary, :data:`~repro.obs.lifecycle.PHASES` (ingress / sequencing /
  distribution / holdback, which sum to ``total``).  Every consumer below
  — exporters, forensics, the live monitor, latency histograms, ``repro
  top`` and ``repro trace run`` — is built on it.
* :mod:`repro.obs.exporters` — dump traces and metrics as JSONL,
  Prometheus-style text, and Chrome trace-event JSON (Perfetto-loadable).
* :mod:`repro.obs.forensics` — the flight recorder's analysis side: the
  lifecycle fold with retention, over trace records (live or JSONL).  It
  explains every deliver-or-buffer decision with its blocking ``(atom,
  expected_seq)`` gap, rebuilds per-receiver hold-back histories, and
  attributes stalls to loss / outage / peer_down / failover replay /
  in-flight by joining the fault records.  Surfaced as the ``repro explain`` CLI subcommand.
* :mod:`repro.obs.hooks` — wiring that attaches a registry to a running
  :class:`~repro.core.protocol.OrderingFabric` and its simulator.
* :mod:`repro.obs.resources` — peak-RSS and GC-pause sampling with no-op
  fallbacks, exported through the registry.

Wall time per layer is not measured in here: the benchmark's traced run
(``perfbench/run.py --trace 1``) wraps each layer's calls from outside.
See ``docs/OBSERVABILITY.md`` for the full model and overhead notes.
"""

from repro.obs.forensics import (
    JourneyIndex,
    render_journey,
    render_stalls,
    waits_to_dot,
)
from repro.obs.lifecycle import PHASES, BufferEvent, Journey, Lifecycle
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    log_buckets,
)
from repro.obs.resources import GcPauseSampler, peak_rss_bytes

__all__ = [
    "BufferEvent",
    "Counter",
    "Gauge",
    "GcPauseSampler",
    "Histogram",
    "Journey",
    "JourneyIndex",
    "Lifecycle",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "log_buckets",
    "PHASES",
    "peak_rss_bytes",
    "render_journey",
    "render_stalls",
    "waits_to_dot",
]
