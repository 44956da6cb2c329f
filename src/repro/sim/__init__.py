"""Packet-level discrete-event simulation kernel.

This package provides the substrate on which the ordering protocol and its
baselines run.  It mirrors the simulation model of the paper's Section 4.1:
the network is modelled at packet level with per-link propagation delay;
queuing delay and (by default) packet loss are not modelled.  Loss can be
enabled explicitly to exercise the protocol's acknowledgment and
retransmission machinery.

The kernel is deliberately small and deterministic:

* :class:`~repro.sim.events.Simulator` — a heap-based event loop with stable
  tie-breaking, so two runs with the same seed produce identical schedules.
* :class:`~repro.sim.network.Channel` — a FIFO, constant-propagation-delay
  link between two processes, with optional Bernoulli loss.
* :class:`~repro.runtime.node.Process` — base class for simulated nodes.
* :class:`~repro.runtime.trace.Trace` — structured event recording for metrics.
"""

from repro.sim.events import EventHandle, Simulator
from repro.sim.network import Channel, Network
from repro.runtime.node import Process
from repro.runtime.trace import Trace, TraceRecord

__all__ = [
    "Channel",
    "EventHandle",
    "Network",
    "Process",
    "Simulator",
    "Trace",
    "TraceRecord",
]
