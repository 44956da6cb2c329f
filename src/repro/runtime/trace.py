"""Structured tracing of runtime events (transport-neutral).

The metrics layer (:mod:`repro.metrics`) computes latency stretch, RDP, and
load figures from traces rather than by instrumenting protocol code, which
keeps the protocol implementation uncluttered and lets baselines share the
same analysis pipeline.  The observability layer folds the same records
into one lifecycle per message (:mod:`repro.obs.lifecycle`), post hoc or
live through subscribers, and explains hold-back from the flight-recorder
kinds (``atom_seq``/``atom_pass``/``buffer``/``drain``/``retransmit``);
that works identically on a live trace and on a JSONL export because
every data value is a JSON primitive.

The trace is backend-agnostic: record times come from whatever clock the
runtime's node handle exposes, so the same analysis runs over a simulated
run and a live asyncio run.

**Recording contract** (see :meth:`Trace.record`):

* Per-kind *counts* are maintained whether or not tracing is enabled; the
  disabled path is a single dict bump and nothing else — no record object,
  no data retention, no subscriber calls.
* *Records*, the per-kind index, and subscriber callbacks exist only while
  ``enabled`` is true.
* Very hot call sites emitting high-volume kinds (e.g. the fabric's
  per-hop ``seq_hop`` records) additionally guard on ``trace.enabled`` so
  the disabled path skips even the keyword-argument packing; counts for
  those kinds are therefore only meaningful when tracing is on.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

__all__ = ["Trace", "TraceRecord"]


@dataclass(frozen=True)
class TraceRecord:
    """A single traced occurrence.

    Attributes
    ----------
    time:
        Virtual time of the occurrence.
    kind:
        A short category string, e.g. ``"publish"``, ``"deliver"``,
        ``"sequence"``, ``"forward"``.
    data:
        Free-form payload; by convention a dict with at least ``msg`` for
        message-scoped records.
    """

    time: float
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


class Trace:
    """An append-only log of :class:`TraceRecord` with simple querying.

    Parameters
    ----------
    enabled:
        Record nothing but per-kind counts when false.
    maxlen:
        Optional bound turning the log into a ring buffer that keeps only
        the newest ``maxlen`` records — for long-running runs where only
        the recent past matters.  The per-kind index is disabled in
        ring-buffer mode (evictions would have to be mirrored into every
        index list), so ``select(kind=...)`` falls back to a scan.
    """

    def __init__(self, enabled: bool = True, maxlen: Optional[int] = None):
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.enabled = enabled
        self.maxlen = maxlen
        self._records: Union["deque[TraceRecord]", List[TraceRecord]] = (
            deque(maxlen=maxlen) if maxlen else []
        )
        #: per-kind index kept in lock-step with _records (None in ring mode)
        self._by_kind: Optional[Dict[str, List[TraceRecord]]] = (
            None if maxlen else {}
        )
        self._counts: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceRecord], None]] = []

    def record(self, time: float, kind: str, **data: Any) -> None:
        """Append one record; when disabled, only bump the kind counter."""
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if not self.enabled:
            return
        rec = TraceRecord(time, kind, data)
        self._records.append(rec)
        if self._by_kind is not None:
            index = self._by_kind.get(kind)
            if index is None:
                self._by_kind[kind] = [rec]
            else:
                index.append(rec)
        for subscriber in self._subscribers:
            subscriber(rec)

    def count(self, kind: str) -> int:
        """Number of records of ``kind`` (counted even when disabled)."""
        return self._counts.get(kind, 0)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Call ``callback(record)`` for every record appended while enabled.

        Subscribers run synchronously on the recording path — keep them
        cheap (the observability hooks bump counters and histograms only).
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Remove a subscriber added with :meth:`subscribe` (idempotent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def select(self, kind: Optional[str] = None, **filters: Any) -> List[TraceRecord]:
        """Return records matching ``kind`` and all data-field filters."""
        return list(self.iter_select(kind, **filters))

    def iter_select(
        self, kind: Optional[str] = None, **filters: Any
    ) -> Iterator[TraceRecord]:
        """Lazily yield records matching ``kind`` and data-field filters.

        Kind-filtered queries use the per-kind index (no full scan) except
        in ring-buffer mode.
        """
        source: Any
        if kind is not None and self._by_kind is not None:
            source = self._by_kind.get(kind, ())
            kind = None  # already filtered by the index
        else:
            source = self._records
        for record in source:
            if kind is not None and record.kind != kind:
                continue
            if all(record.data.get(k) == v for k, v in filters.items()):
                yield record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def clear(self) -> None:
        """Drop all records and counters (subscribers stay attached)."""
        self._records.clear()
        if self._by_kind is not None:
            self._by_kind.clear()
        self._counts.clear()
