"""Metric instruments and the registry that owns them.

Three instrument kinds cover the pipeline's needs:

* :class:`Counter` — monotonically increasing totals (messages published,
  retransmissions).  Pull-style collectors may also assign an externally
  maintained total via :meth:`Counter.set_total`.
* :class:`Gauge` — point-in-time values that can go up and down (buffer
  occupancy, in-flight packets); :meth:`Gauge.set_max` turns a gauge into a
  high-water mark.
* :class:`Histogram` — fixed log-spaced buckets plus ``sum``/``count`` and a
  high-water ``max`` (delivery latency, callback wall time).

Instruments are identified by ``(name, labels)``; asking the registry twice
for the same identity returns the same object, so call sites can cache the
instrument once and update it on the hot path.

**Disabled registries are near-zero-cost.**  A registry constructed with
``enabled=False`` (or the shared :data:`NULL_REGISTRY`) hands out a single
shared null instrument whose update methods are no-ops; the only residual
cost at an instrumented call site is one attribute lookup and an empty
method call.
"""

import bisect
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def log_buckets(
    low: float = 0.01, high: float = 10_000.0, per_decade: int = 4
) -> Tuple[float, ...]:
    """Fixed log-spaced histogram bucket upper bounds, ``low`` .. ``high``.

    The defaults span 0.01 ms to 10 s with four buckets per decade, which
    covers everything from a local IPC hop to a badly stalled hold-back
    buffer at paper scale.
    """
    if low <= 0 or high <= low:
        raise ValueError(f"need 0 < low < high, got {low}, {high}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    decades = math.log10(high / low)
    steps = int(round(decades * per_decade))
    bounds = [low * 10 ** (i / per_decade) for i in range(steps + 1)]
    # Snap the final bound to `high` exactly (fp drift from the power).
    bounds[-1] = high
    return tuple(bounds)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the total with an externally maintained running count.

        For pull-style collectors that mirror a counter the protocol code
        already keeps (e.g. ``Channel.bytes_sent``); the source must be
        monotonic for the exported series to behave like a counter.
        """
        self.value = value


class Gauge:
    """A value that can move both ways; optionally a high-water mark."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if larger (high-water mark)."""
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with ``sum``, ``count``, and high-water ``max``.

    ``buckets`` are upper bounds; an observation lands in the first bucket
    whose bound is ``>= value`` (bounds are inclusive, Prometheus ``le``
    semantics).  Observations above the last bound land in the implicit
    ``+Inf`` overflow bucket.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey, buckets: Sequence[float]):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing: {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = ordered
        #: per-bucket (non-cumulative) counts; index len(buckets) is +Inf
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with ``+Inf``."""
        result: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.buckets, self.bucket_counts):
            running += bucket
            result.append((bound, running))
        result.append((math.inf, running + self.bucket_counts[-1]))
        return result

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the winning bucket (HDR-style);
        observations that landed in the ``+Inf`` overflow bucket are
        reported as the high-water ``max`` — the only honest bound the
        histogram still has for them.  An empty histogram reports 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        lower = 0.0
        for bound, bucket in zip(self.buckets, self.bucket_counts):
            running += bucket
            if bucket and running >= target:
                fraction = 1.0 - (running - target) / bucket
                estimate = lower + (bound - lower) * fraction
                # The true maximum is a tighter upper bound than the
                # bucket edge when every observation sits below it (an
                # all-zero histogram, e.g. direct deliveries' hold-back,
                # reports 0).
                return min(estimate, self.max)
            lower = bound
        return self.max

    def merge_counts(self, other: "Histogram") -> None:
        """Fold another histogram with the identical bucket scheme in.

        This is what makes the fixed-bucket scheme mergeable across
        nodes: per-bucket counts, ``count``, ``sum``, and ``max`` all
        combine exactly, so quantiles over the merge are as accurate as
        over a single histogram observing the union.
        """
        if tuple(other.buckets) != self.buckets:
            raise ValueError(
                f"bucket schemes differ ({len(other.buckets)} vs "
                f"{len(self.buckets)} bounds); refusing a lossy merge"
            )
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.count += other.count
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max


class _NullInstrument:
    """Shared no-op stand-in handed out by disabled registries."""

    __slots__ = ()
    kind = "null"
    name = ""
    labels: LabelKey = ()
    value = 0.0
    count = 0
    sum = 0.0
    max = 0.0
    buckets: Tuple[float, ...] = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def cumulative(self) -> List[Tuple[float, int]]:
        return []

    def quantile(self, q: float) -> float:
        return 0.0

    def merge_counts(self, other: object) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Owns instruments, collectors, and metadata for one run.

    Parameters
    ----------
    enabled:
        When ``False`` every instrument request returns the shared
        :data:`NULL_INSTRUMENT` and :meth:`collect` is a no-op, so fully
        instrumented code runs essentially uninstrumented.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[Tuple[str, LabelKey], object] = {}
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- instrument factories -------------------------------------------

    @staticmethod
    def _label_key(labels: Dict[str, object]) -> LabelKey:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _get(self, cls, name: str, help: str, labels: Dict[str, object], **extra):
        if not self.enabled:
            return NULL_INSTRUMENT
        declared = self._types.get(name)
        if declared is None:
            self._types[name] = cls.kind
            if help:
                self._help[name] = help
        elif declared != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as {declared}, "
                f"refusing {cls.kind}"
            )
        key = (name, self._label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], **extra)
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Fetch-or-create the counter ``name`` with ``labels``."""
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Fetch-or-create the gauge ``name`` with ``labels``."""
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> Histogram:
        """Fetch-or-create the histogram ``name`` (default log buckets)."""
        return self._get(
            Histogram, name, help, labels, buckets=buckets or log_buckets()
        )

    # -- collectors and inspection --------------------------------------

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Add a pull-style collector run by :meth:`collect` before export.

        Collectors mirror state the simulation already keeps (per-link
        bytes, buffer high-water marks) into instruments, so the hot path
        pays nothing for metrics that only matter at scrape time.
        """
        if self.enabled:
            self._collectors.append(fn)

    def collect(self) -> None:
        """Run all registered collectors (no-op when disabled)."""
        if not self.enabled:
            return
        for fn in self._collectors:
            fn(self)

    def instruments(self) -> List[object]:
        """All instruments, sorted by (name, labels) for stable export."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def get(self, name: str, **labels) -> Optional[object]:
        """Look up an existing instrument; ``None`` when absent."""
        return self._instruments.get((name, self._label_key(labels)))

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def type_of(self, name: str) -> str:
        return self._types.get(name, "untyped")

    def __len__(self) -> int:
        return len(self._instruments)


#: Shared disabled registry: attach this when no metrics were requested so
#: instrumented code needs no ``if registry is not None`` branches.
NULL_REGISTRY = MetricsRegistry(enabled=False)
