"""Slice-calibrated timing and the statistics the benchmark reports.

The machine this benchmark runs on drifts in speed by up to ±20% over
periods of several seconds, so a raw wall clock cannot gate a 10-20%
regression.  :class:`CalibratedClock` splits a timed phase into slices
of about :data:`SLICE_S` and, straight after each slice, times a fixed
pure-Python reference :func:`kernel`.  A slice counts for
``wall * KERNEL_NOMINAL_S / kernel_time`` calibrated seconds: a stretch
where the whole machine ran slow is scaled back, while a slowdown of the
program itself (which the kernel does not share) still shows.  Dividing
the *whole* run by one mean kernel time does not work, because the drift
is faster than a run (see README.md for the measurements).
"""

import gc
import heapq
import math
import statistics
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: target wall length of one calibrated slice (seconds)
SLICE_S = 0.010

#: cells pushed through the reference kernel (~0.45 ms of work)
KERNEL_CELLS = 440

#: the kernel's nominal time (seconds): its median on the 2-vCPU
#: CPython 3.11 machine the bounds in BENCHMARK.json were set on, so a
#: calibrated second is a second of that machine at its usual speed
KERNEL_NOMINAL_S = 0.000455


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: Optional["_Cell"]):
        self.key = key
        self.value = value
        self.next = nxt


def kernel(cells: int = KERNEL_CELLS) -> float:
    """Run the reference kernel once; return its wall time in seconds.

    Heap, dict and small-object work, like the simulator's hot loop,
    with the garbage collector paused so a collection triggered by the
    program's garbage is not charged to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        heap: List[Tuple[int, int, _Cell]] = []
        table: Dict[int, int] = {}
        head: Optional[_Cell] = None
        for i in range(cells):
            head = _Cell(i, (i * 7919) % 1009, head)
            heapq.heappush(heap, (head.value, i, head))
            table[head.value] = table.get(head.value, 0) + 1
        acc = 0
        while heap:
            value, _, cell = heapq.heappop(heap)
            acc += table[value] + cell.key
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def median_kernel(runs: int = 5) -> float:
    """Median of several kernel runs, for a stretch calibrated on its own."""
    return statistics.median(kernel() for _ in range(runs))


def calibrate(wall: float, kernel_s: float, nominal: float = KERNEL_NOMINAL_S) -> float:
    """Calibrated seconds for one slice of ``wall`` seconds."""
    return wall * nominal / kernel_s


class CalibratedClock:
    """Accumulates calibrated time over slices of a timed phase.

    Call :meth:`start`, then :meth:`tick` often from inside the timed
    work (every simulator step, say); every ``check_every`` ticks the
    clock is read and, once a slice is :data:`SLICE_S` long, the slice
    is closed and the kernel runs.  :meth:`stop` closes the last, partial
    slice.  Kernel time is never part of a slice.  ``timer`` and
    ``reference`` are injectable for tests.
    """

    def __init__(
        self,
        slice_s: float = SLICE_S,
        check_every: int = 8,
        timer: Callable[[], float] = perf_counter,
        reference: Callable[[], float] = kernel,
        nominal: float = KERNEL_NOMINAL_S,
    ):
        self.slice_s = slice_s
        self.check_every = check_every
        self._timer = timer
        self._reference = reference
        self.nominal = nominal
        self.wall = 0.0
        self.calibrated = 0.0
        self.kernel_times: List[float] = []
        self._start: Optional[float] = None
        self._ticks = 0

    def start(self) -> None:
        if self._start is None:
            self._ticks = 0
            self._start = self._timer()

    def tick(self) -> None:
        self._ticks += 1
        if self._ticks < self.check_every or self._start is None:
            return
        self._ticks = 0
        if self._timer() - self._start >= self.slice_s:
            self._close()
            self._start = self._timer()

    def stop(self) -> None:
        if self._start is not None:
            self._close()
            self._start = None

    def _close(self) -> None:
        assert self._start is not None
        wall = self._timer() - self._start
        kernel_s = self._reference()
        self.kernel_times.append(kernel_s)
        self.wall += wall
        self.calibrated += calibrate(wall, kernel_s, self.nominal)


class KernelSampler:
    """Runs the kernel every ``interval`` seconds on a background thread.

    For work done by another process (``serve_tcp``'s server), which the
    benchmark cannot slice: the kernel readings taken while that work ran
    calibrate it.
    """

    def __init__(self, interval: float = 0.010, nominal: float = KERNEL_NOMINAL_S):
        self.interval = interval
        self.nominal = nominal
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "KernelSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append((perf_counter(), kernel()))

    def calibrated(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done between ``start`` and ``end``, calibrated."""
        readings = [k for t, k in self.samples if start <= t <= end] or [kernel()]
        return calibrate(seconds, statistics.mean(readings), self.nominal)


def timed_stretch(fn: Callable[[], object], clock: CalibratedClock) -> object:
    """Run ``fn`` as one stretch of ``clock`` (for calls that cannot tick).

    Give such a clock ``reference=median_kernel``: a stretch has a single
    kernel reading, and one run of the kernel varies by ±20%.
    """
    clock.start()
    try:
        return fn()
    finally:
        clock.stop()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: percentiles considered for a tail figure, highest first
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail_percentile(samples: int, beyond: int = 10) -> float:
    """Highest percentile in :data:`TAIL_PERCENTILES` with ``beyond`` samples above it."""
    for pct in TAIL_PERCENTILES:
        if round(samples * (100.0 - pct) / 100.0, 9) >= beyond:
            return pct
    raise ValueError(f"{samples} samples are too few for any tail percentile")


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(round(pct / 100.0 * len(sorted_values), 9)))
    return float(sorted_values[rank - 1])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (``statistics.quantiles``, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
