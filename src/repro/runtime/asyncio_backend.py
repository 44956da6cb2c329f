"""The live asyncio runtime backend.

:class:`AsyncioTransport` runs the *same* protocol core as the simulator,
but for real: every registered process (host, sequencing node, failure
detector) becomes an asyncio task draining an in-process inbox queue,
timers run on an event loop instead of a virtual-time heap, and the clock
is scaled monotonic wall time (see
:class:`~repro.runtime.wallclock.LiveClock`).  A TCP service façade on
top of this backend lives in :mod:`repro.runtime.service`.

Design notes
------------

* **Same observable surface as the simulator.**
  :class:`AsyncioScheduler` exposes ``now`` / ``schedule`` /
  ``schedule_at`` / ``pending`` / ``events_executed`` /
  ``heap_high_water`` exactly like
  :class:`~repro.sim.events.Simulator`, and :class:`AsyncioChannel` /
  :class:`AsyncioNetwork` mirror :class:`~repro.sim.network.Channel` /
  :class:`~repro.sim.network.Network` counter-for-counter, so the
  protocol core, the metrics hooks, and the failover machinery run
  unmodified.

* **FIFO is structural, not timer-ordered.**  Event-loop timers near a
  tie can fire out of order (deadlines are computed from clock reads at
  different instants).  Each channel therefore keeps its own payload
  deque: ``send`` appends and schedules an arrival timer, the arrival
  handler pops the *head* — whichever timer fired, the payloads come out
  in send order, preserving the FIFO channel assumption the sequencing
  proof depends on (paper §3.1).

* **Documented divergences from the simulator.**  ``schedule_at`` clamps
  a just-passed deadline to "now" instead of raising (the live clock
  advances between computing an arrival time and scheduling it);
  ``run(until=...)`` returns with later timers still pending, but wall
  time keeps advancing between calls; ``max_events`` is a soft bound
  checked between poll intervals.
"""

import asyncio
import random
from collections import deque
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple,
)

from repro.runtime.errors import RuntimeUnavailable, SimulationError
from repro.runtime.wallclock import LiveClock, read_wall_clock

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.runtime.node import Process
    from repro.runtime.trace import Trace

__all__ = [
    "AsyncioChannel",
    "AsyncioNetwork",
    "AsyncioScheduler",
    "AsyncioTransport",
]

#: default ceiling on real seconds one ``run()`` call may consume before
#: raising — a safety net so a live-runtime bug cannot hang CI forever
DEFAULT_RUN_WALL_LIMIT = 60.0


class _TimerHandle:
    """A cancellable reference to a scheduled live timer."""

    __slots__ = ("_scheduler", "_timer", "_done")

    def __init__(self, scheduler: "AsyncioScheduler") -> None:
        self._scheduler = scheduler
        self._timer: Optional[asyncio.TimerHandle] = None
        self._done = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if not self._done:
            self._done = True
            if self._timer is not None:
                self._timer.cancel()
            self._scheduler._live -= 1


class AsyncioScheduler:
    """Timer service over an asyncio event loop with a scaled live clock.

    The unit of ``now`` and of every delay is the project's virtual
    millisecond; ``clock.time_scale`` maps it to real seconds (see
    :class:`~repro.runtime.wallclock.LiveClock`).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, clock: LiveClock):
        self._loop = loop
        self.clock = clock
        self.events_executed = 0
        #: live (not-yet-fired, not-cancelled) timers
        self._live = 0
        #: peak concurrent live timers (the live analogue of heap depth)
        self.heap_high_water = 0
        #: extra pending-work sources (e.g. the network's undrained
        #: inboxes) folded into :attr:`pending` for quiescence checks
        self._pending_sources: List[Callable[[], int]] = []
        #: first exception raised inside a timer callback (re-raised by
        #: the owning transport's drain)
        self._errors: List[BaseException] = []

    @property
    def now(self) -> float:
        """Virtual milliseconds since the backend was created."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Live timers plus queued-but-unprocessed transport work."""
        return self._live + sum(source() for source in self._pending_sources)

    def add_pending_source(self, source: Callable[[], int]) -> None:
        """Register an extra pending-work counter (transport inboxes)."""
        self._pending_sources.append(source)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> _TimerHandle:
        """Run ``callback(*args)`` ``delay`` virtual milliseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        handle = _TimerHandle(self)
        self._live += 1
        if self._live > self.heap_high_water:
            self.heap_high_water = self._live
        handle._timer = self._loop.call_later(
            self.clock.to_real_seconds(delay), self._fire, handle, callback, args
        )
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> _TimerHandle:
        """Run ``callback(*args)`` at absolute virtual time ``time``.

        Unlike the simulator, a deadline the clock has *just* passed is
        clamped to "now" rather than raising: the live clock advances
        between computing an arrival time and scheduling it, so a
        microscopically stale deadline is normal, not a protocol bug.
        """
        return self.schedule(max(0.0, time - self.clock.now), callback, *args)

    def _fire(
        self, handle: _TimerHandle, callback: Callable[..., None], args: Tuple[Any, ...]
    ) -> None:
        if handle._done:  # cancelled in the same loop iteration it fired
            return
        handle._done = True
        self._live -= 1
        self.events_executed += 1
        try:
            callback(*args)
        except BaseException as exc:  # noqa: BLE001 - surfaced at drain
            self._errors.append(exc)

    def __repr__(self) -> str:
        return f"<AsyncioScheduler now={self.now:.3f} pending={self.pending}>"


class AsyncioChannel:
    """A unidirectional FIFO link delivering through a live inbox queue.

    Mirrors :class:`~repro.sim.network.Channel`: constant propagation
    delay, Bernoulli loss injection, outage windows, and the same counter
    set.  Delivery enqueues into the destination process's inbox; the
    process's pump task invokes ``receive`` — hosts and sequencing nodes
    really do run as asyncio tasks.
    """

    def __init__(
        self,
        network: "AsyncioNetwork",
        src: "Process",
        dst: "Process",
        delay: float,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if delay < 0:
            raise ValueError(f"channel delay must be non-negative, got {delay}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if loss_rate > 0 and rng is None:
            raise ValueError("loss_rate > 0 requires an rng")
        self._network = network
        self._scheduler = network.scheduler
        self.src = src
        self.dst = dst
        self.delay = delay
        self.loss_rate = loss_rate
        self._rng = rng
        self._last_delivery_time = 0.0
        self._down_until = 0.0
        #: payloads on the wire, delivered head-first whatever order the
        #: arrival timers fire in — this is what makes the channel FIFO
        self._wire: "deque[Any]" = deque()
        self.sends = 0
        self.loss_drops = 0
        self.outage_drops = 0
        self.bytes_sent = 0
        self.receives = 0
        self.in_flight = 0
        self.in_flight_high_water = 0

    @property
    def drops(self) -> int:
        """Total packets dropped, whatever the cause."""
        return self.loss_drops + self.outage_drops

    def fail(self, duration: float) -> None:
        """Take the link down for ``duration`` virtual milliseconds."""
        if duration <= 0:
            raise ValueError(f"outage duration must be positive, got {duration}")
        self._down_until = max(self._down_until, self._scheduler.now + duration)

    @property
    def is_down(self) -> bool:
        """Whether the link is currently in an outage window."""
        return self._scheduler.now < self._down_until

    def send(self, payload: Any, size_bytes: int = 0) -> bool:
        """Transmit ``payload``; returns ``False`` if dropped."""
        self.sends += 1
        self.src.messages_sent += 1
        self.bytes_sent += size_bytes
        if self.is_down:
            self.outage_drops += 1
            return False
        if self.loss_rate > 0:
            assert self._rng is not None  # enforced by the constructor
            if self._rng.random() < self.loss_rate:
                self.loss_drops += 1
                return False
        # FIFO: never deliver before a previously sent packet, and pop the
        # wire deque head-first so near-tie timer jitter cannot reorder.
        arrival = max(self._scheduler.now + self.delay, self._last_delivery_time)
        self._last_delivery_time = arrival
        self._wire.append(payload)
        self._scheduler.schedule_at(arrival, self._arrive)
        self.in_flight += 1
        if self.in_flight > self.in_flight_high_water:
            self.in_flight_high_water = self.in_flight
        return True

    def _arrive(self) -> None:
        payload = self._wire.popleft()
        self.in_flight -= 1
        self.receives += 1
        self.dst.messages_received += 1
        self._network._enqueue(self.dst, payload, self)

    def __repr__(self) -> str:
        return (
            f"<AsyncioChannel {self.src.name!r}->{self.dst.name!r} "
            f"delay={self.delay:.3f} sends={self.sends}>"
        )


class AsyncioNetwork:
    """Process registry + live channels; one pump task per process.

    API-compatible with :class:`~repro.sim.network.Network` (lazy connect,
    partition cuts with inheritance, channel retirement with carried
    counters, ``total_*`` aggregates) so the fabric and the observability
    hooks work unchanged.
    """

    _CARRIED_STATS = (
        "sends",
        "loss_drops",
        "outage_drops",
        "bytes_sent",
        "receives",
    )

    def __init__(
        self,
        scheduler: AsyncioScheduler,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        self.scheduler = scheduler
        self.loss_rate = loss_rate
        self.rng = rng
        self._processes: Dict[Any, "Process"] = {}
        self._inboxes: Dict[Any, "asyncio.Queue[Tuple[Any, AsyncioChannel]]"] = {}
        self._pumps: Dict[Any, "asyncio.Task[None]"] = {}
        #: set by :meth:`stop_pumps`; a closed backend starts no new pumps
        self._stopped = False
        self._channels: Dict[Tuple[Any, Any], AsyncioChannel] = {}
        self._cuts: List[Tuple[float, FrozenSet[Any], Optional[FrozenSet[Any]]]] = []
        self._retired_totals: Dict[str, int] = {k: 0 for k in self._CARRIED_STATS}
        self.channels_retired = 0
        #: edges retired by failover and not since re-created (GV206)
        self._retired_keys: Set[Tuple[Any, Any]] = set()
        #: packets enqueued to an inbox but not yet fully processed by the
        #: destination pump — part of the backend's pending-work count
        self._unprocessed = 0
        scheduler.add_pending_source(lambda: self._unprocessed)

    # -- registry ----------------------------------------------------------

    def add_process(self, process: "Process") -> "Process":
        """Register a process; names must be unique."""
        if process.name in self._processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self._processes[process.name] = process
        self._inboxes[process.name] = asyncio.Queue()
        return process

    def process(self, name: Any) -> "Process":
        """Look up a registered process by name."""
        return self._processes[name]

    def __contains__(self, name: Any) -> bool:
        return name in self._processes

    # -- pumps (the per-process asyncio tasks) -----------------------------

    async def _pump(self, name: Any) -> None:
        process = self._processes[name]
        inbox = self._inboxes[name]
        while True:
            payload, channel = await inbox.get()
            try:
                process.receive(payload, channel)
            except BaseException as exc:  # noqa: BLE001 - surfaced at drain
                self.scheduler._errors.append(exc)
            finally:
                self._unprocessed -= 1
                inbox.task_done()

    def _enqueue(self, dst: "Process", payload: Any, channel: AsyncioChannel) -> None:
        self._unprocessed += 1
        self._inboxes[dst.name].put_nowait((payload, channel))
        # The destination's pump starts with its first packet, so on a
        # hosted loop processes run without anyone draining first, and
        # processes registered mid-run (a failover standby, the next
        # epoch's fabric) get their task the same way.  Arrival timers
        # are the only callers, so the event loop is running here.
        task = self._pumps.get(dst.name)
        if not self._stopped and (task is None or task.done()):
            self._pumps[dst.name] = asyncio.ensure_future(self._pump(dst.name))

    def stop_pumps(self) -> None:
        """Cancel every pump task and start no more (backend shutdown)."""
        self._stopped = True
        for task in self._pumps.values():
            task.cancel()
        self._pumps.clear()

    # -- channels ----------------------------------------------------------

    def connect(self, src_name: Any, dst_name: Any, delay: float) -> AsyncioChannel:
        """Create (or fetch) the unidirectional channel ``src -> dst``."""
        key = (src_name, dst_name)
        existing = self._channels.get(key)
        if existing is not None:
            if existing.delay != delay:
                raise ValueError(
                    f"channel {key} already exists with delay "
                    f"{existing.delay}, refusing {delay}"
                )
            return existing
        channel = AsyncioChannel(
            self,
            self._processes[src_name],
            self._processes[dst_name],
            delay,
            loss_rate=self.loss_rate,
            rng=self.rng,
        )
        self._channels[key] = channel
        # A re-created edge (post-failover reconnect) is live again.
        self._retired_keys.discard(key)
        # A channel created while a partition cut is active inherits the
        # remaining outage window (matches the simulated network).
        for heal_time, side_a, side_b in self._active_cuts():
            if _crosses_cut(src_name, dst_name, side_a, side_b):
                remaining = heal_time - self.scheduler.now
                if remaining > 0:
                    channel.fail(remaining)
        return channel

    def channel(self, src_name: Any, dst_name: Any) -> AsyncioChannel:
        """Fetch an existing channel; raises ``KeyError`` if absent."""
        return self._channels[(src_name, dst_name)]

    @property
    def channels(self) -> Dict[Tuple[Any, Any], AsyncioChannel]:
        """Read-only view of all live channels (for metrics)."""
        return dict(self._channels)

    # -- fault injection ---------------------------------------------------

    def _active_cuts(
        self,
    ) -> List[Tuple[float, FrozenSet[Any], Optional[FrozenSet[Any]]]]:
        self._cuts = [cut for cut in self._cuts if cut[0] > self.scheduler.now]
        return self._cuts

    def partition(
        self,
        side: FrozenSet[Any],
        duration: float,
        side_b: Optional[FrozenSet[Any]] = None,
    ) -> int:
        """Cut ``side`` off from ``side_b`` (default: everything else)."""
        if duration <= 0:
            raise ValueError(f"partition duration must be positive, got {duration}")
        side = frozenset(side)
        other = frozenset(side_b) if side_b is not None else None
        self._cuts.append((self.scheduler.now + duration, side, other))
        failed = 0
        for (src_name, dst_name), channel in self._channels.items():
            if _crosses_cut(src_name, dst_name, side, other):
                channel.fail(duration)
                failed += 1
        return failed

    def retire_channels(self, name: Any) -> int:
        """Remove every channel touching process ``name`` (failover).

        Counters fold into the retired totals (aggregates stay
        monotonic); packets already on a retired channel's wire still
        deliver, exactly like the simulated network.
        """
        retired = [
            key for key in self._channels if key[0] == name or key[1] == name
        ]
        for key in retired:
            channel = self._channels.pop(key)
            for stat in self._CARRIED_STATS:
                self._retired_totals[stat] += getattr(channel, stat)
        self.channels_retired += len(retired)
        self._retired_keys.update(retired)
        return len(retired)

    @property
    def retired_edges(self) -> Set[Tuple[Any, Any]]:
        """Edges retired by failover and not re-created since."""
        return set(self._retired_keys)

    # -- aggregates --------------------------------------------------------

    def total_bytes_sent(self) -> int:
        """Aggregate wire bytes across all channels (including retired)."""
        return (
            sum(c.bytes_sent for c in self._channels.values())
            + self._retired_totals["bytes_sent"]
        )

    def total_sends(self) -> int:
        """Aggregate packet transmissions across all channels."""
        return (
            sum(c.sends for c in self._channels.values())
            + self._retired_totals["sends"]
        )

    def total_drops(self) -> int:
        """Aggregate packets lost to loss injection or outages."""
        return self.total_loss_drops() + self.total_outage_drops()

    def total_loss_drops(self) -> int:
        """Aggregate packets lost to Bernoulli loss injection."""
        return (
            sum(c.loss_drops for c in self._channels.values())
            + self._retired_totals["loss_drops"]
        )

    def total_outage_drops(self) -> int:
        """Aggregate packets lost to link outages / partitions."""
        return (
            sum(c.outage_drops for c in self._channels.values())
            + self._retired_totals["outage_drops"]
        )

    def total_in_flight(self) -> int:
        """Packets currently propagating across all channels."""
        return sum(c.in_flight for c in self._channels.values())


class AsyncioTransport:
    """Live runtime backend: asyncio tasks, event-loop timers, real clock.

    Parameters
    ----------
    seed:
        Seed for the transport-level RNG (channel loss draws); derived as
        ``seed + 1``, matching the simulated backend.
    loss_rate:
        Per-packet Bernoulli loss probability applied by every channel.
    time_scale:
        Real seconds per virtual millisecond (see
        :class:`~repro.runtime.wallclock.LiveClock`).  The default runs
        virtual milliseconds as real milliseconds; tests and examples use
        much smaller values to run live scenarios quickly.
    loop:
        Event loop to schedule on.  ``None`` adopts the currently running
        loop when there is one (*hosted* mode — drive with
        :meth:`wait_quiescent`), otherwise creates and owns a private
        loop that :meth:`run` drives and :meth:`close` closes.
    max_run_wall_seconds:
        Safety ceiling on real seconds a single :meth:`run` /
        :meth:`wait_quiescent` may consume before raising
        :class:`~repro.runtime.errors.SimulationError`.
    """

    backend_name = "asyncio"

    def __init__(
        self,
        seed: int = 0,
        loss_rate: float = 0.0,
        time_scale: float = 0.001,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        max_run_wall_seconds: float = DEFAULT_RUN_WALL_LIMIT,
    ):
        self.seed = seed
        self.loss_rate = loss_rate
        self.time_scale = time_scale
        self.max_run_wall_seconds = max_run_wall_seconds
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
                self._owned = False
            except RuntimeError:
                loop = asyncio.new_event_loop()
                self._owned = True
        else:
            self._owned = False
        self._loop = loop
        self._closed = False
        self.clock = LiveClock(time_scale=time_scale)
        self.scheduler = AsyncioScheduler(loop, self.clock)
        self.transport = AsyncioNetwork(
            self.scheduler, loss_rate=loss_rate, rng=random.Random(seed + 1)
        )
        self._trace: Optional["Trace"] = None

    # -- driving -----------------------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Drive the owned event loop until quiescent (or the horizon).

        Blocking entry point for synchronous callers (the fabric's
        ``run``, the conformance tests).  Hosted backends must use
        ``await wait_quiescent(...)`` instead — the loop is already
        running and cannot be re-entered.
        """
        if self._loop.is_running():
            raise RuntimeUnavailable(
                "this AsyncioTransport is hosted on a running event loop; "
                "use 'await backend.wait_quiescent()' instead of run()"
            )
        before = self.scheduler.events_executed
        self._loop.run_until_complete(
            self.wait_quiescent(until=until, max_events=max_events)
        )
        return self.scheduler.events_executed - before

    async def wait_quiescent(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Await quiescence (no timers, no queued packets) or the horizon.

        ``until`` is a virtual-time horizon like the simulator's;
        ``max_events`` is a *soft* bound checked between polls;
        ``timeout`` overrides the backend's wall-clock safety ceiling
        (real seconds).  Returns callbacks executed during the wait.
        """
        before = self.scheduler.events_executed
        limit = timeout if timeout is not None else self.max_run_wall_seconds
        started = read_wall_clock()
        # Poll finely enough to notice quiescence quickly at any scale.
        poll = min(max(self.clock.time_scale, 0.0005), 0.02)
        while True:
            self._raise_pending_errors()
            if until is not None and self.clock.now >= until:
                break
            if max_events is not None and (
                self.scheduler.events_executed - before >= max_events
            ):
                break
            if until is None and self.scheduler.pending == 0:
                # Let queue wakeups scheduled via call_soon settle, then
                # confirm quiescence held.
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                if self.scheduler.pending == 0:
                    break
                continue
            if read_wall_clock() - started > limit:
                raise SimulationError(
                    f"live runtime did not reach "
                    f"{'quiescence' if until is None else f'until={until}'} "
                    f"within {limit:.1f}s wall "
                    f"(pending={self.scheduler.pending}, now={self.clock.now:.1f})"
                )
            await asyncio.sleep(poll)
        self._raise_pending_errors()
        return self.scheduler.events_executed - before

    def _raise_pending_errors(self) -> None:
        if self.scheduler._errors:
            exc = self.scheduler._errors[0]
            if self._trace is not None:
                self._trace.record(
                    self.clock.now, "runtime_error", error=repr(exc)
                )
            self.scheduler._errors = []
            raise exc

    # -- lifecycle ---------------------------------------------------------

    def successor(self, seed: int, loss_rate: float) -> "AsyncioTransport":
        """Fresh backend for the next fabric epoch.

        A hosted backend's successor shares the running loop; an owned
        backend's successor owns a fresh loop (the old one is released by
        ``close()``).
        """
        return AsyncioTransport(
            seed=seed,
            loss_rate=loss_rate,
            time_scale=self.time_scale,
            loop=None if self._owned else self._loop,
            max_run_wall_seconds=self.max_run_wall_seconds,
        )

    def close(self) -> None:
        """Cancel pump tasks and close the owned event loop.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._owned and not self._loop.is_closed():
            if not self._loop.is_running():
                self.transport.stop_pumps()
                self._loop.run_until_complete(asyncio.sleep(0))
                self._loop.close()
        else:
            self.transport.stop_pumps()

    def attach_trace(self, trace: "Trace") -> None:
        """Record backend-level events (pump errors) into the fabric trace."""
        self._trace = trace

    def __repr__(self) -> str:
        mode = "owned" if self._owned else "hosted"
        return (
            f"<AsyncioTransport {mode} now={self.clock.now:.1f} "
            f"pending={self.scheduler.pending}>"
        )


def _crosses_cut(
    src_name: Any,
    dst_name: Any,
    side: FrozenSet[Any],
    side_b: Optional[FrozenSet[Any]],
) -> bool:
    """Whether the directed channel ``src -> dst`` crosses the cut."""
    if side_b is None:
        return (src_name in side) != (dst_name in side)
    return (src_name in side and dst_name in side_b) or (
        src_name in side_b and dst_name in side
    )
