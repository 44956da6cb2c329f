"""Controller-driven runtime backend for schedule-space exploration.

The third backend next to :mod:`repro.runtime.sim_backend` (virtual-time
heap) and :mod:`repro.runtime.asyncio_backend` (live tasks): here nothing
fires by itself.  Sends append packets to per-channel FIFO *wire queues*
and timers accumulate in a table; an external controller — the DFS model
checker in :mod:`repro.check.explore` — picks which queue head or timer
fires next.  That turns "what order do events happen in" from a property
of a time heap into a *choice point*, which is exactly what systematic
interleaving exploration needs.

Design constraints, all in service of the model checker:

* **Stable identity** — a transition is addressed by the channel it pops
  (``(src, dst)`` names) or the timer class it fires, never by object
  identity, so a recorded schedule replays against a fresh fabric.
* **Per-channel loss RNG** — unlike the sim transport's single shared
  loss stream, every channel draws from its own ``random.Random`` seeded
  by ``(seed, src, dst)``.  Two deliveries to *different* processes then
  commute exactly (neither perturbs the other's future loss draws), which
  is what makes the checker's partial-order reduction sound.
* **Monotonic virtual clock** — executing a transition advances ``now``
  to at least the packet's earliest arrival (or the timer's fire time),
  so outage windows, crash windows, and backoff timers keep their
  semantics under adversarial reorderings.
* **Plan vs. derived timers** — timers scheduled before
  :meth:`ExploreScheduler.seal_plan` (fault-plan actions) are first-class
  transitions the controller interleaves; timers created during execution
  (retransmissions, service completions) fire only at delivery
  quiescence.  See ``docs/STATIC_ANALYSIS.md`` for why this reduction
  preserves the checked invariants.

The backend also satisfies the :class:`~repro.runtime.interfaces.
RuntimeBackend` protocol standalone: :meth:`ExploreTransport.run` applies
a deterministic earliest-first default policy, so a fabric built over it
behaves like a (slightly coarser) discrete-event simulation when no
controller is attached.
"""

import random
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.runtime.errors import SimulationError

__all__ = [
    "ExploreChannel",
    "ExploreNetwork",
    "ExploreScheduler",
    "ExploreTransport",
]


class _ExploreTimer:
    """A cancellable timer record; fired explicitly by the controller."""

    __slots__ = ("time", "seq", "callback", "args", "plan", "cancelled",
                 "scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        plan: bool,
        scheduler: "ExploreScheduler",
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.plan = plan
        self.cancelled = False
        self.scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            self.scheduler._timers.pop(self.seq, None)

    def __repr__(self) -> str:
        kind = "plan" if self.plan else "derived"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<_ExploreTimer t={self.time:.6f} seq={self.seq} {kind} {name}>"


class ExploreScheduler:
    """Clock + timer table whose firing order is chosen externally.

    Satisfies the :class:`~repro.runtime.interfaces.NodeHandle` protocol.
    ``now`` only moves forward, as the maximum of every executed event's
    nominal time — the model-checking reading of "some schedule in which
    these events happened in this order".
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self.events_executed = 0
        self._timers: Dict[int, _ExploreTimer] = {}
        #: timers scheduled while True are "plan" timers (fault actions)
        self._recording_plan = True
        #: extra pending-work counters (the network's wire queues)
        self.pending_sources: List[Callable[[], int]] = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        extra = sum(source() for source in self.pending_sources)
        return len(self._timers) + extra

    def next_seq(self) -> int:
        """Globally ordered creation sequence (timers and wire entries)."""
        seq = self._seq
        self._seq += 1
        return seq

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> _ExploreTimer:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        timer = _ExploreTimer(
            self._now + delay, self.next_seq(), callback, args,
            self._recording_plan, self,
        )
        self._timers[timer.seq] = timer
        return timer

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> _ExploreTimer:
        return self.schedule(max(0.0, time - self._now), callback, *args)

    def seal_plan(self) -> None:
        """End the plan-recording window: later timers are "derived"."""
        self._recording_plan = False

    def timers(self, plan: Optional[bool] = None) -> List[_ExploreTimer]:
        """Live timers, optionally filtered by class, in (time, seq) order."""
        live = [
            t for t in self._timers.values()
            if plan is None or t.plan == plan
        ]
        live.sort(key=lambda t: (t.time, t.seq))
        return live

    def advance_to(self, time: float) -> None:
        """Move the clock forward (never backward) to ``time``."""
        if time > self._now:
            self._now = time

    def fire(self, timer: _ExploreTimer) -> None:
        """Execute one live timer, advancing the clock to its fire time."""
        if timer.cancelled or self._timers.pop(timer.seq, None) is None:
            raise SimulationError(f"firing dead timer {timer!r}")
        timer.cancelled = True  # a late cancel() must be a no-op
        self.advance_to(timer.time)
        self.events_executed += 1
        timer.callback(*timer.args)

    def __repr__(self) -> str:
        return f"<ExploreScheduler now={self._now:.6f} pending={self.pending}>"


class ExploreChannel:
    """A FIFO wire queue standing in for a scheduled-delivery channel.

    Loss and outage decisions happen at *send* time exactly like the sim
    transport's; what differs is that surviving packets wait on the wire
    queue for the controller instead of on a time heap.  Each queued entry
    remembers its FIFO-monotonic earliest arrival so delivering it can
    advance the virtual clock consistently.
    """

    def __init__(
        self,
        scheduler: ExploreScheduler,
        src: Any,
        dst: Any,
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
        self.scheduler = scheduler
        self.src = src
        self.dst = dst
        self.delay = delay
        self.loss_rate = loss_rate
        self._rng = rng
        self._last_delivery_time = 0.0
        self._down_until = 0.0
        self.sends = 0
        self.loss_drops = 0
        self.outage_drops = 0
        self.bytes_sent = 0
        self.receives = 0
        self.in_flight = 0
        self.in_flight_high_water = 0
        #: queued (payload, earliest arrival, creation seq) entries
        self.wire: Deque[Tuple[Any, float, int]] = deque()

    @property
    def drops(self) -> int:
        return self.loss_drops + self.outage_drops

    @property
    def is_down(self) -> bool:
        return self.scheduler.now < self._down_until

    def fail(self, duration: float) -> None:
        if duration <= 0:
            raise ValueError(f"outage duration must be positive, got {duration}")
        self._down_until = max(self._down_until, self.scheduler.now + duration)

    def send(self, payload: Any, size_bytes: int = 0) -> bool:
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
        arrival = max(self.scheduler.now + self.delay, self._last_delivery_time)
        self._last_delivery_time = arrival
        self.wire.append((payload, arrival, self.scheduler.next_seq()))
        self.in_flight += 1
        if self.in_flight > self.in_flight_high_water:
            self.in_flight_high_water = self.in_flight
        return True

    def head(self) -> Optional[Tuple[Any, float, int]]:
        """The next deliverable entry, or ``None`` for an empty wire."""
        return self.wire[0] if self.wire else None

    def deliver_head(self) -> None:
        """Pop and deliver the head entry (controller-chosen transition)."""
        if not self.wire:
            raise SimulationError(f"deliver on empty wire {self!r}")
        payload, arrival, _seq = self.wire.popleft()
        self.scheduler.advance_to(arrival)
        self.scheduler.events_executed += 1
        self.in_flight -= 1
        self.receives += 1
        self.dst.messages_received += 1
        self.dst.receive(payload, self)

    def __repr__(self) -> str:
        return (
            f"<ExploreChannel {self.src.name!r}->{self.dst.name!r} "
            f"delay={self.delay:.3f} queued={len(self.wire)}>"
        )


class ExploreNetwork:
    """Process registry + wire-queue channels for the explorer.

    Mirrors :class:`repro.sim.network.Network`'s full surface (partition
    cuts with inheritance, channel retirement folding stats into retired
    totals, ``total_*`` aggregates) so the protocol core cannot tell the
    difference.  Retired channels whose wire still holds packets remain
    deliverable — packets on the wire were sent before the failover.
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
        scheduler: ExploreScheduler,
        loss_rate: float = 0.0,
        seed: int = 0,
    ):
        self.scheduler = scheduler
        self.loss_rate = loss_rate
        self.seed = seed
        self._processes: Dict[Any, Any] = {}
        self._channels: Dict[Tuple[Any, Any], ExploreChannel] = {}
        self._cuts: List[Tuple[float, FrozenSet[Any], Optional[FrozenSet[Any]]]] = []
        self._retired_totals: Dict[str, int] = {k: 0 for k in self._CARRIED_STATS}
        self.channels_retired = 0
        #: retired channels with packets still on the wire, in retirement order
        self._retired_inflight: List[Tuple[Tuple[Any, Any], ExploreChannel]] = []
        #: channel keys retired and not since re-created (certificate audit)
        self._retired_keys: Set[Tuple[Any, Any]] = set()
        scheduler.pending_sources.append(self.queued_payloads)

    def _channel_rng(self, key: Tuple[Any, Any]) -> Optional[random.Random]:
        if self.loss_rate <= 0:
            return None
        # One independent stream per channel: deliveries to different
        # processes must not perturb each other's loss draws (POR
        # soundness), so the shared-stream sim idiom is out.
        return random.Random(f"{self.seed}|{key[0]!r}->{key[1]!r}")

    def add_process(self, process: Any) -> Any:
        if process.name in self._processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self._processes[process.name] = process
        return process

    def process(self, name: Any) -> Any:
        return self._processes[name]

    def __contains__(self, name: Any) -> bool:
        return name in self._processes

    def connect(self, src_name: Any, dst_name: Any, delay: float) -> ExploreChannel:
        key = (src_name, dst_name)
        existing = self._channels.get(key)
        if existing is not None:
            if existing.delay != delay:
                raise ValueError(
                    f"channel {key} already exists with delay "
                    f"{existing.delay}, refusing {delay}"
                )
            return existing
        channel = ExploreChannel(
            self.scheduler,
            self._processes[src_name],
            self._processes[dst_name],
            delay,
            loss_rate=self.loss_rate,
            rng=self._channel_rng(key),
        )
        self._channels[key] = channel
        self._retired_keys.discard(key)
        for heal_time, side_a, side_b in self._active_cuts():
            if _crosses_cut(src_name, dst_name, side_a, side_b):
                remaining = heal_time - self.scheduler.now
                if remaining > 0:
                    channel.fail(remaining)
        return channel

    def channel(self, src_name: Any, dst_name: Any) -> ExploreChannel:
        return self._channels[(src_name, dst_name)]

    @property
    def channels(self) -> Dict[Tuple[Any, Any], ExploreChannel]:
        return dict(self._channels)

    @property
    def retired_edges(self) -> Set[Tuple[Any, Any]]:
        """Channel keys retired by failover and not re-created since."""
        return set(self._retired_keys)

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
        retired = [
            key for key in self._channels if key[0] == name or key[1] == name
        ]
        for key in retired:
            channel = self._channels.pop(key)
            for stat in self._CARRIED_STATS:
                self._retired_totals[stat] += getattr(channel, stat)
            self._retired_keys.add(key)
            if channel.wire:
                # In-flight packets were on the wire before the failover;
                # they still deliver, like the sim transport's scheduled
                # deliveries on a retired channel.
                self._retired_inflight.append((key, channel))
        self.channels_retired += len(retired)
        return len(retired)

    # -- controller surface ------------------------------------------------

    def delivery_sources(self) -> List[Tuple[Tuple[Any, ...], ExploreChannel]]:
        """Non-empty wire queues with stable labels, in canonical order.

        Live channels are labelled ``(repr(src), repr(dst))``; retired
        in-flight channels get a positional ``"retired:N"`` suffix so a
        replayed schedule finds the same queue even after the same key was
        re-created live.
        """
        sources: List[Tuple[Tuple[Any, ...], ExploreChannel]] = []
        for key in sorted(self._channels, key=repr):
            channel = self._channels[key]
            if channel.wire:
                sources.append(((repr(key[0]), repr(key[1])), channel))
        self._retired_inflight = [
            (key, ch) for key, ch in self._retired_inflight if ch.wire
        ]
        for index, (key, channel) in enumerate(self._retired_inflight):
            sources.append(
                ((repr(key[0]), repr(key[1]), f"retired:{index}"), channel)
            )
        return sources

    def queued_payloads(self) -> int:
        """Packets waiting on any wire (live or retired in-flight)."""
        live = sum(len(c.wire) for c in self._channels.values())
        return live + sum(len(c.wire) for _key, c in self._retired_inflight)

    # -- aggregates --------------------------------------------------------

    def _all_channels(self) -> List[ExploreChannel]:
        return list(self._channels.values()) + [
            c for _key, c in self._retired_inflight
        ]

    def total_bytes_sent(self) -> int:
        return (
            sum(c.bytes_sent for c in self._channels.values())
            + self._retired_totals["bytes_sent"]
        )

    def total_sends(self) -> int:
        return (
            sum(c.sends for c in self._channels.values())
            + self._retired_totals["sends"]
        )

    def total_drops(self) -> int:
        return self.total_loss_drops() + self.total_outage_drops()

    def total_loss_drops(self) -> int:
        return (
            sum(c.loss_drops for c in self._channels.values())
            + self._retired_totals["loss_drops"]
        )

    def total_outage_drops(self) -> int:
        return (
            sum(c.outage_drops for c in self._channels.values())
            + self._retired_totals["outage_drops"]
        )

    def total_in_flight(self) -> int:
        return sum(c.in_flight for c in self._all_channels())


class ExploreTransport:
    """The explorer's :class:`~repro.runtime.interfaces.RuntimeBackend`.

    Construct a fabric over it, then either drive it through the DFS
    controller (:mod:`repro.check.explore`) or call :meth:`run` for the
    deterministic earliest-first default policy.
    """

    backend_name = "explore"

    def __init__(self, seed: int = 0, loss_rate: float = 0.0):
        self.seed = seed
        self.loss_rate = loss_rate
        self._scheduler = ExploreScheduler()
        self._transport = ExploreNetwork(
            self._scheduler, loss_rate=loss_rate, seed=seed + 1
        )

    @property
    def scheduler(self) -> ExploreScheduler:
        return self._scheduler

    @property
    def transport(self) -> ExploreNetwork:
        return self._transport

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Earliest-first default policy (no controller attached).

        Among all wire heads and live timers, repeatedly executes the one
        with the smallest ``(ready time, creation seq)`` — a coarse but
        deterministic approximation of the sim backend's heap order.
        """
        executed = 0
        while max_events is None or executed < max_events:
            best: Optional[Tuple[float, int, Callable[[], None]]] = None
            for _label, channel in self._transport.delivery_sources():
                head = channel.head()
                assert head is not None  # delivery_sources filters empties
                _payload, arrival, seq = head
                candidate = (arrival, seq, channel.deliver_head)
                if best is None or candidate[:2] < best[:2]:
                    best = candidate
            for timer in self._scheduler.timers():
                candidate = (
                    timer.time, timer.seq,
                    lambda t=timer: self._scheduler.fire(t),
                )
                if best is None or candidate[:2] < best[:2]:
                    best = candidate
            if best is None:
                break
            if until is not None and best[0] > until:
                self._scheduler.advance_to(until)
                break
            best[2]()
            executed += 1
        return executed

    def successor(self, seed: int, loss_rate: float) -> "ExploreTransport":
        return ExploreTransport(seed=seed, loss_rate=loss_rate)

    def close(self) -> None:
        """Nothing to release; present for backend-protocol parity."""

    def attach_trace(self, trace: Any) -> None:
        """The explorer records schedules itself; the trace is unused here."""


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
