"""`OrderedPubSub` — the library's high-level entry point.

Wraps topology generation, host attachment, subscription management, and
the ordering fabric behind join/leave/publish/run calls::

    from repro import OrderedPubSub

    bus = OrderedPubSub(n_hosts=16, seed=7)
    alice, bob, carol = 0, 1, 2
    bus.subscribe(alice, "room/blue")
    bus.subscribe(bob, "room/blue")
    bus.subscribe(bob, "room/red")
    bus.subscribe(carol, "room/red")
    bus.publish(alice, "room/blue", "hello")
    bus.run()
    for record in bus.delivered(bob):
        print(record.payload)

Membership changes invalidate the running fabric; the next publish after a
change rebuilds the sequencing graph and placement (the system must be
quiescent — all in-flight messages delivered — at that point, mirroring
the paper's static-membership evaluation; Section 5 leaves high-churn
in-flight reconfiguration to future work).
"""

import random
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Union

from repro.core.protocol import DeliveryRecord, OrderingFabric
from repro.runtime.interfaces import RuntimeBackend
from repro.pubsub.broker import SubscriptionBroker
from repro.pubsub.membership import GroupMembership
from repro.topology.clusters import Host, attach_hosts
from repro.topology.gtitm import Topology, TransitStubParams, generate_transit_stub
from repro.topology.routing import RoutingTable


class OrderingViolation(RuntimeError):
    """Raised on API misuse that would break ordering guarantees."""


class OrderedPubSub:
    """A publish/subscribe system with cross-group total ordering.

    Runs on the discrete-event simulator by default, or live on asyncio
    tasks with ``backend="asyncio"`` — same protocol, same API.

    Parameters
    ----------
    n_hosts:
        Number of end hosts to attach.
    topology_params:
        Transit–stub shape; a small test topology when omitted.
    seed:
        Master seed; all randomness (topology, attachment, graph ordering,
        placement, loss) derives from it.
    loss_rate:
        Per-packet loss probability; positive values enable per-hop
        acks/retransmission.
    optimize:
        Sequencing-chain ordering mode (``"none"|"greedy"|"local"``).
    enforce_causal_sends:
        When True (default), publishing to a group the sender is not a
        member of raises :class:`OrderingViolation` — the paper's causal
        ordering requires senders to subscribe to the groups they send to.
        Pass False to allow decoupled (consistent but not causal) sends.
    backend:
        Runtime backend: ``"sim"`` (default; discrete-event simulation,
        byte-identical to the pre-split behavior) or ``"asyncio"`` (the
        live runtime — processes run as asyncio tasks; see
        :mod:`repro.runtime.asyncio_backend`).
    time_scale:
        Real seconds per virtual millisecond for the asyncio backend
        (ignored under ``"sim"``).  Small values run live scenarios much
        faster than real time.
    """

    def __init__(
        self,
        n_hosts: int = 32,
        topology_params: Optional[TransitStubParams] = None,
        seed: int = 0,
        loss_rate: float = 0.0,
        optimize: str = "greedy",
        enforce_causal_sends: bool = True,
        cluster_size: int = 8,
        backend: str = "sim",
        time_scale: float = 0.001,
    ):
        if backend not in ("sim", "asyncio"):
            raise ValueError(f"unknown backend {backend!r} (sim|asyncio)")
        self.seed = seed
        self.loss_rate = loss_rate
        self.optimize = optimize
        self.enforce_causal_sends = enforce_causal_sends
        self.backend = backend
        self.time_scale = time_scale
        rng = random.Random(seed)
        self.topology: Topology = generate_transit_stub(
            topology_params or TransitStubParams.small(), seed=seed
        )
        self.routing = RoutingTable(self.topology)
        self.hosts: List[Host] = attach_hosts(
            self.topology, n_hosts, cluster_size=cluster_size, rng=rng
        )
        self.broker = SubscriptionBroker(GroupMembership())
        self._fabric: Optional[OrderingFabric] = None
        self._dirty = True
        self.broker.membership.add_listener(self._on_membership_change)
        self._delivered_history: Dict[int, List[DeliveryRecord]] = {
            h.host_id: [] for h in self.hosts
        }
        #: optional application callback ``(host_id, DeliveryRecord)``,
        #: invoked on every delivery and persisted across fabric epochs
        self.on_deliver: Optional[Callable[[int, DeliveryRecord], None]] = None
        #: callbacks invoked with every (re)built fabric; lets observers
        #: (telemetry, monitors) re-attach across epoch switches without
        #: the core importing them
        self._fabric_observers: List[Callable[[OrderingFabric], None]] = []

    def add_fabric_observer(
        self, observer: Callable[[OrderingFabric], None]
    ) -> None:
        """Register a callback invoked with each (re)built fabric.

        Fires immediately when a fabric already exists, then again after
        every epoch switch — the hook observability layers (e.g.
        :class:`repro.obs.live.LiveMonitor`) use to follow the bus across
        reconfigurations.
        """
        self._fabric_observers.append(observer)
        if self._fabric is not None:
            observer(self._fabric)

    def _dispatch_deliver(self, host_id: int, record: DeliveryRecord) -> None:
        if self.on_deliver is not None:
            self.on_deliver(host_id, record)

    # -- membership ---------------------------------------------------------

    def _on_membership_change(
        self, op: str, group_id: int, members: FrozenSet[int]
    ) -> None:
        self._dirty = True

    def subscribe(self, host_id: int, topic: str) -> int:
        """Subscribe a host to a topic; returns the topic's group id."""
        self._check_host(host_id)
        return self.broker.subscribe(host_id, topic)

    def unsubscribe(self, host_id: int, topic: str) -> None:
        """Drop a host's subscription to a topic."""
        self._check_host(host_id)
        self.broker.unsubscribe(host_id, topic)

    def create_group(
        self, members: Iterable[int], group_id: Optional[int] = None
    ) -> int:
        """Create a raw group directly (experiments bypass topics)."""
        for member in members:
            self._check_host(member)
        return self.broker.membership.create_group(members, group_id=group_id)

    def _check_host(self, host_id: int) -> None:
        if not 0 <= host_id < len(self.hosts):
            raise KeyError(f"no such host {host_id} (have {len(self.hosts)})")

    @property
    def membership(self) -> GroupMembership:
        """The underlying membership matrix."""
        return self.broker.membership

    # -- fabric lifecycle -----------------------------------------------------

    @property
    def fabric(self) -> OrderingFabric:
        """The current ordering fabric, (re)building it if stale."""
        if self._dirty:
            self._rebuild()
        assert self._fabric is not None, "_rebuild always sets the fabric"
        return self._fabric

    def _rebuild(self) -> None:
        if self._fabric is not None:
            # Epoch switch with state continuity: surviving groups and
            # atoms keep their sequence spaces (see repro.core.reconfigure).
            # In-flight traffic is fenced and drained online, so a
            # membership change no longer demands quiescence first.
            from repro.core.reconfigure import reconfigure

            old_fabric = self._fabric
            self._fabric = reconfigure(
                old_fabric, self.broker.membership, seed=self.seed
            )
            # Preserve delivery history across fabric epochs — after the
            # switch, so messages delivered during the fence drain count.
            for host_id, process in old_fabric.host_processes.items():
                self._delivered_history[host_id].extend(process.delivered)
        else:
            self._fabric = OrderingFabric(
                self.broker.membership,
                self.hosts,
                self.topology,
                self.routing,
                seed=self.seed,
                loss_rate=self.loss_rate,
                optimize=self.optimize,
                runtime=self._make_runtime(),
            )
        self._fabric.on_deliver = self._dispatch_deliver
        self._dirty = False
        for observer in self._fabric_observers:
            observer(self._fabric)

    def _make_runtime(self) -> Optional[RuntimeBackend]:
        """First-epoch runtime for the selected backend.

        Returns ``None`` for ``"sim"`` so the fabric builds its own
        :class:`~repro.runtime.sim_backend.SimTransport` exactly as it
        always has (fixed-seed byte-identity).  Later epochs come from
        ``runtime.successor`` inside :func:`repro.core.reconfigure.
        reconfigure`, so the backend kind is sticky across membership
        changes.
        """
        if self.backend == "sim":
            return None
        from repro.runtime.asyncio_backend import AsyncioTransport

        return AsyncioTransport(
            seed=self.seed,
            loss_rate=self.loss_rate,
            time_scale=self.time_scale,
        )

    def close(self) -> None:
        """Release the current fabric's runtime resources (idempotent)."""
        if self._fabric is not None:
            self._fabric.close()

    # -- messaging -------------------------------------------------------------

    def publish(
        self, sender: int, destination: Union[str, int], payload: Any = None
    ) -> int:
        """Publish ``payload`` from ``sender`` to a topic or group id."""
        self._check_host(sender)
        if isinstance(destination, str):
            group = self.broker.group_for(destination)
        else:
            group = destination
        if (
            self.enforce_causal_sends
            and sender not in self.membership.members(group)
        ):
            raise OrderingViolation(
                f"host {sender} is not a member of group {group}; causal "
                "ordering requires senders to subscribe to the groups they "
                "send to (construct with enforce_causal_sends=False to allow)"
            )
        return self.fabric.publish(sender, group, payload)

    def run(self, until: Optional[float] = None) -> int:
        """Run the simulation until quiescent (or ``until``)."""
        if self._fabric is None:
            return 0
        return self._fabric.run(until=until)

    @property
    def now(self) -> float:
        """Current virtual time (milliseconds)."""
        return self._fabric.sim.now if self._fabric is not None else 0.0

    def delivered(self, host_id: int) -> List[DeliveryRecord]:
        """All messages delivered to a host, across fabric epochs."""
        self._check_host(host_id)
        records = list(self._delivered_history[host_id])
        if self._fabric is not None:
            records.extend(self._fabric.host_processes[host_id].delivered)
        return records

    def delivered_payloads(self, host_id: int) -> List[Any]:
        """Just the payloads, in delivery order (convenience)."""
        return [record.payload for record in self.delivered(host_id)]
