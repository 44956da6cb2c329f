"""Transport conformance: both runtime backends honor the same contract.

Every test here runs twice — once on :class:`SimTransport` (the
deterministic discrete-event simulator) and once on
:class:`AsyncioTransport` (live event-loop timers, per-process inbox
queues, pump tasks) — driving the *same unmodified* OrderingFabric
scenario through each.  What is asserted is the protocol-visible
contract: per-group total order, exactly-once and causal delivery
(``verify_run``), FIFO links under retransmission-induced reordering,
heartbeat suspicion timing, and channel retirement across failover.

Wall-clock timing naturally differs between backends (the live backend
may execute events slightly past a ``run(until=...)`` horizon before the
poll loop observes it), so no test asserts exact virtual timestamps on
the asyncio backend — only ordering, counts of protocol-level outcomes,
and invariant cleanliness.
"""

import asyncio
import json
import random

import pytest

from repro.check import verify_graph, verify_run
from repro.faults import HeartbeatDetector
from repro.pubsub.membership import GroupMembership
from repro.runtime.asyncio_backend import AsyncioTransport
from repro.runtime.sim_backend import SimTransport

BACKENDS = ("sim", "asyncio")

#: live backend runs with microsecond wall time per virtual millisecond
#: so even long virtual horizons finish in milliseconds of real time.
LIVE_TIME_SCALE = 1e-6


@pytest.fixture(params=BACKENDS)
def runtime_factory(request):
    """A per-backend runtime factory; closes every runtime it built."""
    created = []

    def factory(seed=0, loss_rate=0.0, time_scale=LIVE_TIME_SCALE):
        if request.param == "sim":
            runtime = SimTransport(seed=seed, loss_rate=loss_rate)
        else:
            runtime = AsyncioTransport(
                seed=seed, loss_rate=loss_rate, time_scale=time_scale
            )
        created.append(runtime)
        return runtime

    factory.backend = request.param
    yield factory
    for runtime in created:
        runtime.close()


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def build_fabric(env, runtime, **kwargs):
    kwargs.setdefault("retransmit_timeout", 5.0)
    return env.build_fabric(triangle_membership(), runtime=runtime, **kwargs)


def publish_mixed(fabric, count, spread, seed=9):
    # Relative delays (not absolute times) so a second batch can be
    # injected after the clock has already advanced past t=0.
    rng = random.Random(seed)
    for _ in range(count):
        group = rng.choice(sorted(fabric.membership.groups()))
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.sim.schedule(spread * rng.random(), fabric.publish, sender, group)


def busiest_node(fabric):
    return max(
        fabric.node_processes.values(), key=lambda p: len(p.atom_runtimes)
    )


# -- basic contract ----------------------------------------------------------


def test_backend_identity(runtime_factory):
    runtime = runtime_factory()
    assert runtime.backend_name == runtime_factory.backend
    assert runtime.scheduler.now >= 0.0
    assert runtime.scheduler.pending == 0
    assert runtime.transport is not None


def test_lossless_run_delivers_everything(env32, runtime_factory):
    """The same scenario, unmodified, delivers identically on both."""
    fabric = build_fabric(env32, runtime_factory())
    publish_mixed(fabric, 20, spread=40.0)
    fabric.run()
    assert fabric.pending_messages() == {}
    assert verify_run(fabric, complete=True, causal=True) == []
    delivered_ids = {
        r.msg_id for p in fabric.host_processes.values() for r in p.delivered
    }
    assert delivered_ids == set(fabric.published)


def test_graph_verification_holds_on_live_fabric(env32, runtime_factory):
    """C1/C2 hold for the sequencing graph regardless of backend."""
    fabric = build_fabric(env32, runtime_factory())
    publish_mixed(fabric, 6, spread=10.0)
    fabric.run()
    assert verify_graph(fabric.graph, fabric.placement) == []


# -- ordering under reordered arrivals ---------------------------------------


def test_ordering_survives_loss_induced_reordering(env32, runtime_factory):
    """Loss forces retransmissions, so arrivals interleave out of send
    order; the hold-back layer must still deliver each group's messages
    in one agreed total order on every backend."""
    fabric = build_fabric(env32, runtime_factory(seed=3, loss_rate=0.12), seed=3)
    publish_mixed(fabric, 25, spread=60.0, seed=11)
    fabric.run()
    assert fabric.retransmissions > 0  # reordering actually happened
    assert verify_run(fabric, complete=True, causal=True) == []


def test_retransmission_backoff_recovers_all_traffic(env32, runtime_factory):
    """Loss + exponential backoff: every published message is still
    delivered exactly once everywhere, with no link failures."""
    fabric = build_fabric(env32, runtime_factory(seed=5, loss_rate=0.2), seed=5)
    publish_mixed(fabric, 15, spread=50.0, seed=4)
    fabric.run()
    assert fabric.retransmissions > 0
    assert fabric.link_failures == []
    assert fabric.retransmissions_by_cause  # causes were attributed
    assert verify_run(fabric, complete=True, causal=True) == []
    delivered_ids = {
        r.msg_id for p in fabric.host_processes.values() for r in p.delivered
    }
    assert delivered_ids == set(fabric.published)


# -- heartbeat suspicion -----------------------------------------------------

#: Heartbeat tests on the live backend scale 1 virtual ms to 1 real ms:
#: at the default microsecond scale, Python's own callback execution
#: time counts as virtual silence and false-positives the detector.
HEARTBEAT_TIME_SCALE = 1e-3


def test_heartbeat_suspects_crashed_node(env32, runtime_factory):
    fabric = build_fabric(
        env32, runtime_factory(time_scale=HEARTBEAT_TIME_SCALE)
    )
    detector = HeartbeatDetector(fabric, interval=20.0, suspect_after=3)
    node = busiest_node(fabric)
    node.crash(float("inf"))
    detector.start()
    fabric.run(until=400.0)
    detector.stop()
    suspected = [node_id for _, node_id, _ in detector.suspicions]
    assert node.node_id in suspected
    assert detector.heartbeats_sent > 0


def test_heartbeat_quiet_when_healthy(env32, runtime_factory):
    fabric = build_fabric(
        env32, runtime_factory(time_scale=HEARTBEAT_TIME_SCALE)
    )
    detector = HeartbeatDetector(fabric, interval=20.0, suspect_after=3)
    detector.start()
    fabric.run(until=200.0)
    detector.stop()
    fabric.run()
    assert detector.suspicions == []
    assert detector.pongs_received > 0


# -- channel retirement on failover ------------------------------------------


def test_failover_retires_channels_and_keeps_invariants(env32, runtime_factory):
    fabric = build_fabric(env32, runtime_factory())
    node = busiest_node(fabric)
    publish_mixed(fabric, 8, spread=10.0)
    fabric.run()
    touching = [key for key in fabric.network.channels if node.name in key]
    assert touching  # the busiest node saw traffic
    retired_before = fabric.network.channels_retired
    fabric.relocate_node(
        node.node_id, (node.machine + 1) % fabric.topology.n_nodes
    )
    assert all(node.name not in key for key in fabric.network.channels)
    assert fabric.network.channels_retired >= retired_before + len(touching)
    # Traffic after the move flows over fresh channels and stays ordered.
    publish_mixed(fabric, 8, spread=10.0, seed=21)
    fabric.run()
    assert verify_run(fabric, complete=True, causal=True) == []


def test_retired_channel_stats_fold_into_totals(env32, runtime_factory):
    fabric = build_fabric(env32, runtime_factory())
    publish_mixed(fabric, 8, spread=10.0)
    fabric.run()
    sends_before = fabric.network.total_sends()
    node = busiest_node(fabric)
    fabric.relocate_node(
        node.node_id, (node.machine + 1) % fabric.topology.n_nodes
    )
    # Retiring channels must not lose their accumulated send counts.
    assert fabric.network.total_sends() >= sends_before


# -- sim-only determinism guarantee ------------------------------------------


def test_sim_backend_is_deterministic(env32):
    """Two same-seed sim runs produce byte-identical delivery orders.

    (The live backend makes no such promise — its interleaving depends
    on wall-clock timer firing — which is exactly why the simulator
    remains the default backend for experiments.)
    """
    orders = []
    for _ in range(2):
        runtime = SimTransport(seed=7, loss_rate=0.1)
        fabric = build_fabric(env32, runtime, seed=7)
        publish_mixed(fabric, 15, spread=40.0, seed=7)
        fabric.run()
        orders.append(
            [
                (h, r.msg_id, r.time)
                for h, p in sorted(fabric.host_processes.items())
                for r in p.delivered
            ]
        )
    assert orders[0] == orders[1]


# -- hosted runtimes run without a drain -------------------------------------


def test_hosted_service_delivers_before_any_drain():
    """A hosted fabric's processes run as soon as packets reach them.

    No client ever sends ``drain`` here, before or after a membership
    change moves the service onto its successor runtime; polling
    ``delivered`` must still see every member receive every message.
    """
    from repro.runtime.service import OrderingService

    async def delivered_everywhere(service, count):
        # ~2 s of wall time: thousands of virtual ms at this time scale.
        for _ in range(400):
            replies = [
                await service.handle({"op": "delivered", "host": host})
                for host in range(4)
            ]
            if all(len(reply["records"]) == count for reply in replies):
                return True
            await asyncio.sleep(0.005)
        return False

    async def scenario():
        service = OrderingService(n_hosts=4, seed=0, time_scale=LIVE_TIME_SCALE)
        try:
            for host in range(4):
                await service.handle({"op": "subscribe", "host": host, "topic": "a"})
            await service.handle({"op": "publish", "sender": 0, "topic": "a"})
            first_epoch = await delivered_everywhere(service, 1)
            await service.handle({"op": "subscribe", "host": 0, "topic": "b"})
            await service.handle({"op": "publish", "sender": 1, "topic": "a"})
            assert service.bus._fabric.epoch == 1
            second_epoch = await delivered_everywhere(service, 2)
            return first_epoch, second_epoch
        finally:
            service.bus.close()

    assert asyncio.run(scenario()) == (True, True)


# -- resource ownership --------------------------------------------------------


def test_fabric_closes_its_runtime(env32):
    """``with fabric:`` releases the pump tasks and the owned event loop.

    A fabric dropped without closing leaves its pumps pending on a loop
    that is later closed ("Event loop is closed" from every ``_pump``).
    """
    runtime = AsyncioTransport(seed=0, time_scale=LIVE_TIME_SCALE)
    with build_fabric(env32, runtime) as fabric:
        publish_mixed(fabric, 4, spread=5.0)
        fabric.run()
        assert fabric.pending_messages() == {}
        assert not runtime._loop.is_closed()
    assert runtime._loop.is_closed()
    fabric.close()  # idempotent


def test_service_answers_an_oversize_request_line():
    """A line over the stream limit gets an error reply, then a hang-up;
    the service keeps serving other connections."""
    from repro.runtime.service import OrderingService, request

    async def scenario():
        service = OrderingService(n_hosts=2, seed=0, time_scale=LIVE_TIME_SCALE)
        await service.start()
        server = asyncio.ensure_future(service.serve_until_shutdown())
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.bound_port
            )
            writer.write(b'{"op": "health", "pad": "' + b"x" * 70_000 + b'"}\n')
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), timeout=10.0)
            closed = await asyncio.wait_for(reader.read(), timeout=10.0) == b""
            writer.close()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.bound_port
            )
            health = await request(reader, writer, {"op": "health"})
            await request(reader, writer, {"op": "shutdown"})
            writer.close()
            return reply, closed, health
        finally:
            service._shutdown.set()
            await asyncio.wait_for(server, timeout=10.0)

    reply, closed, health = asyncio.run(scenario())
    resp = json.loads(reply)
    assert resp["ok"] is False and "ValueError" in resp["error"]
    assert closed
    assert health["ok"] is True
