"""Tests for link outage windows (Channel.fail)."""

import itertools
import random

import pytest

from repro.pubsub.membership import GroupMembership
from repro.sim.events import Simulator
from repro.sim.network import Channel
from repro.runtime.node import Process


class Sink(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, payload, channel):
        self.received.append(payload)


def test_fail_drops_during_window():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    channel = Channel(sim, a, b, 1.0)
    channel.fail(10.0)
    assert channel.is_down
    assert channel.send("lost") is False
    assert channel.drops == 1
    sim.run()
    assert b.received == []


def test_link_heals_after_window():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    channel = Channel(sim, a, b, 1.0)
    channel.fail(5.0)
    sim.schedule(6.0, channel.send, "after")
    sim.run()
    assert not channel.is_down
    assert b.received == ["after"]


def test_fail_duration_positive():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    channel = Channel(sim, a, b, 1.0)
    with pytest.raises(ValueError):
        channel.fail(0)


def test_overlapping_outages_extend():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    channel = Channel(sim, a, b, 1.0)
    channel.fail(5.0)
    channel.fail(3.0)  # shorter overlapping outage does not shrink window
    sim.schedule(4.0, channel.send, "still-down")
    sim.schedule(6.0, channel.send, "up")
    sim.run()
    assert b.received == ["up"]


def test_protocol_survives_link_outage(env32):
    """An outage on the publisher's ingress link is masked by
    retransmission, preserving order and liveness."""
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    membership.create_group([2, 3, 4, 5], group_id=1)
    fabric = env32.build_fabric(membership, retransmit_timeout=4.0)
    # Send one message to create the ingress channel, then fail it.
    fabric.publish(0, 0, "pre")
    fabric.run()
    ingress = fabric.graph.ingress_atom(0)
    node = fabric.placement.node_of(ingress)
    channel = fabric.network.channel(("host", 0), ("seq", node.node_id))
    channel.fail(20.0)
    for i in range(5):
        fabric.publish(0, 0, i)
    fabric.run()
    assert fabric.pending_messages() == {}
    assert [r.payload for r in fabric.delivered(1)] == ["pre", 0, 1, 2, 3, 4]
    assert channel.drops > 0


def test_order_consistent_through_outage(env32):
    membership = GroupMembership()
    membership.create_group([0, 1, 2, 3], group_id=0)
    membership.create_group([2, 3, 4, 5], group_id=1)
    fabric = env32.build_fabric(membership, retransmit_timeout=4.0)
    fabric.publish(2, 0, "warm")
    fabric.publish(2, 1, "up")
    fabric.run()
    # Fail a random inter-sequencer channel if one exists, else ingress.
    seq_channels = [
        c
        for (src, dst), c in fabric.network.channels.items()
        if src[0] == "seq" and dst[0] == "seq"
    ]
    victim = seq_channels[0] if seq_channels else next(
        iter(fabric.network.channels.values())
    )
    victim.fail(15.0)
    rng = random.Random(3)
    for _ in range(12):
        group = rng.choice([0, 1])
        sender = rng.choice(sorted(membership.members(group)))
        fabric.publish(sender, group)
    fabric.run()
    assert fabric.pending_messages() == {}
    for a, b in itertools.combinations(range(6), 2):
        seq_a = [r.msg_id for r in fabric.delivered(a)]
        seq_b = [r.msg_id for r in fabric.delivered(b)]
        common = set(seq_a) & set(seq_b)
        assert [m for m in seq_a if m in common] == [m for m in seq_b if m in common]
