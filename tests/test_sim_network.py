"""Unit tests for channels and the network registry."""

import random

import pytest

from repro.sim.events import Simulator
from repro.sim.network import Channel, Network
from repro.runtime.node import Process


class Sink(Process):
    """Records (payload, time) of everything it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, payload, channel):
        self.received.append((payload, self.sim.now))


def make_pair(delay=2.0, loss_rate=0.0, rng=None):
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    channel = Channel(sim, a, b, delay, loss_rate=loss_rate, rng=rng)
    return sim, a, b, channel


def test_send_delivers_after_delay():
    sim, _a, b, channel = make_pair(delay=3.0)
    channel.send("hello")
    sim.run()
    assert b.received == [("hello", 3.0)]


def test_fifo_order_preserved():
    sim, _a, b, channel = make_pair(delay=1.0)
    for i in range(10):
        channel.send(i)
    sim.run()
    assert [p for p, _ in b.received] == list(range(10))


def test_fifo_across_time():
    sim, _a, b, channel = make_pair(delay=5.0)
    channel.send("first")
    sim.schedule(1.0, channel.send, "second")
    sim.run()
    assert [p for p, _ in b.received] == ["first", "second"]


def test_negative_delay_rejected():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(ValueError):
        Channel(sim, a, b, -1.0)


def test_loss_rate_requires_rng():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(ValueError):
        Channel(sim, a, b, 1.0, loss_rate=0.5)


def test_loss_rate_out_of_range():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(ValueError):
        Channel(sim, a, b, 1.0, loss_rate=1.0, rng=random.Random(0))


def test_loss_drops_packets():
    sim, _a, b, channel = make_pair(delay=1.0, loss_rate=0.5, rng=random.Random(42))
    for i in range(200):
        channel.send(i)
    sim.run()
    assert channel.drops > 0
    assert len(b.received) == 200 - channel.drops
    assert 40 < channel.drops < 160  # roughly half


def test_send_returns_false_on_drop():
    sim, _a, _b, channel = make_pair(delay=1.0, loss_rate=0.999999, rng=random.Random(1))
    results = [channel.send(i) for i in range(20)]
    assert not any(results)


def test_counters():
    sim, a, b, channel = make_pair(delay=1.0)
    channel.send("x", size_bytes=100)
    channel.send("y", size_bytes=50)
    sim.run()
    assert channel.sends == 2
    assert channel.bytes_sent == 150
    assert a.messages_sent == 2
    assert b.messages_received == 2


def test_network_registers_processes():
    sim = Simulator()
    net = Network(sim)
    a = net.add_process(Sink(sim, "a"))
    assert net.process("a") is a
    assert "a" in net
    assert "b" not in net


def test_network_duplicate_name_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    with pytest.raises(ValueError):
        net.add_process(Sink(sim, "a"))


def test_network_connect_creates_channel_once():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    c1 = net.connect("a", "b", 2.0)
    c2 = net.connect("a", "b", 2.0)
    assert c1 is c2


def test_network_connect_conflicting_delay_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    net.connect("a", "b", 2.0)
    with pytest.raises(ValueError):
        net.connect("a", "b", 3.0)


def test_network_channels_are_directional():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    ab = net.connect("a", "b", 2.0)
    ba = net.connect("b", "a", 4.0)
    assert ab is not ba
    assert ab.delay == 2.0 and ba.delay == 4.0


def test_network_channel_lookup_missing():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    with pytest.raises(KeyError):
        net.channel("a", "b")


def test_network_aggregate_counters():
    sim = Simulator()
    net = Network(sim)
    net.add_process(Sink(sim, "a"))
    net.add_process(Sink(sim, "b"))
    net.connect("a", "b", 1.0).send("x", size_bytes=10)
    net.connect("b", "a", 1.0).send("y", size_bytes=5)
    sim.run()
    assert net.total_sends() == 2
    assert net.total_bytes_sent() == 15


def test_channel_repr():
    _sim, _a, _b, channel = make_pair()
    assert "->" in repr(channel)


def test_process_receive_not_implemented():
    sim = Simulator()
    p = Process(sim, "p")
    with pytest.raises(NotImplementedError):
        p.receive(None, None)
