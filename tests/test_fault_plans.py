"""The fault-plan DSL: validation, determinism, and composed faults.

The composition tests are the heart: overlapping outage + loss window +
node crash must still end in a quiescent run with every ordering
invariant intact, because each fault only creates work for the reliable
link layer, never silent loss.
"""

import random

import pytest

from repro.check import verify_run
from repro.faults import (
    CrashHost,
    CrashNode,
    DelaySpike,
    FaultPlan,
    LinkOutage,
    LossWindow,
    Partition,
    random_plan,
)
from repro.pubsub.membership import GroupMembership


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def reliable_fabric(env, **kwargs):
    return env.build_fabric(
        triangle_membership(), retransmit_timeout=5.0, **kwargs
    )


def busiest_node(fabric):
    return max(
        fabric.node_processes.values(), key=lambda p: len(p.atom_runtimes)
    )


def publish_mixed(fabric, count, spread, seed=9):
    """Publish ``count`` messages from group members over ``[0, spread]``."""
    rng = random.Random(seed)
    for _ in range(count):
        group = rng.choice(sorted(fabric.membership.groups()))
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.sim.schedule_at(spread * rng.random(), fabric.publish, sender, group)


# -- validation --------------------------------------------------------------


def test_action_validation():
    with pytest.raises(ValueError):
        CrashNode(at=-1.0, node_id=0).validate()
    with pytest.raises(ValueError):
        CrashNode(at=0.0, node_id=0, duration=0.0).validate()
    with pytest.raises(ValueError):
        CrashHost(at=0.0, host_id=0, duration=-5.0).validate()
    with pytest.raises(ValueError):
        LinkOutage(at=0.0, src=("seq", 0), dst=("seq", 0), duration=1.0).validate()
    with pytest.raises(ValueError):
        Partition(at=0.0, side=(), duration=1.0).validate()
    with pytest.raises(ValueError):
        DelaySpike(at=0.0, factor=0.0, duration=1.0).validate()
    with pytest.raises(ValueError):
        LossWindow(at=0.0, loss_rate=1.5, duration=1.0).validate()
    # A permanent crash is legal.
    CrashNode(at=0.0, node_id=0, duration=None).validate()


def test_plan_validates_all_actions():
    plan = FaultPlan().add(CrashNode(at=5.0, node_id=0, duration=1.0))
    plan.add(CrashHost(at=3.0, host_id=0, duration=0.0))
    with pytest.raises(ValueError):
        plan.validate()


def test_to_dicts_sorted_by_fire_time():
    plan = FaultPlan()
    plan.add(CrashNode(at=30.0, node_id=1, duration=5.0))
    plan.add(CrashHost(at=10.0, host_id=2, duration=5.0))
    plan.add(LossWindow(at=20.0, loss_rate=0.3, duration=5.0))
    kinds = [d["kind"] for d in plan.to_dicts()]
    assert kinds == ["crash_host", "loss_window", "crash_node"]
    assert [d["at"] for d in plan.to_dicts()] == [10.0, 20.0, 30.0]


# -- composed faults ---------------------------------------------------------


def test_composed_faults_preserve_invariants(env32):
    """Overlapping outage + loss window + node crash: still exactly-once,
    still totally ordered per group, still quiescent."""
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    other = next(
        p for p in fabric.node_processes.values() if p is not node
    )
    plan = FaultPlan()
    plan.add(CrashNode(at=12.0, node_id=node.node_id, duration=25.0))
    plan.add(LinkOutage(at=8.0, src=node.name, dst=other.name, duration=30.0))
    plan.add(LossWindow(at=5.0, loss_rate=0.3, duration=40.0, seed=11))
    plan.add(DelaySpike(at=10.0, factor=3.0, duration=20.0))
    plan.apply(fabric)
    publish_mixed(fabric, 30, spread=60.0)
    fabric.run()
    assert fabric.pending_messages() == {}
    assert node.crashes == 1
    assert verify_run(fabric, complete=True, causal=True) == []
    # The faults actually bit: retransmissions happened for real causes.
    assert fabric.retransmissions > 0
    assert set(fabric.retransmissions_by_cause) <= {
        "loss",
        "outage",
        "peer_down",
    }


def test_partition_action_heals(env32):
    fabric = reliable_fabric(env32)
    node = busiest_node(fabric)
    # Cut the busiest node off from everything for a while.
    plan = FaultPlan().add(
        Partition(at=6.0, side=(node.name,), duration=25.0)
    )
    plan.apply(fabric)
    publish_mixed(fabric, 15, spread=40.0)
    fabric.run()
    assert fabric.pending_messages() == {}
    assert verify_run(fabric, complete=True, causal=True) == []
    assert fabric.retransmissions_by_cause.get("outage", 0) > 0


def test_delay_spike_restores_delays(env32):
    fabric = reliable_fabric(env32)
    fabric.publish(0, 0)  # creates the first channels synchronously
    channels = list(fabric.network.channels.values())
    original = [c.delay for c in channels]
    plan = FaultPlan().add(DelaySpike(at=1.0, factor=4.0, duration=10.0))
    plan.apply(fabric)
    fabric.sim.run(until=5.0)
    assert [c.delay for c in channels] == [4.0 * d for d in original]
    fabric.run()
    assert [c.delay for c in channels] == original


def test_overlapping_delay_spikes_restore_the_base_delay(env32):
    fabric = reliable_fabric(env32)
    fabric.publish(0, 0)
    channels = list(fabric.network.channels.values())
    original = [c.delay for c in channels]
    plan = FaultPlan()
    plan.add(DelaySpike(at=1.0, factor=100.0, duration=10.0))
    plan.add(DelaySpike(at=5.0, factor=100.0, duration=10.0))
    plan.apply(fabric)
    fabric.sim.run(until=3.0)
    assert [c.delay for c in channels] == [100.0 * d for d in original]
    fabric.sim.run(until=8.0)
    assert [c.delay for c in channels] == [100.0 * 100.0 * d for d in original]
    fabric.sim.run(until=12.0)  # the first spike closed, the second is open
    assert [c.delay for c in channels] == [100.0 * d for d in original]
    fabric.run()
    assert [c.delay for c in channels] == original


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_spiked_channels_keep_fifo_under_poisson_load(seed):
    """x100 spikes on the busiest sequencing nodes clamp many packets
    behind earlier ones; each must still arrive after its predecessor."""
    from repro.experiments.common import ExperimentEnv
    from repro.workloads.zipf import zipf_membership

    env = ExperimentEnv(n_hosts=24, seed=seed)
    snapshot = zipf_membership(24, 12, rng=random.Random(seed + 1))
    fabric = env.build_fabric(env.membership_from(snapshot), seed=seed, trace=False)
    rng = random.Random(seed)
    now = 0.0
    for _ in range(300):
        now += rng.expovariate(4.0)
        group = sorted(snapshot)[rng.randrange(len(snapshot))]
        members = sorted(snapshot[group])
        fabric.sim.schedule_at(
            now, fabric.publish, members[rng.randrange(len(members))], group
        )
    busiest = sorted(
        fabric.node_processes.values(),
        key=lambda p: (-len(p.atom_runtimes), p.node_id),
    )[:4]
    plan = FaultPlan()
    for index, node in enumerate(busiest):
        plan.add(
            DelaySpike(
                at=now * (0.1 + 0.175 * index), factor=100.0,
                duration=now * 0.2, name=node.name,
            )
        )
    plan.apply(fabric)
    fabric.run()
    assert verify_run(fabric) == []


def test_loss_window_restores_loss_rate(env32):
    fabric = reliable_fabric(env32)
    fabric.publish(0, 0)
    channels = list(fabric.network.channels.values())
    assert all(c.loss_rate == 0.0 for c in channels)
    plan = FaultPlan().add(LossWindow(at=1.0, loss_rate=0.4, duration=10.0))
    plan.apply(fabric)
    fabric.sim.run(until=5.0)
    assert all(c.loss_rate == 0.4 for c in channels)
    fabric.run()
    assert all(c.loss_rate == 0.0 for c in channels)


def test_permanent_crash_without_failover_abandons(env32):
    fabric = reliable_fabric(env32, max_retransmits=3)
    node = busiest_node(fabric)
    plan = FaultPlan().add(CrashNode(at=0.5, node_id=node.node_id))
    plan.apply(fabric)
    fabric.publish(0, 0, "stranded")
    fabric.run()
    assert node.is_down  # still down: nobody failed it over
    assert fabric.link_failures


# -- random plans ------------------------------------------------------------


def test_random_plan_deterministic(env32):
    fabric = reliable_fabric(env32)
    plan_a = random_plan(fabric, random.Random(42), window=100.0)
    plan_b = random_plan(fabric, random.Random(42), window=100.0)
    assert plan_a.to_dicts() == plan_b.to_dicts()


def test_random_plan_composition(env32):
    fabric = reliable_fabric(env32)
    plan = random_plan(
        fabric,
        random.Random(7),
        window=100.0,
        node_crashes=2,
        host_crashes=1,
        link_outages=1,
        loss_windows=1,
        delay_spikes=1,
        permanent_crash=True,
    )
    described = plan.to_dicts()
    kinds = [d["kind"] for d in described]
    assert kinds.count("crash_node") == 2
    assert kinds.count("crash_host") == 1
    assert kinds.count("link_outage") == 1
    assert kinds.count("loss_window") == 1
    assert kinds.count("delay_spike") == 1
    # Exactly one permanent crash; all faults inside the fault window.
    permanents = [
        d for d in described if d["kind"] == "crash_node" and d["duration"] is None
    ]
    assert len(permanents) == 1
    assert all(0.15 * 100.0 <= d["at"] <= 0.85 * 100.0 for d in described)


def test_random_plan_targets_busy_nodes(env32):
    fabric = reliable_fabric(env32)
    plan = random_plan(fabric, random.Random(3), window=50.0)
    crashed = [
        d["node_id"] for d in plan.to_dicts() if d["kind"] == "crash_node"
    ]
    for node_id in crashed:
        assert fabric.node_processes[node_id].atom_runtimes
