"""Fixed-seed golden counts: the simulator is a pure function of its seed.

Five workloads on seed 0 — the paper's Figure 3 run, Figure 6 stress, a
chaos campaign, the receiver hold-back on a bare ``DeliveryState``, and
one traffic mix run bare and fully instrumented — together execute
18095 events over 2613 messages.  Those two totals are the anchor that
every hot-path change quotes; any drift in them, or in a workload's own
work counts, fails here.  A drift means the run is no longer the same
run: fix the change, or, when a change alters the protocol's behaviour
on purpose, update the numbers and say why.
"""

import random

import pytest

from repro.core.delivery import DeliveryState
from repro.core.messages import AtomId, Stamp
from repro.experiments.common import ExperimentEnv
from repro.experiments.fig6_stress import run_fig6
from repro.faults.campaign import ChaosConfig, run_campaign
from repro.metrics.stretch import latency_stretch_by_destination
from repro.obs.live import LiveMonitor
from repro.obs.registry import MetricsRegistry
from repro.workloads.zipf import zipf_membership

SEED = 0


def fig3_counts(seed: int = SEED):
    """Figure 3: one message per (member, group), 64 hosts, 8 and 16 groups."""
    env = ExperimentEnv(n_hosts=64, seed=seed)
    events = messages = destinations = 0
    for n_groups in (8, 16):
        snapshot = zipf_membership(64, n_groups, rng=random.Random(seed + n_groups))
        fabric = env.build_fabric(env.membership_from(snapshot), seed=seed, trace=False)
        messages += env.run_one_message_per_membership(fabric)
        events += fabric.sim.events_executed
        destinations += len(latency_stretch_by_destination(fabric))
    return events, messages, {"destinations": destinations}


def fig6_counts(seed: int = SEED):
    """Figure 6: graph and placement construction only, no simulation."""
    env = ExperimentEnv(n_hosts=128, seed=seed)
    results = run_fig6(env, group_counts=(4, 16, 64), runs=20, seed=seed)
    return 0, 0, {"nodes_sampled": sum(len(v) for v in results.values())}


def chaos_counts(seed: int = SEED):
    """One chaos campaign: faults, failover and the RT30x audit."""
    report = run_campaign(
        ChaosConfig(hosts=24, groups=8, events=80, seed=seed, horizon=400)
    )
    return report["events"], report["published"], {
        "delivered": report["delivered"],
        "retransmissions": report["retransmissions"]["total"],
        "failovers": len(report["failovers"]),
        "findings": len(report["findings"]),
        "quiescent": report["quiescent"],
    }


def holdback_counts(seed: int = SEED, n_messages: int = 2000, batch: int = 64):
    """Deliver-or-buffer on a bare receiver: stamps in shuffled batches."""
    atom = AtomId.overlap(0, 1)
    state = DeliveryState(host_id=0, groups=(0,), relevant_atoms=(atom,))
    rng = random.Random(seed)
    delivered = 0
    for start in range(1, n_messages + 1, batch):
        chunk = list(range(start, min(start + batch, n_messages + 1)))
        rng.shuffle(chunk)
        for seq in chunk:
            stamp = Stamp(group=0, group_seq=seq, atom_seqs=((atom, seq),))
            delivered += len(state.on_receive(stamp))
    return 0, n_messages, {
        "delivered": delivered,
        "buffered_high_water": state.buffered_high_water,
        "pending": state.pending,
    }


def instrumented_counts(seed: int = SEED, hosts: int = 32, groups: int = 8, n: int = 120):
    """The same traffic bare, then with trace, metrics and a live monitor.

    Observability only subscribes to the run, so both runs must execute
    the same events and publish the same messages.
    """
    rng = random.Random(seed)
    snapshot = zipf_membership(hosts, groups, rng=rng)
    group_list = sorted(snapshot)
    schedule = []
    for _ in range(n):
        group = rng.choice(group_list)
        schedule.append((rng.choice(sorted(snapshot[group])), group))

    def run(instrumented: bool):
        env = ExperimentEnv(n_hosts=hosts, seed=seed)
        membership = env.membership_from(snapshot)
        if instrumented:
            fabric = env.build_fabric(
                membership, seed=seed, trace=True, registry=MetricsRegistry()
            )
            LiveMonitor(node="golden", retain_audit=False).attach(fabric)
        else:
            fabric = env.build_fabric(membership, seed=seed, trace=False)
        for sender, group in schedule:
            fabric.publish(sender, group)
        fabric.run()
        return fabric

    bare, traced = run(False), run(True)
    return (
        bare.sim.events_executed + traced.sim.events_executed,
        len(bare.published) + len(traced.published),
        {
            "events": (bare.sim.events_executed, traced.sim.events_executed),
            "published": (len(bare.published), len(traced.published)),
            "trace_records": len(traced.trace),
        },
    )


WORKLOADS = {
    "fig3": fig3_counts,
    "fig6": fig6_counts,
    "chaos": chaos_counts,
    "holdback": holdback_counts,
    "instrumented": instrumented_counts,
}

EXPECTED = {
    "fig3": (8714, 293, {"destinations": 120}),
    "fig6": (0, 0, {"nodes_sampled": 991}),
    "chaos": (6719, 80, {
        "delivered": 489,
        "retransmissions": 1633,
        "failovers": 4,
        "findings": 0,
        "quiescent": True,
    }),
    "holdback": (0, 2000, {"delivered": 2000, "buffered_high_water": 62, "pending": 0}),
    "instrumented": (2662, 240, {
        "events": (1331, 1331),
        "published": (120, 120),
        "trace_records": 2868,
    }),
}


@pytest.fixture(scope="module")
def counts():
    return {name: workload() for name, workload in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_counts(counts, name):
    assert counts[name] == EXPECTED[name]


def test_totals_are_the_anchor(counts):
    events = sum(result[0] for result in counts.values())
    messages = sum(result[1] for result in counts.values())
    assert (events, messages) == (18095, 2613)


# -- golden digests -----------------------------------------------------------
#
# sha256 of canonical JSON for the observability outputs that downstream
# tools compare with ``cmp``: the JSONL and Chrome exports of a fixed-seed
# ``repro trace run``-style fabric, the ``repro explain --stalls`` report on
# chaos seed 0 (the CI default), and the live monitor's alert feed on the
# CI live-monitor campaign.  A refactor of the observability plane must
# leave all four byte-identical.


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _traced_fabric(seed: int = SEED, hosts: int = 24, groups: int = 6, events: int = 40):
    """What ``repro trace run --hosts 24 --groups 6 --events 40 --gap 0``
    builds and drives (a burst, so receivers hold back)."""
    env = ExperimentEnv(n_hosts=hosts, seed=seed)
    rng = random.Random(seed)
    snapshot = zipf_membership(hosts, groups, rng=rng)
    fabric = env.build_fabric(env.membership_from(snapshot), seed=seed, trace=True)
    group_list = sorted(snapshot)
    for _ in range(events):
        group = rng.choice(group_list)
        fabric.publish(rng.choice(sorted(snapshot[group])), group)
    fabric.run()
    return fabric


def _export_digest(export):
    from repro.obs import exporters

    trace = _traced_fabric().trace
    if export == "jsonl":
        return _sha256(exporters.trace_to_jsonl(trace))
    return _sha256(_canonical(exporters.trace_to_chrome(trace)))


def _stall_report_digest():
    from repro.faults.campaign import execute_campaign
    from repro.obs.forensics import JourneyIndex

    run = execute_campaign(
        ChaosConfig(hosts=16, groups=6, events=40, seed=0, horizon=250.0)
    )
    return _sha256(_canonical(JourneyIndex(run.fabric.trace).stall_report(0.0)))


def _alert_feed_digest():
    from repro.faults.campaign import execute_campaign

    run = execute_campaign(
        ChaosConfig(hosts=24, groups=8, events=80, seed=7), live_monitor=True
    )
    return _sha256(_canonical(run.monitor.summary()))


GOLDEN_DIGESTS = {
    "jsonl": (
        lambda: _export_digest("jsonl"),
        "c35d7e71d519adac5d6e3b1dda0476dd84745bfc70fc3368cf299ee95d8bfcbb",
    ),
    "chrome": (
        lambda: _export_digest("chrome"),
        "84245c0b7060aba590234ad308aa446fce8b3c3204a0da44b8aa74433111635e",
    ),
    "stall_report": (
        _stall_report_digest,
        "d970f74a16dcee44ea35d85e1fc6356c4b4bebe0ed5e2ca63519f3dddd7d58c8",
    ),
    "alert_feed": (
        _alert_feed_digest,
        "1a3e08d69baace155fc9d82f557d5d06ce5c066d37cd0239cf013aa208499712",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_digest(name):
    digest, expected = GOLDEN_DIGESTS[name]
    assert digest() == expected
