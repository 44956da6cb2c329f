"""Message lifecycles (publish -> sequencing -> distribution -> deliver)
folded from fabric traces by :mod:`repro.obs.lifecycle`."""

import pytest

from repro.experiments.common import ExperimentEnv
from repro.faults.campaign import execute_campaign, ChaosConfig
from repro.obs.lifecycle import (
    PHASES,
    SERIES,
    Journey,
    Lifecycle,
    breakdown_by_group,
    render_phase_table,
)
from repro.obs.live import LiveMonitor

#: A membership crafted so group 0's sequencing path has exactly 3 atoms:
#: group 0 double-overlaps each of groups 1/2/3 (two shared members apiece)
#: and the satellite groups share nothing with each other, so the cluster
#: chain is Q(0,1)-Q(0,2)-Q(0,3) in some order — all sequencing group 0.
THREE_ATOM_SNAPSHOT = {
    0: frozenset({0, 1, 2, 3, 4, 5}),
    1: frozenset({0, 1}),
    2: frozenset({2, 3}),
    3: frozenset({4, 5}),
}


def fold(records):
    life = Lifecycle()
    for record in records:
        life.fold(record)
    return life.journeys


def delivered_hosts(journey):
    return {h for h, r in journey.receipts.items() if r.deliver_time is not None}


def delivery_latency(journey, host):
    return journey.receipts[host].deliver_time - journey.publish_time


@pytest.fixture(scope="module")
def three_atom_fabric():
    env = ExperimentEnv(n_hosts=6, seed=0)
    fabric = env.build_fabric(env.membership_from(THREE_ATOM_SNAPSHOT), trace=True)
    assert len(fabric.graph.group_path(0)) == 3
    fabric.publish(0, 0, payload="hello")
    fabric.run()
    assert not fabric.pending_messages()
    return fabric


class TestThreeAtomPath:
    def test_span_covers_full_pipeline(self, three_atom_fabric):
        journeys = fold(three_atom_fabric.trace)
        assert set(journeys) == {0}
        journey = journeys[0]
        assert journey.group == 0 and journey.sender == 0
        # One visit per sequencing-node visit; 3 atoms on <= 3 machines.
        assert 1 <= len(journey.visits) <= 3
        assert len(journey.atom_events) == 3
        assert journey.distribute_time is not None
        assert delivered_hosts(journey) == set(THREE_ATOM_SNAPSHOT[0])

    def test_phases_are_exactly_the_pipeline_phases(self, three_atom_fabric):
        journey = fold(three_atom_fabric.trace)[0]
        assert PHASES == ("ingress", "sequencing", "distribution", "holdback")
        for host in delivered_hosts(journey):
            assert tuple(journey.breakdown(host)) == SERIES == (*PHASES, "total")

    def test_phase_latencies_sum_to_delivery_latency(self, three_atom_fabric):
        journey = fold(three_atom_fabric.trace)[0]
        for host in delivered_hosts(journey):
            breakdown = journey.breakdown(host)
            assert all(breakdown[phase] >= 0 for phase in PHASES)
            assert sum(breakdown[phase] for phase in PHASES) == pytest.approx(
                delivery_latency(journey, host), abs=1e-9
            )
            assert breakdown["total"] == delivery_latency(journey, host)

    def test_hop_intervals_tile_the_sequencing_phase(self, three_atom_fabric):
        journey = fold(three_atom_fabric.trace)[0]
        intervals = journey.hop_intervals()
        assert len(intervals) == len(journey.visits)
        assert intervals[0][1] == journey.visits[0][1]
        assert intervals[-1][2] == journey.distribute_time
        for (_, _, end), (_, start, _) in zip(intervals, intervals[1:]):
            assert end == start
        total = sum(end - start for _, start, end in intervals)
        host = min(delivered_hosts(journey))
        assert total == pytest.approx(journey.breakdown(host)["sequencing"], abs=1e-9)


class TestAggregation:
    def test_group_breakdown_means_match_single_span(self, three_atom_fabric):
        journeys = fold(three_atom_fabric.trace)
        journey = journeys[0]
        breakdown = breakdown_by_group(journeys)
        assert set(breakdown) == {0}
        hosts = delivered_hosts(journey)
        expected = dict.fromkeys(SERIES, 0.0)
        for host in hosts:
            for key, latency in journey.breakdown(host).items():
                expected[key] += latency / len(hosts)
        for key in SERIES:
            assert breakdown[0][key] == pytest.approx(expected[key])

    def test_render_phase_table_lists_each_group(self, three_atom_fabric):
        table = render_phase_table(breakdown_by_group(fold(three_atom_fabric.trace)))
        assert "ingress_ms" in table and "holdback_ms" in table
        assert "total_ms" in table
        assert any(line.startswith("0") for line in table.splitlines())


class TestIncompleteSpans:
    def test_disabled_trace_yields_no_spans(self):
        env = ExperimentEnv(n_hosts=6, seed=0)
        fabric = env.build_fabric(env.membership_from(THREE_ATOM_SNAPSHOT), trace=False)
        fabric.publish(0, 0)
        fabric.run()
        assert fold(fabric.trace) == {}

    def test_incomplete_span_has_no_breakdown(self):
        journey = Journey(msg_id=9, group=0, sender=1, publish_time=0.0)
        assert journey.breakdown(0) is None
        assert journey.hop_intervals() == []

    def test_multi_message_spans_reconstruct_independently(self):
        env = ExperimentEnv(n_hosts=6, seed=0)
        fabric = env.build_fabric(env.membership_from(THREE_ATOM_SNAPSHOT), trace=True)
        for sender, group in ((0, 0), (0, 1), (2, 2), (0, 0)):
            fabric.publish(sender, group)
        fabric.run()
        journeys = fold(fabric.trace)
        assert set(journeys) == {0, 1, 2, 3}
        for journey in journeys.values():
            assert delivered_hosts(journey) == set(fabric.membership.members(journey.group))
            for host in delivered_hosts(journey):
                breakdown = journey.breakdown(host)
                assert sum(breakdown[phase] for phase in PHASES) == pytest.approx(
                    delivery_latency(journey, host), abs=1e-9
                )


class TestEveryDeliveredCopy:
    """On chaos runs every delivered copy splits into the four phases,
    and the live histograms observe each copy once per series."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phases_partition_total_and_histograms_count_copies(self, seed):
        monitor = LiveMonitor()
        run = execute_campaign(ChaosConfig(seed=seed))
        records = list(run.fabric.trace)
        monitor.adopt_membership(
            {
                group: frozenset(run.fabric.membership.members(group))
                for group in run.fabric.membership.groups()
            }
        )
        for record in records:
            monitor.observe(record)
        copies = 0
        for journey in fold(records).values():
            for host in delivered_hosts(journey):
                breakdown = journey.breakdown(host)
                if journey.is_fence:
                    continue
                copies += 1
                assert breakdown is not None
                assert all(breakdown[phase] >= 0 for phase in PHASES), breakdown
                assert sum(breakdown[phase] for phase in PHASES) == pytest.approx(
                    breakdown["total"], abs=1e-9
                )
        assert copies == len([r for r in records if r.kind == "deliver"]) > 0
        for name, histogram in monitor.latency.histograms.items():
            assert histogram.count == copies, name
