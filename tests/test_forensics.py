"""Ordering forensics: journey reconstruction, stall attribution, CLI.

The acceptance criterion for the forensics layer: on a fixed-seed chaos
run every buffer event carries its blocking ``(atom_id, expected_seq)``
pair and a resolved cause, ``repro explain --message`` reconstructs the
full ingress -> atoms -> receiver journey, and all output is
byte-identical across two same-seed runs.
"""

import json

import pytest

from repro.cli import main
from repro.faults.campaign import ChaosConfig, execute_campaign
from repro.obs.exporters import trace_to_jsonl
from repro.obs.lifecycle import PHASES
from repro.obs.forensics import (
    CAUSE_IN_FLIGHT,
    CAUSE_LINK_FAILURE,
    CAUSE_PRIORITY,
    JourneyIndex,
    render_journey,
    render_stalls,
    waits_to_dot,
)

#: Same shape as the CLI's inline `repro explain` run: small topology,
#: enough traffic to cross the fault window and force real hold-backs.
CONFIG = ChaosConfig(seed=0, hosts=16, groups=6, events=40, horizon=250.0)

KNOWN_CAUSES = set(CAUSE_PRIORITY) | {CAUSE_IN_FLIGHT, CAUSE_LINK_FAILURE}


@pytest.fixture(scope="module")
def chaos_run():
    return execute_campaign(CONFIG)


@pytest.fixture(scope="module")
def index(chaos_run):
    return JourneyIndex(chaos_run.fabric.trace)


class TestJourneyReconstruction:
    def test_every_published_message_has_a_journey(self, chaos_run, index):
        assert set(index.journeys) == set(chaos_run.fabric.published)

    def test_journeys_cover_ingress_atoms_distribution_receivers(self, index):
        complete = 0
        for journey in index.journeys.values():
            assert journey.publish_time >= 0.0
            if not journey.atom_events:
                continue  # stranded before reaching a sequencing node
            complete += 1
            # Ingress stamping assigns the group-local number first.
            first = journey.atom_events[0]
            assert first.action == "seq"
            assert first.group_seq is not None
            assert journey.distribute_time is not None
            assert journey.distribute_node is not None
            assert journey.receipts
        assert complete > 0

    def test_atom_events_in_path_order(self, index):
        for journey in index.journeys.values():
            times = [e.time for e in journey.atom_events]
            assert times == sorted(times)

    def test_breakdown_components_sum_exactly(self, index):
        checked = 0
        for journey in index.journeys.values():
            for host in journey.receipts:
                breakdown = journey.breakdown(host)
                if breakdown is None:
                    continue
                checked += 1
                assert tuple(breakdown) == (*PHASES, "total")
                assert breakdown["total"] == pytest.approx(
                    sum(breakdown[phase] for phase in PHASES)
                )
                assert breakdown["holdback"] >= 0.0
                assert breakdown["sequencing"] >= 0.0
        assert checked > 0

    def test_buffered_legs_have_positive_holdback(self, index):
        for event in index.buffer_events:
            if not event.resolved:
                continue
            journey = index.journeys[event.msg_id]
            breakdown = journey.breakdown(event.host)
            if breakdown is None:
                continue
            assert breakdown["holdback"] == pytest.approx(event.waited)


class TestStallAttribution:
    def test_every_buffer_event_has_blocking_pair_and_cause(self, index):
        assert index.buffer_events
        for event in index.buffer_events:
            assert event.blocked_kind in ("group", "atom")
            assert event.blocked_on
            assert isinstance(event.expected_seq, int)
            assert event.have_seq != event.expected_seq
            assert event.cause in KNOWN_CAUSES

    def test_missing_msg_is_the_sequence_space_owner(self, index):
        for event in index.buffer_events:
            if event.missing_msg is None:
                continue
            missing = index.journeys[event.missing_msg]
            # The predecessor really was assigned the expected number in
            # the blocking space.
            owned = set()
            for atom_event in missing.atom_events:
                if atom_event.seq is not None:
                    owned.add((atom_event.atom, atom_event.seq))
                if atom_event.group_seq is not None:
                    owned.add((f"group:{missing.group}", atom_event.group_seq))
            assert (event.blocked_on, event.expected_seq) in owned

    def test_drained_events_have_wait_and_unblocker(self, index):
        for event in index.buffer_events:
            if event.resolved:
                assert event.waited is not None and event.waited >= 0.0
                assert event.unblocked_by in index.journeys

    def test_attributed_causes_carry_evidence(self, index):
        for event in index.buffer_events:
            if event.cause != CAUSE_IN_FLIGHT:
                assert event.evidence.get(event.cause, 0) > 0

    def test_stall_threshold_filters(self, index):
        everything = index.stalls(0.0)
        assert len(everything) == len(index.buffer_events)
        slow = index.stalls(10.0)
        assert len(slow) < len(everything)
        for event in slow:
            assert not event.resolved or event.waited >= 10.0

    def test_stall_report_shape(self, index):
        report = index.stall_report(threshold=0.0)
        assert report["messages"] == len(index.journeys)
        assert report["buffer_events"] == len(index.buffer_events)
        assert sum(report["by_cause"].values()) == len(index.buffer_events)
        assert json.loads(json.dumps(report)) == report


class TestHoldbackHistory:
    def test_history_matches_buffer_and_drain_counts(self, index):
        for event in index.buffer_events:
            history = index.holdback_history(event.host)
            assert history
            # Depth never negative, and back to zero iff everything drained.
            depths = [depth for _, depth in history]
            assert min(depths) >= 0
            host_events = [
                e for e in index.buffer_events if e.host == event.host
            ]
            unresolved = sum(1 for e in host_events if not e.resolved)
            assert depths[-1] == unresolved

    def test_history_empty_for_quiet_host(self, index):
        buffered_hosts = {e.host for e in index.buffer_events}
        quiet = next(h for h in range(CONFIG.hosts) if h not in buffered_hosts)
        assert index.holdback_history(quiet) == []


class TestWaitGraph:
    def test_one_edge_per_buffer_event(self, index):
        edges = index.waits_edges()
        assert len(edges) == len(index.buffer_events)
        for edge in edges:
            assert edge["waiter"] in index.journeys

    def test_json_document_nodes_cover_edges(self, index):
        doc = index.waits_to_json()
        nodes = set(doc["messages"])
        for edge in doc["waits"]:
            assert edge["waiter"] in nodes
            if edge["on"] is not None:
                assert edge["on"] in nodes

    def test_dot_export(self, index):
        dot = waits_to_dot(index)
        assert dot.startswith("digraph waits {")
        assert dot.rstrip().endswith("}")
        for edge in index.waits_edges():
            if edge["on"] is not None:
                assert f"m{edge['waiter']} -> m{edge['on']}" in dot


class TestRoundTripAndDeterminism:
    def test_jsonl_rebuild_is_identical(self, chaos_run, index):
        rebuilt = JourneyIndex.from_jsonl(trace_to_jsonl(chaos_run.fabric.trace))
        live = json.dumps(index.stall_report(0.0), sort_keys=True)
        disk = json.dumps(rebuilt.stall_report(0.0), sort_keys=True)
        assert live == disk
        assert json.dumps(
            {m: j.to_dict() for m, j in sorted(index.journeys.items())},
            sort_keys=True,
        ) == json.dumps(
            {m: j.to_dict() for m, j in sorted(rebuilt.journeys.items())},
            sort_keys=True,
        )
        assert waits_to_dot(index) == waits_to_dot(rebuilt)

    def test_same_seed_runs_are_byte_identical(self, index):
        second = JourneyIndex(execute_campaign(CONFIG).fabric.trace)
        assert json.dumps(index.stall_report(0.0), sort_keys=True) == json.dumps(
            second.stall_report(0.0), sort_keys=True
        )


class TestRendering:
    def test_render_journey_shows_path_and_waits(self, index):
        buffered = index.buffer_events[0]
        text = render_journey(index.journeys[buffered.msg_id])
        assert f"message {buffered.msg_id}:" in text
        assert buffered.blocked_on in text
        assert f"[{buffered.cause}]" in text

    def test_render_stalls_lists_blocking_pairs(self, index):
        text = render_stalls(index.stall_report(0.0))
        for event in index.buffer_events[:3]:
            assert event.blocked_on in text

    def test_render_stalls_empty(self):
        text = render_stalls(
            {
                "threshold_ms": 1.0,
                "messages": 0,
                "buffer_events": 0,
                "unresolved": 0,
                "by_cause": {},
                "stalls": [],
            }
        )
        assert "no stalls" in text


class TestCampaignForensics:
    def test_passing_campaign_has_no_forensics_block(self, chaos_run):
        assert chaos_run.report["ok"] is True
        assert "forensics" not in chaos_run.report

    def test_failing_campaign_attaches_stall_report(self):
        # Detection slowed far past the retransmit budget: traffic to the
        # crashed node is abandoned, findings appear, forensics attach.
        config = ChaosConfig(
            seed=0,
            hosts=16,
            groups=6,
            events=40,
            horizon=250.0,
            heartbeat_interval=60.0,
            suspect_after=60,
            max_retransmits=2,
        )
        run = execute_campaign(config)
        assert run.report["ok"] is False
        forensics = run.report["forensics"]
        assert forensics["buffer_events"] == len(
            JourneyIndex(run.fabric.trace).buffer_events
        )
        assert json.loads(json.dumps(run.report)) == run.report


# -- CLI ---------------------------------------------------------------------


class TestExplainCli:
    def test_stalls_json_deterministic(self, tmp_path):
        args = [
            "explain",
            "--stalls",
            "--format", "json",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["stalls"]["buffer_events"] > 0
        for stall in payload["stalls"]["stalls"]:
            assert stall["blocked_on"]
            assert stall["cause"]

    def test_message_journey(self, index, capsys):
        msg_id = index.buffer_events[0].msg_id
        assert main(["explain", "--message", str(msg_id)]) == 0
        out = capsys.readouterr().out
        assert f"message {msg_id}:" in out
        assert "stamped" in out
        assert "latency: total" in out

    def test_unknown_message_fails(self, capsys):
        assert main(["explain", "--message", "99999"]) == 1
        assert "not in" in capsys.readouterr().err

    def test_receiver_history(self, index, capsys):
        host = index.buffer_events[0].host
        assert main(["explain", "--receiver", str(host)]) == 0
        out = capsys.readouterr().out
        assert f"host {host}:" in out
        assert "depth=" in out

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "waits.dot"
        assert main(["explain", "--stalls", "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("digraph waits {")

    def test_trace_file_source(self, chaos_run, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        path.write_text(trace_to_jsonl(chaos_run.fabric.trace) + "\n")
        assert main(["explain", "--trace", str(path), "--stalls"]) == 0
        out = capsys.readouterr().out
        assert "buffer event(s)" in out
