"""The ``repro top`` operator view: rendering, replay, membership rebuild."""

import io
import random

import pytest

from repro.experiments.common import ExperimentEnv
from repro.obs.exporters import write_trace_jsonl
from repro.obs.live import LiveMonitor, TelemetrySnapshot
from repro.obs.live.top import (
    iter_replay,
    membership_from_records,
    read_trace_jsonl,
    render_frame,
    run_top,
)

SNAPSHOT = {
    0: frozenset({0, 1, 2, 3}),
    1: frozenset({1, 2, 4, 5}),
}


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    env = ExperimentEnv(n_hosts=6, seed=1)
    fabric = env.build_fabric(
        env.membership_from(SNAPSHOT), seed=1, trace=True, loss_rate=0.05
    )
    monitor = LiveMonitor(node="origin")
    monitor.attach(fabric)
    rng = random.Random(1)
    for _ in range(25):
        group = rng.choice(sorted(SNAPSHOT))
        fabric.publish(rng.choice(sorted(SNAPSHOT[group])), group)
    fabric.run()
    assert not fabric.pending_messages()
    path = write_trace_jsonl(
        fabric.trace, tmp_path_factory.mktemp("top") / "run.jsonl"
    )
    return str(path), fabric, monitor


class TestMembershipReconstruction:
    def test_rebuilt_from_deliver_records(self, trace_file):
        path, fabric, _ = trace_file
        membership = membership_from_records(read_trace_jsonl(path))
        for group, members in SNAPSHOT.items():
            assert membership[group] == members

    def test_empty_trace_gives_empty_membership(self):
        assert membership_from_records([]) == {}


class TestReplay:
    def test_final_frame_matches_the_live_monitor(self, trace_file):
        path, _, live = trace_file
        frames = list(iter_replay(path, window_ms=25.0))
        assert len(frames) >= 2
        final = frames[-1]
        assert final.published == live.published_total
        assert final.delivered == live.delivered_total
        assert final.violations == 0
        live_summary = live.latency.summary()["total"]
        replay_summary = final.phase_summaries()["total"]
        assert replay_summary["count"] == live_summary["count"]
        assert replay_summary["p99"] == pytest.approx(live_summary["p99"])

    def test_frames_advance_in_virtual_time(self, trace_file):
        path, _, _ = trace_file
        frames = list(iter_replay(path, window_ms=25.0))
        times = [frame.now for frame in frames]
        assert times == sorted(times)

    def test_rejects_nonpositive_window(self, trace_file):
        path, _, _ = trace_file
        with pytest.raises(ValueError):
            list(iter_replay(path, window_ms=0.0))


class TestRenderFrame:
    def test_contains_the_operator_sections(self, trace_file):
        path, _, _ = trace_file
        frames = list(iter_replay(path, window_ms=25.0))
        text = render_frame(frames[-1], frames[-2])
        assert "repro top — node replay" in text
        assert "total" in text and "sequencing" in text and "holdback" in text
        assert "hold-back" in text
        assert "fences" in text
        assert "recent alerts" in text

    def test_rate_uses_virtual_time_deltas(self):
        monitor = LiveMonitor(node="n", retain_audit=False)
        previous = TelemetrySnapshot.from_monitor(monitor)
        monitor.delivered_total = 50
        monitor.now = 100.0
        current = TelemetrySnapshot.from_monitor(monitor)
        text = render_frame(current, previous)
        # 50 deliveries over 100 virtual ms = 500 msg/s.
        assert "500.0 msg/s" in text

    def test_no_previous_frame_renders_dash_rate(self):
        monitor = LiveMonitor(node="n", retain_audit=False)
        text = render_frame(TelemetrySnapshot.from_monitor(monitor))
        assert "- msg/s" in text


class TestRunTop:
    def test_writes_frames_and_returns_final(self, trace_file):
        path, _, _ = trace_file
        out = io.StringIO()
        final = run_top(iter_replay(path, window_ms=25.0), out=out, clear=False)
        body = out.getvalue()
        assert body.count("repro top — node replay") >= 2
        assert "\x1b[2J" not in body
        assert final.violations == 0

    def test_clear_mode_emits_ansi_clear(self, trace_file):
        path, _, _ = trace_file
        out = io.StringIO()
        run_top(iter_replay(path, window_ms=1000.0), out=out, clear=True)
        assert out.getvalue().startswith("\x1b[2J\x1b[H")

    def test_raises_on_empty_stream(self):
        with pytest.raises(RuntimeError):
            run_top(iter(()), out=io.StringIO())
