"""Streaming invariant monitors, phase percentiles, telemetry snapshots."""

import json
import re

import pytest

from repro.check.explore import MUTATIONS
from repro.check.invariants import verify_run
from repro.experiments.common import ExperimentEnv
from repro.faults.campaign import ChaosConfig, execute_campaign, run_campaign
from repro.faults.churn import ChurnConfig, run_churn_campaign
from repro.obs.forensics import JourneyIndex
from repro.obs.live import (
    MONITOR_RULES,
    LiveMonitor,
    TelemetrySnapshot,
    merge_snapshots,
)
from repro.runtime.trace import TraceRecord

SNAPSHOT = {
    0: frozenset({0, 1, 2, 3}),
    1: frozenset({1, 2, 4, 5}),
}


def _clean_run(seed=0, monitor=None):
    env = ExperimentEnv(n_hosts=6, seed=seed)
    fabric = env.build_fabric(
        env.membership_from(SNAPSHOT), seed=seed, trace=True, loss_rate=0.05
    )
    if monitor is not None:
        monitor.attach(fabric)
    import random

    rng = random.Random(seed)
    for _ in range(30):
        group = rng.choice(sorted(SNAPSHOT))
        sender = rng.choice(sorted(SNAPSHOT[group]))
        fabric.publish(sender, group)
    fabric.run()
    assert not fabric.pending_messages()
    return fabric


class TestCleanRun:
    def test_no_alerts_on_a_healthy_run(self):
        monitor = LiveMonitor()
        _clean_run(monitor=monitor)
        assert monitor.alerts == []
        assert monitor.violations == 0

    def test_stream_audit_equals_fabric_audit(self):
        monitor = LiveMonitor()
        fabric = _clean_run(monitor=monitor)
        live = monitor.final_findings(complete=True, causal=True)
        post = verify_run(fabric, complete=True, causal=True)
        assert [f.code for f in live] == [f.code for f in post]
        assert live == post

    def test_counts_track_the_run(self):
        monitor = LiveMonitor()
        fabric = _clean_run(monitor=monitor)
        assert monitor.published_total == 30
        assert monitor.delivered_total == sum(
            len(fabric.delivered(h)) for h in range(6)
        )

    def test_confirmation_eviction_bounds_memory(self):
        monitor = LiveMonitor(retain_audit=False)
        _clean_run(monitor=monitor)
        # Every message fully delivered -> all per-message state evicted.
        assert monitor._checker._count == {}
        assert monitor.journeys == {}
        assert monitor.owners == {}
        assert monitor.open_buffers == {}
        assert all(not seen for seen in monitor._checker._seen.values())
        assert monitor.holdback_occupancy() == {}

    def test_retain_audit_false_has_no_run_view(self):
        monitor = LiveMonitor(retain_audit=False)
        _clean_run(monitor=monitor)
        with pytest.raises(RuntimeError):
            monitor.final_findings()


class TestSyntheticRules:
    """Hand-fed record streams trip each monitor precisely."""

    def _monitor(self):
        monitor = LiveMonitor(retain_audit=False)
        monitor.adopt_membership({0: frozenset({0, 1})})
        return monitor

    @staticmethod
    def _deliver(time, host, msg, sender=0, group=0):
        return TraceRecord(
            time,
            "deliver",
            {
                "msg": msg,
                "host": host,
                "group": group,
                "sender": sender,
                "publish_time": 0.0,
            },
        )

    def test_lm301_duplicate_in_window(self):
        monitor = self._monitor()
        monitor.observe(self._deliver(1.0, 0, 5))
        monitor.observe(self._deliver(2.0, 0, 5))
        assert [a.rule for a in monitor.alerts] == ["LM301"]
        assert monitor.violations == 1

    def test_lm302_group_sequence_gap(self):
        monitor = self._monitor()
        for msg, group_seq in ((1, 0), (2, 1), (3, 2)):
            monitor.observe(
                TraceRecord(
                    0.5, "atom_seq",
                    {"msg": msg, "node": 0, "atom": "a", "seq": group_seq,
                     "group_seq": group_seq},
                )
            )
        monitor.observe(self._deliver(1.0, 0, 1))
        monitor.observe(self._deliver(2.0, 0, 3))  # skipped group_seq 1
        lm302 = [a for a in monitor.alerts if a.rule == "LM302"]
        assert len(lm302) == 1
        assert "skipped" in lm302[0].message

    def test_lm304_publisher_fifo(self):
        monitor = self._monitor()
        monitor.observe(self._deliver(1.0, 0, 7, sender=2))
        monitor.observe(self._deliver(2.0, 0, 3, sender=2))
        assert [a.rule for a in monitor.alerts] == ["LM304"]

    def test_lm300_order_divergence(self):
        monitor = self._monitor()
        monitor.observe(self._deliver(1.0, 0, 10))
        monitor.observe(self._deliver(2.0, 0, 11))
        monitor.observe(self._deliver(3.0, 1, 11))  # host 1 starts with 11
        lm300 = [a for a in monitor.alerts if a.rule == "LM300"]
        assert len(lm300) == 1
        assert lm300[0].anchor == "group 0"

    def test_lm303_stall_fires_past_threshold_with_cause(self):
        monitor = self._monitor()
        monitor.observe(
            TraceRecord(0.0, "buffer", {"msg": 1, "host": 0, "group": 0})
        )
        monitor.observe(
            TraceRecord(
                10.0, "retransmit", {"src": 0, "dst": 1, "cause": "loss"}
            )
        )
        assert monitor.alerts == []
        monitor.observe(
            TraceRecord(61.0, "publish", {"msg": 9, "group": 0, "sender": 0})
        )
        lm303 = [a for a in monitor.alerts if a.rule == "LM303"]
        assert len(lm303) == 1
        assert lm303[0].severity == "warning"
        assert lm303[0].cause == "loss"
        assert lm303[0].evidence == {"loss": 1}
        assert monitor.violations == 0  # warnings are not violations

    def test_lm303_silent_when_drained_in_time(self):
        monitor = self._monitor()
        monitor.observe(
            TraceRecord(0.0, "buffer", {"msg": 1, "host": 0, "group": 0})
        )
        monitor.observe(
            TraceRecord(
                20.0, "drain",
                {"msg": 1, "host": 0, "group": 0, "unblocked_by": 2,
                 "waited": 20.0},
            )
        )
        monitor.observe(
            TraceRecord(100.0, "publish", {"msg": 9, "group": 0, "sender": 0})
        )
        assert monitor.alerts == []
        assert monitor.holdback_occupancy() == {}

    def test_alert_cap_counts_drops(self):
        monitor = LiveMonitor(retain_audit=False, max_alerts=2)
        monitor.adopt_membership({0: frozenset({0, 1})})
        # Every second delivery of the same message is a duplicate inside
        # the confirmation window (the even ones evict it again).
        for step in range(6):
            monitor.observe(self._deliver(float(step), 0, 5))
        assert len(monitor.alerts) == 2
        assert monitor.alerts_dropped == 1

    def test_rule_table_matches_alert_severities(self):
        assert set(MONITOR_RULES) == {
            "LM300", "LM301", "LM302", "LM303", "LM304"
        }
        assert MONITOR_RULES["LM303"][0] == "warning"


class TestMutationDetection:
    def test_dup_delivery_mutation_fires_live(self):
        monitor = LiveMonitor()
        env = ExperimentEnv(n_hosts=6, seed=0)
        fabric = env.build_fabric(
            env.membership_from(SNAPSHOT), seed=0, trace=True
        )
        monitor.attach(fabric)
        MUTATIONS["dup-delivery"](fabric)
        for sender, group in ((0, 0), (1, 1), (2, 0), (4, 1)):
            fabric.publish(sender, group)
        fabric.run()
        assert monitor.violations > 0
        live = monitor.final_findings(complete=True, causal=True)
        post = verify_run(fabric, complete=True, causal=True)
        assert live == post
        assert post, "post-hoc audit should also flag the mutation"


class TestCampaignIntegration:
    CONFIG = ChaosConfig(
        hosts=16, groups=6, events=40, seed=7, horizon=250.0
    )

    def test_live_block_agrees_and_is_deterministic(self):
        reports = [
            run_campaign(self.CONFIG, live_monitor=True) for _ in range(2)
        ]
        for report in reports:
            live = report["live_monitor"]
            assert live["agrees_with_audit"], live["findings"]
            assert live["violations"] == 0
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_stall_warnings_carry_attributed_causes(self):
        # The CI smoke config: heavy enough that hold-back stalls occur.
        config = ChaosConfig(
            hosts=24, groups=8, events=80, seed=7, horizon=400.0
        )
        report = run_campaign(config, live_monitor=True)
        warnings = [
            a for a in report["live_monitor"]["alerts"]
            if a["severity"] == "warning"
        ]
        assert warnings, "fault campaign should produce stall warnings"
        causes = {a["cause"] for a in warnings}
        assert causes <= {
            "loss", "outage", "peer_down", "failover_replay",
            "epoch_switch", "link_failure", "in_flight",
        }

    def test_mutated_campaign_fires_and_still_agrees(self):
        report = run_campaign(
            self.CONFIG, live_monitor=True, mutate="dup-delivery"
        )
        assert not report["ok"]
        assert report["mutation"] == "dup-delivery"
        live = report["live_monitor"]
        assert live["violations"] > 0
        assert live["agrees_with_audit"], live["findings"]

    def test_unknown_mutation_is_rejected(self):
        with pytest.raises(ValueError):
            execute_campaign(self.CONFIG, mutate="no-such-mutation")

    def test_monitor_off_leaves_report_unchanged(self):
        with_monitor = run_campaign(self.CONFIG, live_monitor=True)
        without = run_campaign(self.CONFIG)
        assert "live_monitor" not in without
        pruned = {
            k: v for k, v in with_monitor.items() if k != "live_monitor"
        }
        assert json.dumps(pruned, sort_keys=True) == json.dumps(
            without, sort_keys=True
        )


class TestAttributionAgreement:
    """LM303 and ``repro explain`` name a stall's cause with one function."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("retain_audit", [True, False])
    def test_lm303_equals_journey_attribution_on_the_prefix(
        self, seed, retain_audit
    ):
        run = execute_campaign(ChaosConfig(seed=seed))
        records = list(run.fabric.trace)
        monitor = LiveMonitor(retain_audit=retain_audit)
        monitor.adopt_membership(
            {
                group: frozenset(run.fabric.membership.members(group))
                for group in run.fabric.membership.groups()
            }
        )
        checked = 0
        for index, record in enumerate(records):
            before = len(monitor.alerts)
            monitor.observe(record)
            stalls = [a for a in monitor.alerts[before:] if a.rule == "LM303"]
            if not stalls:
                continue
            # The trace prefix ending at the record that fired the alerts.
            journeys = JourneyIndex(records[: index + 1])
            for alert in stalls:
                host, msg = map(
                    int,
                    re.match(
                        r"host (\d+) has buffered message (\d+)", alert.message
                    ).groups(),
                )
                event = [
                    e for e in journeys.buffer_events
                    if (e.host, e.msg_id) == (host, msg)
                ][-1]
                assert not event.resolved
                assert alert.cause == event.cause, (alert, event)
                assert alert.evidence == event.evidence, (alert, event)
                checked += 1
        assert checked > 0


class TestChurnIntegration:
    def test_per_epoch_agreement_across_switches(self):
        config = ChurnConfig(
            hosts=12, groups=4, events=30, churn_events=15, switches=2,
            seed=5, horizon=300.0, mid_switch_crash=False,
        )
        report = run_churn_campaign(config, live_monitor=True)
        live = report["live_monitor"]
        assert live["agrees_with_audit"], live["epoch_agreement"]
        assert len(live["epoch_agreement"]) == len(report["epochs"])
        assert all(e["agrees"] for e in live["epoch_agreement"])


class TestTelemetrySnapshot:
    def _snapshot(self):
        monitor = LiveMonitor(node="n0")
        _clean_run(monitor=monitor)
        return TelemetrySnapshot.from_monitor(monitor)

    def test_round_trips_through_dict(self):
        snapshot = self._snapshot()
        restored = TelemetrySnapshot.from_dict(
            json.loads(json.dumps(snapshot.to_dict()))
        )
        assert restored.to_dict() == snapshot.to_dict()

    def test_rejects_unknown_format(self):
        payload = self._snapshot().to_dict()
        payload["format"] = "bogus/9"
        with pytest.raises(ValueError):
            TelemetrySnapshot.from_dict(payload)

    def test_merge_adds_counts_and_preserves_quantiles(self):
        a = self._snapshot()
        b = self._snapshot()
        merged = merge_snapshots([a, b])
        assert merged.delivered == a.delivered + b.delivered
        assert merged.published == a.published + b.published
        single = a.phase_summaries()["total"]
        combined = merged.phase_summaries()["total"]
        assert combined["count"] == 2 * single["count"]
        # Identical inputs: merged quantiles equal the single-node ones.
        assert combined["p99"] == pytest.approx(single["p99"])
        assert combined["max"] == single["max"]
