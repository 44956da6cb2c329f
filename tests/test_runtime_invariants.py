"""The RT3xx runtime verifier: clean runs pass, corrupted logs fail.

The verifier audits delivery logs, so seeded corruption of those logs is
the natural negative test: each mutation must trip exactly the check
that claims to detect it.
"""

import dataclasses
import random

import pytest

from repro.check import verify_run
from repro.check.explore import MUTATIONS
from repro.pubsub.membership import GroupMembership


def triangle_membership():
    membership = GroupMembership()
    membership.create_group([0, 1, 3], group_id=0)
    membership.create_group([0, 1, 2], group_id=1)
    membership.create_group([1, 2, 3], group_id=2)
    return membership


def ran_fabric(env, n_messages=20, seed=2, spread=50.0, **kwargs):
    fabric = env.build_fabric(triangle_membership(), **kwargs)
    rng = random.Random(seed)
    for _ in range(n_messages):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        # Spread publishes over virtual time so publish-after-deliver
        # dependencies actually exist (all-at-zero has no causality).
        fabric.sim.schedule_at(spread * rng.random(), fabric.publish, sender, group)
    fabric.run()
    return fabric


def rows(fabric, *codes, complete=True, causal=True):
    """The audit's findings under ``codes`` only."""
    return [
        f
        for f in verify_run(fabric, complete=complete, causal=causal)
        if f.code in codes
    ]


def test_clean_run_has_no_findings(env32):
    fabric = ran_fabric(env32)
    assert verify_run(fabric, complete=True, causal=True) == []


def test_clean_lossy_run_has_no_findings(env32):
    fabric = ran_fabric(env32, loss_rate=0.15, seed=4)
    assert verify_run(fabric, complete=True, causal=True) == []


# -- log corruptions: each must trip the check that claims to detect it -----


def reverse_group0_at_host1(fabric):
    """Reverse host 1's deliveries for group 0 (moved to the log's end)."""
    process = fabric.host_processes[1]
    group0 = [r for r in process.delivered if r.stamp.group == 0]
    assert len(group0) >= 2
    others = [r for r in process.delivered if r.stamp.group != 0]
    process.delivered[:] = others + list(reversed(group0))


def duplicate_first_at_host2(fabric):
    process = fabric.host_processes[2]
    process.delivered.append(process.delivered[0])


def drop_last_at_host3(fabric):
    return fabric.host_processes[3].delivered.pop()


def fake_residual_buffering(fabric):
    fabric.pending_messages = lambda: {0: 2}


def swap_same_publisher(fabric):
    """Swap two deliveries from one (sender, group) at the first host
    that has two."""
    target = None
    for host_id, process in sorted(fabric.host_processes.items()):
        seen = {}
        for index, record in enumerate(process.delivered):
            key = (record.sender, record.stamp.group)
            if key in seen:
                target = (host_id, seen[key], index)
                break
            seen[key] = index
        if target:
            break
    assert target is not None
    host_id, i, j = target
    log = fabric.host_processes[host_id].delivered
    log[i], log[j] = log[j], log[i]


def swap_group1_at_host0(fabric):
    """Hosts 0 and 2 share group 1 only; swapping two group-1 records at
    host 0 breaks pairwise agreement (and group order, checked apart)."""
    process = fabric.host_processes[0]
    group1 = [i for i, r in enumerate(process.delivered) if r.stamp.group == 1]
    assert len(group1) >= 2
    i, j = group1[0], group1[1]
    process.delivered[i], process.delivered[j] = (
        process.delivered[j],
        process.delivered[i],
    )


def move_causal_dependency_last(fabric):
    """A publisher delivered something before publishing a later message;
    move that dependency to the end of another host's log."""
    for msg_id in sorted(fabric.published):
        message = fabric.published[msg_id]
        publisher = fabric.host_processes[message.sender]
        deps = [
            r.msg_id for r in publisher.delivered if r.time < message.publish_time
        ]
        if not deps:
            continue
        dep = deps[0]
        for host_id, process in sorted(fabric.host_processes.items()):
            ids = [r.msg_id for r in process.delivered]
            if msg_id in ids and dep in ids and ids.index(dep) < ids.index(msg_id):
                record = process.delivered.pop(ids.index(dep))
                process.delivered.append(record)
                return
    raise AssertionError("no causal dependency to break")


def claim_false_stability(fabric):
    """Claim stability for a message some member never delivered."""
    process = fabric.host_processes[1]
    msg_id = process.delivered[0].msg_id
    message = fabric.published[msg_id]
    victim = sorted(fabric.membership.members(message.group))[0]
    victim_log = fabric.host_processes[victim].delivered
    victim_log[:] = [r for r in victim_log if r.msg_id != msg_id]
    process.stable_ids.add(msg_id)


def reverse_every_log(fabric):
    for process in fabric.host_processes.values():
        process.delivered[:] = list(reversed(process.delivered))


CORRUPTIONS = {
    "reverse-group": reverse_group0_at_host1,
    "duplicate": duplicate_first_at_host2,
    "drop": drop_last_at_host3,
    "residual": fake_residual_buffering,
    "fifo-swap": swap_same_publisher,
    "group-swap": swap_group1_at_host0,
    "causal": move_causal_dependency_last,
    "stability": claim_false_stability,
    "reverse-all": reverse_every_log,
}


def test_group_order_violation_detected(env32):
    fabric = ran_fabric(env32)
    reverse_group0_at_host1(fabric)
    findings = rows(fabric, "RT300")
    assert findings and all(f.code == "RT300" for f in findings)
    assert any("group 0" in (f.anchor or "") for f in findings)


def test_duplicate_delivery_detected(env32):
    fabric = ran_fabric(env32)
    duplicate_first_at_host2(fabric)
    findings = rows(fabric, "RT301", "RT302", complete=False)
    assert [f.code for f in findings] == ["RT301"]


def test_missing_delivery_detected(env32):
    fabric = ran_fabric(env32)
    dropped = drop_last_at_host3(fabric)
    findings = rows(fabric, "RT301", "RT302", complete=True)
    codes = {f.code for f in findings}
    assert "RT302" in codes
    assert any(f"message {dropped.msg_id}" in f.message for f in findings)
    # With completeness waived, the hole is tolerated.
    assert rows(fabric, "RT301", "RT302", complete=False) == []


def test_residual_buffering_detected(env32):
    fabric = ran_fabric(env32)
    assert rows(fabric, "RT303") == []
    fake_residual_buffering(fabric)
    findings = rows(fabric, "RT303")
    assert [f.code for f in findings] == ["RT303"]


def test_publisher_fifo_violation_detected(env32):
    fabric = ran_fabric(env32)
    swap_same_publisher(fabric)
    findings = rows(fabric, "RT304")
    assert findings and all(f.code == "RT304" for f in findings)


def test_mutual_consistency_violation_detected(env32):
    fabric = ran_fabric(env32)
    swap_group1_at_host0(fabric)
    findings = rows(fabric, "RT305")
    assert findings and all(f.code == "RT305" for f in findings)


def test_causal_order_violation_detected(env32):
    fabric = ran_fabric(env32, n_messages=30)
    assert rows(fabric, "RT306") == []
    move_causal_dependency_last(fabric)
    findings = rows(fabric, "RT306")
    assert findings and all(f.code == "RT306" for f in findings)


def test_stability_violation_detected(env32):
    fabric = ran_fabric(env32, track_stability=True)
    assert rows(fabric, "RT307") == []
    claim_false_stability(fabric)
    findings = rows(fabric, "RT307")
    assert any(f.code == "RT307" for f in findings)


def test_stability_check_skipped_without_tracking(env32):
    fabric = ran_fabric(env32)
    fabric.host_processes[0].stable_ids.add(999)  # nonsense, but untracked
    assert rows(fabric, "RT307") == []


def test_findings_capped(env32):
    from repro.check.invariants import MAX_FINDINGS_PER_CHECK

    fabric = ran_fabric(env32)
    # Destroy every log: the checker must cap, not drown.
    reverse_every_log(fabric)
    findings = rows(fabric, "RT300")
    assert len(findings) <= MAX_FINDINGS_PER_CHECK


def test_verify_run_composes_and_orders(env32):
    fabric = ran_fabric(env32)
    process = fabric.host_processes[2]
    process.delivered.append(process.delivered[0])  # RT301
    fabric.pending_messages = lambda: {3: 1}  # RT303
    codes = [f.code for f in verify_run(fabric, complete=False, causal=False)]
    assert "RT301" in codes
    assert "RT303" in codes
    # Composition preserves per-check grouping order (RT300 block first).
    assert codes == sorted(codes)


def test_findings_are_runtime_verify_tool(env32):
    fabric = ran_fabric(env32)
    fabric.host_processes[0].delivered.append(
        dataclasses.replace(fabric.host_processes[0].delivered[0])
    )
    for finding in verify_run(fabric, complete=False, causal=False):
        assert finding.tool == "runtime-verify"
        assert finding.severity == "error"


# -- the linear RT305 against the stamp-free pairwise oracle -----------------


def pairwise_disagreements(fabric):
    """The stamp-free oracle: host pairs whose orders of the messages both
    delivered differ (quadratic in hosts; small runs only)."""
    orders = {
        host: [r.msg_id for r in process.delivered]
        for host, process in sorted(fabric.host_processes.items())
    }
    hosts = sorted(orders)
    pairs = []
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            common = set(orders[a]) & set(orders[b])
            if [m for m in orders[a] if m in common] != [
                m for m in orders[b] if m in common
            ]:
                pairs.append((a, b))
    return pairs


#: Cases where the linear check is strictly stronger than the oracle, with
#: the text its findings carry: hosts that all reversed their logs agree
#: on one order that breaks every stamp, and a stamp with a skipped atom
#: number is wrong whether or not the schedule reordered anything.
STRONGER_THAN_ORACLE = {
    "reverse-all": "order regressed",
    "skip-stamp": "carries no sequence number",
}


def assert_linear_matches_oracle(fabric, case):
    linear = rows(fabric, "RT305")
    oracle = pairwise_disagreements(fabric)
    if oracle:
        assert linear, f"{case}: the oracle saw {oracle}, RT305 nothing"
    if case in STRONGER_THAN_ORACLE:
        assert linear and not oracle, (case, linear, oracle)
        assert all(STRONGER_THAN_ORACLE[case] in f.message for f in linear)
    else:
        assert bool(linear) == bool(oracle), (case, linear, oracle)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_linear_rt305_fires_exactly_when_pairwise_oracle_fires(
    env32, corruption
):
    fabric = ran_fabric(env32, n_messages=30, track_stability=True)
    assert not rows(fabric, "RT305") and not pairwise_disagreements(fabric)
    CORRUPTIONS[corruption](fabric)
    assert_linear_matches_oracle(fabric, corruption)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_linear_rt305_matches_pairwise_oracle_on_mutations(env32, mutation):
    fabric = env32.build_fabric(triangle_membership())
    MUTATIONS[mutation](fabric)
    rng = random.Random(2)
    for _ in range(20):
        group = rng.choice([0, 1, 2])
        sender = rng.choice(sorted(fabric.membership.members(group)))
        fabric.sim.schedule_at(50.0 * rng.random(), fabric.publish, sender, group)
    fabric.run()
    assert_linear_matches_oracle(fabric, mutation)


def test_docs_rule_table_has_a_row_per_rule():
    from pathlib import Path

    from repro.check.invariants import RULES

    doc = Path(__file__).resolve().parent.parent / "docs" / "STATIC_ANALYSIS.md"
    section = doc.read_text().split("## Ordering rules: one table")[1]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    for rule in RULES:
        codes = [c for c in (rule.rt, rule.lm, rule.mc) if c]
        codes += rule.epoch.split("/") if rule.epoch else []
        assert any(all(code in row for code in codes) for row in rows), rule
