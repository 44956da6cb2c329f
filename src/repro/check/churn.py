"""Cross-epoch churn invariants (RT320–RT325).

The per-epoch runtime verifier (:mod:`repro.check.invariants`) audits one
fabric's delivery logs; under sustained churn the interesting properties
live *across* the epoch boundary: do surviving sequence spaces really
continue, does the epoch fence lose or duplicate anything, does a joined
subscriber see a clean prefix, and are a leaver's buffers accounted for?

:func:`collect_epoch_log` snapshots one epoch's observable state at its
cutover (or at the end of the run); :func:`verify_churn` re-derives the
invariants from a sequence of those logs, independently of the
reconfiguration code that claims to maintain them:

RT320 (surviving groups continue at the carried counter) and RT324
(changed or added groups, joiners included, restart at 1) are the
group-seq row of :data:`repro.check.invariants.RULES` over each epoch's
deliveries, RT322 its duplicate row across epochs.  This module's own
checks: RT321 surviving atom counters continue across the switch, RT323
every expected member consumed its group's fence and nothing was
buffered at the cutover, RT325 a leaver consumed the fence and left
nothing buffered.  One :class:`Finding` per violation (capped per rule),
``tool="runtime-verify"``.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.check.findings import Finding
from repro.check.invariants import (
    MAX_FINDINGS_PER_CHECK, TOOL, GroupSpace, OrderingChecker,
)
from repro.core.messages import AtomId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.protocol import DeliveryRecord, OrderingFabric

__all__ = [
    "EpochLog",
    "collect_epoch_log",
    "verify_churn",
]

def _finding(code: str, message: str, anchor: str) -> Finding:
    return Finding(code=code, message=message, anchor=anchor, tool=TOOL)


@dataclass
class EpochLog:
    """The observable outcome of one epoch, snapshotted at its cutover."""

    epoch: int
    #: the epoch's frozen member sets (the sequencing graph's view)
    members: Dict[int, FrozenSet[int]]
    #: group-local counter values carried *into* this epoch (0 = fresh)
    start_group_counters: Dict[int, int]
    #: group-local counter values at the cutover (fences included)
    end_group_counters: Dict[int, int]
    #: atom sequence counters carried *into* this epoch
    start_atom_counters: Dict[AtomId, int]
    #: atom sequence counters at the cutover
    end_atom_counters: Dict[AtomId, int]
    #: per-host delivery log of this epoch's fabric
    deliveries: Dict[int, List["DeliveryRecord"]] = field(default_factory=dict)
    #: application messages published in this epoch
    published_ids: List[int] = field(default_factory=list)
    #: whether this epoch ended with an online (fenced) switch
    online_switch: bool = False
    #: group -> members expected to consume the epoch fence
    fence_expected: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    #: group -> members that actually consumed it
    fence_delivered: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    #: group -> group-local number the fence consumed (None if unfenced)
    fence_group_seq: Dict[int, Optional[int]] = field(default_factory=dict)
    #: hosts with messages still buffered at the cutover (should be {})
    pending_at_cutover: Dict[int, int] = field(default_factory=dict)


def collect_epoch_log(
    fabric: "OrderingFabric",
    start_group_counters: Dict[int, int],
    start_atom_counters: Dict[AtomId, int],
    online_switch: bool,
) -> EpochLog:
    """Snapshot ``fabric``'s epoch outcome for :func:`verify_churn`.

    ``start_*`` are the counter values observed right after the fabric
    was built (i.e. what the previous epoch carried in); pass ``{}`` for
    the first epoch.
    """
    from repro.core.reconfigure import atom_counters, group_local_counters

    return EpochLog(
        epoch=fabric.epoch,
        members={g: fabric.graph.members(g) for g in fabric.graph.groups()},
        start_group_counters=dict(start_group_counters),
        end_group_counters=group_local_counters(fabric),
        start_atom_counters=dict(start_atom_counters),
        end_atom_counters=atom_counters(fabric),
        deliveries={
            host_id: list(process.delivered)
            for host_id, process in fabric.host_processes.items()
        },
        published_ids=sorted(fabric.published),
        online_switch=online_switch,
        fence_expected=dict(fabric.fence_expected),
        fence_delivered={
            group: frozenset(hosts)
            for group, hosts in fabric.fence_delivered.items()
        },
        fence_group_seq={
            fence.group: fence.group_seq for fence in fabric.fences.values()
        },
        pending_at_cutover=fabric.pending_messages(),
    )


def _surviving(prev: EpochLog, cur: EpochLog) -> List[int]:
    return sorted(
        g
        for g in cur.members
        if g in prev.members and prev.members[g] == cur.members[g]
    )


def _group_seq_verdicts(log: EpochLog, groups: List[int]) -> List[str]:
    """The checker's group-seq row over one epoch's ``groups``.

    Every member must deliver every number the epoch assigned, from the
    carried counter on and through the end counter, except the fence's
    own number.  (The fence is *not* necessarily the space's last number:
    a message still en route to the ingress when the switch began is
    sequenced after it, and the drain delivers it before the cutover.)
    """
    spaces = {
        group: GroupSpace(
            first=log.start_group_counters.get(group, 0) + 1,
            last=log.end_group_counters.get(group),
            fence=log.fence_group_seq.get(group) if log.online_switch else None,
        )
        for group in groups
    }
    checker = OrderingChecker({group: log.members[group] for group in groups}, spaces=spaces)
    for host in sorted(log.deliveries):
        for r in log.deliveries[host]:
            if r.stamp.group in spaces:
                checker.deliver(host, r.msg_id, r.stamp.group, r.sender, r.time, r.stamp.group_seq)
    verdicts = checker.verdicts(causal=False)["group_seq"]
    return [f"epoch {log.epoch}: {message}" for message, _anchor in verdicts]


def check_group_spaces(
    logs: List[EpochLog],
) -> Tuple[List[Finding], List[Finding]]:
    """RT320 for surviving groups and RT324 for changed or added ones: the
    counter each group enters an epoch with (the carried one, or a fresh
    0), then the checker's group-seq row over the epoch's deliveries."""
    found: Dict[str, List[Finding]] = {"RT320": [], "RT324": []}
    for prev, cur in zip([None, *logs[:-1]], logs):
        surviving = sorted(cur.members) if prev is None else _surviving(prev, cur)
        changed = sorted(set(cur.members) - set(surviving))
        for code, groups in (("RT320", surviving), ("RT324", changed)):
            for group in groups:
                if prev is None:
                    break
                start = cur.start_group_counters.get(group, 0)
                entry = prev.end_group_counters.get(group, 0) if code == "RT320" else 0
                if start != entry:
                    found[code].append(_finding(
                        code, f"group {group} entered epoch {cur.epoch} at "
                        f"counter {start}, expected {entry}", f"group {group}",
                    ))
            found[code].extend(
                _finding(code, message, f"epoch {cur.epoch}")
                for message in _group_seq_verdicts(cur, groups)
            )
    return (
        found["RT320"][:MAX_FINDINGS_PER_CHECK],
        found["RT324"][:MAX_FINDINGS_PER_CHECK],
    )


def check_atom_continuity(logs: List[EpochLog]) -> List[Finding]:
    """RT321: surviving atom sequence spaces continue across the switch."""
    findings: List[Finding] = []
    for prev, cur in zip(logs, logs[1:]):
        for atom_id in sorted(set(prev.end_atom_counters) & set(cur.start_atom_counters)):
            carried = prev.end_atom_counters[atom_id]
            start = cur.start_atom_counters[atom_id]
            if start != carried:
                findings.append(_finding(
                    "RT321", f"atom {atom_id!r} entered epoch {cur.epoch} at counter "
                    f"{start}, but epoch {prev.epoch} ended at {carried}", repr(atom_id),
                ))
    return findings[:MAX_FINDINGS_PER_CHECK]


def check_exactly_once_across_epochs(logs: List[EpochLog]) -> List[Finding]:
    """RT322: the checker's duplicate row over every epoch's deliveries,
    in epoch order (no replay after a cutover)."""
    checker = OrderingChecker({})
    for log in logs:
        for host in sorted(log.deliveries):
            for r in log.deliveries[host]:
                checker.deliver(host, r.msg_id, r.stamp.group, r.sender, r.time)
    verdicts = checker.verdicts(complete=False, causal=False)
    return [_finding("RT322", message, anchor) for message, anchor in verdicts["duplicate"]]


def check_fence_completeness(logs: List[EpochLog]) -> List[Finding]:
    """RT323: every expected member consumed its fence; buffers drained."""
    findings: List[Finding] = []
    for log in logs:
        for group in sorted(log.fence_expected):
            missing = sorted(
                log.fence_expected[group] - log.fence_delivered.get(group, frozenset())
            )
            if log.online_switch and missing:
                findings.append(_finding(
                    "RT323", f"hosts {missing} never consumed group {group}'s fence "
                    f"in epoch {log.epoch}", f"group {group}",
                ))
        if log.pending_at_cutover:
            findings.append(_finding(
                "RT323", f"hosts {sorted(log.pending_at_cutover)} still buffered "
                f"messages at epoch {log.epoch}'s cutover", f"epoch {log.epoch}",
            ))
    return findings[:MAX_FINDINGS_PER_CHECK]


def check_leaver_drained(logs: List[EpochLog]) -> List[Finding]:
    """RT325: a leaver consumed the fence and left nothing buffered."""
    findings: List[Finding] = []
    for prev, cur in zip(logs, logs[1:]):
        for group in sorted(prev.members):
            for host in sorted(prev.members[group] - cur.members.get(group, frozenset())):
                fenced = prev.fence_delivered.get(group, frozenset())
                if prev.online_switch and host not in fenced:
                    findings.append(_finding(
                        "RT325", f"host {host} left group {group} after epoch "
                        f"{prev.epoch} without consuming its fence — its hold-back "
                        "state is unaccounted for", f"host {host}",
                    ))
                if host in prev.pending_at_cutover:
                    findings.append(_finding(
                        "RT325", f"host {host} left after epoch {prev.epoch} with "
                        f"{prev.pending_at_cutover[host]} message(s) still buffered",
                        f"host {host}",
                    ))
    return findings[:MAX_FINDINGS_PER_CHECK]


def verify_churn(logs: List[EpochLog]) -> List[Finding]:
    """Run every RT32x cross-epoch check over a campaign's epoch logs."""
    sequence = sorted(logs, key=lambda log: log.epoch)
    findings: List[Finding] = []
    continuity, clean_prefix = check_group_spaces(sequence)
    findings.extend(continuity)
    findings.extend(check_atom_continuity(sequence))
    findings.extend(check_exactly_once_across_epochs(sequence))
    findings.extend(check_fence_completeness(sequence))
    findings.extend(clean_prefix)
    findings.extend(check_leaver_drained(sequence))
    return findings
