"""State-continuous reconfiguration across membership changes.

The paper evaluates static memberships and leaves dynamic behaviour to
future work (Section 5), but specifies the building blocks: incremental
group add/remove on the sequencing graph (Section 3.2) and lazy retirement
of obsolete atoms.  This module composes them into an *epoch switch*: given
a fabric and the new membership matrix, it derives the next epoch's graph
incrementally (preserving surviving atoms and their chain order), rebuilds
placement and processes, and **carries the protocol state forward** —

* surviving overlap atoms keep their sequence counters (their sequence
  spaces continue instead of restarting at 1),
* each surviving group keeps its group-local counter, wherever its ingress
  atom moved,
* receivers — including newly joined subscribers — start expecting the
  *next* number of each continuing space,
* message ids continue, so cross-epoch delivery logs remain comparable.

Quiescent fabrics cut over immediately.  A fabric with in-flight traffic
is **fenced** instead of rejected (``online=True``, the default): one
:class:`~repro.core.messages.EpochFence` marker is published through every
group's sequencing path.  Each group's traffic follows a single static
path of FIFO reliable links (C1) and receivers deliver in sequence order,
so a receiver that has delivered a group's fence has delivered everything
the old epoch sequenced before it.  Once every member has consumed its
fence, the hold-back buffers are provably empty and the cutover proceeds
exactly like the quiescent case — the fences simply consumed the last
sequence number of each space.

When a fault races the switch (e.g. a sequencing-node crash landing
mid-epoch-switch stalls a fence until failover re-routes the path), the
drain retries under a bounded exponential backoff in virtual time, giving
the failure detector and live failover room to repair the path.  The
derived graph is re-proved by the independent GV200–GV206 verifier before
the new epoch goes live.  :class:`ReconfigurationError` is reserved for
genuinely unsafe states: a fence (or one of its predecessors) abandoned by
the reliable layer, a drain that does not converge within its budget, or a
derived graph/certificate that fails its proof.
"""

import logging
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.messages import AtomId
from repro.core.protocol import OrderingFabric
from repro.pubsub.membership import GroupMembership
from repro.runtime.errors import SimulationError

if TYPE_CHECKING:
    from repro.core.sequencing_graph import SequencingGraph

logger = logging.getLogger(__name__)

#: Events executed per drain poll while waiting for fences to land.
#: Deliberately small: with failure detectors ticking, the runtime is
#: never quiescent, so a coarse chunk would burn virtual time (and defer
#: the cutover) long after the last fence has actually drained.
DRAIN_CHUNK_EVENTS = 500

#: Default per-attempt event budget for one online fence drain.
DEFAULT_DRAIN_MAX_EVENTS = 2_000_000

#: Default bounded-retry attempts when a fault races the switch.
DEFAULT_REPAIR_ATTEMPTS = 3

#: Base virtual-time backoff (ms) between drain attempts, doubled per retry.
DEFAULT_REPAIR_BACKOFF = 25.0


class ReconfigurationError(RuntimeError):
    """Raised when an epoch switch is attempted in an unsafe state."""


def _require_quiescent(fabric: OrderingFabric) -> None:
    if fabric.sim.pending:
        raise ReconfigurationError(
            f"{fabric.sim.pending} events still in flight; run() the fabric "
            "to quiescence before reconfiguring, or reconfigure(online=True)"
        )
    buffered = fabric.pending_messages()
    if buffered:
        raise ReconfigurationError(
            f"hosts {sorted(buffered)} still buffer undeliverable messages"
        )


def group_local_counters(fabric: OrderingFabric) -> Dict[int, int]:
    """Current group-local counter per group, read at the ingress atom only.

    Group-local numbers are assigned exclusively by each group's ingress
    atom (:meth:`repro.core.atoms.AtomRuntime.process` creates the counter
    entry only where ``prev_atom`` is ``None``), so the single ingress
    runtime holds the authoritative value — no need to scan every atom
    runtime on every process per epoch switch.
    """
    counters: Dict[int, int] = {}
    for group in fabric.graph.groups():
        ingress = fabric.graph.ingress_atom(group)
        node = fabric.placement.node_of(ingress)
        runtime = fabric.node_processes[node.node_id].atom_runtimes[ingress]
        value = runtime.group_local_counters.get(group, 0)
        if value > 0:
            counters[group] = value
    return counters


def atom_counters(fabric: OrderingFabric) -> Dict[AtomId, int]:
    """Current overlap sequence counter per atom."""
    counters: Dict[AtomId, int] = {}
    for process in fabric.node_processes.values():
        for atom_id, runtime in process.atom_runtimes.items():
            counters[atom_id] = runtime.seq_counter
    return counters


# Backwards-compatible aliases (pre-online API).
_group_local_counters = group_local_counters
_atom_counters = atom_counters


def _undelivered(fabric: OrderingFabric) -> Dict[int, int]:
    """Published messages not yet delivered at every group member.

    The fence is *not* guaranteed to be the last number of its space — a
    message still en route to the ingress atom when the switch begins is
    sequenced after the fence, and receivers (which deliver in sequence
    order, fence included) accept it normally.  The drain therefore waits
    for these stragglers too; this counts, per message id, how many
    member deliveries are still missing.
    """
    counts: Dict[int, int] = {}
    for process in fabric.host_processes.values():
        for record in process.delivered:
            counts[record.msg_id] = counts.get(record.msg_id, 0) + 1
    missing: Dict[int, int] = {}
    for msg_id, message in fabric.published.items():
        expected = len(fabric.graph.members(message.group))
        got = counts.get(msg_id, 0)
        if got < expected:
            missing[msg_id] = expected - got
    return missing


def _drain_fences(
    fabric: OrderingFabric,
    stats: Dict[str, Any],
    drain_max_events: int,
    repair_attempts: int,
    repair_backoff: float,
) -> None:
    """Run the old epoch until its traffic is fully settled.

    Settled means: every group's fence has been consumed by every
    member, every published message has been delivered everywhere it
    should be (including stragglers sequenced *after* a fence — see
    :func:`_undelivered`), and no hold-back buffer retains anything.

    Retries under exponential virtual-time backoff when the drain budget
    runs out with work still outstanding — the signature of a fault
    racing the switch (a crashed node stalls the fence until the failure
    detector triggers failover and the pending buffers replay).
    """
    attempts = max(1, repair_attempts)
    for attempt in range(attempts):
        stats["drain_attempts"] = attempt + 1
        budget = drain_max_events
        while True:
            outstanding = fabric.fences_outstanding()
            straggling = {} if outstanding else _undelivered(fabric)
            if not outstanding and not straggling:
                buffered = fabric.pending_messages()
                if buffered:
                    # Every message delivered everywhere yet something is
                    # buffered: state corruption, never silently drop it.
                    raise ReconfigurationError(
                        f"hosts {sorted(buffered)} still buffer messages "
                        "although every fence and message was delivered"
                    )
                return
            if budget <= 0:
                break
            executed = fabric.run(max_events=min(DRAIN_CHUNK_EVENTS, budget))
            stats["drain_events"] += executed
            budget -= executed
            if executed == 0:
                # The runtime ran dry with work still outstanding: a
                # fence or message was abandoned by the reliable layer —
                # those members can never catch up.
                raise ReconfigurationError(
                    "epoch drain stuck: outstanding fences "
                    f"{outstanding}, undelivered {sorted(straggling)} with "
                    "a quiescent runtime; a packet was abandoned by the "
                    "reliable layer (link failure)"
                )
        if attempt + 1 < attempts:
            # Self-healing window: let detectors suspect, failover rewire,
            # and replayed buffers land, then retry with a fresh budget.
            pause = repair_backoff * (2.0**attempt)
            stats["drain_events"] += fabric.run(until=fabric.sim.now + pause)
    raise ReconfigurationError(
        f"fence drain did not converge after {attempts} attempt(s) of "
        f"{drain_max_events} events: outstanding {fabric.fences_outstanding()}"
    )


def _derive_graph(
    fabric: OrderingFabric,
    new_snapshot: Dict[int, "frozenset[int]"],
    lazy: bool,
    compact: bool,
    stats: Dict[str, Any],
    repair_attempts: int,
    repair_backoff: float,
) -> "SequencingGraph":
    """Incrementally derive and re-prove the next epoch's graph.

    The old graph is cloned and diffed against the new snapshot (Section
    3.2: a changed member set is remove-then-add under the same id), then
    re-proved by the independent GV200–GV205 verifier instead of being
    trusted.  A failed proof retries after a bounded virtual-time backoff
    — the repair path for a second fault racing the derivation — and
    raises :class:`ReconfigurationError` once attempts are exhausted.
    """
    from repro.check.graph_verify import verify_graph

    attempts = max(1, repair_attempts)
    last: List[Any] = []
    for attempt in range(attempts):
        old_snapshot = {
            g: fabric.graph.members(g) for g in fabric.graph.groups()
        }
        graph = fabric.graph.clone()
        removed = [g for g in old_snapshot if g not in new_snapshot]
        added = [g for g in new_snapshot if g not in old_snapshot]
        changed = [
            g
            for g in new_snapshot
            if g in old_snapshot and old_snapshot[g] != new_snapshot[g]
        ]
        for group in sorted(removed):
            graph.remove_group(group, lazy=lazy)
        for group in sorted(changed):
            graph.remove_group(group, lazy=lazy)
            graph.add_group(group, new_snapshot[group])
        for group in sorted(added):
            graph.add_group(group, new_snapshot[group])
        if compact:
            graph.compact()
        findings = verify_graph(graph)
        if not findings:
            stats["graph_repairs"] = attempt
            logger.info(
                "epoch switch: %d removed, %d changed, %d added groups; "
                "%d atoms (%d retired)",
                len(removed),
                len(changed),
                len(added),
                len(graph.atoms),
                len(graph.retired),
            )
            return graph
        last = findings
        if attempt + 1 < attempts:
            pause = repair_backoff * (2.0**attempt)
            stats["drain_events"] += fabric.run(until=fabric.sim.now + pause)
    raise ReconfigurationError(
        "sequencing-graph repair failed after "
        f"{attempts} attempt(s): "
        + "; ".join(f"{f.code}: {f.message}" for f in last)
    )


def reconfigure(
    fabric: OrderingFabric,
    membership: GroupMembership,
    seed: Optional[int] = None,
    lazy: bool = True,
    compact: bool = False,
    online: bool = True,
    drain_max_events: int = DEFAULT_DRAIN_MAX_EVENTS,
    repair_attempts: int = DEFAULT_REPAIR_ATTEMPTS,
    repair_backoff: float = DEFAULT_REPAIR_BACKOFF,
    verify: bool = True,
) -> OrderingFabric:
    """Build the next-epoch fabric for ``membership``, carrying state over.

    Parameters
    ----------
    fabric:
        The previous-epoch fabric (discard it afterwards).  In-flight
        traffic is fenced and drained when ``online`` is true; otherwise
        the fabric must already be quiescent.
    membership:
        The new authoritative membership matrix.  Groups keeping their id
        and member set are *surviving*; a changed member set is treated as
        remove-then-add under the same id (the paper's model), which
        restarts that group's sequence spaces.
    seed:
        Seed for the new placement; defaults to a derived seed.
    lazy:
        Retire obsolete atoms lazily (paper default) or splice eagerly.
    compact:
        Additionally drop all retired atoms after the diff (catch-up of
        lazy removals).
    online:
        Fence and drain in-flight traffic instead of refusing it (see the
        module docstring).  With ``online=False`` any in-flight event
        raises :class:`ReconfigurationError` (the legacy strict mode).
    drain_max_events:
        Per-attempt event budget for the online fence drain.
    repair_attempts:
        Bounded retries when a fault races the drain or the graph proof.
    repair_backoff:
        Base virtual-time backoff (ms) between attempts, doubled each try.
    verify:
        Re-prove the new epoch's full certificate (GV200–GV206) before
        returning it.

    Returns
    -------
    A fresh :class:`OrderingFabric` at virtual time 0 with continued
    counters and ``epoch = fabric.epoch + 1``.  Delivery history stays
    with the old fabric; the switch's statistics land on
    ``fabric.epoch_switch_stats``.
    """
    stats: Dict[str, Any] = {
        "epoch": fabric.epoch + 1,
        "online": False,
        "fences": 0,
        "drain_events": 0,
        "drain_attempts": 0,
        "graph_repairs": 0,
        "started_at": fabric.sim.now,
        "cutover_at": None,
    }
    in_flight = bool(fabric.sim.pending) or bool(fabric.pending_messages())
    if in_flight:
        if not online:
            _require_quiescent(fabric)
        stats["online"] = True
        fabric.trace.record(
            fabric.sim.now,
            "epoch_switch",
            phase="begin",
            epoch=fabric.epoch + 1,
            groups=len(fabric.graph.groups()),
        )
        fence_ids = fabric.inject_epoch_fences(fabric.epoch + 1)
        stats["fences"] = len(fence_ids)
        _drain_fences(
            fabric, stats, drain_max_events, repair_attempts, repair_backoff
        )
    seed = seed if seed is not None else fabric._rng.randrange(2**31)

    new_snapshot = membership.snapshot()
    old_snapshot = {g: fabric.graph.members(g) for g in fabric.graph.groups()}
    graph = _derive_graph(
        fabric,
        new_snapshot,
        lazy,
        compact,
        stats,
        repair_attempts,
        repair_backoff,
    )
    changed = {
        g
        for g in new_snapshot
        if g in old_snapshot and old_snapshot[g] != new_snapshot[g]
    }

    next_fabric = OrderingFabric(
        membership,
        fabric.hosts,
        fabric.topology,
        fabric.routing,
        seed=seed,
        loss_rate=fabric.loss_rate,
        graph=graph,
        trace=fabric.trace.enabled,
        retransmit_timeout=fabric.retransmit_timeout,
        # The next epoch runs on a fresh backend of the same kind (for the
        # simulated backend this is exactly what the fabric would have
        # built itself, so fixed-seed runs are unchanged).
        runtime=fabric.runtime.successor(seed=seed, loss_rate=fabric.loss_rate),
    )
    if next_fabric.sim.events_executed:
        raise SimulationError("fresh fabric unexpectedly executed events")

    # --- carry sequence spaces forward ---------------------------------
    surviving_groups = {
        g for g in new_snapshot if g in old_snapshot and g not in changed
    }
    old_group_counters = {
        g: v
        for g, v in group_local_counters(fabric).items()
        if g in surviving_groups
    }
    old_atom_counters = atom_counters(fabric)

    for process in next_fabric.node_processes.values():
        for atom_id, runtime in process.atom_runtimes.items():
            if atom_id in old_atom_counters:
                runtime.seq_counter = old_atom_counters[atom_id]
    for group, value in old_group_counters.items():
        ingress = graph.ingress_atom(group)
        node = next_fabric.placement.node_of(ingress)
        runtime = next_fabric.node_processes[node.node_id].atom_runtimes[ingress]
        runtime.group_local_counters[group] = value

    # --- align receiver expectations ------------------------------------
    # After an online switch the carried counters include the fences (each
    # fence consumed the last number of its space), so "next" is correct
    # in both modes.
    group_next = {g: v + 1 for g, v in old_group_counters.items()}
    atom_next = {
        atom_id: value + 1
        for atom_id, value in old_atom_counters.items()
        if next_fabric.graph.is_active(atom_id)
    }
    for process in next_fabric.host_processes.values():
        process.delivery.resume_from(group_next, atom_next)

    # --- re-prove the new epoch before it goes live ----------------------
    if verify:
        from repro.check.graph_verify import verify_certificate

        cert_findings = verify_certificate(next_fabric.export_certificate())
        if cert_findings:
            raise ReconfigurationError(
                "next epoch failed its certificate proof: "
                + "; ".join(f"{f.code}: {f.message}" for f in cert_findings)
            )

    # --- continuity of identifiers ---------------------------------------
    next_fabric._next_msg_id = fabric._next_msg_id
    next_fabric.epoch = fabric.epoch + 1
    stats["cutover_at"] = fabric.sim.now
    if stats["online"]:
        fabric.trace.record(
            fabric.sim.now,
            "epoch_switch",
            phase="end",
            epoch=next_fabric.epoch,
            drain_events=stats["drain_events"],
        )
    fabric.epoch_switch_stats = stats
    # The old epoch's backend is done executing (quiescent, or drained to
    # its fences); release its resources — a no-op for the simulated
    # backend, pump-task teardown for the live one.
    fabric.close()
    return next_fabric
