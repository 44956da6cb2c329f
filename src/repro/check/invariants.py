"""One incremental checker for the paper's ordering guarantee.

Every member of a group delivers the group's messages in one order, and
that order holds across double overlaps (Section 3.1, Theorem 1).
:class:`OrderingChecker` checks that guarantee, and the delivery
properties around it, from publish events and deliveries ``(host, msg,
group, sender, time, group seq, stamp)`` fed one at a time.  Each rule is
one row of :data:`RULES`, which names its code in every family that
reports it: ``rt`` (:func:`verify_run` over a finished fabric), ``lm``
(:class:`repro.obs.live.LiveMonitor` over trace records, as alerts),
``mc`` (:func:`repro.check.explore.check_terminal` over model-checker
terminal states) and ``epoch`` (:mod:`repro.check.churn` over epoch
logs).

The stamp row is Theorem 1 in linear time: at each host every sequence
space — a group's ingress numbers and each overlap atom's numbers —
strictly increases, and every stamp carries a number from each active
atom of its group; two hosts can then only disagree on two messages if
one of them broke a space both were numbered in.  A ``bounded`` checker
(the live monitor's) drops a message's duplicate state once every member
delivered it and keeps no audit state.
"""

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple,
    Optional, Sequence, Set, Tuple,
)

from repro.check.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - keeps repro.check import-light
    from repro.core.protocol import OrderingFabric
    from repro.core.sequencing_graph import SequencingGraph

TOOL = "runtime-verify"

#: Stop recording verdicts for one rule after this many (chaos runs with a
#: real bug would otherwise drown the report in thousands of repeats).
MAX_FINDINGS_PER_CHECK = 25


@dataclass(frozen=True)
class Rule:
    """One ordering property and its code in each reporting family."""

    key: str
    rt: Optional[str]
    lm: Optional[str]
    mc: Optional[str]
    epoch: Optional[str]
    text: str


#: The rule table (docs/STATIC_ANALYSIS.md renders it).
RULES: Tuple[Rule, ...] = (
    Rule("order", "RT300", "LM300", "MC400", None,
         "members deliver each group's messages in one order"),
    Rule("duplicate", "RT301", "LM301", "MC401", "RT322", "no host delivers a message twice"),
    Rule("missing", "RT302", None, "MC402", None, "every message reaches every member"),
    Rule("residual", "RT303", None, "MC403", None, "no hold-back buffer holds messages at the end"),
    Rule("fifo", "RT304", "LM304", None, None,
         "a host delivers one publisher's messages to a group in order"),
    Rule("stamp", "RT305", None, "MC404", None,
         "every sequence space increases at each host; no stamp misses an atom of its group"),
    Rule("causal", "RT306", None, None, None,
         "what a publisher delivered before publishing comes first"),
    Rule("stable", "RT307", None, None, None, "a message learned stable reached every member"),
    Rule("group_seq", None, "LM302", "MC405", "RT320/RT324",
         "a member delivers its group's numbers without gap or repeat"),
)


class GroupSpace(NamedTuple):
    """The numbers every member of a group must deliver."""

    first: int
    #: the last number assigned, when known (members must reach it)
    last: Optional[int] = None
    #: a number an epoch fence consumed (never in a delivery log)
    fence: Optional[int] = None


#: Streaming verdict callback: (rule key, time, message, anchor).
Violation = Callable[[str, float, str, str], None]


def stamping_spaces(
    graph: "SequencingGraph", groups: Iterable[int]
) -> Dict[int, Tuple[str, ...]]:
    """Group -> the active overlap atoms (trace keys) that must stamp it."""
    return {
        group: tuple(repr(atom) for atom in graph.atoms_of_group(group))
        for group in groups
    }


class OrderingChecker:
    """Incremental checker for every row of :data:`RULES`.

    ``membership`` maps group -> members (replaceable between
    deliveries).  ``stamping`` maps group -> atoms its stamps must carry
    (see :func:`stamping_spaces`; ``None`` skips that half of the stamp
    row).  ``spaces`` declares the numbering of some groups; the others
    resynchronize on a first delivery and after every fence.
    ``on_violation`` hears every streaming verdict (order, duplicate,
    FIFO, stamp, group-seq) as it happens; the order row streams each
    member against the order the members ahead of it agreed, while
    final verdicts compare whole orders, independent of interleaving.
    """

    def __init__(
        self,
        membership: Mapping[int, FrozenSet[int]],
        stamping: Optional[Mapping[int, Sequence[str]]] = None,
        spaces: Optional[Mapping[int, GroupSpace]] = None,
        bounded: bool = False,
        on_violation: Optional[Violation] = None,
    ):
        self.membership = dict(membership)
        self.stamping = stamping
        self.spaces = dict(spaces or {})
        self.bounded = bounded
        self.on_violation = on_violation
        #: rule key -> streaming verdicts; "gap" holds group-seq gaps,
        #: which only complete runs forbid
        self._verdicts: Dict[str, List[Tuple[str, str]]] = {
            key: [] for key in [rule.key for rule in RULES] + ["gap"]
        }
        #: host -> messages delivered (bounded: still unconfirmed)
        self._seen: Dict[int, Set[int]] = {}
        #: msg -> deliveries counted toward full-group confirmation
        self._count: Dict[int, int] = {}
        #: (host, group) -> next expected group-local number
        self._next_seq: Dict[Tuple[int, int], Optional[int]] = {}
        #: (host, sender, group) -> last in-order msg id delivered
        self._fifo_last: Dict[Tuple[int, int, int], int] = {}
        #: host -> space (atom key, or group id) -> last number delivered
        self._last_stamp: Dict[int, Dict[object, int]] = {}
        #: group -> agreed order from position _base on; members at _base
        self._window: Dict[int, List[int]] = {}
        self._base: Dict[int, int] = {}
        self._at_base: Dict[int, int] = {}
        #: (group, host) -> deliveries of the group seen at the host
        self._ptr: Dict[Tuple[int, int], int] = {}
        #: audit state: msg -> (group, sender, publish time), and
        #: host -> (msg, group, delivery time) in delivery order
        self._published: Dict[int, Tuple[int, int, float]] = {}
        self._log: Dict[int, List[Tuple[int, int, float]]] = {}

    # -- input ---------------------------------------------------------------

    def publish(self, msg: int, group: int, sender: int, time: float) -> None:
        """Record a published application message (not a fence)."""
        if not self.bounded:
            self._published[msg] = (group, sender, time)

    def deliver(
        self,
        host: int,
        msg: int,
        group: int,
        sender: int,
        time: float,
        group_seq: Optional[int] = None,
        stamp: Optional[Sequence[Tuple[str, int]]] = None,
    ) -> bool:
        """Check one delivery; ``True`` once every member of ``group``
        delivered ``msg`` (the message is confirmed)."""
        if not self.bounded:
            self._log.setdefault(host, []).append((msg, group, time))
        seen = self._seen.get(host)
        if seen is None:
            seen = self._seen[host] = set()
        if msg in seen:
            self._fire("duplicate", time, f"host {host} delivered message "
                       f"{msg} again (group {group})", f"host {host}")
        else:
            seen.add(msg)
        self._check_group_seq(time, host, group, msg, group_seq)
        previous = self._fifo_last.get((host, sender, group), -1)
        if msg < previous:
            self._fire("fifo", time, f"host {host} delivered message {msg} "
                       f"after {previous} from the same publisher {sender} "
                       f"in group {group}", f"host {host}")
        else:
            self._fifo_last[(host, sender, group)] = msg
        if stamp is not None:
            self._check_stamp(time, host, msg, group, group_seq, stamp)
        members = self.membership.get(group)
        if not members:
            return False
        if self.on_violation is not None and host in members:
            self._check_order(self.on_violation, time, host, group, msg, members)
        count = self._count.get(msg, 0) + 1
        if count < len(members):
            self._count[msg] = count
            return False
        self._count.pop(msg, None)
        if self.bounded:
            for member in members:
                self._seen.get(member, set()).discard(msg)
        return True

    def consume_fence(
        self, host: int, group: int, msg: int, group_seq: Optional[int],
        time: float,
    ) -> None:
        """A host consumed an epoch fence: it used a group-local number,
        after which the space may restart with the next epoch."""
        self._check_group_seq(time, host, group, msg, group_seq)
        self._next_seq[(host, group)] = None

    # -- streaming rows ----------------------------------------------------

    def _fire(
        self, key: str, time: float, message: str, anchor: str,
        store: Optional[str] = None,
    ) -> None:
        found = self._verdicts[store or key]
        if len(found) < MAX_FINDINGS_PER_CHECK:
            found.append((message, anchor))
        if self.on_violation is not None:
            self.on_violation(key, time, message, anchor)

    def _expected_seq(self, host: int, group: int) -> Optional[int]:
        space = self.spaces.get(group) if self.spaces else None
        expected = self._next_seq.get(
            (host, group), space.first if space is not None else None
        )
        if space is not None and expected is not None and expected == space.fence:
            expected += 1
        return expected

    def _check_group_seq(
        self, time: float, host: int, group: int, msg: int,
        group_seq: Optional[int],
    ) -> None:
        if group_seq is None:
            # Unknown number (e.g. a trace attached mid-run): resynchronize.
            self._next_seq[(host, group)] = None
            return
        expected = self._expected_seq(host, group)
        if expected is not None and group_seq != expected:
            gap = group_seq > expected
            self._fire(
                "group_seq", time,
                f"host {host} {'skipped' if gap else 'repeated'} group "
                f"{group} sequence numbers: delivered #{group_seq} where "
                f"#{expected} was next (message {msg})",
                f"host {host}",
                store="gap" if gap else None,
            )
        self._next_seq[(host, group)] = group_seq + 1

    def _check_stamp(
        self, time: float, host: int, msg: int, group: int,
        group_seq: Optional[int], stamp: Sequence[Tuple[str, int]],
    ) -> None:
        required = self.stamping.get(group) if self.stamping else None
        if required:
            carried = {key for key, _seq in stamp}
            for key in required:
                if key not in carried:
                    self._fire("stamp", time, f"host {host} delivered message "
                               f"{msg} (group {group}) whose stamp carries no "
                               f"sequence number from atom {key}", f"host {host}")
        last = self._last_stamp.get(host)
        if last is None:
            last = self._last_stamp[host] = {}
        # A group's own space is keyed by its id, an atom's by its name.
        entries = stamp if group_seq is None else [*stamp, (group, group_seq)]
        for key, seq in entries:
            previous = last.get(key)
            if previous is not None and seq <= previous:
                space = f"group:{key}" if isinstance(key, int) else key
                self._fire("stamp", time, f"host {host} delivered message "
                           f"{msg} carrying {space} #{seq} after #{previous}: "
                           "that space's order regressed", f"host {host}")
            last[key] = seq

    def _check_order(
        self, notify: Violation, time: float, host: int, group: int,
        msg: int, members: FrozenSet[int],
    ) -> None:
        window = self._window.get(group)
        if window is None:
            window = self._window[group] = []
            self._base[group] = 0
            self._at_base[group] = len(members)
        base = self._base[group]
        position = self._ptr.get((group, host), 0)
        index = position - base
        if index == len(window):
            window.append(msg)  # this member extends the agreed order
        elif 0 <= index < len(window) and window[index] != msg:
            notify("order", time, f"host {host} delivered message {msg} at "
                   f"group {group} position {position} where the agreed "
                   f"order has {window[index]}", f"group {group}")
        self._ptr[(group, host)] = position + 1
        if position != base:
            return
        self._at_base[group] -= 1
        if self._at_base[group] > 0:
            return
        # The last member at the window's start moved on: trim the prefix
        # every member has passed (it is never compared again).
        positions = [self._ptr.get((group, member), 0) for member in members]
        slowest = min(positions)
        self._at_base[group] = positions.count(slowest)
        if slowest > base:
            del window[: slowest - base]
            self._base[group] = slowest

    # -- final verdicts ------------------------------------------------------

    def verdicts(
        self,
        complete: bool = True,
        causal: bool = True,
        pending: Optional[Mapping[int, int]] = None,
        stable: Optional[Mapping[int, Iterable[int]]] = None,
    ) -> Dict[str, List[Tuple[str, str]]]:
        """Rule key -> capped ``(message, anchor)`` verdicts.

        ``complete`` forbids missing deliveries (and requires declared
        spaces in full); ``causal`` checks publish-after-deliver order;
        ``pending`` is each host's final hold-back depth; ``stable`` the
        ids each host learned stable (``None``: stability not tracked).
        """
        if self.bounded:
            raise RuntimeError("a bounded checker keeps no audit state")
        out = {rule.key: list(self._verdicts[rule.key]) for rule in RULES}

        def add(key: str, message: str, anchor: str) -> None:
            if len(out[key]) < MAX_FINDINGS_PER_CHECK:
                out[key].append((message, anchor))

        self._order_verdicts(complete, add)
        if complete:
            for message, anchor in self._verdicts["gap"]:
                add("group_seq", message, anchor)
            for msg, (group, _sender, _time) in sorted(self._published.items()):
                missing = self._missing_at(msg, group)
                if missing:
                    add("missing", f"message {msg} (group {group}) never "
                        f"delivered at members {missing}", f"msg {msg}")
            for group, space in sorted(self.spaces.items()):
                last = space.last
                for member in sorted(self.membership.get(group, ())):
                    expected = self._expected_seq(member, group)
                    if last is not None and expected is not None and expected <= last:
                        add("group_seq", f"host {member} stopped before group "
                            f"{group} sequence number #{expected}; the space "
                            f"ran to #{last}", f"group {group}")
        for host, depth in sorted((pending or {}).items()):
            add("residual", f"host {host} still buffers {depth} undeliverable "
                "message(s): a sequencing gap survived the run", f"host {host}")
        if causal:
            self._causal_verdicts(add)
        for host, ids in sorted((stable or {}).items()):
            for msg in sorted(ids):
                if msg in self._published:
                    missing = self._missing_at(msg, self._published[msg][0])
                    if missing:
                        add("stable", f"host {host} learned message {msg} "
                            f"stable but members {missing} never delivered "
                            "it", f"msg {msg}")
        return out

    def _missing_at(self, msg: int, group: int) -> List[int]:
        return [
            member
            for member in sorted(self.membership.get(group, ()))
            if msg not in self._seen.get(member, ())
        ]

    def _order_verdicts(
        self, complete: bool, add: Callable[[str, str, str], None]
    ) -> None:
        """Every member's order of a group equals the lowest member's
        (without ``complete``, over the messages all members delivered)."""
        orders: Dict[Tuple[int, int], List[int]] = {}
        for host, log in self._log.items():
            for msg, group, _time in log:
                orders.setdefault((group, host), []).append(msg)
        for group, members in sorted(self.membership.items()):
            hosts = sorted(members)
            seqs = [orders.get((group, host), []) for host in hosts]
            if not complete and seqs:
                common = set(seqs[0]).intersection(*seqs[1:])
                seqs = [[m for m in seq if m in common] for seq in seqs]
            for host, seq in zip(hosts[1:], seqs[1:]):
                if seq != seqs[0]:
                    add("order", f"hosts {hosts[0]} and {host} delivered group "
                        f"{group} in different orders ({seqs[0][:8]}... vs "
                        f"{seq[:8]}...)", f"group {group}")

    def _causal_verdicts(self, add: Callable[[str, str, str], None]) -> None:
        """What a publisher delivered strictly before publishing ``m`` must
        precede ``m`` wherever both are delivered (deliveries at the
        publish instant are not observably ordered, so they are skipped)."""
        positions = {
            host: {msg: index for index, (msg, _g, _t) in enumerate(log)}
            for host, log in sorted(self._log.items())
        }
        for msg, (_group, sender, published) in sorted(self._published.items()):
            deps = [d for d, _g, t in self._log.get(sender, ()) if t < published]
            for host, pos in positions.items():
                if msg not in pos:
                    continue
                for dep in deps:
                    if pos.get(dep, -1) > pos[msg]:
                        add("causal", f"host {host} delivered {msg} before its "
                            f"causal dependency {dep} (publisher {sender} "
                            f"delivered {dep} before publishing {msg})",
                            f"host {host}")

    def findings(
        self,
        family: str = "rt",
        complete: bool = True,
        causal: bool = True,
        pending: Optional[Mapping[int, int]] = None,
        stable: Optional[Mapping[int, Iterable[int]]] = None,
        tool: str = TOOL,
    ) -> List[Finding]:
        """The verdicts under one family's codes, in table order (rows
        without a code in ``family`` are not reported)."""
        verdicts = self.verdicts(complete, causal, pending, stable)
        return [
            Finding(code=code, message=message, anchor=anchor, tool=tool)
            for rule in RULES
            for code in [getattr(rule, family)]
            if code is not None
            for message, anchor in verdicts[rule.key]
        ]


def fabric_checker(
    fabric: "OrderingFabric",
    spaces: Optional[Mapping[int, GroupSpace]] = None,
) -> OrderingChecker:
    """A checker fed a finished fabric's publications and delivery logs."""
    membership = {
        group: frozenset(fabric.membership.members(group))
        for group in fabric.membership.groups()
    }
    checker = OrderingChecker(
        membership, stamping_spaces(fabric.graph, membership), spaces
    )
    for msg, message in sorted(fabric.published.items()):
        checker.publish(msg, message.group, message.sender, message.publish_time)
    # A message's receivers usually share one stamp object: name its atoms
    # once per object, not per delivery, and each atom once (every stamp
    # and atom stays alive here, so no id is reused).
    names: Dict[int, str] = {}
    named: Dict[int, List[Tuple[str, int]]] = {}
    for host, process in sorted(fabric.host_processes.items()):
        for record in process.delivered:
            stamp = record.stamp
            entries = named.get(id(stamp))
            if entries is None:
                entries = named[id(stamp)] = [
                    (names.get(id(atom)) or names.setdefault(id(atom), repr(atom)), seq)
                    for atom, seq in stamp.atom_seqs
                ]
            checker.deliver(
                host, record.msg_id, stamp.group, record.sender, record.time,
                stamp.group_seq, entries,
            )
    return checker


def verify_run(
    fabric: "OrderingFabric", complete: bool = True, causal: bool = True
) -> List[Finding]:
    """Audit a finished run: its RT30x findings, deterministic in order.

    ``complete`` also requires every published message at every member —
    disable it for runs that intentionally abandon traffic.  ``causal``
    checks RT306, valid when publishers subscribe to the groups they
    publish to.
    """
    stable: Optional[Dict[int, Set[int]]] = None
    if fabric.track_stability:
        stable = {h: p.stable_ids for h, p in fabric.host_processes.items()}
    return fabric_checker(fabric).findings(
        "rt", complete, causal, fabric.pending_messages(), stable
    )
