"""The simulator workloads: fig3_paper, burst_holdback and churn_faults.

Each workload is a *pass*: a deterministic function of the seed that
builds its fabrics (set-up), drives them (the timed phase) and audits
them (outside the timed phase).  A run repeats the same pass until its
time is up, and every pass must reproduce the first pass's counts and
latencies exactly.  The program only ever sees the generated inputs.
"""

import contextlib
import gc
import hashlib
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from calib import CalibratedClock, median_kernel, percentile, timed_stretch
from repro.check.invariants import verify_run
from repro.experiments.common import ExperimentEnv
from repro.faults import churn as churn_mod
from repro.faults.plan import DelaySpike, FaultPlan
from repro.sim.events import Simulator
from repro.workloads.zipf import zipf_membership

#: seed of the fixed deployment -- topology, and for fig3_paper and
#: burst_holdback also membership and placement -- so that the workload
#: seed varies the traffic and not the distances or group sizes
DEPLOYMENT_SEED = 0


@dataclass
class PassResult:
    """What one pass measured, and the deterministic counts it produced."""

    #: published messages delivered to every member
    messages: int
    #: calibrated and raw seconds of the timed phase
    timed_s: float
    wall_s: float
    #: calibrated set-up seconds (median of the pass's identical builds)
    setup_s: float
    #: publish-to-delivery latency per (message, receiver), virtual ms
    latencies: List[float]
    #: expected (message, member) deliveries, and those that failed
    attempted: int
    failed: int
    #: counts that must repeat exactly for the same seed
    counts: Dict[str, Any]
    #: every kernel reading taken during the pass (set-up and timed)
    kernel_times: List[float] = field(repr=False, default_factory=list)


@contextlib.contextmanager
def stepping(hook: Callable[[], None]) -> Iterator[None]:
    """Call ``hook`` before every simulator event (slices the timed phase)."""
    original = Simulator.__dict__["step"]

    def step(sim: Simulator) -> bool:
        hook()
        return original(sim)

    Simulator.step = step  # type: ignore[method-assign]
    try:
        yield
    finally:
        Simulator.step = original  # type: ignore[method-assign]


class Tally:
    """Audits fabrics as they finish, so a pass never holds them all."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.complete = self.findings = 0
        self.latencies: List[float] = []
        self.digest = hashlib.sha256()
        self.fabrics = 0
        self.counts: Dict[str, Any] = dict.fromkeys(
            ("events", "published", "network.sends", "network.drops",
             "link.retransmits", "delivery.holdback_max"), 0)

    def add(self, fabrics: Sequence[Any], findings: int) -> None:
        """Count the deliveries of finished fabrics against what they owed."""
        self.findings += findings
        counts = self.counts
        for fabric in fabrics:
            received: Dict[int, int] = {}
            for host in sorted(fabric.host_processes):
                ids = []
                for record in fabric.delivered(host):
                    ids.append(record.msg_id)
                    self.latencies.append(record.time - record.publish_time)
                    received[record.msg_id] = received.get(record.msg_id, 0) + 1
                self.digest.update(f"{self.fabrics}:{host}:{ids};".encode())
                self.failed += len(ids) - len(set(ids))
            for msg_id, message in fabric.published.items():
                members = len(fabric.graph.members(message.group))
                self.attempted += members
                got = received.get(msg_id, 0)
                self.complete += got == members
                self.failed += abs(members - got)
            self.fabrics += 1
            counts["events"] += fabric.sim.events_executed
            counts["published"] += len(fabric.published)
            counts["network.sends"] += fabric.network.total_sends()
            counts["network.drops"] += fabric.network.total_drops()
            counts["link.retransmits"] += fabric.retransmissions
            counts["delivery.holdback_max"] = max(
                [counts["delivery.holdback_max"]]
                + [p.delivery.buffered_high_water for p in fabric.host_processes.values()]
            )

    def result(
        self,
        setup: CalibratedClock,
        timed: CalibratedClock,
        setups: List[float],
        extra: Dict[str, Any],
    ) -> PassResult:
        latencies = sorted(self.latencies)
        counts = dict(self.counts)
        counts.update(
            deliveries=len(latencies),
            latency=[percentile(latencies, q) for q in (50.0, 99.0, 99.9)],
            findings=self.findings,
            digest=self.digest.hexdigest(),
        )
        counts.update(extra)
        return PassResult(
            messages=self.complete,
            timed_s=timed.calibrated,
            wall_s=timed.wall,
            setup_s=statistics.median(setups),
            latencies=latencies,
            attempted=self.attempted,
            failed=min(self.attempted, self.failed + self.findings),
            counts=counts,
            kernel_times=setup.kernel_times + timed.kernel_times,
        )


# ---------------------------------------------------------------------------
# fig3_paper
# ---------------------------------------------------------------------------

FIG3_HOSTS = 128
FIG3_GROUP_COUNTS = (8, 16, 32, 64)


def fig3_paper(seed: int) -> PassResult:
    """The paper's Figure 3 run: every member publishes once to each group.

    Each message runs to quiescence before the next, as in the paper.
    The deployment (topology, Zipf membership, graph and placement) is
    fixed; the seed orders the publishes.
    """
    setup = CalibratedClock(reference=median_kernel)
    env = timed_stretch(
        lambda: ExperimentEnv(n_hosts=FIG3_HOSTS, seed=DEPLOYMENT_SEED, paper_scale=True),
        setup,
    )
    fabrics = []
    for groups in FIG3_GROUP_COUNTS:
        snapshot = zipf_membership(
            FIG3_HOSTS, groups, rng=random.Random(DEPLOYMENT_SEED * 1009 + groups)
        )
        fabrics.append(timed_stretch(
            lambda: env.build_fabric(
                env.membership_from(snapshot), seed=DEPLOYMENT_SEED, trace=False
            ),
            setup,
        ))
    rng = random.Random(seed)
    orders = []
    for fabric in fabrics:
        sends = [
            (member, group)
            for group in fabric.membership.groups()
            for member in sorted(fabric.membership.members(group))
        ]
        rng.shuffle(sends)
        orders.append(sends)
    timed = CalibratedClock()
    gc.collect()
    with stepping(timed.tick):
        for fabric, sends in zip(fabrics, orders):
            timed.start()
            for member, group in sends:
                fabric.publish(member, group)
                fabric.run()
            timed.stop()
    tally = Tally()
    tally.add(fabrics, sum(len(verify_run(f, complete=True)) for f in fabrics))
    return tally.result(setup, timed, [setup.calibrated], {})


# ---------------------------------------------------------------------------
# burst_holdback
# ---------------------------------------------------------------------------

BURST_HOSTS = 64
BURST_GROUPS = 32
BURST_MESSAGES = 6000
#: publishes per virtual millisecond (open loop, Poisson)
BURST_RATE = 4.0
BURST_SLOW_HOSTS = 8
BURST_SPIKE = dict(factor=100.0, duration=300.0)
#: identical builds timed per pass (one build is ~10 ms)
BURST_SETUPS = 9


def _burst_inputs(seed: int) -> Tuple[Dict[int, frozenset], List[Tuple[float, int, int]], List[int]]:
    """Membership, the (time, sender, group) schedule, and the slow hosts.

    The deployment -- membership and slow hosts -- is fixed, so the
    hold-back depth it allows does not change from seed to seed; the seed
    draws the traffic.  Slow hosts are the most-subscribed hosts and
    never publish, so their only channels carry distribution traffic,
    where any arrival order is legal and the hold-back buffer has to
    restore the order.
    """
    snapshot = zipf_membership(
        BURST_HOSTS, BURST_GROUPS, rng=random.Random(DEPLOYMENT_SEED + 1)
    )
    subscriptions = {host: 0 for host in range(BURST_HOSTS)}
    for members in snapshot.values():
        for host in members:
            subscriptions[host] += 1
    slow = sorted(sorted(subscriptions, key=lambda h: (-subscriptions[h], h))[:BURST_SLOW_HOSTS])
    senders = {
        group: sorted(set(members) - set(slow)) for group, members in snapshot.items()
    }
    groups = [group for group in sorted(snapshot) if senders[group]]
    rng = random.Random(seed)
    schedule = []
    now = 0.0
    for _ in range(BURST_MESSAGES):
        now += rng.expovariate(BURST_RATE)
        group = groups[rng.randrange(len(groups))]
        schedule.append((now, senders[group][rng.randrange(len(senders[group]))], group))
    return snapshot, schedule, slow


def burst_holdback(seed: int) -> PassResult:
    """Open-loop Poisson publishes while slow receivers' links spike."""
    snapshot, schedule, slow = _burst_inputs(seed)
    horizon = schedule[-1][0]
    setup = CalibratedClock(reference=median_kernel)
    setups = []
    for _ in range(BURST_SETUPS):
        before = setup.calibrated
        env = timed_stretch(lambda: ExperimentEnv(n_hosts=BURST_HOSTS, seed=DEPLOYMENT_SEED), setup)
        fabric = timed_stretch(
            lambda: env.build_fabric(
                env.membership_from(snapshot), seed=DEPLOYMENT_SEED, trace=False
            ),
            setup,
        )
        setups.append(setup.calibrated - before)
    plan = FaultPlan()
    for index, host in enumerate(slow):
        at = horizon * (0.15 + 0.6 * index / len(slow))
        plan.add(DelaySpike(at=at, name=("host", host), **BURST_SPIKE))
    plan.apply(fabric)
    timed = CalibratedClock()
    gc.collect()
    with stepping(timed.tick):
        timed.start()
        for at, sender, group in schedule:
            fabric.run(until=at)
            fabric.publish(sender, group)
        fabric.run()
        timed.stop()
    tally = Tally()
    tally.add([fabric], len(verify_run(fabric, complete=True)))
    return tally.result(setup, timed, setups, {})


# ---------------------------------------------------------------------------
# churn_faults
# ---------------------------------------------------------------------------

#: one campaign: the campaign's default fault and loss knobs, scaled up
CHURN_CONFIG = dict(hosts=24, groups=8, events=300, churn_events=40, switches=3)
#: campaigns per pass, each on its own derived seed: a campaign builds
#: its own topology, and one campaign's work per message varies by ~12%
#: with it, so the pass pools enough campaigns to be steady
CHURN_CAMPAIGNS = 24
_AUDITS = ("verify_run", "collect_epoch_log", "verify_churn")


@contextlib.contextmanager
def audits_paused(clock: CalibratedClock) -> Iterator[None]:
    """Keep the campaign's own audit calls out of the timed phase."""
    originals = {name: getattr(churn_mod, name) for name in _AUDITS}

    def paused(fn: Callable) -> Callable:
        def call(*args: Any, **kwargs: Any) -> Any:
            clock.stop()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.start()
        return call

    for name, fn in originals.items():
        setattr(churn_mod, name, paused(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(churn_mod, name, fn)


def churn_faults(seed: int) -> PassResult:
    """Churn campaigns: loss, crashes, failover and online epoch switches.

    A campaign builds its own substrate; its set-up is the stretch from
    the call to the first simulator event.
    """
    setup = CalibratedClock(reference=median_kernel)
    timed = CalibratedClock()
    setups: List[float] = []
    tally = Tally()
    digests = []
    state = {"first": True}

    def hook() -> None:
        if state["first"]:
            state["first"] = False
            setup.stop()
            timed.start()
        timed.tick()

    with stepping(hook), audits_paused(timed):
        for index in range(CHURN_CAMPAIGNS):
            config = churn_mod.ChurnConfig(seed=seed * 100 + index, **CHURN_CONFIG)
            gc.collect()
            before = setup.calibrated
            state["first"] = True
            setup.start()
            run = churn_mod.execute_churn_campaign(config)
            timed.stop()
            setups.append(setup.calibrated - before)
            tally.add(run.fabrics, len(run.report["findings"]))
            digests.append(run.report["delivery_digest"])
            del run
    return tally.result(setup, timed, setups, {"delivery_digests": digests})


WORKLOADS: Dict[str, Callable[[int], PassResult]] = {
    "fig3_paper": fig3_paper,
    "burst_holdback": burst_holdback,
    "churn_faults": churn_faults,
}
