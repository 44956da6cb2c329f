"""The serve_tcp workload: `repro serve` under an open-loop Poisson load.

The server runs in its own process with ``--time-scale 1e-7`` (link
delays shrink to microseconds, so the service runs as fast as it can).
One client with two connections subscribes a fixed Zipf membership,
then writes the seed's publishes at their *due* times without waiting for acks,
and finally drains and reads every subscriber's delivery log.

* Latency is measured from each publish's due time to each subscriber's
  ``delivered`` record.  A record's ``time`` is the server's live clock
  in virtual ms; :func:`client_time` maps it to the client's monotonic
  clock through a ``health`` handshake, which works because both
  processes read the host's one monotonic clock.  Publish acks return
  before ordering and are never used for latency.
* ``msgs_per_s`` is messages delivered to every subscriber per
  calibrated second of *server CPU*: at a fixed offered load below
  saturation the delivered rate equals the offered rate, so wall
  throughput would not move until the server saturates.
"""

import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from calib import KernelSampler, percentile
import spans
from repro.workloads.zipf import zipf_membership

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

HOSTS = 32
GROUPS = 16
#: offered load (publishes per second); saturation at this size lies
#: between 1,000 and 1,500 msgs/s
RATE = 500.0
TIME_SCALE = 1e-7
#: the server's own seed and the membership's: the deployment is fixed,
#: and the workload seed draws the traffic
DEPLOYMENT_SEED = 0
#: identical server set-ups per run (process start, subscribe, build)
SETUPS = 5
#: client read limit; one host's delivery log is far above asyncio's 64 KiB
LINE_LIMIT = 1 << 26
#: the CPU and the kernel are sampled this often during the load
WINDOW_S = 0.25
#: shortest load: 2,500 publishes give the >=10,000 deliveries a p999 needs
MIN_LOAD_S = 5.0
#: the publish connection's write buffer is flushed past this size
FLUSH_BYTES = 1 << 16


def topic(group: int) -> str:
    return f"topic/{group}"


def make_inputs(seed: int, seconds: float) -> Tuple[Dict[int, frozenset], List[Tuple[float, int, int]]]:
    """The fixed membership and the seed's (offset s, sender, group) schedule."""
    snapshot = zipf_membership(HOSTS, GROUPS, rng=random.Random(DEPLOYMENT_SEED + 1))
    rng = random.Random(seed)
    groups = sorted(snapshot)
    members = {g: sorted(snapshot[g]) for g in groups}
    schedule = []
    at = rng.expovariate(RATE)
    while at < seconds:
        group = groups[rng.randrange(len(groups))]
        schedule.append((at, members[group][rng.randrange(len(members[group]))], group))
        at += rng.expovariate(RATE)
    return snapshot, schedule


def client_time(record_vms: float, now_vms: float, mid: float, time_scale: float) -> float:
    """Client monotonic seconds at which the server's clock read ``record_vms``.

    ``now_vms`` is the server clock read by a ``health`` request sent at
    client time ``t0`` and answered by ``t1``; ``mid`` is ``(t0+t1)/2``.
    """
    return mid + (record_vms - now_vms) * time_scale


def server_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def server_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """One `repro serve` process; :meth:`close` always reaps it."""

    def __init__(self, spans_out: Optional[str] = None):
        args = ["serve", "--hosts", str(HOSTS), "--seed", str(DEPLOYMENT_SEED),
                "--time-scale", str(TIME_SCALE), "--port", "0"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_server.py"), spans_out, *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()  # "repro serve: listening on HOST:PORT (...)"
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def close(self, grace: float = 0.0) -> None:
        """Wait ``grace`` seconds for the process to exit, then stop it."""
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=LINE_LIMIT)
        return cls(reader, writer)

    async def call(self, req: Dict[str, Any]) -> Dict[str, Any]:
        self.writer.write(json.dumps(req).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def handshake(ctl: Connection) -> Tuple[float, float]:
    """(server clock in virtual ms, client monotonic midpoint) of the tightest of 5."""
    best = None
    for _ in range(5):
        t0 = monotonic()
        resp = await ctl.call({"op": "health"})
        t1 = monotonic()
        if best is None or t1 - t0 < best[0]:
            best = (t1 - t0, resp["now"], (t0 + t1) / 2)
    assert best is not None
    return best[1], best[2]


async def subscribe_all(ctl: Connection, snapshot: Dict[int, frozenset]) -> Dict[int, int]:
    """Subscribe the membership and build the fabric; returns group -> server group id."""
    ids = {}
    for group in sorted(snapshot):
        for host in sorted(snapshot[group]):
            resp = await ctl.call({"op": "subscribe", "host": host, "topic": topic(group)})
            if not resp.get("ok"):
                raise RuntimeError(f"subscribe failed: {resp}")
            ids[group] = resp["group"]
    resp = await ctl.call({"op": "check"})  # builds the fabric and re-proves C1/C2
    if not resp.get("ok"):
        raise RuntimeError(f"graph check failed: {resp}")
    # A hosted live fabric starts its per-process pump tasks on the first
    # drain only; before that, published packets wait in the inboxes.
    resp = await ctl.call({"op": "drain"})
    if not resp.get("ok"):
        raise RuntimeError(f"drain failed: {resp}")
    return ids


async def setup_server(
    snapshot: Dict[int, frozenset], sampler: KernelSampler, spans_out: Optional[str] = None
) -> Tuple[Server, Connection, Dict[int, int], float]:
    """Start a server and subscribe; also returns group ids and calibrated set-up time."""
    start = perf_counter()
    server = Server(spans_out)
    try:
        ctl = await Connection.open(server.port)
        ids = await subscribe_all(ctl, snapshot)
    except BaseException:
        server.close()
        raise
    end = perf_counter()
    return server, ctl, ids, sampler.calibrated(end - start, start, end)


async def drive(server: Server, ctl: Connection, schedule: Sequence[Tuple[float, int, int]]) -> Dict[str, Any]:
    """Publish on schedule, drain, and collect every delivery log."""
    pub = await Connection.open(server.port)
    now_vms, mid = await handshake(ctl)
    acks: List[Dict[str, Any]] = []

    async def read_acks() -> None:
        for _ in schedule:
            line = await pub.reader.readline()
            if not line:
                raise ConnectionError("service closed the publish connection")
            acks.append(json.loads(line))

    windows: List[Tuple[float, float, float]] = []  # (server cpu s, from, to)
    late: List[float] = []
    dues: List[float] = []
    ack_task = asyncio.ensure_future(read_acks())
    cpu_mark = server_cpu_s(server.proc.pid)
    mark = perf_counter()
    base = monotonic() + 0.05
    next_window = base + WINDOW_S
    for offset, sender, group in schedule:
        due = base + offset
        while True:
            now = monotonic()
            if now >= next_window:
                cpu = server_cpu_s(server.proc.pid)
                windows.append((cpu - cpu_mark, mark, perf_counter()))
                cpu_mark, mark = cpu, perf_counter()
                next_window += WINDOW_S
                continue
            if now >= due:
                break
            await asyncio.sleep(min(due, next_window) - now)
        late.append(monotonic() - due)
        dues.append(due)
        pub.writer.write(json.dumps(
            {"op": "publish", "sender": sender, "topic": topic(group)}).encode() + b"\n")
        if pub.writer.transport.get_write_buffer_size() > FLUSH_BYTES:
            await pub.writer.drain()
    await pub.writer.drain()
    await asyncio.wait_for(ack_task, timeout=60)
    drained = await ctl.call({"op": "drain", "timeout": 60})
    cpu = server_cpu_s(server.proc.pid)
    windows.append((cpu - cpu_mark, mark, perf_counter()))
    now_after, mid_after = await handshake(ctl)
    logs = {}
    for host in range(HOSTS):
        resp = await ctl.call({"op": "delivered", "host": host})
        logs[host] = resp.get("records", []) if resp.get("ok") else None
    rss = server_hwm_mb(server.proc.pid)
    await pub.close()
    return {
        "acks": acks, "dues": dues, "late": late, "windows": windows,
        "drained": drained, "logs": logs, "rss_mb": rss,
        "clock": (now_vms, mid), "clock_after": (now_after, mid_after),
    }


def check(result: Dict[str, Any], snapshot: Dict[int, frozenset], ids: Dict[int, int],
          schedule: Sequence[Tuple[float, int, int]]) -> Tuple[int, int, int, List[float]]:
    """Audit one load: (attempted, failed, complete messages, latencies in ms)."""
    failed = sum(1 for ack in result["acks"] if not ack.get("ok"))
    failed += 0 if result["drained"].get("ok") else 1
    due_of = {}
    group_of = {}
    for ack, due, (_, _, group) in zip(result["acks"], result["dues"], schedule):
        if ack.get("ok"):
            due_of[ack["msg_id"]] = due
            group_of[ack["msg_id"]] = ids[group]
    now_vms, mid = result["clock"]
    now_after, mid_after = result["clock_after"]
    drift = abs((mid_after - now_after * TIME_SCALE) - (mid - now_vms * TIME_SCALE))
    if drift > 0.005:  # both handshakes must see the same server clock
        failed += 1
    expected = {ids[g]: set(m) for g, m in snapshot.items()}
    attempted = len(schedule) + sum(len(expected[g]) for g in group_of.values())
    received: Dict[int, int] = {}
    latencies = []
    for host, records in result["logs"].items():
        if records is None:
            failed += 1
            continue
        seen = set()
        for rec in records:
            msg = rec["msg_id"]
            if msg in seen or msg not in due_of or host not in expected[rec["group"]]:
                failed += 1
                continue
            seen.add(msg)
            received[msg] = received.get(msg, 0) + 1
            delivered_at = client_time(rec["time"], now_vms, mid, TIME_SCALE)
            latencies.append((delivered_at - due_of[msg]) * 1000.0)
    complete = 0
    for msg, group in group_of.items():
        got = received.get(msg, 0)
        failed += len(expected[group]) - got
        complete += got == len(expected[group])
    failed += order_disagreements(result["logs"])  # implies one order per group
    latencies.sort()
    return attempted, failed, complete, latencies


def order_disagreements(logs: Dict[int, Optional[List[Dict[str, Any]]]]) -> int:
    """Host pairs whose common messages were delivered in different orders."""
    sequences = {h: [r["msg_id"] for r in recs] for h, recs in logs.items() if recs}
    hosts = sorted(sequences)
    bad = 0
    for i, a in enumerate(hosts):
        set_a = set(sequences[a])
        for b in hosts[i + 1:]:
            common = set_a.intersection(sequences[b])
            if [m for m in sequences[a] if m in common] != [m for m in sequences[b] if m in common]:
                bad += 1
    return bad


async def _shutdown(server: Server, ctl: Connection) -> None:
    try:
        await ctl.call({"op": "shutdown"})
        await ctl.close()
        server.close(grace=60)
    finally:
        server.close()


async def _load(
    snapshot: Dict[int, frozenset],
    schedule: Sequence[Tuple[float, int, int]],
    sampler: KernelSampler,
    setups: int,
    spans_out: Optional[str] = None,
) -> Tuple[Dict[str, Any], List[float], Dict[int, int]]:
    """Set a server up ``setups`` times, then load, drain and read the last one."""
    times = []
    for index in range(setups):
        server, ctl, ids, setup_s = await setup_server(
            snapshot, sampler, spans_out if index == setups - 1 else None
        )
        times.append(setup_s)
        if index < setups - 1:
            await _shutdown(server, ctl)
    try:
        result = await drive(server, ctl, schedule)
    finally:
        await _shutdown(server, ctl)
    result["calibrated_cpu_s"] = sum(
        sampler.calibrated(cpu, start, end) for cpu, start, end in result["windows"]
    )
    result["cpu_s"] = sum(cpu for cpu, _, _ in result["windows"])
    return result, times, ids


async def _run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    snapshot, schedule = make_inputs(seed, max(seconds, MIN_LOAD_S))
    with KernelSampler() as sampler:
        result, setups, ids = await _load(snapshot, schedule, sampler, 1 if trace else SETUPS)
        attempted, failed, complete, latencies = check(result, snapshot, ids, schedule)
        if not trace:
            return {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    "setup_s": statistics.median(setups),
                    "msgs_per_s": complete / result["calibrated_cpu_s"],
                    "peak_rss_mb": result["rss_mb"],
                },
            }
        os.makedirs(OUT_DIR, exist_ok=True)
        out = os.path.join(OUT_DIR, f"serve_tcp-{seed}")
        traced, _, ids = await _load(snapshot, schedule, sampler, 1, spans_out=out)
    t_attempted, t_failed, t_complete, _ = check(traced, snapshot, ids, schedule)
    with open(out + ".json") as handle:
        layers = json.load(handle)
    late = sorted(result["late"])
    extra = {
        "routing.dijkstra_runs": layers["dijkstra_runs"],
        "link.retransmits": layers["retransmits"],
        "link.useful_retx_frac": 0.0,
        "faults.detect_vms": 0.0,
        "live.alerts": layers["alerts"],
        "gen.late_p99_ms": percentile(late, 99.0) * 1000.0,
        "bench.residual_frac": (layers["cpu_s"] - layers["covered_s"]) / layers["cpu_s"],
        "bench.trace_overhead": (traced["cpu_s"] / max(t_complete, 1))
        / (result["cpu_s"] / max(complete, 1)),
    }
    extra.update(spans.latency_metrics(latencies))
    return {
        "correct": failed == 0 and t_failed == 0,
        "attempted": attempted + t_attempted,
        "failed": failed + t_failed,
        "metrics": spans.layer_metrics(layers["self_s"], layers["counts"], layers["maxima"], extra),
    }


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    return asyncio.run(_run(seed, seconds, trace))
