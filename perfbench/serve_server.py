"""`repro serve` with layer spans, for the serve_tcp traced run.

    python3 perfbench/serve_server.py OUT serve --hosts 32 ...

Installs the span wrappers of :mod:`spans`, runs the ``repro`` command
line with the remaining arguments, and when the server shuts down writes
``OUT.json`` (self times, counters, CPU seconds) and ``OUT.spans.gz``.
"""

import json
import os
import sys
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import spans  # noqa: E402


def main(out: str, argv: list) -> int:
    rec = spans.SpanRecorder()
    spans.install(rec)
    from repro.cli import main as repro_main

    cpu_start = process_time()
    try:
        return repro_main(argv)
    finally:
        cpu = process_time() - cpu_start
        own, covered = spans.self_times(rec.spans())
        services = rec.instances["service"]
        fabric = services[0].bus._fabric if services else None
        summary = {
            "self_s": own,
            "covered_s": covered,
            "cpu_s": cpu,
            "counts": dict(rec.counts),
            "maxima": dict(rec.maxima),
            "alerts": sum(len(s.monitor.alerts) for s in services),
            "retransmits": fabric.retransmissions if fabric is not None else 0,
            "dijkstra_runs": sum(r.cache_size() for r in rec.instances["routing"]),
        }
        with open(out + ".json", "w") as handle:
            json.dump(summary, handle)
        rec.dump(out + ".spans.gz")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
