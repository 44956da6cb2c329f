"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig3_paper --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` repeats the workload's pass until ``--seconds`` are spent
and reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics.
Outputs are checked on every pass; a failed check makes the run exit 1.
See perfbench/README.md for what each workload and metric is.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402

#: a run repeats its pass at least this often, so determinism is checked
MIN_PASSES = 2


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_sim_untraced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from simwork import WORKLOADS

    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        result = WORKLOADS[name](seed)
        if passes:
            result.latencies = []
        passes.append(result)
    first = passes[0]
    drifted = [i for i, p in enumerate(passes) if p.counts != first.counts]
    for index in drifted:
        print(f"{name}: pass {index} counts differ from pass 0 for seed {seed}:",
              passes[index].counts, first.counts, file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "msgs_per_s": sum(p.messages for p in passes) / sum(p.timed_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"{name}: {len(passes)} passes, counts {json.dumps(first.counts)}", file=sys.stderr)
    for p in passes:
        print(f"  pass: setup {p.setup_s:.4f} s, {p.messages / p.timed_s:.1f} msgs/s calibrated, "
              f"{p.messages / p.wall_s:.1f} raw", file=sys.stderr)
    return {
        "correct": not drifted and all(p.failed == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + sum(passes[i].attempted for i in drifted),
        "metrics": metrics,
    }


def _timed_pass(fn: Any, seed: int) -> Any:
    start = perf_counter()
    result = fn(seed)
    wall = perf_counter() - start - sum(result.kernel_times)
    return result, wall


def run_sim_traced(name: str, seed: int) -> Dict[str, Any]:
    from simwork import WORKLOADS

    fn = WORKLOADS[name]
    plain, plain_wall = _timed_pass(fn, seed)
    rec = spans.SpanRecorder()
    patches = spans.install(rec)
    try:
        traced, traced_wall = _timed_pass(fn, seed)
    finally:
        patches.undo()
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.dump(os.path.join(OUT_DIR, f"{name}-{seed}.spans.gz"))
    own, covered = spans.self_times(rec.spans())
    retransmits = traced.counts["link.retransmits"]
    drops = traced.counts["network.drops"]
    suspicions = rec.instances["suspicion_vms"]
    extra = {
        "routing.dijkstra_runs": sum(r.cache_size() for r in rec.instances["routing"]),
        "link.retransmits": retransmits,
        "link.useful_retx_frac": drops / retransmits if retransmits else 0.0,
        "faults.detect_vms": statistics.mean(suspicions) if suspicions else 0.0,
        "gen.late_p99_ms": 0.0,
        "bench.residual_frac": (traced_wall - covered) / traced_wall,
        "bench.trace_overhead": traced_wall / plain_wall,
    }
    extra.update(spans.latency_metrics(plain.latencies))
    correct = traced.counts == plain.counts and plain.failed == 0 and traced.failed == 0
    if traced.counts != plain.counts:
        print(f"{name}: tracing changed the counts:", traced.counts, plain.counts,
              file=sys.stderr)
    return {
        "correct": correct,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed + (0 if correct else traced.attempted),
        "metrics": spans.layer_metrics(own, rec.counts, rec.maxima, extra),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.workload == "serve_tcp":
        import serve

        result = serve.run(args.seed, args.seconds, bool(args.trace))
    elif args.trace:
        result = run_sim_traced(args.workload, args.seed)
    else:
        result = run_sim_untraced(args.workload, args.seed, args.seconds)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
