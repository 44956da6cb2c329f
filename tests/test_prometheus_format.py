"""Golden-format tests for the Prometheus text exposition.

The ``metrics`` service verb and ``repro trace run --metrics`` both go
through :func:`repro.obs.exporters.registry_to_prometheus`; this file
pins the output to the exposition-format grammar so the scrape endpoint
cannot silently emit unscrapeable text.
"""

import math
import re

from repro.obs.exporters import registry_to_prometheus
from repro.obs.lifecycle import SERIES
from repro.obs.live import PhaseLatencyTracker
from repro.obs.registry import MetricsRegistry

# Exposition-format grammar: metric names and label names.
NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\+Inf|-Inf|NaN|[0-9eE.+-]+)$"
)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _tracked_registry():
    registry = MetricsRegistry()
    tracker = PhaseLatencyTracker(registry)
    for value in (0.05, 0.4, 3.0, 12.0, 80.0, 700.0):
        tracker.histograms["total"].observe(value)
        tracker.histograms["sequencing"].observe(value / 2)
    registry.counter("repro_messages_published", "Messages published").inc(6)
    return registry


class TestGoldenFormat:
    def test_every_line_is_comment_or_valid_sample(self):
        text = registry_to_prometheus(_tracked_registry())
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                name = line.split()[2]
                assert NAME_RE.fullmatch(name), line
                continue
            match = SAMPLE_RE.match(line)
            assert match, f"unscrapeable sample line: {line!r}"
            for label_pair in LABEL_RE.finditer(match.group("labels") or ""):
                assert NAME_RE.fullmatch(label_pair.group(1))

    def test_help_and_type_appear_once_per_name_before_samples(self):
        text = registry_to_prometheus(_tracked_registry())
        seen_types = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert name not in seen_types, f"duplicate TYPE for {name}"
                seen_types[name] = kind
            elif not line.startswith("#"):
                name = SAMPLE_RE.match(line).group("name")
                base = re.sub(r"_(bucket|sum|count|max)$", "", name)
                assert base in seen_types or name in seen_types, (
                    f"sample {name} before its TYPE line"
                )
        assert seen_types["repro_phase_latency_ms"] == "histogram"
        assert seen_types["repro_messages_published"] == "counter"

    def test_phase_histogram_series_are_complete(self):
        text = registry_to_prometheus(_tracked_registry())
        for phase in SERIES:
            for suffix in ("bucket", "sum", "count", "max"):
                pattern = f"repro_phase_latency_ms_{suffix}{{"
                lines = [
                    line for line in text.splitlines()
                    if line.startswith(pattern) and f'phase="{phase}"' in line
                ]
                assert lines, f"missing _{suffix} series for phase {phase}"

    def test_buckets_are_cumulative_and_end_at_inf(self):
        text = registry_to_prometheus(_tracked_registry())
        buckets = []
        for line in text.splitlines():
            if not line.startswith("repro_phase_latency_ms_bucket"):
                continue
            if 'phase="total"' not in line:
                continue
            labels, value = line.rsplit(" ", 1)
            bound = labels.split('le="')[1].split('"')[0]
            buckets.append(
                (math.inf if bound == "+Inf" else float(bound), int(value))
            )
        assert buckets, "no total buckets found"
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        assert bounds == sorted(bounds)
        assert bounds[-1] == math.inf
        assert counts == sorted(counts), "bucket counts must be cumulative"
        count_line = next(
            line for line in text.splitlines()
            if line.startswith("repro_phase_latency_ms_count")
            and 'phase="total"' in line
        )
        assert int(count_line.rsplit(" ", 1)[1]) == counts[-1]

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_test_total", "Escaping", target='a"b\\c\nd'
        ).inc()
        text = registry_to_prometheus(registry)
        assert 'target="a\\"b\\\\c\\nd"' in text
        # Exactly one physical sample line: the newline stayed escaped.
        samples = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(samples) == 1
