"""Prometheus exposition rendering: line grammar, labels, HELP/TYPE headers."""

import re

from repro.obs.promexport import render_prometheus
from repro.obs.trace import build_trace, new_trace_id

#: One exposition sample line: name, optional {labels}, and a float value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"      # metric name
    r"(\{[a-zA-Z_]+=\"[^\"]*\"(,[a-zA-Z_]+=\"[^\"]*\")*\})?"  # labels
    r" -?[0-9.e+-]+$"                  # value
)

FULL_STATS = {
    "total_requests": 42,
    "rejected_requests": 3,
    "shed_requests": 1,
    "queue_depth": 2,
    "max_queue": 64,
    "throughput_rps": 8.5,
    "uptime_seconds": 12.5,
    "backends": {
        "fvm": {
            "requests": 40, "errors": 1,
            "samples_dropped": 5,
            "latency_ms": {"p50": 3.0, "p95": 9.0, "p99": 15.0},
        },
    },
    "groups": [
        {"chip": "chip1", "resolution": 32, "backend": "fvm",
         "requests": 30, "errors": 1, "shed": 0},
        {"chip": "chip2", "resolution": 48, "backend": "hotspot",
         "requests": 10, "errors": 0, "shed": 1},
    ],
    "session": {
        "result_cache": {
            "hits": 10, "misses": 30, "entries": 7, "bytes": 4096,
            "hit_rate": 0.25, "evictions_count": 2, "evictions_bytes": 1,
            "expirations": 4,
        },
    },
    "events": {
        "published": 120, "dropped": 4, "subscribers": 1,
        "by_kind": {"request_done": 100, "queue_saturated": 1},
    },
    "transient_endpoint": {"requests": 9},
}


class TestExposition:
    def test_every_line_parses(self):
        text = render_prometheus(FULL_STATS)
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert SAMPLE_RE.match(line), f"bad exposition line: {line!r}"

    def test_headers_emitted_once_per_metric(self):
        text = render_prometheus(FULL_STATS)
        helps = [l.split()[2] for l in text.splitlines() if l.startswith("# HELP")]
        assert len(helps) == len(set(helps))
        # Every sample's metric name was declared.
        declared = set(helps)
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name = re.split(r"[{ ]", line, 1)[0]
            assert name in declared

    def test_core_counters_and_labels(self):
        text = render_prometheus(FULL_STATS)
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 42" in text
        assert 'repro_backend_requests_total{backend="fvm"} 40' in text
        assert 'repro_backend_latency_ms{backend="fvm",quantile="0.99"} 15.0' in text
        assert 'repro_backend_latency_samples_dropped_total{backend="fvm"} 5' in text
        assert 'repro_cache_evictions_total{cause="ttl"} 4' in text
        assert 'repro_events_by_kind_total{kind="request_done"} 100' in text
        assert "repro_transient_requests_total 9" in text
        assert "repro_engine_workers" not in text
        assert "repro_backend_batches_total" not in text

    def test_group_labels(self):
        text = render_prometheus(FULL_STATS)
        assert ('repro_requests_total{chip="chip1",resolution="32",'
                'backend="fvm"} 30') in text
        assert ('repro_group_errors_total{chip="chip1",resolution="32",'
                'backend="fvm"} 1') in text
        assert ('repro_group_shed_total{chip="chip2",resolution="48",'
                'backend="hotspot"} 1') in text
        # The labelled samples share the bare counter's single declaration.
        assert text.count("# TYPE repro_requests_total") == 1

    def test_uptime_parameter_wins_over_stats_field(self):
        text = render_prometheus(FULL_STATS, uptime_s=99.0)
        assert "repro_uptime_seconds 99.0" in text

    def test_absent_blocks_are_skipped(self):
        text = render_prometheus({"total_requests": 1})
        assert "repro_requests_total 1" in text
        assert "repro_cache" not in text
        assert "repro_breaker" not in text
        assert "repro_events" not in text

    def test_label_values_are_escaped(self):
        stats = {"backends": {'we"ird\nname': {"requests": 1}}}
        text = render_prometheus(stats)
        assert 'backend="we\\"ird\\nname"' in text


class TestTrace:
    def test_trace_ids_are_unique_and_ordered(self):
        first, second = new_trace_id(), new_trace_id()
        assert first != second
        prefix_a, counter_a = first.rsplit("-", 1)
        prefix_b, counter_b = second.rsplit("-", 1)
        assert prefix_a == prefix_b  # same process
        assert int(counter_b) == int(counter_a) + 1

    def test_build_trace_converts_spans_to_ms(self):
        trace = build_trace("t-1", queue_wait_s=0.002, solve_s=0.25)
        assert trace["trace_id"] == "t-1"
        assert trace["spans_ms"] == {"queue_wait": 2.0, "solve": 250.0}

    def test_build_trace_clamps_negative_clock_skew(self):
        trace = build_trace("t-2", queue_wait_s=-0.001, solve_s=0.0)
        assert trace["spans_ms"]["queue_wait"] == 0.0
