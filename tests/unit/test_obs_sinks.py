"""Unit tests for the telemetry sinks (JSONL, OpenMetrics, fan-out).

The OpenMetrics checks use a small structural parser rather than string
snapshots: family declarations (`# TYPE`), counter samples ending in
``_total``, cumulative non-decreasing histogram buckets closed by
``le="+Inf"``, and the mandatory ``# EOF`` terminator.
"""

import json
import math
import re
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import (
    BucketedHistogram,
    JsonlSink,
    LOG_BUCKET_BOUNDS,
    MetricsRegistry,
    MultiSink,
    OpRecord,
    OpenMetricsSink,
    TelemetrySink,
    openmetrics_name,
)

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$"
)


def parse_openmetrics(text):
    """Structural validation; returns {family: {"type": ..., "samples": [...]}}."""
    assert text.endswith("# EOF\n"), "exposition must end with # EOF"
    families = {}
    sample_lines = []
    for line in text.splitlines():
        if line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            families[name] = {"type": kind, "samples": []}
            continue
        if line.startswith(("# HELP ", "# UNIT ")):
            continue
        match = _SAMPLE.match(line)
        assert match is not None, f"malformed sample line: {line!r}"
        sample_lines.append(match)
    for match in sample_lines:
        name = match.group("name")
        owner = max(
            (family for family in families if name.startswith(family)),
            key=len,
            default=None,
        )
        assert owner is not None, f"sample {name} has no TYPE declaration"
        families[owner]["samples"].append(
            (name, match.group("labels"), match.group("value"))
        )
    for family, data in families.items():
        if data["type"] == "counter":
            assert all(name == f"{family}_total" for name, _, _ in data["samples"])
        if data["type"] == "histogram":
            buckets = [
                (labels, float(value))
                for name, labels, value in data["samples"]
                if name == f"{family}_bucket"
            ]
            counts = [count for _, count in buckets]
            assert counts == sorted(counts), "buckets must be cumulative"
            assert buckets[-1][0] == 'le="+Inf"'
            count_sample = [
                float(value)
                for name, _, value in data["samples"]
                if name == f"{family}_count"
            ]
            assert count_sample == [buckets[-1][1]]
    return families


class TestOpRecord:
    def test_as_dict_round_trips_through_json(self):
        record = OpRecord(
            op="chase", mapping_digest="m" * 64, wall_time=0.25, rounds=3
        )
        data = json.loads(json.dumps(record.as_dict()))
        assert data["op"] == "chase"
        assert data["rounds"] == 3
        assert data["exhausted"] is None

    def test_defaults(self):
        record = OpRecord(op="core")
        assert record.cache_hit is False
        assert record.batch_index is None
        assert record.attempts == 1


class TestJsonlSink:
    def test_one_line_per_record(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        sink = JsonlSink(str(path))
        sink.record(OpRecord(op="chase", wall_time=0.1))
        sink.record(OpRecord(op="reverse", error="ValueError"))
        sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["op"] for line in lines] == ["chase", "reverse"]
        assert lines[1]["error"] == "ValueError"

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        for _ in range(2):
            sink = JsonlSink(str(path))
            sink.record(OpRecord(op="chase"))
            sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_close_is_idempotent_and_silences_record(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "ops.jsonl"))
        sink.close()
        sink.close()
        sink.record(OpRecord(op="chase"))  # no-op, no crash
        assert sink.records == 0

    def test_satisfies_sink_protocol(self, tmp_path):
        assert isinstance(JsonlSink(str(tmp_path / "x.jsonl")), TelemetrySink)


class TestOpenMetricsSink:
    def test_exposition_is_structurally_valid(self, tmp_path):
        path = tmp_path / "metrics.prom"
        sink = OpenMetricsSink(str(path))
        sink.record(
            OpRecord(op="chase", wall_time=0.01, rounds=2, steps=5, facts=10)
        )
        sink.record(OpRecord(op="chase", wall_time=2.5, cache_hit=True))
        sink.record(OpRecord(op="reverse", wall_time=0.3, branches=4))
        sink.close()
        families = parse_openmetrics(path.read_text())
        assert families["repro_ops_chase"]["type"] == "counter"
        assert families["repro_ops_chase"]["samples"][0][2] == "2"
        assert families["repro_ops_chase_cache_hits"]["samples"][0][2] == "1"
        assert families["repro_op_chase_wall_time"]["type"] == "histogram"

    def test_errors_and_exhaustion_counted(self, tmp_path):
        sink = OpenMetricsSink(str(tmp_path / "m.prom"))
        sink.record(OpRecord(op="chase", error="Cancelled", exhausted="cancelled"))
        assert sink.registry.counters["ops.chase.errors"] == 1
        assert sink.registry.counters["ops.chase.exhausted"] == 1

    def test_file_rewritten_after_every_record_by_default(self, tmp_path):
        path = tmp_path / "m.prom"
        sink = OpenMetricsSink(str(path))
        sink.record(OpRecord(op="chase"))
        first = path.read_text()
        sink.record(OpRecord(op="chase"))
        second = path.read_text()
        assert first != second
        assert "repro_ops_chase_total 2" in second

    def test_zero_min_interval_preserves_legacy_eagerness(self, tmp_path):
        sink = OpenMetricsSink(str(tmp_path / "m.prom"))
        for _ in range(5):
            sink.record(OpRecord(op="chase"))
        assert sink.writes == 5

    def test_extra_registry_merged_at_render_time(self, tmp_path):
        sink = OpenMetricsSink(str(tmp_path / "m.prom"))
        sink.record(OpRecord(op="chase"))
        extra = MetricsRegistry()
        extra.inc("events.TriggerFired", 7)
        sink.extra = extra
        text = sink.render()
        assert "repro_events_TriggerFired_total 7" in text
        assert "repro_ops_chase_total 1" in text
        parse_openmetrics(text)


class TestMultiSink:
    def test_fans_out_to_all_children(self, tmp_path):
        a = JsonlSink(str(tmp_path / "a.jsonl"))
        b = JsonlSink(str(tmp_path / "b.jsonl"))
        multi = MultiSink([a, b])
        multi.record(OpRecord(op="chase"))
        multi.close()
        assert a.records == 1 and b.records == 1

    def test_failing_child_does_not_starve_siblings(self, tmp_path):
        class Boom:
            def record(self, record):
                raise RuntimeError("boom")

            def close(self):
                pass

        survivor = JsonlSink(str(tmp_path / "ok.jsonl"))
        multi = MultiSink([Boom(), survivor])
        with pytest.raises(RuntimeError, match="boom"):
            multi.record(OpRecord(op="chase"))
        assert survivor.records == 1


def _worker_payload(values):
    """Observe *values* in a fresh registry; ship the picklable payload."""
    registry = MetricsRegistry()
    for value in values:
        registry.observe("span.chase", value)
        registry.inc("events.fired")
    return registry.export_payload()


class TestBucketedHistogramMerge:
    def test_bounds_are_fixed_log_buckets(self):
        assert LOG_BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        assert all(
            b2 > b1 for b1, b2 in zip(LOG_BUCKET_BOUNDS, LOG_BUCKET_BOUNDS[1:])
        )

    def test_split_merge_is_exact(self):
        values = [10.0 ** (i / 3.0 - 4) for i in range(30)] + [0.0, 1e9]
        single = BucketedHistogram()
        left, right = BucketedHistogram(), BucketedHistogram()
        for index, value in enumerate(values):
            single.observe(value)
            (left if index % 2 else right).observe(value)
        left.merge(right)
        assert left.counts == single.counts
        assert left.count == single.count
        assert math.isclose(left.total, single.total)

    def test_merge_across_process_pool_is_exact(self):
        chunks = [
            [0.001 * (i + 1) for i in range(5)],
            [0.5, 1.5, 2.5],
            [1e-7, 3.0, 40.0],
        ]
        reference = MetricsRegistry()
        for chunk in chunks:
            for value in chunk:
                reference.observe("span.chase", value)
                reference.inc("events.fired")
        merged = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for payload in pool.map(_worker_payload, chunks):
                merged.merge_payload(payload)
        assert (
            merged.bucketed("span.chase").counts
            == reference.bucketed("span.chase").counts
        )
        assert merged.counters == reference.counters
        assert merged.to_openmetrics() == reference.to_openmetrics()


class TestOpenMetricsNames:
    def test_sanitization(self):
        assert openmetrics_name("ops.chase.cache_hits") == "repro_ops_chase_cache_hits"
        assert openmetrics_name("span im-port!") == "repro_span_im_port_"
