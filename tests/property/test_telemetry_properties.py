"""Property-based tests for the telemetry pipeline.

Two faithfulness claims:

* the persistent run registry is a lossless transport — rebuilding a
  metrics registry from the stored rows yields exactly the counters the
  OpenMetrics sink accumulated in process;
* the fixed-log-bucket histogram merge is exact under any partition of
  the observations, which is what makes cross-process aggregation safe.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    BucketedHistogram,
    MetricsRegistry,
    OpRecord,
    OpenMetricsSink,
    RunRegistry,
)

ops = st.sampled_from(["chase", "reverse", "hom", "core", "audit", "answer"])

op_records = st.builds(
    OpRecord,
    op=ops,
    mapping_digest=st.sampled_from(["m1", "m2", ""]),
    wall_time=st.floats(
        min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
    ),
    cache_hit=st.booleans(),
    rounds=st.integers(min_value=0, max_value=50),
    steps=st.integers(min_value=0, max_value=500),
    facts=st.integers(min_value=0, max_value=1000),
    nulls=st.integers(min_value=0, max_value=100),
    branches=st.integers(min_value=0, max_value=16),
    exhausted=st.sampled_from([None, "deadline", "rounds", "cancelled"]),
    error=st.sampled_from([None, "ValueError", "Cancelled"]),
)

durations = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)


def counters_from_rows(rows):
    """Rebuild the OpenMetricsSink counter view from registry rows."""
    rebuilt = MetricsRegistry()
    for row in rows:
        rebuilt.inc(f"ops.{row.op}")
        if row.cache_hit:
            rebuilt.inc(f"ops.{row.op}.cache_hits")
        if row.error is not None:
            rebuilt.inc(f"ops.{row.op}.errors")
        if row.exhausted is not None:
            rebuilt.inc(f"ops.{row.op}.exhausted")
        for counter in ("rounds", "steps", "facts", "nulls", "branches"):
            amount = getattr(row, counter)
            if amount:
                rebuilt.inc(f"ops.{row.op}.{counter}", amount)
    return rebuilt.counters


@given(records=st.lists(op_records, max_size=30))
@settings(max_examples=30, deadline=None)
def test_registry_rows_reproduce_sink_counters(records):
    with tempfile.TemporaryDirectory() as tmp:
        sink = OpenMetricsSink(f"{tmp}/m.prom")
        registry = RunRegistry(f"{tmp}/runs.db")
        for record in records:
            sink.record(record)
            registry.record(record)
        rows = registry.list_runs(limit=len(records) + 1)
        assert len(rows) == len(records)
        assert counters_from_rows(rows) == sink.registry.counters


@given(records=st.lists(op_records, max_size=20))
@settings(max_examples=30, deadline=None)
def test_registry_round_trip_preserves_every_field(records):
    with tempfile.TemporaryDirectory() as tmp:
        registry = RunRegistry(f"{tmp}/runs.db")
        ids = [registry.record(record) for record in records]
        for run_id, record in zip(ids, records):
            row = registry.get(run_id)
            assert row.op == record.op
            assert row.mapping_digest == record.mapping_digest
            assert row.wall_time == record.wall_time
            assert row.cache_hit == record.cache_hit
            assert (row.rounds, row.steps, row.facts) == (
                record.rounds, record.steps, record.facts,
            )
            assert row.exhausted == record.exhausted
            assert row.error == record.error


@given(
    values=st.lists(durations, max_size=100),
    pivot=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_bucketed_histogram_merge_is_partition_invariant(values, pivot):
    single = BucketedHistogram()
    for value in values:
        single.observe(value)
    left, right = BucketedHistogram(), BucketedHistogram()
    for value in values[:pivot]:
        left.observe(value)
    for value in values[pivot:]:
        right.observe(value)
    left.merge(right)
    assert left.counts == single.counts
    assert left.count == single.count


@given(
    values=st.lists(durations, min_size=1, max_size=60),
    chunk_size=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=50, deadline=None)
def test_payload_merge_matches_direct_observation(values, chunk_size):
    direct = MetricsRegistry()
    for value in values:
        direct.observe("span.chase", value)
    merged = MetricsRegistry()
    for start in range(0, len(values), chunk_size):
        worker = MetricsRegistry()
        for value in values[start:start + chunk_size]:
            worker.observe("span.chase", value)
        merged.merge_payload(worker.export_payload())
    assert (
        merged.bucketed("span.chase").counts
        == direct.bucketed("span.chase").counts
    )
    assert merged.histogram("span.chase").count == len(values)
    assert merged.histogram("span.chase").min == min(values)
    assert merged.histogram("span.chase").max == max(values)
