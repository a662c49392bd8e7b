"""Unit tests for the observability event bus (tracer, spans, metrics)."""

from __future__ import annotations

import json

import pytest

from repro import Instance, SchemaMapping, chase
from repro.facts import Fact
from repro.homs.search import find_homomorphism, homomorphisms
from repro.obs import (
    HomBacktrack,
    Tracer,
    TriggerFired,
    current_tracer,
    event_to_dict,
    freeze_binding,
    render_span_tree,
    trace_lines,
    tracing,
    write_trace_jsonl,
)
from repro.terms import Const, Null, Var

DECOMP = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
PABC = Instance.parse("P(a, b, c)")


class TestAmbientTracer:
    @pytest.mark.no_ambient_trace
    def test_no_tracer_by_default(self):
        assert current_tracer() is None

    @pytest.mark.no_ambient_trace
    def test_tracing_installs_and_restores(self):
        with tracing() as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_tracing_nests(self):
        with tracing() as outer:
            with tracing() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_chase_result_identical_with_and_without_tracer(self):
        plain = chase(PABC, DECOMP.dependencies)
        with tracing():
            traced = chase(PABC, DECOMP.dependencies)
        assert plain.instance == traced.instance
        assert plain.steps == traced.steps


class TestEvents:
    def test_chase_emits_trigger_fired(self):
        with tracing() as tracer:
            result = chase(PABC, DECOMP.dependencies)
        fired = [e for e in tracer.events if isinstance(e, TriggerFired)]
        assert len(fired) == 1
        (event,) = fired
        assert event.tgd_index == 0
        assert set(event.added) == set(result.generated)
        assert event.premises == (next(iter(PABC.facts)),)

    def test_null_minted_event(self):
        mapping = SchemaMapping.from_text("P(x) -> EXISTS z . Q(x, z)")
        with tracing() as tracer:
            result = chase(Instance.parse("P(a)"), mapping.dependencies)
        minted = [e for e in tracer.events if e.kind == "null_minted"]
        assert len(minted) == 1
        assert minted[0].var == "z"
        assert minted[0].null in result.instance.nulls

    def test_event_counters(self):
        with tracing() as tracer:
            chase(PABC, DECOMP.dependencies)
        assert tracer.metrics.counter("events.trigger_fired") == 1

    def test_events_are_json_safe(self):
        with tracing() as tracer:
            chase(PABC, DECOMP.dependencies)
        for event in tracer.events:
            json.dumps(event_to_dict(event))

    def test_event_to_dict_prints_binding_values(self):
        # Values are tuples (DESIGN.md D13); they must export as their
        # printed form, never as a raw ``[tag, payload]`` list.
        binding = {Var("x"): Const(5), Var("y"): Const("a"), Var("z"): Null("X")}
        added = Fact("Q", (Const(5), Null("X")))
        event = TriggerFired(
            tgd="P(x, y, z) -> Q(x, z)",
            tgd_index=0,
            round=1,
            binding=freeze_binding(binding),
            added=(added,),
            premises=(Fact("P", (Const(5), Const("a"), Null("X"))),),
            minted=(("z", Null("X")),),
        )
        out = event_to_dict(event)
        assert out["binding"] == [["x", "5"], ["y", "a"], ["z", "_X"]]
        assert out["added"] == ["Q(5, _X)"]
        assert out["premises"] == ["P(5, a, _X)"]
        assert out["minted"] == [["z", "_X"]]
        assert json.loads(json.dumps(out)) == out

    def test_freeze_binding_sorts_by_variable(self):
        binding = {Var("y"): "b", Var("x"): "a"}
        assert freeze_binding(binding) == (("x", "a"), ("y", "b"))



class TestSpans:
    def test_chase_span_recorded_with_duration(self):
        with tracing() as tracer:
            chase(PABC, DECOMP.dependencies)
        spans = [s for s in tracer.spans if s.name == "chase"]
        assert len(spans) == 1
        assert spans[0].end is not None
        assert spans[0].duration >= 0
        assert spans[0].attrs["variant"] == "restricted"

    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id

    def test_span_duration_histogram(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        hist = tracer.metrics.histogram("span.work")
        assert hist is not None and hist.count == 1

    def test_render_span_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        rendered = render_span_tree(tracer)
        assert "outer" in rendered and "  inner" in rendered

    def test_render_span_tree_empty(self):
        assert "no spans" in render_span_tree(Tracer())


class TestHomBacktrack:
    def test_emitted_on_exhaustive_search(self):
        source = Instance.parse("Q(X, Y)")
        target = Instance.parse("Q(a, b), Q(b, c)")
        with tracing() as tracer:
            homs = list(homomorphisms(source, target))
        assert homs
        events = [e for e in tracer.events if isinstance(e, HomBacktrack)]
        assert len(events) == 1
        assert events[0].found is True
        assert events[0].source_size == 1
        assert events[0].target_size == 2

    def test_emitted_when_generator_abandoned(self):
        # find_homomorphism stops at the first solution; the summary
        # event must still fire when the generator is closed early.
        source = Instance.parse("Q(X, Y)")
        target = Instance.parse("Q(a, b), Q(b, c)")
        with tracing() as tracer:
            assert find_homomorphism(source, target) is not None
        events = [e for e in tracer.events if isinstance(e, HomBacktrack)]
        assert len(events) == 1

    def test_counts_rejections_on_failure(self):
        source = Instance.parse("Q(X, X)")
        target = Instance.parse("Q(a, b)")
        with tracing() as tracer:
            assert find_homomorphism(source, target) is None
        (event,) = [e for e in tracer.events if isinstance(e, HomBacktrack)]
        assert event.found is False
        assert event.backtracks >= 1


class TestStateMerging:
    def test_export_and_absorb_round_trip(self):
        worker = Tracer()
        with worker.span("chase"):
            chase(PABC, DECOMP.dependencies, tracer=worker)
        state = worker.export_state()

        parent = Tracer()
        with parent.span("batch"):
            pass
        parent.absorb(state)
        assert len(parent.events) == len(worker.events)
        # Provenance was rebuilt from the absorbed events.
        assert set(parent.provenance.derived_facts()) == set(
            worker.provenance.derived_facts()
        )
        # Metrics merged additively.
        assert parent.metrics.counter("events.trigger_fired") == 1

    def test_absorb_rebases_span_ids(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        parent = Tracer()
        with parent.span("own"):
            pass
        parent.absorb(worker.export_state())
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids)), "span ids must stay unique"
        inner = next(s for s in parent.spans if s.name == "inner")
        outer = next(s for s in parent.spans if s.name == "outer")
        assert inner.parent_id == outer.span_id

    def test_state_is_picklable(self):
        import pickle

        worker = Tracer()
        chase(PABC, DECOMP.dependencies, tracer=worker)
        state = pickle.loads(pickle.dumps(worker.export_state()))
        parent = Tracer()
        parent.absorb(state)
        assert len(parent.events) == len(worker.events)

    def test_clear(self):
        tracer = Tracer()
        chase(PABC, DECOMP.dependencies, tracer=tracer)
        tracer.clear()
        assert tracer.events == [] and tracer.spans == []
        assert tracer.metrics.counter("events.trigger_fired") == 0


class TestJsonlExport:
    def test_write_trace_jsonl(self, tmp_path):
        with tracing() as tracer:
            chase(PABC, DECOMP.dependencies)
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(tracer, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == count == len(trace_lines(tracer))
        kinds = {line["kind"] for line in lines}
        assert "trigger_fired" in kinds and "span" in kinds
        events = [l for l in lines if l["kind"] != "span"]
        assert [l["seq"] for l in events] == list(range(len(events)))


class TestMetricsRegistry:
    def test_histogram_merge(self):
        from repro.obs import Histogram

        a = Histogram()
        a.observe(1.0)
        b = Histogram()
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2 and a.mean == pytest.approx(2.0)
        assert a.min == 1.0 and a.max == 3.0

    def test_merge_payload_round_trip(self):
        from repro.obs import MetricsRegistry

        src = MetricsRegistry()
        src.inc("hits", 3)
        src.observe("latency", 0.5)
        dst = MetricsRegistry()
        dst.inc("hits", 1)
        dst.merge_payload(src.export_payload())
        assert dst.counter("hits") == 4
        assert dst.histogram("latency").count == 1

    def test_empty_histogram_payload_does_not_poison_min_max(self):
        from repro.obs import Histogram, MetricsRegistry

        src = MetricsRegistry()
        src._histograms["empty"] = Histogram()
        dst = MetricsRegistry()
        dst.merge_payload(src.export_payload())
        dst.observe("empty", 2.0)
        hist = dst.histogram("empty")
        assert hist.min == 2.0 and hist.max == 2.0


def _traced_worker_chase(ctx_dict: dict):
    """Pool-side task for the cross-process stitching test.

    Runs a chase under its own tracer inside the restored ambient
    context — the same shape the engine's ``chase_task_traced`` and the
    serve worker's ``execute_op`` use — and ships the trace state back.
    """
    from repro.obs import TraceContext, context_scope

    worker = Tracer()
    with context_scope(TraceContext.from_dict(ctx_dict)):
        with worker.span("worker.chase"):
            chase(PABC, DECOMP.dependencies, tracer=worker)
    return worker.export_state()


class TestCrossProcessStitching:
    def test_absorb_stitches_through_a_real_process_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.obs import context_scope, mint_context

        context = mint_context(request_id="r-pool")
        parent = Tracer()
        with context_scope(context):
            with parent.span("engine.batch") as batch:
                with ProcessPoolExecutor(max_workers=2) as pool:
                    states = list(
                        pool.map(
                            _traced_worker_chase, [context.to_dict()] * 2
                        )
                    )
            for state in states:
                parent.absorb(state, parent_id=batch.span_id)

        # Exactly one root: both workers' trees hang off engine.batch.
        roots = [s for s in parent.spans if s.parent_id is None]
        assert [s.name for s in roots] == ["engine.batch"]
        workers = [s for s in parent.spans if s.name == "worker.chase"]
        assert len(workers) == 2
        assert all(s.parent_id == batch.span_id for s in workers)
        # Every worker-side chase span is a descendant of its worker
        # root, ids stayed unique after the rebase, and the restored
        # ambient context stamped every cross-process span.
        by_id = {s.span_id: s for s in parent.spans}
        for span in parent.spans:
            if span.name == "chase":
                assert by_id[span.parent_id].name == "worker.chase"
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        for span in workers:
            assert span.trace_id == context.trace_id
            assert span.request_id == "r-pool"

    def test_absorb_without_parent_keeps_worker_roots(self):
        worker = Tracer()
        with worker.span("worker.chase"):
            pass
        parent = Tracer()
        parent.absorb(worker.export_state())
        (root,) = [s for s in parent.spans if s.parent_id is None]
        assert root.name == "worker.chase"
