"""Engine-facing observability tests: cache events, stats, deprecation.

Covers the ``render_stats`` regression (ops with zero recorded calls
used to divide by zero / misalign the table), the tracer merge across
batch fan-out, error accounting for every single-item op, and the
removal of the deprecated ``ExchangeResult`` alias.
"""

from __future__ import annotations

import pytest

from repro import ExchangeEngine, Instance, SchemaMapping, Tracer, tracing
from repro.errors import Cancelled
from repro.limits import CancelToken, cancel_scope
from repro.obs.registry import RunRegistry
from repro.parsing.parser import parse_query

DECOMP = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
PABC = Instance.parse("P(a, b, c)")
DISJ = SchemaMapping.from_text("P'(x, x) -> T(x) | P(x, x)")


class TestRenderStatsRegression:
    def test_fresh_engine_renders_without_division_errors(self):
        # Regression: every op has zero calls here; derived columns must
        # render as "-" instead of raising ZeroDivisionError.
        rendered = ExchangeEngine().render_stats()
        assert "chase" in rendered and "total" in rendered
        assert "-" in rendered

    def test_zero_call_rows_and_active_rows_align(self):
        engine = ExchangeEngine()
        engine.chase(DECOMP, PABC)
        engine.chase(DECOMP, PABC)
        rendered = engine.render_stats()
        lines = rendered.splitlines()
        header = lines[1]
        rows = []
        for line in lines[2:]:
            if line.strip() == "tracer:":  # footer, not part of the table
                break
            rows.append(line)
        for row in rows:
            assert len(row) == len(header), f"misaligned row: {row!r}"

    def test_hit_rate_column(self):
        engine = ExchangeEngine()
        engine.chase(DECOMP, PABC)
        engine.chase(DECOMP, PABC)
        chase_row = next(
            l for l in engine.render_stats().splitlines() if l.strip().startswith("chase")
        )
        assert "50%" in chase_row

    def test_totals_row_complete(self):
        stats = ExchangeEngine().stats()
        totals = stats["totals"]
        assert {
            "calls",
            "hits",
            "misses",
            "evictions",
            "wall_time",
            "steps",
            "rounds",
            "branches",
        } <= set(totals)


class TestEngineTracing:
    def test_cache_hit_and_miss_events(self):
        engine = ExchangeEngine(tracer=Tracer())
        engine.chase(DECOMP, PABC)
        engine.chase(DECOMP, PABC)
        kinds = [e.kind for e in engine.tracer.events]
        assert kinds.count("cache_miss") == 1
        assert kinds.count("cache_hit") == 1

    def test_ambient_tracer_reaches_engine(self):
        engine = ExchangeEngine()
        with tracing() as tracer:
            engine.chase(DECOMP, PABC)
        assert any(e.kind == "cache_miss" for e in tracer.events)
        assert any(e.kind == "trigger_fired" for e in tracer.events)

    def test_stats_includes_tracer_metrics(self):
        engine = ExchangeEngine(tracer=Tracer())
        engine.chase(DECOMP, PABC)
        stats = engine.stats()
        assert "tracer" in stats
        assert stats["tracer"]["counters"]["events.trigger_fired"] == 1
        rendered = engine.render_stats()
        assert "events.trigger_fired" in rendered

    @pytest.mark.no_ambient_trace
    def test_stats_has_no_tracer_key_without_tracer(self):
        assert "tracer" not in ExchangeEngine().stats()

    def test_engine_result_unchanged_by_tracing(self):
        plain = ExchangeEngine().chase(DECOMP, PABC)
        traced = ExchangeEngine(tracer=Tracer()).chase(DECOMP, PABC)
        assert plain == traced


class TestBatchTraceMerging:
    SOURCES = [Instance.parse(f"P(a{i}, b{i}, c{i})") for i in range(4)]

    def test_chase_many_serial_merges_worker_traces(self):
        engine = ExchangeEngine(tracer=Tracer())
        results = engine.chase_many(DECOMP, self.SOURCES, jobs=1)
        fired = [e for e in engine.tracer.events if e.kind == "trigger_fired"]
        assert len(fired) == len(self.SOURCES)
        graph = engine.tracer.provenance
        for result in results:
            for f in result.generated:
                assert graph.why(f) is not None

    def test_chase_many_threaded_merges_worker_traces(self):
        engine = ExchangeEngine(tracer=Tracer())
        results = engine.chase_many(DECOMP, self.SOURCES, jobs=2)
        fired = [e for e in engine.tracer.events if e.kind == "trigger_fired"]
        assert len(fired) == len(self.SOURCES)
        assert [r.instance for r in results] == [
            ExchangeEngine().chase(DECOMP, s) for s in self.SOURCES
        ]

    def test_chase_many_process_pool_merges_worker_traces(self):
        engine = ExchangeEngine(tracer=Tracer(), process_threshold=1)
        results = engine.chase_many(DECOMP, self.SOURCES, jobs=2)
        fired = [e for e in engine.tracer.events if e.kind == "trigger_fired"]
        assert len(fired) == len(self.SOURCES)
        graph = engine.tracer.provenance
        for result in results:
            for f in result.generated:
                assert graph.why(f) is not None

    def test_reverse_many_merges_worker_traces(self):
        targets = [Instance.parse("T(a)"), Instance.parse("P(b, b)")]
        reverse = SchemaMapping.from_text("T(x) -> P'(x, x)\nP(x, x) -> P'(x, x)")
        engine = ExchangeEngine(tracer=Tracer())
        engine.reverse_many(reverse, targets, jobs=2)
        assert any(e.kind == "trigger_fired" for e in engine.tracer.events)

    def test_reverse_many_disjunctive_traced(self):
        reverse = DISJ
        targets = [Instance.parse("P'(a, a)"), Instance.parse("P'(b, b)")]
        engine = ExchangeEngine(tracer=Tracer())
        results = engine.reverse_many(reverse, targets, jobs=2)
        assert all(len(r.candidates) >= 1 for r in results)
        branches = engine.tracer.provenance.branches
        assert any(node.closed == "finished" for node in branches.values())


class TestErrorAccounting:
    @pytest.mark.parametrize("op", ["answer", "audit"])
    def test_cancelled_op_counts_one_error_and_one_row(self, op, tmp_path):
        # Every single-item op accounts a failed computation like
        # exchange does: one error in stats(), one registry row.  The
        # relation names are unique to this test, so no cache anywhere
        # (the audit's inner chases use the default engine) can answer
        # before the cancelled budget is checked.
        registry = RunRegistry(str(tmp_path / "runs.db"))
        engine = ExchangeEngine(registry=registry)
        copy = SchemaMapping.from_text("Cx(x, y) -> Cy(x, y)")
        recovery = SchemaMapping.from_text("Cy(x, y) -> Cx(x, y)")
        calls = {
            "answer": lambda: engine.answer(
                copy,
                recovery,
                parse_query("q(x) :- Cx(x, y)"),
                Instance.parse("Cx(a, b)"),
            ),
            "audit": lambda: engine.audit(copy),
        }
        token = CancelToken()
        token.cancel("test")
        with cancel_scope(token), pytest.raises(Cancelled):
            calls[op]()
        stats = engine.stats()[op]
        assert (stats["calls"], stats["errors"]) == (1, 1)
        rows = registry.list_runs(op=op)
        assert [row.error for row in rows] == ["Cancelled"]
        assert rows[0].mapping_digest == copy.digest()


class TestDeprecatedAlias:
    def test_unknown_attribute_raises(self):
        # The deprecated ExchangeResult alias is gone: like any unknown
        # name, it now raises instead of resolving to ReverseResult.
        from repro.reverse import exchange

        with pytest.raises(AttributeError):
            exchange.NoSuchName
        with pytest.raises(AttributeError):
            exchange.ExchangeResult
