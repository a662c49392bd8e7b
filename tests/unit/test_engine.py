"""Unit tests for the ExchangeEngine: caching, eviction, batch dedup,
result shapes, and the default-engine facade."""

import pytest

from repro import (
    ExchangeEngine,
    ExchangeResult,
    Instance,
    ReverseResult,
    SchemaMapping,
    get_default_engine,
    set_default_engine,
)
from repro.engine.cache import LRUCache
from repro.homs.core import core as plain_core
from repro.parsing.parser import parse_query
from repro.reverse.exchange import reverse_exchange


@pytest.fixture
def decomposition_mapping():
    return SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")


@pytest.fixture
def disjunctive_mapping():
    return SchemaMapping.from_text("P'(x, x) -> T(x) | P(x, x)")


class TestDigests:
    def test_instance_digest_stable_across_objects(self):
        left = Instance.parse("P(a, X), Q(b)")
        right = Instance.parse("Q(b), P(a, X)")
        assert left.digest() == right.digest()

    def test_instance_digest_distinguishes_value_kinds(self):
        assert Instance.parse("P(a)").digest() != Instance.parse("P(A)").digest()
        assert (
            Instance.of().digest()
            != Instance.parse("P(a)").digest()
        )

    def test_const_int_vs_str_digest(self):
        from repro.instance import Fact
        from repro.terms import Const

        as_int = Instance.of(Fact("P", (Const(3),)))
        as_str = Instance.of(Fact("P", (Const("3"),)))
        assert as_int.digest() != as_str.digest()

    def test_mapping_digest_stable_and_distinct(self):
        a1 = SchemaMapping.from_text("P(x) -> Q(x)")
        a2 = SchemaMapping.from_text("P(x) -> Q(x)")
        b = SchemaMapping.from_text("P(x) -> R(x)")
        assert a1.digest() == a2.digest()
        assert a1.digest() != b.digest()


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("k") == (False, None)
        cache.put("k", 1)
        assert cache.get("k") == (True, 1)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_is_lru(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_zero_size_never_stores(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") == (False, None)


class TestChaseCaching:
    def test_second_call_is_a_hit(self, decomposition_mapping):
        engine = ExchangeEngine()
        source = Instance.parse("P(a, b, c)")
        first = engine.exchange(decomposition_mapping, source)
        second = engine.exchange(decomposition_mapping, source)
        assert not first.cached and second.cached
        assert first.instance == second.instance
        stats = engine.stats()["chase"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cache_hit_identical_to_recompute(self, decomposition_mapping):
        engine = ExchangeEngine()
        source = Instance.parse("P(a, X, c), P(a, Y, c)")
        warm = engine.chase(decomposition_mapping, source)
        cold = ExchangeEngine(enable_cache=False).chase(
            decomposition_mapping, source
        )
        assert warm == cold  # determinism: equal down to null names

    def test_structurally_equal_instances_share_entries(
        self, decomposition_mapping
    ):
        engine = ExchangeEngine()
        engine.chase(decomposition_mapping, Instance.parse("P(a, b, c)"))
        engine.chase(decomposition_mapping, Instance.parse("P(a, b, c)"))
        assert engine.stats()["chase"]["hits"] == 1

    def test_variant_option_invalidates(self, decomposition_mapping):
        engine = ExchangeEngine()
        source = Instance.parse("P(a, b, c), Q(a, b)")
        engine.chase(decomposition_mapping, source, variant="restricted")
        engine.chase(decomposition_mapping, source, variant="oblivious")
        stats = engine.stats()["chase"]
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_different_mappings_do_not_collide(self):
        engine = ExchangeEngine()
        copy = SchemaMapping.from_text("P(x) -> Q(x)")
        swap = SchemaMapping.from_text("P(x) -> R(x)")
        source = Instance.parse("P(a)")
        assert engine.chase(copy, source) != engine.chase(swap, source)

    def test_eviction_bounds_cache(self, decomposition_mapping):
        engine = ExchangeEngine(cache_size=2)
        for token in ("a", "b", "c", "d"):
            engine.chase(
                decomposition_mapping, Instance.parse(f"P({token}, x, y)")
            )
        stats = engine.stats()["chase"]
        assert stats["evictions"] == 2 and stats["entries"] == 2

    def test_no_cache_engine_always_misses(self, decomposition_mapping):
        engine = ExchangeEngine(enable_cache=False)
        source = Instance.parse("P(a, b, c)")
        engine.chase(decomposition_mapping, source)
        engine.chase(decomposition_mapping, source)
        stats = engine.stats()["chase"]
        assert stats["hits"] == 0 and stats["misses"] == 2


class TestReverseCaching:
    def test_disjunctive_branches_cached(self, disjunctive_mapping):
        engine = ExchangeEngine()
        target = Instance.parse("P'(a, a)")
        first = engine.reverse(disjunctive_mapping, target)
        second = engine.reverse(disjunctive_mapping, target)
        assert not first.cached and second.cached
        assert first.candidates == second.candidates
        assert len(first.candidates) == 2

    def test_max_nulls_option_invalidates(self, disjunctive_mapping):
        engine = ExchangeEngine()
        target = Instance.parse("P'(X, Y)")
        engine.reverse(disjunctive_mapping, target, max_nulls=4)
        engine.reverse(disjunctive_mapping, target, max_nulls=8)
        stats = engine.stats()["reverse"]
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_plain_reverse_uses_chase_cache(self, decomposition_mapping):
        engine = ExchangeEngine()
        reverse = SchemaMapping.from_text("Q(x, y) & R(y, z) -> P(x, y, z)")
        target = Instance.parse("Q(a, b), R(b, c)")
        result = engine.reverse(reverse, target)
        assert result.unique == Instance.parse("P(a, b, c)")
        # the same work is visible to a subsequent forward chase
        assert engine.chase(reverse, target) == result.unique
        assert engine.stats()["chase"]["hits"] == 1

    def test_reverse_chase_alias_matches_legacy_path(self, disjunctive_mapping):
        engine = ExchangeEngine()
        target = Instance.parse("P'(a, a)")
        via_engine = engine.reverse_chase(disjunctive_mapping, target)
        via_mapping = disjunctive_mapping.reverse_chase(target)
        assert sorted(map(str, via_engine)) == sorted(map(str, via_mapping))


class TestBatchOperations:
    def test_chase_many_dedupes_structural_duplicates(
        self, decomposition_mapping
    ):
        engine = ExchangeEngine()
        batch = [
            Instance.parse("P(a, b, c)"),
            Instance.parse("P(a, b, c)"),
            Instance.parse("P(d, e, f)"),
        ]
        results = engine.chase_many(decomposition_mapping, batch, jobs=4)
        assert len(results) == 3
        assert results[0].instance == results[1].instance
        assert engine.stats()["chase"]["misses"] == 2

    def test_chase_many_matches_serial(self, decomposition_mapping):
        engine = ExchangeEngine()
        batch = [
            Instance.parse(f"P({c}, X, {c})") for c in ("a", "b", "c", "d")
        ]
        parallel = engine.chase_many(decomposition_mapping, batch, jobs=4)
        serial = [
            ExchangeEngine(enable_cache=False).chase(decomposition_mapping, inst)
            for inst in batch
        ]
        assert [r.instance for r in parallel] == serial

    def test_chase_many_warm_cache_all_hits(self, decomposition_mapping):
        engine = ExchangeEngine()
        batch = [Instance.parse("P(a, b, c)"), Instance.parse("P(d, e, f)")]
        engine.chase_many(decomposition_mapping, batch)
        engine.chase_many(decomposition_mapping, batch)
        stats = engine.stats()["chase"]
        assert stats["hits"] == 2 and stats["misses"] == 2

    def test_reverse_many_matches_single_calls(self, disjunctive_mapping):
        engine = ExchangeEngine()
        targets = [Instance.parse("P'(a, a)"), Instance.parse("P'(b, b)")]
        many = engine.reverse_many(disjunctive_mapping, targets, jobs=4)
        singles = [
            ExchangeEngine(enable_cache=False).reverse(disjunctive_mapping, t)
            for t in targets
        ]
        for batched, single in zip(many, singles):
            assert batched.candidates == single.candidates


class TestCoreAndHomCaches:
    def test_core_cached(self):
        engine = ExchangeEngine()
        redundant = Instance.parse("Q(a, X), Q(a, b)")
        folded = engine.core(redundant)
        assert folded == plain_core(redundant)
        engine.core(redundant)
        stats = engine.stats()["core"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_hom_verdict_cached(self):
        engine = ExchangeEngine()
        left = Instance.parse("P(X, b)")
        right = Instance.parse("P(a, b)")
        assert engine.is_homomorphic(left, right)
        assert not engine.is_homomorphic(right, left)
        assert engine.is_hom_equivalent(left, left)
        stats = engine.stats()["hom"]
        assert stats["hits"] >= 1


class TestAuditAndAnswer:
    def test_audit_report_cached(self):
        engine = ExchangeEngine()
        copy = SchemaMapping.from_text("P(x, y) -> P'(x, y)")
        first = engine.audit(copy)
        second = engine.audit(copy)
        assert first.invertible.holds and first.extended_invertible.holds
        assert second.invertible.holds == first.invertible.holds
        assert not first.cached and second.cached
        stats = engine.stats()["audit"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_audit_with_reverse_candidate(self):
        engine = ExchangeEngine()
        copy = SchemaMapping.from_text("P(x, y) -> P'(x, y)")
        reverse = SchemaMapping.from_text("P'(x, y) -> P(x, y)")
        report = engine.audit(copy, reverse=reverse)
        assert report.chase_inverse is not None
        assert report.chase_inverse.holds

    def test_answer_matches_free_function(self):
        from repro.reverse.query_answering import reverse_certain_answers

        engine = ExchangeEngine()
        mapping = SchemaMapping.from_text("P(x, y) -> P'(x, y)")
        recovery = SchemaMapping.from_text("P'(x, y) -> P(x, y)")
        query = parse_query("q(x) :- P(x, y)")
        source = Instance.parse("P(1, 2), P(3, 4)")
        expected = reverse_certain_answers(mapping, recovery, query, source)
        got = engine.answer(mapping, recovery, query, source)
        assert got == expected
        assert engine.answer(mapping, recovery, query, source) == expected
        assert engine.stats()["answer"]["hits"] == 1


class TestResultShapes:
    def test_exchange_result_fields(self, decomposition_mapping):
        result = ExchangeEngine().exchange(
            decomposition_mapping, Instance.parse("P(a, b, c)")
        )
        assert isinstance(result, ExchangeResult)
        assert result.instance == Instance.parse("Q(a, b), R(b, c)")
        assert result.full.facts >= result.instance.facts
        assert result.steps == 1 and result.rounds >= 1
        assert result.provenance.key

    def test_to_chase_result_roundtrip(self, decomposition_mapping):
        source = Instance.parse("P(a, b, c)")
        via_engine = ExchangeEngine().exchange(
            decomposition_mapping, source
        ).to_chase_result()
        legacy = decomposition_mapping.exchange(source).to_chase_result()
        assert via_engine.instance == legacy.instance
        assert via_engine.generated == legacy.generated
        assert via_engine.steps == legacy.steps

    def test_reverse_result_unique_raises_on_branches(
        self, disjunctive_mapping
    ):
        result = ExchangeEngine().reverse(
            disjunctive_mapping, Instance.parse("P'(a, a)")
        )
        with pytest.raises(ValueError):
            result.unique
        assert result.instances == result.candidates

    def test_reverse_exchange_returns_reverse_result(self):
        mapping = SchemaMapping.from_text("Q(x, y) -> P(x, y)")
        result = reverse_exchange(mapping, Instance.parse("Q(a, b)"))
        assert isinstance(result, ReverseResult)
        assert result.canonical == Instance.parse("P(a, b)")


class TestDefaultEngineFacade:
    def test_schema_mapping_chase_hits_default_engine(self):
        previous = set_default_engine(ExchangeEngine())
        try:
            mapping = SchemaMapping.from_text("P(x) -> Q(x)")
            source = Instance.parse("P(a)")
            mapping.chase(source)
            mapping.chase(source)
            assert get_default_engine().stats()["chase"]["hits"] == 1
        finally:
            set_default_engine(previous)

    def test_mapping_exchange_and_reverse_shapes(self):
        previous = set_default_engine(ExchangeEngine())
        try:
            mapping = SchemaMapping.from_text("P(x) -> Q(x)")
            assert isinstance(
                mapping.exchange(Instance.parse("P(a)")), ExchangeResult
            )
            assert isinstance(
                mapping.reverse(Instance.parse("P(a)")), ReverseResult
            )
        finally:
            set_default_engine(previous)

    def test_set_default_engine_returns_previous(self):
        fresh = ExchangeEngine()
        previous = set_default_engine(fresh)
        assert set_default_engine(previous) is fresh


class TestStatsIntrospection:
    def test_stats_shape_and_render(self, decomposition_mapping):
        engine = ExchangeEngine()
        engine.chase(decomposition_mapping, Instance.parse("P(a, b, c)"))
        stats = engine.stats()
        for op in ("chase", "reverse", "hom", "core", "audit", "answer"):
            assert {"calls", "hits", "misses", "evictions", "wall_time"} <= set(
                stats[op]
            )
        assert stats["totals"]["misses"] >= 1
        rendered = engine.render_stats()
        assert "chase" in rendered and "total" in rendered

    def test_semi_naive_counters_surface(self, decomposition_mapping):
        """triggers/delta_sizes flow from ChaseResult into stats and results."""
        engine = ExchangeEngine()
        source = Instance.parse("P(a, b, c), P(b, c, d)")
        result = engine.exchange(decomposition_mapping, source)
        assert result.stats.triggers_considered >= result.stats.steps > 0
        assert result.stats.delta_sizes
        assert sum(result.stats.delta_sizes) >= len(source)
        stats = engine.stats()
        assert stats["chase"]["triggers"] == result.stats.triggers_considered
        assert stats["totals"]["triggers"] == stats["chase"]["triggers"]
        assert "triggers" in engine.render_stats()
        # Cache hits replay the recorded counters but record no new work.
        again = engine.exchange(decomposition_mapping, source)
        assert again.stats.triggers_considered == result.stats.triggers_considered
        assert engine.stats()["chase"]["triggers"] == result.stats.triggers_considered
        legacy = result.to_chase_result()
        assert legacy.triggers_considered == result.stats.triggers_considered
        assert legacy.delta_sizes == result.stats.delta_sizes

    def test_clear_empties_caches(self, decomposition_mapping):
        engine = ExchangeEngine()
        source = Instance.parse("P(a, b, c)")
        engine.chase(decomposition_mapping, source)
        engine.clear()
        engine.chase(decomposition_mapping, source)
        stats = engine.stats()["chase"]
        assert stats["hits"] == 0 and stats["misses"] == 2
