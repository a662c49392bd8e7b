"""Unit tests for the chase profiler (repro.obs.profile)."""

from __future__ import annotations

import json

from repro import Instance, SchemaMapping, chase
from repro.chase.disjunctive import reverse_disjunctive_chase
from repro.engine import ExchangeEngine
from repro.obs import (
    ChaseProfile,
    ChaseProfiler,
    diff_profiles,
    fingerprint_dependency,
    render_profile,
)

CLOSURE = SchemaMapping.from_text(
    "S(x, y) -> T(x, y); T(x, y) & T(y, z) -> T(x, z)"
)
CHAIN = Instance.parse("S(a, b), S(b, c), S(c, d)")


def _profiled_chase():
    profiler = ChaseProfiler()
    result = chase(CHAIN, CLOSURE.dependencies, profiler=profiler)
    return result, profiler.profile()


class TestFingerprint:
    def test_stable_across_objects(self):
        tgd = CLOSURE.dependencies[0]
        clone = SchemaMapping.from_text(str(tgd)).dependencies[0]
        assert fingerprint_dependency(tgd) == fingerprint_dependency(clone)

    def test_distinct_dependencies_differ(self):
        a, b = CLOSURE.dependencies
        assert fingerprint_dependency(a) != fingerprint_dependency(b)

    def test_accepts_text(self):
        tgd = CLOSURE.dependencies[0]
        assert fingerprint_dependency(str(tgd)) == fingerprint_dependency(tgd)


class TestProfiledChase:
    def test_considered_sums_to_chase_counter(self):
        result, profile = _profiled_chase()
        assert profile.triggers_considered == result.triggers_considered
        per_round = sum(
            cell.considered
            for dep in profile.dependencies
            for cell in dep.rounds
        )
        assert per_round == result.triggers_considered

    def test_profiling_never_changes_the_result(self):
        plain = chase(CHAIN, CLOSURE.dependencies)
        profiled, _ = _profiled_chase()
        assert str(plain.instance) == str(profiled.instance)
        assert plain.steps == profiled.steps
        assert plain.rounds == profiled.rounds

    def test_fired_and_facts_accounted(self):
        result, profile = _profiled_chase()
        assert sum(d.fired for d in profile.dependencies) == result.steps
        assert sum(d.facts for d in profile.dependencies) == len(
            result.generated
        )

    def test_rows_keyed_by_fingerprint(self):
        _, profile = _profiled_chase()
        expected = {fingerprint_dependency(d) for d in CLOSURE.dependencies}
        assert {d.fingerprint for d in profile.dependencies} == expected

    def test_hottest_dependency_first(self):
        _, profile = _profiled_chase()
        times = [d.self_time for d in profile.dependencies]
        assert times == sorted(times, reverse=True)

    def test_nulls_attributed(self):
        mapping = SchemaMapping.from_text("P(x) -> EXISTS z . Q(x, z)")
        profiler = ChaseProfiler()
        chase(Instance.parse("P(a)"), mapping.dependencies, profiler=profiler)
        (dep,) = profiler.profile().dependencies
        assert dep.nulls == 1


class TestDisjunctiveProfile:
    def test_reverse_profile_is_branch_aware(self, self_join_reverse):
        profiler = ChaseProfiler()
        reverse_disjunctive_chase(
            Instance.parse("P'(N1, N2)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
            profiler=profiler,
        )
        profile = profiler.profile()
        assert profile.dependencies
        assert all(d.branch is not None for d in profile.dependencies)
        assert len({d.branch for d in profile.dependencies}) >= 2


class TestSummaryRoundTrip:
    def test_summary_is_json_safe_and_lossless(self):
        _, profile = _profiled_chase()
        data = json.loads(json.dumps(profile.to_summary()))
        rebuilt = ChaseProfile.from_summary(data)
        assert rebuilt == profile

    def test_from_summary_none_safe(self):
        assert ChaseProfile.from_summary(None) is None
        assert ChaseProfile.from_summary({}) is None


class TestRendering:
    def test_render_profile_table(self):
        result, profile = _profiled_chase()
        text = render_profile(profile)
        assert f"{result.triggers_considered} triggers considered" in text
        for dep in CLOSURE.dependencies:
            assert fingerprint_dependency(dep) in text

    def test_render_empty_profile(self):
        text = render_profile(ChaseProfiler().profile())
        assert "(no dependencies profiled)" in text

    def test_diff_attributes_movement(self):
        _, before = _profiled_chase()
        _, after = _profiled_chase()
        text = diff_profiles(before, after)
        assert text.startswith("profile diff: total")
        for dep in CLOSURE.dependencies:
            assert fingerprint_dependency(dep) in text

    def test_diff_marks_appeared_and_removed(self):
        _, profile = _profiled_chase()
        empty = ChaseProfiler().profile()
        assert "appeared" in diff_profiles(empty, profile)
        assert "removed" in diff_profiles(profile, empty)


class TestEngineProfileKnob:
    def test_engine_exposes_last_profile(self):
        engine = ExchangeEngine(profile=True, registry=None)
        result = engine.exchange(CLOSURE, CHAIN)
        profile = engine.last_profile
        assert profile is not None
        assert (
            profile.triggers_considered == result.stats.triggers_considered
        )

    def test_profile_off_by_default(self):
        engine = ExchangeEngine(registry=None)
        engine.exchange(CLOSURE, CHAIN)
        assert engine.last_profile is None
