"""Unit tests for the persistent SQLite run registry."""

import argparse

import pytest

from repro.cli import _registry_path
from repro.obs import (
    MetricsRegistry,
    OpRecord,
    RunRegistry,
    TelemetrySink,
)


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(str(tmp_path / "runs.db"))


def _chase(wall_time=0.1, **overrides):
    defaults = dict(
        op="chase",
        mapping_digest="m" * 16,
        instance_digest="i" * 16,
        wall_time=wall_time,
        rounds=2,
        steps=7,
        facts=12,
        nulls=3,
    )
    defaults.update(overrides)
    return OpRecord(**defaults)


class TestRecordAndRead:
    def test_record_returns_increasing_ids(self, registry):
        first = registry.record(_chase())
        second = registry.record(_chase())
        assert second > first
        assert len(registry) == 2

    def test_get_round_trips_every_field(self, registry):
        run_id = registry.record(
            _chase(cache_hit=True, exhausted="deadline", error="Cancelled")
        )
        row = registry.get(run_id)
        assert row.op == "chase"
        assert row.mapping_digest == "m" * 16
        assert row.wall_time == pytest.approx(0.1)
        assert row.cache_hit is True
        assert (row.rounds, row.steps, row.facts, row.nulls) == (2, 7, 12, 3)
        assert row.exhausted == "deadline"
        assert row.error == "Cancelled"
        assert not row.ok and not row.completed

    def test_completed_semantics(self, registry):
        clean = registry.get(registry.record(_chase()))
        partial = registry.get(registry.record(_chase(exhausted="rounds")))
        assert clean.ok and clean.completed
        assert partial.ok and not partial.completed

    def test_get_unknown_id_raises_keyerror(self, registry):
        with pytest.raises(KeyError, match="no run with id 99"):
            registry.get(99)

    def test_metrics_json_round_trip(self, registry):
        metrics = MetricsRegistry()
        metrics.inc("events.TriggerFired", 4)
        metrics.observe("span.chase", 0.25)
        run_id = registry.record(_chase(), metrics=metrics.as_dict())
        row = registry.get(run_id)
        assert row.metrics["counters"]["events.TriggerFired"] == 4
        assert row.metrics["histograms"]["span.chase"]["count"] == 1

    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "runs.db")
        RunRegistry(path).record(_chase())
        assert len(RunRegistry(path)) == 1

    def test_usable_as_engine_sink(self, registry):
        assert isinstance(registry, TelemetrySink)
        registry.record(OpRecord(op="audit"))
        registry.close()  # no-op, must not raise
        assert len(registry) == 1


class TestListRuns:
    def test_newest_first_and_limit(self, registry):
        ids = [registry.record(_chase(wall_time=i / 10)) for i in range(5)]
        rows = registry.list_runs(limit=3)
        assert [row.id for row in rows] == ids[:1:-1]

    def test_filters(self, registry):
        registry.record(_chase())
        registry.record(OpRecord(op="core", instance_digest="x"))
        registry.record(_chase(mapping_digest="other"))
        assert {row.op for row in registry.list_runs(op="core")} == {"core"}
        by_mapping = registry.list_runs(mapping_digest="m" * 16)
        assert len(by_mapping) == 1
        assert by_mapping[0].mapping_digest == "m" * 16


class TestDiff:
    def test_wall_time_delta_and_counters(self, registry):
        a = registry.record(_chase(wall_time=0.1, steps=7))
        b = registry.record(_chase(wall_time=0.3, steps=10))
        diff = registry.diff(a, b)
        assert diff.wall_time_delta == pytest.approx(0.2)
        assert diff.wall_time_ratio == pytest.approx(3.0)
        assert diff.counter_deltas()["steps"] == 3
        text = diff.render()
        assert f"runs {a} -> {b} (chase)" in text
        assert "wall time:" in text and "(x3.00)" in text

    def test_render_warns_on_mapping_mismatch(self, registry):
        a = registry.record(_chase())
        b = registry.record(_chase(mapping_digest="other"))
        assert "different mappings" in registry.diff(a, b).render()

    def test_zero_baseline_ratio(self, registry):
        a = registry.record(_chase(wall_time=0.0))
        b = registry.record(_chase(wall_time=0.5))
        assert registry.diff(a, b).wall_time_ratio == float("inf")


class TestGc:
    def test_keeps_newest(self, registry):
        ids = [registry.record(_chase()) for _ in range(6)]
        deleted = registry.gc(keep=2)
        assert deleted == 4
        assert [row.id for row in registry.list_runs()] == ids[:3:-1]

    def test_rejects_negative_keep(self, registry):
        with pytest.raises(ValueError):
            registry.gc(keep=-1)


class TestCompareToBaseline:
    def seed_baseline(self, registry, times=(0.1, 0.12, 0.11)):
        for wall_time in times:
            registry.record(_chase(wall_time=wall_time))

    def test_regression_flagged(self, registry):
        self.seed_baseline(registry)
        slow = registry.record(_chase(wall_time=0.5))
        verdict = registry.compare_to_baseline(slow)
        assert verdict.regressed
        assert verdict.median == pytest.approx(0.11)
        assert verdict.samples == 3
        assert "REGRESSED" in verdict.render()

    def test_high_factor_passes(self, registry):
        self.seed_baseline(registry)
        slow = registry.record(_chase(wall_time=0.5))
        verdict = registry.compare_to_baseline(slow, factor=10.0)
        assert not verdict.regressed
        assert verdict.render().endswith("-> ok")

    def test_too_few_samples_never_regresses(self, registry):
        registry.record(_chase(wall_time=0.1))
        slow = registry.record(_chase(wall_time=99.0))
        verdict = registry.compare_to_baseline(slow)
        assert not verdict.regressed
        assert verdict.median is None
        assert "no baseline" in verdict.render()

    def test_incomparable_rows_excluded_from_baseline(self, registry):
        # Cache hits, errors, exhausted runs, and other mappings must not
        # pollute the baseline.
        registry.record(_chase(wall_time=0.001, cache_hit=True))
        registry.record(_chase(wall_time=0.001, error="ValueError"))
        registry.record(_chase(wall_time=0.001, exhausted="deadline"))
        registry.record(_chase(wall_time=0.001, mapping_digest="other"))
        self.seed_baseline(registry)
        slow = registry.record(_chase(wall_time=0.5))
        verdict = registry.compare_to_baseline(slow)
        assert verdict.samples == 3
        assert verdict.median == pytest.approx(0.11)

    def test_partial_run_itself_never_regresses(self, registry):
        self.seed_baseline(registry)
        slow = registry.record(_chase(wall_time=9.0, exhausted="deadline"))
        assert not registry.compare_to_baseline(slow).regressed

    def test_rejects_nonpositive_factor(self, registry):
        run_id = registry.record(_chase())
        with pytest.raises(ValueError):
            registry.compare_to_baseline(run_id, factor=0.0)


class TestBaselineScope:
    """Baselines group on (op, mapping, instance); blended is a fallback.

    One mapping chased over instances of wildly different sizes used to
    blend into a single baseline, so a slow-but-normal big instance
    read as a regression against the small instances' median.  The
    exact scope compares same-instance history only; blended keeps the
    old behavior when no same-instance history exists.
    """

    def test_exact_scope_preferred(self, registry):
        # small-instance history that would dominate a blended median
        for wall_time in (0.001, 0.001, 0.001):
            registry.record(_chase(wall_time=wall_time, instance_digest="small"))
        # same-instance history for the big instance
        for wall_time in (0.5, 0.52, 0.51):
            registry.record(_chase(wall_time=wall_time, instance_digest="big"))
        run = registry.record(_chase(wall_time=0.55, instance_digest="big"))
        verdict = registry.compare_to_baseline(run)
        assert verdict.scope == "exact"
        assert verdict.median == pytest.approx(0.51)
        assert not verdict.regressed
        assert "exact median" in verdict.render()

    def test_blended_fallback_when_instance_unseen(self, registry):
        for wall_time in (0.1, 0.12, 0.11):
            registry.record(_chase(wall_time=wall_time, instance_digest="a"))
        run = registry.record(_chase(wall_time=0.115, instance_digest="new"))
        verdict = registry.compare_to_baseline(run)
        assert verdict.scope == "blended"
        assert verdict.median == pytest.approx(0.11)
        assert "blended median" in verdict.render()

    def test_exact_scope_avoids_false_regression(self, registry):
        # the failure mode the fix exists for: a big instance judged
        # against small-instance history
        for wall_time in (0.001, 0.001, 0.001):
            registry.record(_chase(wall_time=wall_time, instance_digest="small"))
        for wall_time in (0.5, 0.52, 0.51):
            registry.record(_chase(wall_time=wall_time, instance_digest="big"))
        run = registry.record(_chase(wall_time=0.55, instance_digest="big"))
        assert not registry.compare_to_baseline(run).regressed

    def test_no_history_scope_none(self, registry):
        run = registry.record(_chase())
        verdict = registry.compare_to_baseline(run)
        assert verdict.scope == "none"
        assert verdict.median is None


class TestRegistryFromEnv:
    """``REPRO_RUNS_DB`` names the registry (resolved by the CLI)."""

    @pytest.mark.parametrize("value", ["", "off", "0", "none", "DISABLED"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_RUNS_DB", value)
        assert _registry_path(argparse.Namespace()) is None

    def test_path_opens_registry(self, monkeypatch, tmp_path):
        path = str(tmp_path / "env.db")
        monkeypatch.setenv("REPRO_RUNS_DB", path)
        registry = RunRegistry(_registry_path(argparse.Namespace()))
        assert registry.path == path
        registry.record(_chase())
        assert len(registry) == 1


class TestSchemaMigration:
    """Opening a pre-PR-9 database migrates it in place."""

    _OLD_SCHEMA = """
    CREATE TABLE runs (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        ts REAL NOT NULL,
        op TEXT NOT NULL,
        mapping_digest TEXT NOT NULL DEFAULT '',
        instance_digest TEXT NOT NULL DEFAULT '',
        wall_time REAL NOT NULL DEFAULT 0.0,
        cache_hit INTEGER NOT NULL DEFAULT 0,
        rounds INTEGER NOT NULL DEFAULT 0,
        steps INTEGER NOT NULL DEFAULT 0,
        facts INTEGER NOT NULL DEFAULT 0,
        nulls INTEGER NOT NULL DEFAULT 0,
        branches INTEGER NOT NULL DEFAULT 0,
        exhausted TEXT,
        error TEXT,
        metrics TEXT
    );
    """

    def _old_db(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "old.db")
        with sqlite3.connect(path) as connection:
            connection.executescript(self._OLD_SCHEMA)
            connection.execute(
                "INSERT INTO runs (ts, op, wall_time) VALUES (1.0, 'chase', 0.5)"
            )
        return path

    def test_old_rows_stay_readable_with_defaults(self, tmp_path):
        registry = RunRegistry(self._old_db(tmp_path))
        (row,) = registry.list_runs(limit=10)
        assert row.op == "chase" and row.wall_time == 0.5
        assert row.triggers == 0
        assert row.trace_id == "" and row.request_id == ""

    def test_new_rows_carry_new_columns(self, tmp_path):
        registry = RunRegistry(self._old_db(tmp_path))
        run_id = registry.record(
            _chase(triggers=9, trace_id="t" * 16, request_id="r1")
        )
        row = registry.get(run_id)
        assert row.triggers == 9
        assert row.trace_id == "t" * 16 and row.request_id == "r1"

    def test_migration_is_idempotent(self, tmp_path):
        path = self._old_db(tmp_path)
        RunRegistry(path)
        registry = RunRegistry(path)  # reopen: no duplicate-column error
        assert len(registry) == 1
