"""The persistent run registry: SQLite-backed history of engine operations.

Every in-process signal the obs subsystem produces dies with the
process; the registry is the memory.  One row per engine operation —
op kind, mapping/instance digests, wall time, cache outcome, work
counters, budget diagnosis, error type, and an optional metrics JSON
payload — recorded into a single-file SQLite database (default
``.repro_runs/runs.db``).  On top of the history:

* ``repro runs list|show|diff|gc`` — the CLI surface;
* :meth:`RunRegistry.compare_to_baseline` — the regression check: flag
  a run whose wall time exceeds the registry median for its baseline
  group by a configurable factor.  The group is *(op, mapping digest,
  instance digest)* — the full content address of the work — falling
  back to the blended *(op, mapping digest)* median when the exact
  group has too few prior samples (see ``docs/OBSERVABILITY.md`` §7).
  ``benchmarks/report.py --registry`` and the CI telemetry smoke job
  consume it.

The registry implements the :class:`repro.obs.sinks.TelemetrySink`
protocol, so the engine treats it as one more sink.  Writes open a
short-lived connection per record (WAL-free, autocommit), which keeps
concurrent CLI invocations safe — SQLite serializes them.
"""

from __future__ import annotations

import json
import os
import sqlite3
import statistics
from dataclasses import dataclass
from typing import List, Optional

from .sinks import OpRecord

#: Where the registry lives unless overridden (flag or ``REPRO_RUNS_DB``).
DEFAULT_DB_PATH = os.path.join(".repro_runs", "runs.db")

#: Prior runs a baseline group needs before it can judge a run.
BASELINE_MIN_SAMPLES = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
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
    triggers INTEGER NOT NULL DEFAULT 0,
    exhausted TEXT,
    error TEXT,
    trace_id TEXT NOT NULL DEFAULT '',
    request_id TEXT NOT NULL DEFAULT '',
    metrics TEXT
);
CREATE INDEX IF NOT EXISTS runs_op_mapping ON runs (op, mapping_digest);
CREATE INDEX IF NOT EXISTS runs_op_mapping_instance
    ON runs (op, mapping_digest, instance_digest);
CREATE INDEX IF NOT EXISTS runs_request_id ON runs (request_id);
"""

_COLUMNS = (
    "id", "ts", "op", "mapping_digest", "instance_digest", "wall_time",
    "cache_hit", "rounds", "steps", "facts", "nulls", "branches",
    "triggers", "exhausted", "error", "trace_id", "request_id", "metrics",
)

#: Columns added after the PR-4 schema, with their ALTER TABLE clauses —
#: opening a pre-existing database migrates it in place.
_MIGRATIONS = {
    "triggers": "triggers INTEGER NOT NULL DEFAULT 0",
    "trace_id": "trace_id TEXT NOT NULL DEFAULT ''",
    "request_id": "request_id TEXT NOT NULL DEFAULT ''",
}


@dataclass(frozen=True)
class RunRow:
    """One recorded operation, as read back from the registry."""

    id: int
    ts: float
    op: str
    mapping_digest: str
    instance_digest: str
    wall_time: float
    cache_hit: bool
    rounds: int
    steps: int
    facts: int
    nulls: int
    branches: int
    triggers: int
    exhausted: Optional[str]
    error: Optional[str]
    trace_id: str
    request_id: str
    metrics: Optional[dict]

    @property
    def ok(self) -> bool:
        """True when the run raised no error (it may be partial)."""
        return self.error is None

    @property
    def completed(self) -> bool:
        """True for a clean, non-partial run: no error, no exhaustion."""
        return self.error is None and self.exhausted is None


@dataclass(frozen=True)
class RunDiff:
    """Wall-time and counter deltas between two registry rows."""

    a: RunRow
    b: RunRow

    @property
    def wall_time_delta(self) -> float:
        """Seconds gained (negative) or lost (positive) from a to b."""
        return self.b.wall_time - self.a.wall_time

    @property
    def wall_time_ratio(self) -> float:
        """``b/a`` wall-time ratio (inf when a recorded zero time)."""
        if self.a.wall_time <= 0.0:
            return float("inf") if self.b.wall_time > 0.0 else 1.0
        return self.b.wall_time / self.a.wall_time

    def counter_deltas(self) -> dict:
        """Per-counter ``b - a`` differences for the work counters."""
        return {
            name: getattr(self.b, name) - getattr(self.a, name)
            for name in (
                "rounds",
                "steps",
                "facts",
                "nulls",
                "branches",
                "triggers",
            )
        }

    def render(self) -> str:
        """A multi-line human-readable comparison (the CLI's ``runs diff``)."""
        lines = [
            f"runs {self.a.id} -> {self.b.id} ({self.a.op})",
            (
                f"  wall time: {self.a.wall_time:.6f}s -> "
                f"{self.b.wall_time:.6f}s  "
                f"delta {self.wall_time_delta:+.6f}s "
                f"(x{self.wall_time_ratio:.2f})"
            ),
        ]
        for name, delta in self.counter_deltas().items():
            if getattr(self.a, name) or getattr(self.b, name):
                lines.append(
                    f"  {name}: {getattr(self.a, name)} -> "
                    f"{getattr(self.b, name)}  delta {delta:+d}"
                )
        if self.a.mapping_digest != self.b.mapping_digest:
            lines.append("  warning: the runs chased different mappings")
        return "\n".join(lines)


@dataclass(frozen=True)
class BaselineComparison:
    """Verdict of :meth:`RunRegistry.compare_to_baseline` for one run.

    ``scope`` records which baseline group produced the median:
    ``"exact"`` (same op + mapping digest + instance digest — the run's
    full content address), ``"blended"`` (same op + mapping digest, any
    instance — the fallback when the exact group is too thin), or
    ``"none"`` (no baseline at all; ``median`` is ``None``).
    """

    run_id: int
    op: str
    wall_time: float
    median: Optional[float]
    samples: int
    factor: float
    regressed: bool
    scope: str = "none"

    @property
    def ratio(self) -> Optional[float]:
        """Run wall time over the baseline median (``None`` if no baseline)."""
        if self.median is None or self.median <= 0.0:
            return None
        return self.wall_time / self.median

    def render(self) -> str:
        """One-line verdict for CLI/CI output."""
        if self.median is None:
            return (
                f"run {self.run_id} ({self.op}): no baseline "
                f"({self.samples} comparable samples) -> ok"
            )
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"run {self.run_id} ({self.op}): {self.wall_time:.6f}s vs "
            f"{self.scope} median {self.median:.6f}s over {self.samples} runs "
            f"(x{self.ratio:.2f}, threshold x{self.factor:.2f}) -> {verdict}"
        )


class RunRegistry:
    """SQLite-backed persistent run history (one row per operation).

    Usable directly or as an engine telemetry sink.  Connections are
    per-call and short-lived, so several processes may share a file.
    """

    def __init__(self, path: str = DEFAULT_DB_PATH) -> None:
        """Open (or create) the SQLite registry at *path*.

        Databases created by earlier releases are migrated in place:
        columns added since (``triggers``, ``trace_id``,
        ``request_id``) are ``ALTER TABLE``-d in with their defaults
        before the schema script runs, so old history stays readable
        and new rows carry the new fields."""
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with self._connect() as connection:
            existing = {
                row[1]
                for row in connection.execute("PRAGMA table_info(runs)")
            }
            if existing:
                for column, clause in _MIGRATIONS.items():
                    if column not in existing:
                        connection.execute(
                            f"ALTER TABLE runs ADD COLUMN {clause}"
                        )
            connection.executescript(_SCHEMA)

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(self.path, timeout=10.0)

    # -- the sink protocol ---------------------------------------------

    def record(
        self, record: OpRecord, metrics: Optional[dict] = None
    ) -> int:
        """Insert one operation row; returns the new row id."""
        with self._connect() as connection:
            cursor = connection.execute(
                "INSERT INTO runs (ts, op, mapping_digest, instance_digest,"
                " wall_time, cache_hit, rounds, steps, facts, nulls,"
                " branches, triggers, exhausted, error, trace_id,"
                " request_id, metrics)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.ts,
                    record.op,
                    record.mapping_digest,
                    record.instance_digest,
                    record.wall_time,
                    int(record.cache_hit),
                    record.rounds,
                    record.steps,
                    record.facts,
                    record.nulls,
                    record.branches,
                    record.triggers,
                    record.exhausted,
                    record.error,
                    record.trace_id,
                    record.request_id,
                    json.dumps(metrics, sort_keys=True)
                    if metrics is not None
                    else None,
                ),
            )
            return int(cursor.lastrowid)

    def close(self) -> None:
        """Part of the sink protocol; connections are per-call, no-op."""

    # -- reading --------------------------------------------------------

    @staticmethod
    def _row(values: tuple) -> RunRow:
        data = dict(zip(_COLUMNS, values))
        data["cache_hit"] = bool(data["cache_hit"])
        data["metrics"] = (
            json.loads(data["metrics"]) if data["metrics"] else None
        )
        return RunRow(**data)

    def list_runs(
        self,
        limit: int = 20,
        op: Optional[str] = None,
        mapping_digest: Optional[str] = None,
    ) -> List[RunRow]:
        """The most recent rows, newest first."""
        clauses, params = [], []
        if op is not None:
            clauses.append("op = ?")
            params.append(op)
        if mapping_digest is not None:
            clauses.append("mapping_digest = ?")
            params.append(mapping_digest)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        params.append(limit)
        with self._connect() as connection:
            rows = connection.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM runs{where}"
                " ORDER BY id DESC LIMIT ?",
                params,
            ).fetchall()
        return [self._row(values) for values in rows]

    def get(self, run_id: int) -> RunRow:
        """The stored row for *run_id*; raises ``KeyError`` if absent."""
        with self._connect() as connection:
            values = connection.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM runs WHERE id = ?",
                (run_id,),
            ).fetchone()
        if values is None:
            raise KeyError(f"no run with id {run_id} in {self.path}")
        return self._row(values)

    def diff(self, first_id: int, second_id: int) -> RunDiff:
        """A :class:`RunDiff` comparing two stored runs."""
        return RunDiff(a=self.get(first_id), b=self.get(second_id))

    def gc(self, keep: int = 1000) -> int:
        """Delete all but the newest *keep* rows; returns rows deleted."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        with self._connect() as connection:
            cursor = connection.execute(
                "DELETE FROM runs WHERE id NOT IN"
                " (SELECT id FROM runs ORDER BY id DESC LIMIT ?)",
                (keep,),
            )
            return cursor.rowcount

    def __len__(self) -> int:
        with self._connect() as connection:
            (count,) = connection.execute(
                "SELECT COUNT(*) FROM runs"
            ).fetchone()
        return int(count)

    # -- the regression check ------------------------------------------

    def baseline_wall_times(
        self, run: RunRow, instance_digest: Optional[str] = None
    ) -> List[float]:
        """Comparable prior samples for *run*'s baseline group.

        Samples are completed (no error, no exhaustion), computed (no
        cache hit), recorded before *run*, and match its op and mapping
        digest.  With *instance_digest* (the exact scope) they must
        also match it — the default (``None``) keeps the historical
        blended scope of all instances under the mapping."""
        query = (
            "SELECT wall_time FROM runs WHERE op = ? AND"
            " mapping_digest = ? AND error IS NULL AND"
            " exhausted IS NULL AND cache_hit = 0 AND id < ?"
        )
        params: list = [run.op, run.mapping_digest, run.id]
        if instance_digest is not None:
            query += " AND instance_digest = ?"
            params.append(instance_digest)
        with self._connect() as connection:
            rows = connection.execute(query, params).fetchall()
        return [wall_time for (wall_time,) in rows]

    def compare_to_baseline(
        self, run_id: int, factor: float = 2.0
    ) -> BaselineComparison:
        """Judge *run_id*'s wall time against its baseline group's median.

        The run is flagged when it exceeds that median by more than
        *factor*.

        The baseline group is the run's full content address — *(op,
        mapping digest, instance digest)* — so a large instance's run is
        never judged against the medians of small ones chased under the
        same mapping.  When the exact group has fewer than
        :data:`BASELINE_MIN_SAMPLES` prior runs, the check falls back to
        the blended *(op, mapping digest)* group (``scope="blended"``);
        with too few samples there as well there is no baseline and the
        verdict is ``regressed=False`` (``median`` is ``None``,
        ``scope="none"``) — a fresh registry never cries wolf.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        run = self.get(run_id)
        scope = "exact"
        samples = self.baseline_wall_times(
            run, instance_digest=run.instance_digest
        )
        if len(samples) < BASELINE_MIN_SAMPLES:
            scope = "blended"
            samples = self.baseline_wall_times(run)
        if len(samples) < BASELINE_MIN_SAMPLES:
            return BaselineComparison(
                run_id=run.id,
                op=run.op,
                wall_time=run.wall_time,
                median=None,
                samples=len(samples),
                factor=factor,
                regressed=False,
                scope="none",
            )
        median = statistics.median(samples)
        regressed = run.wall_time > factor * median and run.completed
        return BaselineComparison(
            run_id=run.id,
            op=run.op,
            wall_time=run.wall_time,
            median=median,
            samples=len(samples),
            factor=factor,
            regressed=regressed,
            scope=scope,
        )


__all__ = [
    "BaselineComparison",
    "DEFAULT_DB_PATH",
    "RunDiff",
    "RunRegistry",
    "RunRow",
]
