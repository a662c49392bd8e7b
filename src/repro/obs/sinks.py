"""Telemetry sinks: where engine operation records go when configured.

The observability subsystem (tracer, metrics, provenance) is rich but
ephemeral — everything lives in process memory and evaporates on exit.
Sinks are the export layer: after every operation the engine builds one
:class:`OpRecord` (op kind, content digests, wall time, cache outcome,
work counters, budget diagnosis, error type) and hands it to each
configured :class:`TelemetrySink`.

Three implementations:

* :class:`JsonlSink` — structured log: one JSON object per operation,
  appended to a file (the machine-readable audit trail);
* :class:`OpenMetricsSink` — maintains a :class:`MetricsRegistry` of
  operation counters and wall-time histograms (fixed-log-bucket, so
  worker merges stay exact) and rewrites an OpenMetrics/Prometheus text
  file after each flush — the node-exporter textfile-collector pattern;
* :class:`MultiSink` — in-process fan-out to several sinks.

With no sink configured the engine pays one attribute check per
operation.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

from .metrics import MetricsRegistry

try:  # pragma: no cover - typing_extensions-free 3.7 fallbacks not needed
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient pythons only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@dataclass(frozen=True)
class OpRecord:
    """One engine operation, flattened for export.

    ``exhausted`` is the tripped resource name from the
    :class:`repro.limits.Exhausted` diagnosis (``"deadline"``,
    ``"rounds"``, …; ``None`` for completed runs); ``error`` the
    exception class name for failed items; ``batch_index`` the item's
    position when the operation ran inside ``chase_many`` /
    ``reverse_many``; ``kills`` how many hung workers the supervisor
    had to terminate while running the item (0 outside supervised
    batches).

    ``triggers`` counts the premise bindings the operation's chase
    enumerated (``ChaseResult.triggers_considered``), so ops-log lines
    and registry rows agree with ``engine.stats()`` per operation.
    ``trace_id``/``request_id`` carry the ambient
    :class:`repro.obs.context.TraceContext` of the originating request
    (empty outside one), making every exported record correlatable to
    the CLI invocation or HTTP call that caused it.
    """

    op: str
    mapping_digest: str = ""
    instance_digest: str = ""
    wall_time: float = 0.0
    cache_hit: bool = False
    rounds: int = 0
    steps: int = 0
    facts: int = 0
    nulls: int = 0
    branches: int = 0
    triggers: int = 0
    exhausted: Optional[str] = None
    error: Optional[str] = None
    batch_index: Optional[int] = None
    attempts: int = 1
    kills: int = 0
    trace_id: str = ""
    request_id: str = ""
    ts: float = field(default_factory=time.time)

    def as_dict(self) -> dict:
        """The record as a plain dict (the JSONL line payload)."""
        return asdict(self)


@runtime_checkable
class TelemetrySink(Protocol):
    """What the engine needs from a sink: record operations, close."""

    def record(self, record: OpRecord) -> None:  # pragma: no cover
        """Accept one finished-operation record."""
        ...

    def close(self) -> None:  # pragma: no cover
        """Flush and release any held resources (idempotent)."""
        ...


class JsonlSink:
    """Structured operation log: one JSON object per line, appended.

    The file handle stays open across records (one ``write`` + flush per
    operation); ``close()`` is idempotent.
    """

    def __init__(self, path: str) -> None:
        """Open (append mode) the log at *path*, creating parents."""
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        self.records = 0

    def record(self, record: OpRecord) -> None:
        """Append one record as a sorted-key JSON line and flush."""
        if self._handle is None:
            return
        self._handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
        self._handle.flush()
        self.records += 1

    def close(self) -> None:
        """Close the file handle; later records are ignored."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class OpenMetricsSink:
    """Aggregates operation records into an OpenMetrics text file.

    Counters: ``repro_ops_<op>_total``, ``..._cache_hits_total``,
    ``..._errors_total``, ``..._exhausted_total``, plus work totals
    (rounds/steps/facts/nulls/branches).  Wall times feed per-op
    histograms with the fixed log buckets of
    :class:`repro.obs.metrics.BucketedHistogram`, so a file produced
    from merged worker registries equals the single-process one.

    The file is rewritten atomically (temp file + rename) after every
    record, matching how Prometheus textfile collectors expect to read
    it, and once more on ``close()``.  ``extra`` (when given) is merged
    into the output at write time — the CLI passes the engine tracer's
    registry through it so span histograms are exported alongside
    operation counters.
    """

    def __init__(self, path: str) -> None:
        """Aggregate into *path*, creating its directory if needed."""
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self.registry = MetricsRegistry()
        self.extra: Optional[MetricsRegistry] = None
        self.records = 0
        self.writes = 0
        self._closed = False

    def record(self, record: OpRecord) -> None:
        """Fold one record into the registry and rewrite the file."""
        if self._closed:
            return
        registry = self.registry
        registry.inc(f"ops.{record.op}")
        if record.cache_hit:
            registry.inc(f"ops.{record.op}.cache_hits")
        if record.error is not None:
            registry.inc(f"ops.{record.op}.errors")
        if record.exhausted is not None:
            registry.inc(f"ops.{record.op}.exhausted")
        for counter in (
            "rounds",
            "steps",
            "facts",
            "nulls",
            "branches",
            "triggers",
            "kills",
        ):
            amount = getattr(record, counter)
            if amount:
                registry.inc(f"ops.{record.op}.{counter}", amount)
        registry.observe(f"op.{record.op}.wall_time", record.wall_time)
        self.records += 1
        self.write()

    def render(self) -> str:
        """The current exposition text (own registry merged with extra)."""
        if self.extra is None:
            return self.registry.to_openmetrics()
        merged = MetricsRegistry()
        merged.merge(self.registry)
        merged.merge(self.extra)
        return merged.to_openmetrics()

    def write(self) -> None:
        """Atomically rewrite the exposition file."""
        directory = os.path.dirname(os.path.abspath(self.path))
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".om-", dir=directory, text=True
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(self.render())
            os.replace(temp_path, self.path)
        except BaseException:  # pragma: no cover - disk-level failures
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.writes += 1

    def close(self) -> None:
        """One final unconditional write, then ignore further records."""
        if not self._closed:
            self.write()
            self._closed = True


class MultiSink:
    """In-process fan-out: every record goes to every child sink.

    A child raising does not starve its siblings — the first error is
    re-raised after all children were offered the record.
    """

    def __init__(self, sinks: Sequence[TelemetrySink]) -> None:
        """Wrap *sinks*; order defines record delivery order."""
        self.sinks: List[TelemetrySink] = list(sinks)

    def record(self, record: OpRecord) -> None:
        """Offer the record to every child; re-raise the first error."""
        first_error: Optional[BaseException] = None
        for sink in self.sinks:
            try:
                sink.record(record)
            except Exception as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def close(self) -> None:
        """Close every child; re-raise the first error afterwards."""
        first_error: Optional[BaseException] = None
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error


__all__ = [
    "JsonlSink",
    "MultiSink",
    "OpRecord",
    "OpenMetricsSink",
    "TelemetrySink",
]
