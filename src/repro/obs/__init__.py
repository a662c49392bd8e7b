"""Observability & provenance: tracing, metrics, and why-provenance.

The subsystem has three layers:

1. an **event bus** — :class:`Tracer` with typed events
   (:class:`TriggerFired`, :class:`NullMinted`, :class:`BranchOpened` /
   :class:`BranchClosed`, :class:`HomBacktrack`, :class:`CacheHit` /
   :class:`CacheMiss`) and nested :class:`~repro.obs.tracer.Span`
   timing, near-zero overhead when no tracer is installed;
2. a **provenance graph** — :class:`ProvenanceGraph` with
   ``why(fact)`` / ``lineage(null)`` / ``derivation_tree(fact)``
   queries and exact chase replay (``replay`` / ``check_replay``);
3. **sinks** — :class:`MetricsRegistry` (counters + duration
   histograms), the JSONL exporter (:func:`write_trace_jsonl`), and
   the human renderers (:func:`render_span_tree`,
   :func:`render_derivation`).

Typical use::

    from repro import Instance, SchemaMapping, chase
    from repro.obs import tracing

    M = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
    with tracing() as tracer:
        result = chase(Instance.parse("P(a, b, c)"), M.dependencies)
    graph = tracer.provenance
    graph.why(next(iter(result.generated)))      # the minting firing
    graph.check_replay(Instance.parse("P(a, b, c)"), result.instance)

The chase kernels report through one seam, :class:`ChaseObserver`
(:func:`chase_observer` resolves a kernel's tracer, profiler and
progress reporter into one observer, or ``None``); the other
instrumented call sites live in ``homs/`` and ``engine/``.  The CLI
surfaces everything via ``--trace out.jsonl`` and ``repro explain``.

Two request-scoped layers ride on top: the ambient
:class:`TraceContext` (``trace_id``/``request_id`` propagated across
process boundaries and stamped onto every span, event, and registry
row — see ``docs/OBSERVABILITY.md`` §9) and the chase profiler
(:class:`ChaseProfiler` / :class:`ChaseProfile` /
:func:`render_profile` — ``EXPLAIN ANALYZE`` for the chase, §10).
"""

from .context import (
    TraceContext,
    context_scope,
    current_context,
    mint_context,
    set_context,
)
from .events import (
    Binding,
    BranchClosed,
    BranchOpened,
    CacheHit,
    CacheMiss,
    HomBacktrack,
    NullMinted,
    TraceEvent,
    TriggerFired,
    WorkerKilled,
    event_to_dict,
    freeze_binding,
)
from .export import (
    render_budget_summary,
    render_derivation,
    render_span_tree,
    spans_from_payload,
    spans_payload,
    trace_lines,
    write_trace_jsonl,
)
from .observer import ChaseObserver, chase_observer
from .profile import (
    ChaseProfile,
    ChaseProfiler,
    DependencyProfile,
    diff_profiles,
    fingerprint_dependency,
    render_profile,
)
from .metrics import (
    BucketedHistogram,
    Histogram,
    LOG_BUCKET_BOUNDS,
    MetricsRegistry,
    openmetrics_name,
)
from .progress import (
    ProgressReporter,
    current_reporter,
    progress_scope,
    set_reporter,
)
from .provenance import (
    BranchNode,
    Derivation,
    DerivationNode,
    NullBirth,
    ProvenanceGraph,
)
from .registry import (
    BaselineComparison,
    DEFAULT_DB_PATH,
    RunDiff,
    RunRegistry,
    RunRow,
)
from .sinks import (
    JsonlSink,
    MultiSink,
    OpRecord,
    OpenMetricsSink,
    TelemetrySink,
)
from .tracer import (
    Span,
    Tracer,
    TraceState,
    current_tracer,
    maybe_span,
    set_tracer,
    tracing,
)

__all__ = [
    "BaselineComparison",
    "Binding",
    "BranchClosed",
    "BranchNode",
    "BranchOpened",
    "BucketedHistogram",
    "CacheHit",
    "CacheMiss",
    "ChaseObserver",
    "ChaseProfile",
    "ChaseProfiler",
    "DEFAULT_DB_PATH",
    "DependencyProfile",
    "Derivation",
    "DerivationNode",
    "Histogram",
    "HomBacktrack",
    "JsonlSink",
    "LOG_BUCKET_BOUNDS",
    "MetricsRegistry",
    "MultiSink",
    "NullBirth",
    "NullMinted",
    "OpRecord",
    "OpenMetricsSink",
    "ProgressReporter",
    "ProvenanceGraph",
    "RunDiff",
    "RunRegistry",
    "RunRow",
    "Span",
    "TelemetrySink",
    "TraceContext",
    "TraceEvent",
    "TraceState",
    "Tracer",
    "TriggerFired",
    "WorkerKilled",
    "chase_observer",
    "context_scope",
    "current_context",
    "current_reporter",
    "current_tracer",
    "diff_profiles",
    "event_to_dict",
    "fingerprint_dependency",
    "freeze_binding",
    "maybe_span",
    "mint_context",
    "openmetrics_name",
    "progress_scope",
    "render_budget_summary",
    "render_derivation",
    "render_profile",
    "render_span_tree",
    "set_context",
    "set_reporter",
    "set_tracer",
    "spans_from_payload",
    "spans_payload",
    "trace_lines",
    "tracing",
    "write_trace_jsonl",
]
