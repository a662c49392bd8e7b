"""The event bus: tracer, spans, and the ambient current tracer.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Instrumentation points fetch
   the ambient tracer once per operation (:func:`current_tracer`, a
   plain module-global read).  The chase kernels fold it, with the
   profiler and progress reporter, into one
   :class:`~repro.obs.observer.ChaseObserver` and guard every
   inner-loop hook with one ``None`` check; with nothing attached they
   build no event and read no clock.
2. **Mergeable across workers.**  A tracer snapshots to a picklable
   :class:`TraceState`; the engine's batch paths run each worker under
   a private tracer and :meth:`Tracer.absorb` the states on join, so a
   fanned-out ``chase_many`` produces one coherent trace.
3. **One object, three sinks.**  Emitted events land in the event list
   (for the JSONL exporter), the metrics registry (event counters +
   span-duration histograms), and the provenance graph — all owned by
   the tracer, no global registries.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .context import current_context
from .events import TraceEvent
from .metrics import MetricsRegistry
from .provenance import ProvenanceGraph


@dataclass
class Span:
    """A named, timed section of work with parent linkage.

    ``trace_id``/``request_id`` carry the ambient
    :class:`~repro.obs.context.TraceContext` active when the span was
    opened (empty outside a request), so spans from different
    processes serving the same request correlate."""

    name: str
    span_id: int
    parent_id: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    start: float = 0.0
    end: Optional[float] = None
    trace_id: str = ""
    request_id: str = ""

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class TraceState:
    """A picklable snapshot of a tracer, for cross-process merging."""

    events: Tuple[TraceEvent, ...]
    spans: Tuple[Span, ...]
    metrics: dict


class Tracer:
    """The observability session object: event bus + spans + sinks.

    Tracing is off when no tracer is given or installed (``None``);
    ``provenance=False`` skips the provenance graph (events and metrics
    only).  Thread-safe: instrumented library code may emit from several
    threads at once (``repro serve`` handles requests on threads).
    """

    def __init__(self, provenance: bool = True) -> None:
        """An empty tracer; *provenance* also builds the derivation graph."""
        self.events: List[TraceEvent] = []
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self._provenance: Optional[ProvenanceGraph] = (
            ProvenanceGraph() if provenance else None
        )
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._clock = time.perf_counter

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        """Record one typed event into all three sinks."""
        with self._lock:
            self.events.append(event)
            self.metrics.inc(f"events.{event.kind}")
            if self._provenance is not None:
                self._provenance.record(event)

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a timed span; nests via a per-thread span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        context = current_context()
        with self._lock:
            span = Span(
                name=name,
                span_id=next(self._ids),
                parent_id=stack[-1].span_id if stack else None,
                attrs=dict(attrs),
                trace_id=context.trace_id if context is not None else "",
                request_id=context.request_id if context is not None else "",
            )
            self.spans.append(span)
        stack.append(span)
        span.start = self._clock()
        try:
            yield span
        finally:
            span.end = self._clock()
            stack.pop()
            with self._lock:
                self.metrics.observe(f"span.{name}", span.duration)

    # ------------------------------------------------------------------
    # Sinks and lifecycle
    # ------------------------------------------------------------------

    @property
    def provenance(self) -> Optional[ProvenanceGraph]:
        """The provenance graph built from the emitted events."""
        return self._provenance

    def export_state(self) -> TraceState:
        """Snapshot everything into a picklable :class:`TraceState`."""
        with self._lock:
            return TraceState(
                events=tuple(self.events),
                spans=tuple(self.spans),
                metrics=self.metrics.export_payload(),
            )

    def absorb(
        self, state: TraceState, parent_id: Optional[int] = None
    ) -> None:
        """Merge a worker's :class:`TraceState` into this tracer.

        Events re-feed the provenance graph; span ids are re-based so
        merged span trees stay internally consistent.  *parent_id* (an
        id already in **this** tracer, e.g. the batch span the worker
        was fanned out under) re-parents the worker's root spans, so a
        cross-process request stitches into one tree instead of
        leaving orphaned roots."""
        with self._lock:
            base = 0
            for span in state.spans:
                base = max(base, span.span_id)
            offset = next(self._ids)
            for _ in range(base):
                next(self._ids)
            for span in state.spans:
                self.spans.append(
                    Span(
                        name=span.name,
                        span_id=span.span_id + offset,
                        parent_id=(
                            span.parent_id + offset
                            if span.parent_id is not None
                            else parent_id
                        ),
                        attrs=dict(span.attrs),
                        start=span.start,
                        end=span.end,
                        trace_id=getattr(span, "trace_id", ""),
                        request_id=getattr(span, "request_id", ""),
                    )
                )
            self.metrics.merge_payload(state.metrics)
            for event in state.events:
                self.events.append(event)
                if self._provenance is not None:
                    self._provenance.record(event)

    def clear(self) -> None:
        """Drop all recorded events, spans, metrics, and provenance."""
        with self._lock:
            self.events.clear()
            self.spans.clear()
            self.metrics = MetricsRegistry()
            if self._provenance is not None:
                self._provenance = ProvenanceGraph()


# ----------------------------------------------------------------------
# The ambient (module-level) tracer
# ----------------------------------------------------------------------

_current: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is off (the default).

    Instrumentation points call this once per operation and keep the
    result in a local — the disabled-path cost is one global read."""
    return _current


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install *tracer* as the ambient tracer; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Scope an ambient tracer: ``with tracing() as t: ... t.events``."""
    if tracer is None:
        tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str, **attrs):
    """``tracer.span(...)`` when tracing, a no-op context otherwise."""
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span:
        yield span
