"""Typed trace events emitted by the instrumented execution stack.

Every event is an immutable, picklable dataclass with a ``kind`` tag and
a :func:`event_to_dict` JSON projection, so the same objects serve three
consumers: the in-memory event bus (:mod:`repro.obs.tracer`), the
provenance graph (:mod:`repro.obs.provenance`), and the JSONL exporter
(:mod:`repro.obs.export`).  Worker processes ship event lists back to
the parent verbatim, which is why values stay as real :class:`Fact` /
:class:`Null` objects rather than strings — stringification happens only
at export time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Mapping, Optional, Tuple, Union

from ..instance import Fact
from ..terms import Const, Null, Value, Var

#: A premise binding frozen into a sortable, hashable shape:
#: ``((variable name, value), ...)`` sorted by variable name.
Binding = Tuple[Tuple[str, Value], ...]


def freeze_binding(binding: Mapping[Var, Value]) -> Binding:
    """Freeze a ``{Var: Value}`` match into a canonical tuple form."""
    return tuple(sorted((var.name, value) for var, value in binding.items()))


@dataclass(frozen=True)
class TriggerFired:
    """One chase trigger fired: a tgd, a premise binding, the outcome.

    ``added`` holds the facts that were actually new (conclusion facts
    already present are not repeated); ``premises`` the instantiated
    premise atoms (the *why* of the firing); ``minted`` the fresh nulls
    created for existential variables, as ``(variable name, null)``
    pairs.  ``branch`` is ``None`` for the standard chase and the branch
    id for the disjunctive chase.
    """

    kind: ClassVar[str] = "trigger_fired"

    tgd: str
    tgd_index: int
    round: int
    binding: Binding
    added: Tuple[Fact, ...]
    premises: Tuple[Fact, ...]
    minted: Tuple[Tuple[str, Null], ...] = ()
    branch: Optional[str] = None
    disjunct_index: Optional[int] = None


@dataclass(frozen=True)
class NullMinted:
    """A fresh labeled null was created for an existential variable."""

    kind: ClassVar[str] = "null_minted"

    null: Null
    var: str
    tgd: str
    tgd_index: int
    round: int
    branch: Optional[str] = None


@dataclass(frozen=True)
class BranchOpened:
    """The disjunctive chase opened a branch (one disjunct of a firing).

    Roots (the input instance, or one quotient world of it) have
    ``parent is None`` and ``disjunct_index is None``.
    """

    kind: ClassVar[str] = "branch_opened"

    branch: str
    parent: Optional[str] = None
    disjunct_index: Optional[int] = None
    round: int = 0


@dataclass(frozen=True)
class BranchClosed:
    """A disjunctive-chase branch stopped being explored.

    ``reason`` is one of ``"finished"`` (no unsatisfied trigger — the
    branch is a result), ``"duplicate"`` (its instance equals an already
    finished one), ``"nonterminating"`` (per-branch round bound hit), or
    ``"exhausted"`` (the run's budget ran out while this world was still
    on the frontier; its current facts are returned as a partial
    result)."""

    kind: ClassVar[str] = "branch_closed"

    branch: str
    reason: str
    facts: int = 0


@dataclass(frozen=True)
class HomBacktrack:
    """Summary of one homomorphism search's backtracking effort.

    Emitted once per :func:`repro.homs.search.homomorphisms` run (also
    when the caller abandons the generator early); ``backtracks`` counts
    the candidate extensions rejected during the search."""

    kind: ClassVar[str] = "hom_backtrack"

    backtracks: int
    found: bool
    source_size: int
    target_size: int


@dataclass(frozen=True)
class ResourceExhausted:
    """A resource budget ran out inside a governed operation.

    Emitted once per exhaustion, in both ``on_exhausted`` modes: in
    ``"partial"`` mode it marks where the returned result was truncated;
    in ``"raise"`` mode it lands on the tracer just before the typed
    error propagates (so partial traces carry the diagnosis too).
    ``resource`` matches :class:`repro.limits.Exhausted`'s vocabulary
    (``deadline``/``rounds``/``facts``/``nulls``/``branches``/
    ``cancelled``/``injected``)."""

    kind: ClassVar[str] = "resource_exhausted"

    resource: str
    where: str
    limit: Optional[object] = None
    used: Optional[object] = None
    rounds: int = 0
    steps: int = 0


@dataclass(frozen=True)
class WorkerKilled:
    """The supervisor hard-killed a hung pool worker.

    Emitted by the engine once per terminated worker attempt when a
    batch runs under supervision (``Limits.grace`` armed): the worker's
    heartbeat stayed stale past the grace period and escalation ended
    it (see :mod:`repro.engine.supervisor`).  ``kills`` is the item's
    cumulative kill count so far (> 1 when retries were also killed);
    ``final`` says whether the item was given up on (``True``) or
    re-queued for another attempt.  ``trace_id``/``request_id`` carry
    the originating request's ambient
    :class:`repro.obs.context.TraceContext` (empty outside one), so a
    kill in a server worker pool is attributable to the HTTP request
    whose work hung."""

    kind: ClassVar[str] = "worker_killed"

    op: str
    batch_index: int
    kills: int = 1
    pid: Optional[int] = None
    final: bool = True
    trace_id: str = ""
    request_id: str = ""


@dataclass(frozen=True)
class CacheHit:
    """An engine cache served a result without recomputation."""

    kind: ClassVar[str] = "cache_hit"

    op: str
    key: str


@dataclass(frozen=True)
class CacheMiss:
    """An engine cache lookup missed; the result was computed fresh."""

    kind: ClassVar[str] = "cache_miss"

    op: str
    key: str


TraceEvent = Union[
    TriggerFired,
    NullMinted,
    BranchOpened,
    BranchClosed,
    HomBacktrack,
    ResourceExhausted,
    WorkerKilled,
    CacheHit,
    CacheMiss,
]


def exhaustion_event(diagnosis) -> ResourceExhausted:
    """Project a :class:`repro.limits.Exhausted` diagnosis onto an event."""
    return ResourceExhausted(
        resource=diagnosis.resource,
        where=diagnosis.where,
        limit=diagnosis.limit,
        used=diagnosis.used,
        rounds=diagnosis.rounds,
        steps=diagnosis.steps,
    )


def _jsonify(value: object) -> object:
    """Project one event field value onto JSON-safe primitives.

    Facts and terms are tuples (DESIGN.md D13), so they are tested
    before the ``tuple`` branch, which would export ``Const(5)`` as
    ``[0, 5]``.
    """
    if isinstance(value, (Fact, Const, Null, Var)):
        return str(value)
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def event_to_dict(event: TraceEvent) -> dict:
    """The JSON-safe dictionary form of an event (for the JSONL sink)."""
    out = {"kind": event.kind}
    for f in fields(event):
        out[f.name] = _jsonify(getattr(event, f.name))
    return out
