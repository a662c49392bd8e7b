"""Request validation and worker-side execution for ``repro serve``.

The HTTP layer (:mod:`repro.service.http`) and the warm worker pool
(:mod:`repro.service.pool`) both stay protocol-dumb; this module owns
the service's operation semantics:

* :func:`validate_request` parses and normalizes one JSON request body
  **server-side** — mappings, instances, queries, and limits are parsed
  up front so malformed input fails fast with a 400 instead of
  occupying a pool worker, and the content digests computed here become
  the request's cache identity;
* :func:`parse_text` parses a mapping or query text once per process:
  a client applies one mapping to many instances, so the server and
  each pool worker keep the parsed texts they have seen (instances are
  parsed on every request);
* :func:`request_key` turns a normalized request into the
  content-addressed key the response caches use.  Limits are
  deliberately excluded — a request that *completes* under a budget
  produced the same result any budget would (chase determinism), and
  partial or failed responses are never cached;
* :func:`execute_op` runs a normalized request against a (warm,
  worker-resident) :class:`repro.engine.ExchangeEngine` and renders the
  result as a JSON-able response dict, including the work counters the
  parent needs to emit an :class:`repro.obs.OpRecord`.

The optional ``"fault"`` request field reuses the deterministic fault
plans of :mod:`repro.limits.faults` (``"hang"``, ``"crash"``, ...) and
is honored only when the server was started with ``--allow-faults`` —
it exists so tests and CI can wedge a worker on demand and watch the
pool supervisor kill and respawn it.
"""

from __future__ import annotations

import functools
import math
import os
import time
from contextlib import ExitStack
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import ParseError, ReproError
from ..instance import Instance, render_instances
from ..limits import Limits
from ..limits.faults import Fault, trip
from ..logic.queries import ConjunctiveQuery
from ..mappings.schema_mapping import SchemaMapping
from ..obs.context import TraceContext, context_scope
from ..obs.tracer import Tracer, tracing
from ..parsing.parser import parse_query

#: The operations the service exposes under ``POST /v1/<op>``.
SERVICE_OPS = ("chase", "reverse", "audit", "answer")

#: ``Limits`` fields a request body may set (admission-control surface).
_LIMIT_FIELDS = (
    "deadline", "max_rounds", "max_facts", "max_nulls", "max_branches"
)

#: Entries :func:`parse_text` keeps per process: one per distinct
#: mapping or query text, and one per derived full-tgd recovery; a
#: serve-mix run's server uses 25.
PARSE_MEMO_ENTRIES = 256
#: Longest text, in characters, :func:`parse_text` keeps.  A longer one
#: is parsed on every request and never held: a request body may be
#: 16 MiB (``_Handler.MAX_BODY``), and a serve-mix text is at most 108.
PARSE_MEMO_MAX_CHARS = 4096


class ServiceRequestError(ReproError):
    """A request body failed validation (the HTTP layer's 400)."""


def _require_text(body: Dict[str, Any], field: str) -> str:
    value = body.get(field)
    if not isinstance(value, str) or not value.strip():
        raise ServiceRequestError(f"missing or empty field {field!r}")
    return value


def _parse(kind: str, text: str) -> Union[SchemaMapping, ConjunctiveQuery]:
    if kind == "query":
        return parse_query(text)
    if kind == "full-recovery":
        from ..inverses.quasi_inverse import maximum_extended_recovery_for_full_tgds

        return maximum_extended_recovery_for_full_tgds(parse_text("mapping", text))
    return SchemaMapping.from_text(text)


# functools.lru_cache, not engine.cache.LRUCache: WorkerPool._respawn
# forks a worker from a manager thread while handler threads parse, and
# LRUCache holds a threading.Lock.  A fork taken while a handler held
# it would leave the child's copy locked for good, and the respawned
# worker would hang at its first parse.  The C lru_cache takes no
# Python lock.  A call that raises (a ParseError) is never kept.
_parse_memo = functools.lru_cache(maxsize=PARSE_MEMO_ENTRIES)(_parse)


def parse_text(
    kind: str, text: str
) -> Union[SchemaMapping, ConjunctiveQuery]:
    """*text* parsed as a ``"mapping"`` or a ``"query"``, once per process.

    The server (:func:`validate_request`) and every pool worker
    (:func:`execute_op`) parse through here, so each process parses and
    digests a distinct text once.  Kind ``"full-recovery"`` is the
    maximum extended recovery of the full-tgd mapping *text* specifies
    (Theorem 5.1), which an ``answer`` request without a ``recovery``
    uses, so a worker derives it once per mapping text too.  The memo
    is bounded: it keeps at most :data:`PARSE_MEMO_ENTRIES` entries,
    each for a text at most :data:`PARSE_MEMO_MAX_CHARS` long.  The
    results are immutable (a mapping caches only its own digest), so
    requests can share them.  Raises :class:`repro.errors.ParseError`
    for malformed text.
    """
    if len(text) > PARSE_MEMO_MAX_CHARS:
        return _parse(kind, text)
    return _parse_memo(kind, text)


def parse_memo_stats() -> Dict[str, int]:
    """This process's :func:`parse_text` hits, misses and kept texts."""
    info = _parse_memo.cache_info()
    return {"hits": info.hits, "misses": info.misses, "size": info.currsize}


def _parse_field(body: Dict[str, Any], field: str, kind: str) -> Any:
    """The *field* text parsed as a mapping, query or instance."""
    text = _require_text(body, field)
    try:
        if kind == "instance":
            return Instance.parse(text)
        return parse_text(kind, text)
    except ParseError as error:
        raise ServiceRequestError(f"cannot parse {field!r}: {error}")


def _finite_number(value: Any) -> bool:
    """Is *value* a JSON number within float range?

    ``json`` parses the literals ``NaN``, ``Infinity`` and
    ``-Infinity``, and integers too large for a float.
    """
    if not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _parse_limits(body: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The request's ``limits`` object, validated, as plain values."""
    raw = body.get("limits")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ServiceRequestError("'limits' must be an object")
    unknown = set(raw) - set(_LIMIT_FIELDS)
    if unknown:
        raise ServiceRequestError(
            f"unknown limits fields: {sorted(unknown)}"
        )
    values = {}
    for name in _LIMIT_FIELDS:
        value = raw.get(name)
        if value is None:
            continue
        if not _finite_number(value) or value <= 0:
            raise ServiceRequestError(
                f"limits.{name} must be a finite positive number"
            )
        values[name] = value
    try:
        Limits(**values)  # validation only; workers rebuild from values
    except (TypeError, ValueError) as error:
        raise ServiceRequestError(f"invalid limits: {error}")
    return values or None


def _parse_fault(body: Dict[str, Any], allow_faults: bool) -> Optional[dict]:
    """The test-only ``fault`` field: ``{"kind": ..., "seconds": ...}``."""
    raw = body.get("fault")
    if raw is None:
        return None
    if not allow_faults:
        raise ServiceRequestError(
            "fault injection is disabled (start the server with --allow-faults)"
        )
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ServiceRequestError("'fault' must be a kind string or object")
    seconds = raw.get("seconds", 0.0)
    if not _finite_number(seconds):
        raise ServiceRequestError("fault.seconds must be a finite number")
    seconds = float(seconds)
    try:
        Fault(kind=raw["kind"], item=0, seconds=seconds)
    except (TypeError, ValueError) as error:
        raise ServiceRequestError(f"invalid fault: {error}")
    return {"kind": raw["kind"], "seconds": seconds}


def _positive_int(body: Dict[str, Any], field: str, default: int) -> int:
    value = body.get(field, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ServiceRequestError(f"{field!r} must be a positive integer")
    return value


def validate_request(
    op: str, body: Dict[str, Any], allow_faults: bool = False
) -> Dict[str, Any]:
    """Parse one request body into a normalized, picklable request dict.

    Raises :class:`ServiceRequestError` on any malformed field; on
    success the returned dict carries the raw texts, the
    server-computed content digests, and the normalized options.  A
    worker parses the texts again in its own process: a mapping or
    query text through :func:`parse_text`, so once per worker, and an
    instance text on every request.
    """
    if op not in SERVICE_OPS:
        raise ServiceRequestError(
            f"unknown operation {op!r}; expected one of {SERVICE_OPS}"
        )
    if not isinstance(body, dict):
        raise ServiceRequestError("request body must be a JSON object")
    mapping = _parse_field(body, "mapping", "mapping")
    request: Dict[str, Any] = {
        "op": op,
        "mapping": body["mapping"],
        "mapping_digest": mapping.digest(),
        "limits": _parse_limits(body),
        "fault": _parse_fault(body, allow_faults),
    }
    if op in ("chase", "reverse", "answer"):
        instance = _parse_field(body, "instance", "instance")
        request["instance"] = body["instance"]
        request["instance_digest"] = instance.digest()
    if op == "chase":
        variant = body.get("variant", "restricted")
        if variant not in ("restricted", "oblivious"):
            raise ServiceRequestError(
                "'variant' must be 'restricted' or 'oblivious'"
            )
        request["variant"] = variant
    elif op == "reverse":
        request["max_nulls"] = _positive_int(body, "max_nulls", 8)
        request["take_core"] = bool(body.get("take_core", True))
    elif op == "audit":
        if body.get("reverse") is not None:
            reverse = _parse_field(body, "reverse", "mapping")
            request["reverse"] = body["reverse"]
            request["reverse_digest"] = reverse.digest()
        else:
            request["reverse"] = None
            request["reverse_digest"] = ""
    elif op == "answer":
        if body.get("recovery") is not None:
            recovery = _parse_field(body, "recovery", "mapping")
            request["recovery"] = body["recovery"]
            request["recovery_digest"] = recovery.digest()
        else:
            request["recovery"] = None
            request["recovery_digest"] = ""
        _parse_field(body, "query", "query")
        request["query"] = body["query"]
        request["max_nulls"] = _positive_int(body, "max_nulls", 8)
    return request


def request_key(request: Dict[str, Any]) -> Tuple:
    """The content-addressed cache key of a normalized request.

    Keys are built from digests and result-shaping options only:
    limits and faults never appear (completed results are
    limit-independent; faulted/failed responses are never cached).
    """
    op = request["op"]
    if op == "chase":
        return (
            "service", "chase",
            request["mapping_digest"], request["instance_digest"],
            request["variant"],
        )
    if op == "reverse":
        return (
            "service", "reverse",
            request["mapping_digest"], request["instance_digest"],
            request["max_nulls"], request["take_core"],
        )
    if op == "audit":
        return (
            "service", "audit",
            request["mapping_digest"], request["reverse_digest"],
        )
    return (
        "service", "answer",
        request["mapping_digest"], request["recovery_digest"],
        request["instance_digest"], request["query"],
        request["max_nulls"],
    )


def _limits_from_request(request: Dict[str, Any]) -> Optional[Limits]:
    values = request.get("limits")
    if not values:
        return None
    return Limits(on_exhausted="partial", **values)


def _exhausted_tag(exhausted) -> Optional[str]:
    return None if exhausted is None else exhausted.resource


def _verdict(check) -> Dict[str, Any]:
    """One audit verdict as JSON: holds + printable counterexample."""
    if check is None:
        return {"holds": None}
    out: Dict[str, Any] = {"holds": bool(check.holds)}
    counterexample = getattr(check, "counterexample", None)
    if counterexample is not None and not check.holds:
        out["counterexample"] = str(counterexample)
    return out


def execute_op(engine, request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one normalized request on *engine*; a JSON-able response dict.

    Runs inside a pool worker (but is deliberately runnable anywhere —
    tests call it on an in-process engine).  The mapping, reverse,
    recovery and query texts are parsed through :func:`parse_text`, so
    a worker parses each distinct text once, and derives an ``answer``'s
    default recovery once per mapping text; the instance text is
    parsed on every call.  The response's ``meta``
    carries wall time and work counters for the parent's telemetry;
    ``exhausted`` tags budget-truncated partial results, which the
    caller must not cache.

    When the request carries a ``"trace"`` field — the serialized
    :class:`repro.obs.context.TraceContext` the HTTP layer stamps onto
    every admitted request — the operation runs with that context
    restored as the worker's ambient context, under a private
    :class:`repro.obs.Tracer` opening a ``worker.<op>`` root span.  The
    tracer's picklable state ships back as ``response["trace"]`` so the
    parent can stitch the worker's span subtree into the request's
    service span (the caller must pop it before JSON-encoding or
    caching the response).  Without a ``"trace"`` field the operation
    runs exactly as before — direct callers pay nothing.
    """
    op = request["op"]
    fault = request.get("fault")
    if fault is not None:
        trip(Fault(kind=fault["kind"], item=0, seconds=fault["seconds"]))
    mapping = parse_text("mapping", request["mapping"])
    limits = _limits_from_request(request)
    started = time.perf_counter()
    trace = request.get("trace")
    tracer: Optional[Tracer] = None
    with ExitStack() as stack:
        if trace:
            context = TraceContext.from_dict(trace)
            stack.enter_context(context_scope(context))
            tracer = Tracer(provenance=False)
            stack.enter_context(tracing(tracer))
            stack.enter_context(
                tracer.span(f"worker.{op}", pid=os.getpid())
            )
        if op == "chase":
            result = engine.exchange(
                mapping,
                Instance.parse(request["instance"]),
                variant=request["variant"],
                limits=limits,
            )
            response: Dict[str, Any] = {
                "instance": str(result.instance),
                "facts": len(result.instance),
                "nulls": len(result.instance.nulls),
                "exhausted": _exhausted_tag(result.exhausted),
                "meta": {
                    "rounds": result.stats.rounds,
                    "steps": result.stats.steps,
                    "triggers": result.stats.triggers_considered,
                    "engine_cache_hit": result.cached,
                },
            }
        elif op == "reverse":
            result = engine.reverse(
                mapping,
                Instance.parse(request["instance"]),
                max_nulls=request["max_nulls"],
                take_core=request["take_core"],
                limits=limits,
            )
            canonical, *candidates = render_instances(
                (result.canonical, *result.candidates)
            )
            response = {
                "candidates": candidates,
                "canonical": canonical,
                "exhausted": _exhausted_tag(result.exhausted),
                "meta": {
                    "branches": len(result.candidates),
                    "engine_cache_hit": result.cached,
                },
            }
        elif op == "audit":
            reverse = (
                parse_text("mapping", request["reverse"])
                if request.get("reverse")
                else None
            )
            report = engine.audit(mapping, reverse=reverse)
            response = {
                "invertible": _verdict(report.invertible),
                "extended_invertible": _verdict(report.extended_invertible),
                "chase_inverse": _verdict(report.chase_inverse),
                "exhausted": None,
                "meta": {"engine_cache_hit": report.cached},
            }
        else:  # answer
            if request.get("recovery"):
                recovery = parse_text("mapping", request["recovery"])
            else:
                recovery = parse_text("full-recovery", request["mapping"])
            answers = engine.answer(
                mapping,
                recovery,
                parse_text("query", request["query"]),
                Instance.parse(request["instance"]),
                max_nulls=request["max_nulls"],
            )
            response = {
                "rows": sorted(
                    [[str(value) for value in row] for row in answers]
                ),
                "exhausted": None,
                "meta": {},
            }
        profile = getattr(engine, "last_profile", None)
        if profile is not None:
            response["meta"]["profile"] = profile.to_summary()
    response["op"] = op
    response["ok"] = True
    response["meta"]["wall_time"] = time.perf_counter() - started
    if tracer is not None:
        response["trace"] = tracer.export_state()
    return response


def error_payload(error: BaseException) -> Dict[str, Any]:
    """A structured, picklable JSON rendering of a worker failure."""
    from ..errors import BudgetExhausted, Cancelled, WorkerKilled

    if isinstance(error, WorkerKilled):
        kind = "killed"
    elif isinstance(error, Cancelled):
        kind = "cancelled"
    elif isinstance(error, BudgetExhausted):
        kind = "budget"
    elif isinstance(error, ServiceRequestError):
        kind = "invalid"
    else:
        kind = "internal"
    return {
        "type": type(error).__name__,
        "message": str(error),
        "kind": kind,
    }


__all__ = [
    "SERVICE_OPS",
    "ServiceRequestError",
    "error_payload",
    "execute_op",
    "parse_memo_stats",
    "parse_text",
    "request_key",
    "validate_request",
]
