"""The :class:`ExchangeEngine` — a cached, parallel exchange session.

Every free-function entry point in the library recomputes from scratch;
the engine is the stateful counterpart that amortizes work across
calls.  It holds content-addressed caches — keyed by ``(mapping digest,
instance digest, options)`` — for chase results, disjunctive-chase
branch sets, homomorphism-existence verdicts, cores, audits, and
reverse certain answers, with size-bounded LRU eviction; and it runs
batch operations on a worker pool (supervised batches, and batches of
large instances) or on the serial loop.

Because the chase, the disjunctive chase, and ``core`` are
deterministic, caching is semantically transparent: a cache hit returns
exactly the instance the computation would have produced, down to null
names.  The caches are therefore safe to leave on everywhere, and the
module-level default engine (:func:`repro.engine.get_default_engine`)
is wired behind ``SchemaMapping.chase``/``reverse_chase`` so existing
call sites gain caching without changing.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, fields, replace as dc_replace
from threading import Lock
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..chase.disjunctive import reverse_disjunctive_chase
from ..chase.standard import ChaseResult, chase
from ..errors import BatchItemError, BudgetExhausted, WorkerKilled
from ..instance import Instance
from ..limits import (
    Budget,
    Exhausted,
    FaultPlan,
    Limits,
    budget_scope,
    current_budget,
    current_fault_plan,
    resolve_limits,
)
from ..mappings.schema_mapping import SchemaMapping
from ..obs.context import current_context
from ..obs.events import CacheHit, CacheMiss
from ..obs.events import WorkerKilled as WorkerKilledEvent
from ..obs.profile import ChaseProfile, ChaseProfiler
from ..obs.registry import RunRegistry
from ..obs.sinks import OpRecord, OpenMetricsSink, TelemetrySink
from ..obs.tracer import Tracer, current_tracer, maybe_span
from ..store import in_sql_fragment, open_store
from .cache import CacheStats, LRUCache, TieredCache
from .parallel import (
    ItemOutcome,
    chase_task,
    chase_task_traced,
    reverse_task,
    reverse_task_traced,
    run_batch_isolated,
)
from .supervisor import run_batch_supervised, supervision_available
from .results import (
    AuditReport,
    CacheProvenance,
    ExchangeResult,
    OperationStats,
    ReverseResult,
)

_OPS = ("chase", "reverse", "hom", "core", "audit", "answer")

_ON_ERROR = ("raise", "skip")

#: The OpRecord fields that also feed the per-operation counters.
_COUNTED = ("steps", "rounds", "triggers", "branches")


@dataclass
class _OpCounters:
    """Per-operation work accounting (compute time only, not hits).

    ``error_wall_time`` attributes the wall clock burned by *failed*
    items (all their attempts) separately from ``wall_time``, so a
    batch where half the items crashed still shows where the time went.
    ``kills`` counts hung pool workers the supervisor had to terminate
    (see :mod:`repro.engine.supervisor`) — including kills on attempts
    that later retried successfully.  ``triggers`` accumulates the
    premise bindings the chase loop enumerated
    (:attr:`~repro.chase.standard.ChaseResult.triggers_considered`) —
    with semi-naive evaluation it grows much slower than naive
    re-matching would.
    """

    calls: int = 0
    wall_time: float = 0.0
    steps: int = 0
    rounds: int = 0
    triggers: int = 0
    branches: int = 0
    errors: int = 0
    error_wall_time: float = 0.0
    kills: int = 0


#: Every :class:`_OpCounters` field, in ``stats()`` order.
_COUNTERS = tuple(counter.name for counter in fields(_OpCounters))


def _rounded(value):
    """A counter as ``stats()`` reports it: times rounded to the microsecond."""
    return round(value, 6) if isinstance(value, float) else value


def _exhausted_tag(exhausted: Optional[Exhausted]) -> Optional[str]:
    """The registry/sink vocabulary for a diagnosis: its resource name."""
    return None if exhausted is None else exhausted.resource


def _chase_fields(result: ChaseResult) -> Dict[str, int]:
    """A chase result's metric fields for its :class:`OpRecord`."""
    return {
        "rounds": result.rounds,
        "steps": result.steps,
        "facts": len(result.instance),
        "nulls": len(result.instance.nulls),
        "triggers": result.triggers_considered,
    }


def run_chase(
    mapping: SchemaMapping,
    source: Instance,
    variant: str,
    scratch: Optional[str],
    tracer: Optional[Tracer] = None,
    limits: Optional[Limits] = None,
    profiler: Optional[ChaseProfiler] = None,
) -> ChaseResult:
    """One chase of *source* on the kernel :meth:`ExchangeEngine._scratch` chose.

    ``scratch=None`` runs the tuple chase; a store spec runs the
    set-at-a-time SQL chase inside a fresh store opened at it, adapted
    to a :class:`ChaseResult` in memory: results are cached and outlive
    the scratch store, which the next chase at the same spec recreates.
    Like the tuple chase's, the result is *source* extended by the facts
    the chase added — the rows above the watermarks read after seeding
    — so no fact is rebuilt.  Single chases and batch items (in this
    process or a pool worker) all run through here.
    """
    if scratch is None:
        return chase(
            source,
            mapping.dependencies,
            variant=variant,
            tracer=tracer,
            limits=limits,
            profiler=profiler,
        )
    from ..store.sqlplan import sql_chase

    store = open_store(scratch, fresh=True)
    try:
        store.add_all(source.facts)
        seeded = store.watermarks()
        sqlres = sql_chase(
            store, mapping.dependencies, tracer=tracer, limits=limits, profiler=profiler
        )
        added = store.facts_since(seeded)
    finally:
        store.close()
    return ChaseResult(
        instance=source.extended(added),
        generated=frozenset(added),
        steps=sqlres.steps,
        rounds=sqlres.rounds,
        exhausted=sqlres.exhausted,
        delta_sizes=sqlres.delta_sizes,
        triggers_considered=sqlres.triggers_considered,
    )


class ExchangeEngine:
    """A session object for exchange operations with caching and fan-out.

    Parameters
    ----------
    cache_size:
        Max entries *per operation cache* (LRU eviction past it).
    enable_cache:
        ``False`` degrades every cache to always-miss (``--no-cache``).
    jobs:
        Default worker count for ``chase_many``/``reverse_many`` when
        the call does not pass its own.
    process_threshold:
        Batches whose largest instance has at least this many facts run
        on the worker pool; smaller batches run on the serial loop
        (unless supervision is armed; see :meth:`chase_many`).
    tracer:
        An :class:`repro.obs.Tracer` to receive cache hit/miss events,
        spans, and chase provenance.  When ``None`` (the default) the
        ambient tracer (:func:`repro.obs.current_tracer`) is consulted
        per call, so ``with tracing(): engine.chase(...)`` also works.
        Batch operations run each worker under a private tracer and
        merge the per-worker traces on join.
    limits:
        Engine-level default :class:`repro.limits.Limits`; per-call
        ``limits`` merge on top of it (:func:`repro.limits.resolve_limits`).
        ``None`` (the default) keeps the historical unlimited/raise
        behavior.  Results truncated by a budget are tagged
        (``result.exhausted``) and never cached — the caches hold only
        completed, limit-independent results.
    retries:
        Default retry budget for batch items that fail *transiently*
        (injected crash faults, broken pools, OS-level errors).  Budget
        exhaustion is never retried.
    on_error:
        Default per-item failure policy for ``chase_many`` /
        ``reverse_many``: ``"raise"`` (historical — the first failure
        propagates) or ``"skip"`` (each failed item resolves to a
        :class:`repro.errors.BatchItemError` in its input position and
        the rest of the batch completes).
    sink:
        A :class:`repro.obs.TelemetrySink` (JSONL, OpenMetrics, or a
        :class:`repro.obs.MultiSink` fan-out) that receives one
        :class:`repro.obs.OpRecord` per operation — including per-item
        records for batch operations, and error records for failed
        compute.  ``None`` (the default) keeps the telemetry path at a
        pair of attribute reads per op.
    registry:
        A :class:`repro.obs.RunRegistry` — the persistent SQLite run
        history — that receives the same per-op records.  Sink and
        registry are independent: either, both, or neither.
    store:
        Backend spec for the SQL-chase working store (the CLI's
        ``--store`` values): ``"memory"`` (default; the SQL chase, when
        enabled, still runs in an in-memory SQLite database),
        ``"sqlite"`` / ``"sqlite:<path>"``, or ``"duckdb"`` /
        ``"duckdb:<path>"`` (optional dependency) to spill the chase to
        disk.  A path-based store is scratch space: it is recreated
        (``fresh=True``) for every operation that uses it.
    sql_chase:
        ``True`` switches every chase — :meth:`exchange`, each
        :meth:`chase_many` item, and the plain-tgd reverses that route
        through them — to the set-at-a-time SQL plan compiler
        (:func:`repro.store.sql_chase`) whenever every dependency is in
        the compilable fragment (:func:`repro.store.in_sql_fragment`)
        and the variant is ``restricted``; other mappings run on the
        tuple chase.  A single call and a batch item give the same
        result.  Results are hom-equivalent to the in-memory chase
        (identical for full tgds), so SQL-chased results are cached
        under a distinct key tag.
    disk_cache:
        A persistent backing cache layered **under** every in-memory
        LRU: a :class:`repro.service.DiskCache` (or any object with
        its ``get``/``put`` surface), or a directory path to open one
        at.  Reads fall through memory to disk and promote on hit;
        writes go to both tiers; partial (exhausted) results are still
        never cached.  Because every cache key is a content digest,
        entries persist correctly across processes and restarts — this
        is what lets ``repro serve`` answer from disk on its first
        request after a restart.  Ignored when ``enable_cache`` is
        ``False``.
    profile:
        ``True`` attaches a :class:`repro.obs.ChaseProfiler` to every
        single-item chase (tuple or SQL kernel) and reverse chase,
        collecting per-dependency
        × per-round attribution (self time, triggers considered/fired,
        facts, nulls).  The resulting :class:`repro.obs.ChaseProfile`
        is exposed as :attr:`last_profile` after each computed
        operation (``None`` after cache hits) and persisted as a JSON
        summary in the registry row's ``metrics`` payload.  Profiling
        never changes chase output — the profiled instance is
        byte-identical to the unprofiled one.
    """

    def __init__(
        self,
        cache_size: int = 512,
        enable_cache: bool = True,
        jobs: Optional[int] = None,
        process_threshold: int = 200,
        tracer: Optional[Tracer] = None,
        limits: Optional[Limits] = None,
        retries: int = 0,
        on_error: str = "raise",
        sink: Optional[TelemetrySink] = None,
        registry: Optional[RunRegistry] = None,
        store: str = "memory",
        sql_chase: bool = False,
        disk_cache=None,
        profile: bool = False,
    ) -> None:
        if on_error not in _ON_ERROR:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        if store != "memory" and not store.startswith(("sqlite", "duckdb")):
            raise ValueError(
                f"unknown store spec {store!r}; expected 'memory', "
                "'sqlite[:<path>]', or 'duckdb[:<path>]'"
            )
        size = cache_size if enable_cache else 0
        self.disk_cache = None
        if disk_cache is not None and enable_cache:
            if isinstance(disk_cache, str):
                from ..service.diskcache import DiskCache

                disk_cache = DiskCache(disk_cache)
            self.disk_cache = disk_cache
        if self.disk_cache is not None:
            self._caches: Dict[str, LRUCache] = {
                op: TieredCache(LRUCache(size), self.disk_cache, op)
                for op in _OPS
            }
        else:
            self._caches = {op: LRUCache(size) for op in _OPS}
        self._ops: Dict[str, _OpCounters] = {op: _OpCounters() for op in _OPS}
        self._ops_lock = Lock()
        self.jobs = jobs
        self.process_threshold = process_threshold
        self.tracer = tracer
        self.limits = limits
        self.retries = retries
        self.on_error = on_error
        self.sink = sink
        self.registry = registry
        self.store_spec = store
        self.sql_chase = sql_chase
        self.profile = profile
        self.last_profile: Optional[ChaseProfile] = None
        self._clock = time.perf_counter

    def _tracer(self) -> Optional[Tracer]:
        """The effective tracer for this call (own, else ambient)."""
        return self.tracer if self.tracer is not None else current_tracer()

    @staticmethod
    def _cache_event(
        tracer: Optional[Tracer], op: str, key: tuple, hit: bool
    ) -> None:
        if tracer is not None:
            key_id = ExchangeEngine._key_id(key)
            tracer.emit(
                CacheHit(op=op, key=key_id) if hit else CacheMiss(op=op, key=key_id)
            )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _record(self, op: str, calls: int = 1, **counts: float) -> None:
        """Add *calls* and the named :class:`_OpCounters` *counts* to *op*."""
        with self._ops_lock:
            counters = self._ops[op]
            for name, value in dict(counts, calls=calls).items():
                setattr(counters, name, getattr(counters, name) + value)

    @property
    def _telemetry(self) -> bool:
        """Is any sink or registry configured?  (The off-path guard.)"""
        return self.sink is not None or self.registry is not None

    def _emit(
        self, record: OpRecord, metrics: Optional[dict] = None
    ) -> None:
        """Flush one operation record to the sink and the registry.

        Records that do not already carry a trace/request id are
        stamped with the ambient :class:`repro.obs.context.TraceContext`
        here — the one choke point every operation's telemetry flows
        through — so CLI- and service-originated records correlate to
        their request without each call site repeating the lookup.
        *metrics* (the profile summary, stitched spans, …) rides only
        the registry row's JSON payload, never the sink stream.
        """
        if not record.trace_id:
            context = current_context()
            if context is not None:
                record = dc_replace(
                    record,
                    trace_id=context.trace_id,
                    request_id=context.request_id,
                )
        if self.sink is not None:
            self.sink.record(record)
        if self.registry is not None:
            self.registry.record(record, metrics=metrics)

    def _record_error(
        self, op: str, elapsed: float, error: BaseException, **record
    ) -> None:
        """Account one failed computation: the error counters and its record.

        *record* carries the digests — and a batch item's
        ``batch_index``, ``attempts`` and ``kills`` — into the
        :class:`OpRecord`.
        """
        self._record(op, calls=1, errors=1, error_wall_time=elapsed)
        if self._telemetry:
            self._emit(
                OpRecord(
                    op=op,
                    wall_time=elapsed,
                    error=type(error).__name__,
                    exhausted=_exhausted_tag(getattr(error, "diagnosis", None)),
                    **record,
                )
            )

    def _serve(
        self,
        op: str,
        key: tuple,
        compute: Callable,
        record_fields: Callable[[object], dict] = lambda entry: {},
        *,
        span: Optional[dict] = None,
        profiled: bool = False,
        **digests: str,
    ) -> Tuple[bool, object, Optional[Exhausted], float]:
        """The skeleton behind the six single-item cached operations.

        Probes the *op* cache under *key* and emits the hit/miss event.
        A miss runs ``compute(tracer, profiler)`` — which returns
        ``(entry, exhausted)`` — timed, inside the ``engine.<op>`` span
        (attributes *span*); a failure is accounted with
        :meth:`_record_error` and re-raised, and a complete entry
        (``exhausted is None``) is cached.  A *profiled* op (chase,
        reverse) clears :attr:`last_profile` and, on an engine built with
        ``profile=True``, hands *compute* a :class:`ChaseProfiler` whose
        profile becomes the new :attr:`last_profile`.  Every call is then
        accounted: a hit counts as a call only, a computation adds its
        time and the :data:`_COUNTED` fields of ``record_fields(entry)``,
        and the op's :class:`OpRecord` carries *digests* and those fields
        (the profile rides the registry row).  Returns ``(hit, entry,
        exhausted, elapsed)``.
        """
        tracer = self._tracer()
        cache = self._caches[op]
        hit, entry = cache.get(key)
        self._cache_event(tracer, op, key, hit)
        exhausted: Optional[Exhausted] = None
        elapsed = 0.0
        if profiled:
            self.last_profile = None
        if not hit:
            profiler = ChaseProfiler() if profiled and self.profile else None
            start = self._clock()
            try:
                with maybe_span(tracer, f"engine.{op}", **(span or {})):
                    entry, exhausted = compute(tracer, profiler)
            except Exception as error:
                self._record_error(op, self._clock() - start, error, **digests)
                raise
            elapsed = self._clock() - start
            if exhausted is None:
                cache.put(key, entry)
            if profiler is not None:
                self.last_profile = profiler.profile(total_time=elapsed)
        fields_ = record_fields(entry)
        counted = {} if hit else {n: fields_[n] for n in _COUNTED if n in fields_}
        self._record(op, wall_time=elapsed, **counted)
        if self._telemetry:
            profile = self.last_profile if profiled else None
            self._emit(
                OpRecord(
                    op=op,
                    wall_time=elapsed,
                    cache_hit=hit,
                    exhausted=_exhausted_tag(exhausted),
                    **digests,
                    **fields_,
                ),
                metrics=(
                    {"profile": profile.to_summary()} if profile is not None else None
                ),
            )
        return hit, entry, exhausted, elapsed

    def close_telemetry(self) -> None:
        """Flush and close the configured sink and registry (idempotent).

        An :class:`repro.obs.OpenMetricsSink` absorbs the effective
        tracer's metrics registry first, so span-duration histograms
        and event counters land in the same exposition file as the
        per-op counters.
        """
        tracer = self._tracer()
        if tracer is not None and isinstance(self.sink, OpenMetricsSink):
            self.sink.extra = tracer.metrics
        if self.sink is not None:
            self.sink.close()
        if self.registry is not None:
            self.registry.close()

    @staticmethod
    def _key_id(key: tuple) -> str:
        """A compact human-readable rendering of a cache key."""
        return ":".join(
            part[:12] if isinstance(part, str) and len(part) > 12 else str(part)
            for part in key
        )

    # ------------------------------------------------------------------
    # Forward exchange
    # ------------------------------------------------------------------

    def exchange(
        self,
        mapping: SchemaMapping,
        source: Instance,
        variant: str = "restricted",
        limits: Optional[Limits] = None,
    ) -> ExchangeResult:
        """``chase_M(I)`` as a normalized :class:`ExchangeResult`.

        *limits* merges over the engine's default limits.  The cache key
        deliberately excludes limits: a chase that *completes* under a
        budget is identical to the unlimited chase (determinism), so a
        cached completed result is correct for every budget; partial
        (exhausted) results are returned tagged but never cached.

        With ``sql_chase=True`` on the engine, restricted chases whose
        dependencies are all in the SQL fragment compile to SQL plans
        executed in a SQLite store (see :mod:`repro.store.sqlplan`);
        other chases run tuple-at-a-time.  Null *names* may then
        differ from the tuple-at-a-time result, so those entries cache
        under a ``"sql"``-tagged key and never alias tuple-chase
        results.
        """
        effective = resolve_limits(limits, self.limits)
        scratch = self._scratch(mapping, variant)
        key = self._chase_key(mapping, source, variant, scratch)

        def compute(tracer, profiler):
            result = run_chase(
                mapping, source, variant, scratch, tracer, effective, profiler
            )
            entry = (result, result.restricted_to(mapping.target.names))
            return entry, result.exhausted

        hit, entry, _, elapsed = self._serve(
            "chase",
            key,
            compute,
            lambda entry: _chase_fields(entry[0]),
            span={"key": self._key_id(key)},
            profiled=True,
            mapping_digest=key[1],
            instance_digest=key[2],
        )
        return self._exchange_result(key, entry, hit, elapsed)

    def _exchange_result(
        self, key: tuple, entry: tuple, hit: bool, elapsed: float = 0.0
    ) -> ExchangeResult:
        """Wrap a cached ``(chase result, target restriction)`` entry."""
        result, restricted = entry
        return ExchangeResult(
            instance=restricted,
            full=result.instance,
            generated=frozenset(result.generated),
            stats=OperationStats(
                elapsed,
                result.steps,
                result.rounds,
                triggers_considered=result.triggers_considered,
                delta_sizes=result.delta_sizes,
            ),
            provenance=CacheProvenance(self._key_id(key), hit),
            exhausted=result.exhausted,
        )

    def _scratch(
        self, mapping: SchemaMapping, variant: str, index: Optional[int] = None
    ) -> Optional[str]:
        """The kernel choice for one chase: a SQL scratch store spec, or
        ``None`` for the tuple chase.

        The SQL kernel runs when the engine has ``sql_chase=True``, the
        *variant* is ``restricted`` and every dependency is in the SQL
        fragment.  Its working store is scratch state: a ``memory``
        engine spec still chases inside an in-memory SQLite database
        (the compiler needs SQL), and a path-based spec gets a
        ``.chase`` suffix — plus ``.<index>`` for batch item *index*,
        so pool workers never share a file — because the input
        instances may live at the spec path itself and the scratch
        store is recreated fresh per chase.
        """
        if not (
            self.sql_chase
            and variant == "restricted"
            and all(in_sql_fragment(dep) for dep in mapping.dependencies)
        ):
            return None
        backend, _, path = self.store_spec.partition(":")
        if backend == "memory":
            backend = "sqlite"
        if not path:
            return backend
        return f"{backend}:{path}.chase" + ("" if index is None else f".{index}")

    @staticmethod
    def _chase_key(
        mapping: SchemaMapping, source: Instance, variant: str, scratch: Optional[str]
    ) -> tuple:
        """The chase cache key; SQL-chased results carry a ``"sql"`` tag."""
        key = ("chase", mapping.digest(), source.digest(), variant)
        return key if scratch is None else key + ("sql",)

    def chase(
        self,
        mapping: SchemaMapping,
        source: Instance,
        variant: str = "restricted",
        limits: Optional[Limits] = None,
    ) -> Instance:
        """``chase_M(I)``: the target restriction of the chased instance."""
        return self.exchange(mapping, source, variant=variant, limits=limits).instance

    def _run_batch(
        self,
        payloads: Sequence[tuple],
        fn,
        workers: int,
        largest: int,
        retries: int,
        effective: Optional[Limits],
    ) -> List[ItemOutcome]:
        """Run one batch of payloads on the worker pool or the serial loop.

        The batch runs on a leased pool of ``min(workers, items)`` worker
        processes (:func:`run_batch_supervised`) when the host can start
        them and either the effective limits arm **supervision** — both
        ``grace`` and ``deadline`` set — or the batch is worth
        processes: more than one worker for more than one item, a
        largest instance of at least ``process_threshold`` facts, and
        more than one CPU.  Everything else runs on the serial loop
        (:func:`run_batch_isolated`); the chase holds the GIL, so
        threads would not beat it.  A lease reuses the workers an
        earlier clean batch of the same supervision parked, and a
        worker starts every job with no ambient state.

        A supervised pool terminates and respawns a worker whose
        heartbeat goes silent past the grace period
        (:mod:`repro.engine.supervisor`), so supervision always uses the
        pool — the serial loop cannot be killed.  Its batch deadline is
        ``deadline + (1 + retries) * grace``: the extra grace periods
        are the supervisor's own escalation overhead (detecting the
        stall, terminating the worker, giving each permitted retry its
        turn), not time the items get to spend.  Without the headroom a
        kill — which by construction lands *after* the cooperative
        deadline — would always find the batch already stopped and the
        documented retry-with-remaining-deadline path could never run.
        Unsupervised, the pool gets ``grace=None``: it never kills, and
        items stop through the deadlines in their own budgets.

        A batch without limits of its own runs under the thread's
        ambient budget, if any.  The serial loop shares that budget
        across its items.  A budget cannot cross a process, so on the
        pool each payload carries the budget's limits and each item
        counts its own rounds and facts; the deadline the budget has
        left bounds each item and the batch as a whole, so items not
        started by the budget's end fail as deadline-exhausted and
        running ones get the cooperative cancel then.
        """
        deadline = effective.deadline if effective is not None else None
        grace = effective.grace if deadline is not None else None
        pooled = grace is not None or (
            min(workers, len(payloads)) > 1
            and largest >= self.process_threshold
            and (os.cpu_count() or 1) > 1
        )
        if not pooled or not supervision_available():
            return run_batch_isolated(payloads, fn, retries=retries, deadline=deadline)
        ambient = current_budget() if effective is None else None
        if ambient is not None:
            limits = ambient.limits
            deadline = ambient.remaining_time()
            if deadline is not None:
                limits = limits.replace(deadline=deadline)
            payloads = [p[:-3] + (limits,) + p[-2:] for p in payloads]
        if grace is not None:
            deadline += (1 + retries) * grace
        return run_batch_supervised(
            payloads,
            fn,
            workers=max(1, workers),
            retries=retries,
            deadline=deadline,
            grace=grace,
        )

    def _note_kills(
        self, tracer: Optional[Tracer], op: str, outcome: ItemOutcome, index: int
    ) -> None:
        """Account one batch item's worker kills (stats + trace event)."""
        if not outcome.kills:
            return
        self._record(op, calls=0, kills=outcome.kills)
        if tracer is not None:
            context = current_context()
            tracer.emit(
                WorkerKilledEvent(
                    op=op,
                    batch_index=index,
                    kills=outcome.kills,
                    pid=getattr(outcome.error, "pid", None),
                    final=not outcome.ok,
                    trace_id=context.trace_id if context is not None else "",
                    request_id=context.request_id if context is not None else "",
                )
            )

    def _batch(
        self,
        op: str,
        items: Iterable[Instance],
        key: Callable[[Instance], tuple],
        payload: Callable[[Instance], tuple],
        tasks: Tuple[Callable, Callable],
        limits: Optional[Limits],
        settle: Callable,
        build: Callable,
        jobs: Optional[int],
        on_error: Optional[str],
        retries: Optional[int],
        faults: Optional[FaultPlan],
    ) -> List[object]:
        """The batch skeleton behind :meth:`chase_many`/:meth:`reverse_many`.

        Dedups *items* on their cache *key*, probes the *op* cache, runs
        the misses through :meth:`_run_batch` — payload ``payload(item,
        index) + (ctx, limits, fault, 1)``, *index* the item's first
        position, task ``tasks[1]`` (the traced one)
        when a tracer is active, else ``tasks[0]`` — and accounts every
        outcome: kill notes, one ``OpRecord`` per computed item, the
        cache put for complete results, and a
        :class:`repro.errors.BatchItemError` per failed item.  The op
        supplies the conversions: *settle* turns a worker value into
        ``(cache entry, exhausted, fields)``, whose metric fields feed
        ``stats()`` and the item's ``OpRecord``; *build* turns ``(key,
        entry, hit, exhausted)`` into the item's result.
        """
        items = list(items)
        workers = jobs if jobs is not None else (self.jobs or 1)
        policy = on_error if on_error is not None else self.on_error
        if policy not in _ON_ERROR:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR}, got {policy!r}"
            )
        retry_budget = retries if retries is not None else self.retries
        plan = faults if faults is not None else current_fault_plan()
        tracer = self._tracer()
        cache = self._caches[op]
        keys = [key(item) for item in items]
        resolved: Dict[tuple, tuple] = {}
        failed: Dict[tuple, ItemOutcome] = {}
        pending: Dict[tuple, Tuple[Instance, int]] = {}
        for index, (item_key, item) in enumerate(zip(keys, items)):
            if item_key in resolved or item_key in pending:
                continue
            hit, entry = cache.get(item_key)
            self._cache_event(tracer, op, item_key, hit)
            if hit:
                resolved[item_key] = (entry, True, None)
                self._record(op, calls=1)
            else:
                pending[item_key] = (item, index)
        if pending:
            todo = list(pending.items())
            context = current_context()
            ctx = context.to_dict() if context is not None else None
            payloads = [
                payload(item, first)
                + (ctx, limits, plan.for_item(first) if plan else None, 1)
                for _, (item, first) in todo
            ]
            fn = tasks[1] if tracer is not None else tasks[0]
            start = self._clock()
            with maybe_span(
                tracer, f"engine.{op}_many", items=len(todo)
            ) as batch_span:
                outcomes = self._run_batch(
                    payloads,
                    fn,
                    workers,
                    max(len(item) for item, _ in pending.values()),
                    retry_budget,
                    limits,
                )
            elapsed = self._clock() - start
            for (item_key, (_item, first)), outcome in zip(todo, outcomes):
                self._note_kills(tracer, op, outcome, first)
                if not outcome.ok:
                    failed[item_key] = outcome
                    self._record_error(
                        op,
                        outcome.elapsed,
                        outcome.error,
                        mapping_digest=item_key[1],
                        instance_digest=item_key[2],
                        batch_index=first,
                        attempts=max(outcome.attempts, 1),
                        kills=outcome.kills,
                    )
                    continue
                value = outcome.value
                if tracer is not None:
                    value, state = value
                    tracer.absorb(
                        state,
                        parent_id=(
                            batch_span.span_id if batch_span is not None else None
                        ),
                    )
                entry, exhausted, fields = settle(value)
                if exhausted is None:
                    cache.put(item_key, entry)
                resolved[item_key] = (entry, False, exhausted)
                self._record(
                    op, **{name: fields[name] for name in _COUNTED if name in fields}
                )
                if self._telemetry:
                    self._emit(
                        OpRecord(
                            op=op,
                            mapping_digest=item_key[1],
                            instance_digest=item_key[2],
                            wall_time=outcome.elapsed,
                            exhausted=_exhausted_tag(exhausted),
                            batch_index=first,
                            attempts=outcome.attempts,
                            kills=outcome.kills,
                            **fields,
                        )
                    )
            self._record(op, wall_time=elapsed, calls=0)
            if failed and policy == "raise":
                for item_key in keys:
                    if item_key in failed:
                        raise failed[item_key].error
        out: List[object] = []
        for index, item_key in enumerate(keys):
            if item_key in failed:
                outcome = failed[item_key]
                out.append(
                    BatchItemError(
                        index=index,
                        op=op,
                        error=outcome.error,
                        attempts=max(outcome.attempts, 1),
                        elapsed=outcome.elapsed,
                        kind="killed"
                        if isinstance(outcome.error, WorkerKilled)
                        else None,
                    )
                )
            else:
                out.append(build(item_key, *resolved[item_key]))
        return out

    def chase_many(
        self,
        mapping: SchemaMapping,
        instances: Iterable[Instance],
        jobs: Optional[int] = None,
        variant: str = "restricted",
        limits: Optional[Limits] = None,
        on_error: Optional[str] = None,
        retries: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> List[object]:
        """Chase a batch of source instances, deduplicated and fanned out.

        Content-addressed dedup runs first — structurally identical
        instances (and anything already cached) are chased once — then
        the remaining unique work runs on the worker pool when
        supervision is armed or the largest instance has at least
        ``process_threshold`` facts (with more than one job and item),
        and on the serial loop otherwise.  Results come back in input
        order and are fact-for-fact identical to the serial path.

        Items are **fault isolated**: one item failing does not abandon
        the batch.  Under ``on_error="skip"`` each failed item resolves
        to a :class:`repro.errors.BatchItemError` in its input position
        (so the list mixes :class:`ExchangeResult` and error objects);
        under ``"raise"`` (the historical default) the remaining items
        still complete and cache, then the first failure propagates.
        Transient failures retry up to *retries* extra attempts.  A
        deadline in *limits* bounds the whole batch: items not started
        by then come back as deadline-exhausted errors, running ones
        stop cooperatively with partial results, finished ones survive.
        *faults* (default: the ambient :func:`repro.limits.inject_faults`
        plan) injects deterministic failures by batch index for tests —
        deduplicated items take the fault of their first occurrence.
        """
        scratch = self._scratch(mapping, variant)

        def settle(result: ChaseResult):
            restricted = result.restricted_to(mapping.target.names)
            return (result, restricted), result.exhausted, _chase_fields(result)

        return self._batch(
            "chase",
            instances,
            key=lambda inst: self._chase_key(mapping, inst, variant, scratch),
            payload=lambda inst, index: (
                mapping, inst, variant, self._scratch(mapping, variant, index)
            ),
            tasks=(chase_task, chase_task_traced),
            limits=resolve_limits(limits, self.limits),
            settle=settle,
            build=lambda key, entry, hit, _exhausted: self._exchange_result(
                key, entry, hit
            ),
            jobs=jobs,
            on_error=on_error,
            retries=retries,
            faults=faults,
        )

    # ------------------------------------------------------------------
    # Reverse exchange
    # ------------------------------------------------------------------

    def _budget(self, limits: Optional[Limits]) -> Optional[Budget]:
        """One call's budget: fresh from its effective limits, started
        now, else this thread's ambient budget (``None`` when unset)."""
        effective = resolve_limits(limits, self.limits)
        return Budget(effective) if effective is not None else current_budget()

    def _reverse_branches(
        self,
        mapping: SchemaMapping,
        target: Instance,
        max_nulls: int,
        minimize: bool,
        budget: Optional[Budget],
    ) -> Tuple[bool, tuple, Tuple[Instance, ...], Optional[Exhausted]]:
        """The cached disjunctive-chase branch set of one target."""
        key = ("reverse", mapping.digest(), target.digest(), max_nulls, minimize)

        def compute(tracer, profiler):
            branches = reverse_disjunctive_chase(
                target,
                mapping.dependencies,
                result_relations=mapping.target.names,
                max_nulls=max_nulls,
                minimize=minimize,
                budget=budget,
                tracer=tracer,
                profiler=profiler,
            )
            return tuple(branches), branches.exhausted

        def record_fields(candidates):
            profile = self.last_profile
            return {
                "branches": len(candidates),
                "triggers": profile.triggers_considered if profile is not None else 0,
            }

        hit, candidates, exhausted, _ = self._serve(
            "reverse",
            key,
            compute,
            record_fields,
            span={"key": self._key_id(key)},
            profiled=True,
            mapping_digest=key[1],
            instance_digest=key[2],
        )
        return hit, key, candidates, exhausted

    def reverse(
        self,
        reverse_mapping: SchemaMapping,
        target: Instance,
        max_nulls: int = 8,
        minimize: bool = True,
        take_core: bool = False,
        limits: Optional[Limits] = None,
    ) -> ReverseResult:
        """Materialize candidate source instances from a target instance.

        Plain-tgd reverse mappings use the (cached) standard chase — one
        candidate; disjunctive ones use the (cached) quotient-branching
        reverse chase.  With *take_core* every candidate is folded to
        its core through the core cache.  *limits* governs the run as in
        :meth:`exchange` (the kernel's fallback bounds and the ambient
        budget follow :func:`repro.limits.resolve_guards`), coring
        included; a truncated branch enumeration or coring comes back
        tagged (``result.exhausted``) and uncached.
        """
        budget = self._budget(limits)
        if reverse_mapping.is_disjunctive() or reverse_mapping.uses_inequality():
            hit, key, candidates, exhausted = self._reverse_branches(
                reverse_mapping, target, max_nulls, minimize, budget
            )
            provenance = CacheProvenance(self._key_id(key), hit)
        else:
            forward = self.exchange(reverse_mapping, target, limits=limits)
            candidates = (forward.instance,)
            provenance, exhausted = forward.provenance, forward.exhausted
        return self._reverse_result(
            candidates, provenance, exhausted, take_core, budget
        )

    def _reverse_result(
        self,
        candidates: Tuple[Instance, ...],
        provenance: CacheProvenance,
        exhausted: Optional[Exhausted],
        take_core: bool,
        budget: Optional[Budget],
    ) -> ReverseResult:
        """Wrap a candidate set (none: one empty instance), cored on request.

        Coring runs under the call's *budget*.  Folding is anytime, so
        once the budget is gone the candidate being folded keeps its
        last fold, the rest stay as they are, and the result carries
        the call's diagnosis: the chase's, else the coring's.
        """
        if not candidates:
            candidates = (Instance(),)
        if take_core:
            cored = []
            for candidate in candidates:
                if budget is not None and budget.exhausted is not None:
                    cored.append(candidate)
                    continue
                folded, ran_out = self._core(candidate, budget)
                cored.append(folded)
                exhausted = exhausted or ran_out
            candidates = tuple(cored)
        return ReverseResult(
            candidates=candidates,
            canonical=candidates[0],
            stats=OperationStats(branches=len(candidates)),
            provenance=provenance,
            exhausted=exhausted,
        )

    def reverse_chase(
        self,
        mapping: SchemaMapping,
        target: Instance,
        max_nulls: int = 8,
        minimize: bool = True,
        limits: Optional[Limits] = None,
    ) -> List[Instance]:
        """The set ``chase_{M'}(J)`` of Definition 6.1, as a branch list.

        What ``SchemaMapping.reverse_chase`` returns: the disjunctive
        chase's candidates, no result wrapper — even for a plain-tgd
        mapping, which :meth:`reverse` chases once."""
        _, _, candidates, _ = self._reverse_branches(
            mapping, target, max_nulls, minimize, self._budget(limits)
        )
        return list(candidates)

    def reverse_many(
        self,
        reverse_mapping: SchemaMapping,
        targets: Iterable[Instance],
        jobs: Optional[int] = None,
        max_nulls: int = 8,
        minimize: bool = True,
        take_core: bool = False,
        limits: Optional[Limits] = None,
        on_error: Optional[str] = None,
        retries: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> List[object]:
        """Reverse a batch of target instances (dedup + fan-out).

        Plain-tgd reverse mappings route through :meth:`chase_many`, so
        the chase cache stays coherent with the serial path; disjunctive
        ones dedupe on the reverse cache and fan the quotient-branching
        chase out per unique target.  Fault isolation, retries, the
        batch deadline, and fault injection behave exactly as in
        :meth:`chase_many` (under ``on_error="skip"`` failed items
        resolve to :class:`repro.errors.BatchItemError`, ``op="reverse"``).
        Coring runs after the batch, under the batch's deadline, as in
        :meth:`reverse`.
        """
        budget = self._budget(limits)
        targets = list(targets)
        if not (
            reverse_mapping.is_disjunctive() or reverse_mapping.uses_inequality()
        ):
            forward = self.chase_many(
                reverse_mapping,
                targets,
                jobs=jobs,
                limits=limits,
                on_error=on_error,
                retries=retries,
                faults=faults,
            )
            return [
                BatchItemError(
                    index=index,
                    op="reverse",
                    error=item.error,
                    attempts=item.attempts,
                    elapsed=item.elapsed,
                    kind=item.kind,
                )
                if isinstance(item, BatchItemError)
                else self._reverse_result(
                    (item.instance,),
                    item.provenance,
                    item.exhausted,
                    take_core,
                    budget,
                )
                for index, item in enumerate(forward)
            ]
        digest = reverse_mapping.digest()

        def settle(branches):
            candidates = tuple(branches)
            return candidates, branches.exhausted, {"branches": len(candidates)}

        return self._batch(
            "reverse",
            targets,
            key=lambda t: ("reverse", digest, t.digest(), max_nulls, minimize),
            payload=lambda t, _index: (reverse_mapping, t, max_nulls, minimize),
            tasks=(reverse_task, reverse_task_traced),
            limits=resolve_limits(limits, self.limits),
            settle=settle,
            build=lambda key, candidates, hit, exhausted: self._reverse_result(
                candidates,
                CacheProvenance(self._key_id(key), hit),
                exhausted,
                take_core,
                budget,
            ),
            jobs=jobs,
            on_error=on_error,
            retries=retries,
            faults=faults,
        )

    # ------------------------------------------------------------------
    # Homomorphisms and cores
    # ------------------------------------------------------------------

    def is_homomorphic(self, left: Instance, right: Instance) -> bool:
        """Cached homomorphism-existence verdict ``left → right``."""
        key = (left.digest(), right.digest())

        def compute(_tracer, _profiler):
            from ..homs.search import is_homomorphic

            return is_homomorphic(left, right), None

        _, verdict, _, _ = self._serve("hom", key, compute, instance_digest=key[0])
        return verdict

    def is_hom_equivalent(self, left: Instance, right: Instance) -> bool:
        """Cached homomorphic equivalence (both directions)."""
        return self.is_homomorphic(left, right) and self.is_homomorphic(right, left)

    def core(self, instance: Instance) -> Instance:
        """The cached core of *instance*."""
        return self._core(instance, None)[0]

    def _core(
        self, instance: Instance, budget: Optional[Budget]
    ) -> Tuple[Instance, Optional[Exhausted]]:
        """The cached core of *instance*, folded under *budget*.

        Without a budget the ambient one governs, and exhaustion raises.
        A partial-mode *budget* that runs out yields the last fold
        instead, with the diagnosis, and neither is cached.
        """
        key = (instance.digest(),)

        def compute(_tracer, _profiler):
            from ..homs.core import core

            if budget is None:
                return core(instance), None
            with budget_scope(budget):
                try:
                    return core(instance), None
                except BudgetExhausted as error:
                    if budget.limits.raises:
                        raise
                    return error.partial, error.diagnosis

        _, folded, exhausted, _ = self._serve(
            "core",
            key,
            compute,
            lambda folded: {"facts": len(folded), "nulls": len(folded.nulls)},
            instance_digest=key[0],
        )
        return folded, exhausted

    # ------------------------------------------------------------------
    # Audits and reverse query answering
    # ------------------------------------------------------------------

    def audit(
        self, mapping: SchemaMapping, reverse: Optional[SchemaMapping] = None
    ) -> AuditReport:
        """Invertibility audit of a mapping, cached by mapping digest.

        Checks ground invertibility, extended invertibility, and (when
        a candidate is given) the chase-inverse property."""
        key = (
            "audit",
            mapping.digest(),
            reverse.digest() if reverse is not None else "",
        )

        def compute(_tracer, _profiler):
            from ..inverses.extended_inverse import (
                is_chase_inverse,
                is_extended_invertible,
            )
            from ..inverses.ground import is_invertible

            entry = (
                is_invertible(mapping),
                is_extended_invertible(mapping),
                is_chase_inverse(mapping, reverse) if reverse is not None else None,
            )
            return entry, None

        hit, entry, _, _ = self._serve("audit", key, compute, mapping_digest=key[1])
        invertible, extended, chase_inverse = entry
        return AuditReport(
            invertible=invertible,
            extended_invertible=extended,
            chase_inverse=chase_inverse,
            provenance=CacheProvenance(self._key_id(key), hit),
        )

    def answer(
        self,
        mapping: SchemaMapping,
        recovery: SchemaMapping,
        query,
        source: Instance,
        max_nulls: int = 8,
    ) -> FrozenSet[Tuple]:
        """Reverse certain answers (Theorem 6.5) through the caches.

        The forward chase and the reverse branch set both come from the
        engine's caches, so repeated queries over the same exchange pay
        only the final intersection; the answer set itself is cached on
        top of that.
        """
        key = (
            "answer",
            mapping.digest(),
            recovery.digest(),
            str(query),
            source.digest(),
            max_nulls,
        )

        def compute(_tracer, _profiler):
            from ..logic.queries import certain_answers_over_set

            target = self.chase(mapping, source)
            branches = self.reverse(recovery, target, max_nulls=max_nulls).candidates
            return certain_answers_over_set(query, branches), None

        _, answers, _, _ = self._serve(
            "answer", key, compute, mapping_digest=key[1], instance_digest=key[4]
        )
        return answers

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-operation counters as a nested plain dict.

        Covers cache hits/misses/evictions, live entries, compute wall
        time, and chase work (steps, rounds, triggers, branches), plus
        a ``totals`` roll-up.

        When a tracer is attached (or ambient), its metrics registry is
        merged in under the ``"tracer"`` key — event counts by kind and
        span duration histograms alongside the cache counters."""
        report: Dict[str, Dict[str, float]] = {}
        cache_counters = (counter.name for counter in fields(CacheStats))
        summed = ("calls", *cache_counters, *_COUNTERS[1:])
        totals: Dict[str, float] = dict.fromkeys(summed, 0)
        for op in _OPS:
            cache = self._caches[op]
            cache_stats = cache.stats
            counts = {**asdict(self._ops[op]), **asdict(cache_stats)}
            report[op] = {
                "calls": counts["calls"],
                **cache_stats.as_dict(),
                "entries": len(cache),
                **{name: _rounded(counts[name]) for name in _COUNTERS[1:]},
            }
            for name in summed:
                totals[name] = _rounded(totals[name] + counts[name])
        report["totals"] = totals
        tracer = self._tracer()
        if tracer is not None:
            report["tracer"] = tracer.metrics.as_dict()
        return report

    @staticmethod
    def _hit_rate(hits: float, calls: float) -> str:
        """Hit percentage as text; ``-`` for ops never called (no 0/0)."""
        if calls <= 0:
            return "-"
        return f"{100.0 * hits / calls:.0f}%"

    @staticmethod
    def _ms_per_call(wall_time: float, misses: float) -> str:
        """Mean compute ms per miss; ``-`` when nothing was computed."""
        if misses <= 0:
            return "-"
        return f"{1000.0 * wall_time / misses:.2f}"

    def render_stats(self) -> str:
        """The stats table as printable text (the CLI's ``--stats``).

        Derived columns (hit rate, mean compute ms per miss) render as
        ``-`` for operations with zero recorded calls rather than
        dividing by zero, and the totals row carries every column so
        the table stays aligned whatever subset of ops actually ran.
        """
        report = self.stats()
        lines = ["engine stats:"]
        header = (
            f"  {'op':<8} {'calls':>6} {'hits':>6} {'misses':>7} {'hit%':>6} "
            f"{'evict':>6} {'entries':>8} {'wall(s)':>10} {'ms/call':>8} "
            f"{'steps':>7} {'triggers':>9} {'branches':>9} {'errors':>7} "
            f"{'kills':>6}"
        )
        lines.append(header)
        for op in (*_OPS, "totals"):
            row = report[op]
            label = "total" if op == "totals" else op
            entries = "" if op == "totals" else f"{row['entries']:>8}"
            lines.append(
                f"  {label:<8} {row['calls']:>6} {row['hits']:>6} "
                f"{row['misses']:>7} "
                f"{self._hit_rate(row['hits'], row['calls']):>6} "
                f"{row['evictions']:>6} {entries:>8} {row['wall_time']:>10.4f} "
                f"{self._ms_per_call(row['wall_time'], row['misses']):>8} "
                f"{row['steps']:>7} {row['triggers']:>9} {row['branches']:>9} "
                f"{row['errors']:>7} {row['kills']:>6}"
            )
        tracer_metrics = report.get("tracer")
        if tracer_metrics and (
            tracer_metrics["counters"] or tracer_metrics["histograms"]
        ):
            lines.append("  tracer:")
            for name, value in tracer_metrics["counters"].items():
                lines.append(f"    {name:<30} {value}")
            for name, hist in tracer_metrics["histograms"].items():
                lines.append(
                    f"    {name:<30} n={hist['count']} "
                    f"mean={hist['mean'] * 1000:.3f}ms"
                )
        return "\n".join(lines)

    def clear(self) -> None:
        """Empty every cache (lifetime counters are kept)."""
        for cache in self._caches.values():
            cache.clear()
