"""Task functions, batch outcomes, and the in-process serial loop.

``chase_many``/``reverse_many`` hand their unique work items to one of
two runners (:meth:`repro.engine.ExchangeEngine._run_batch` picks):

* the **serial loop** here (:func:`run_batch_isolated`) — one item at
  a time in the calling process.  It is the default: the chase holds
  the GIL, so threads cannot beat it, and the batch path still wins
  through content-addressed dedup;
* the **worker pool** (:func:`repro.engine.supervisor.run_batch_supervised`)
  — when supervision is armed, or when a batch of large instances
  (``process_threshold`` facts or more) has more than one item and
  more than one job on a multi-CPU host.  Batches lease their pools,
  so consecutive batches run on the same workers; each job names its
  task function, which pickles by reference.

Batch execution is **fault isolated** on both: one item crashing (a
worker exception, an injected fault) does not take the whole batch
down.  Each runner returns one :class:`ItemOutcome` per payload —
either a value or the exception that ended the item — retries
*transient* failures up to a retry budget, and reports items still
unstarted at the batch deadline as deadline-exhausted.

Task functions live at module scope so they pickle by reference.  Every
payload ends with ``(..., limits, fault, attempt)``: ``limits`` is the
per-item :class:`repro.limits.Limits` (or ``None``: the item runs under
the ambient budget on the serial loop; a worker has none, so a pooled
batch ships that budget's limits here), ``fault`` the per-item
:class:`repro.limits.Fault` from a test/CI fault plan (or ``None``),
and ``attempt`` the 1-based attempt
number — the retry loop resubmits the same payload with only the last
element bumped.  The element *before* the trailing triple is ``ctx``,
the caller's serialized :class:`repro.obs.context.TraceContext` (a
plain dict, or ``None`` outside a request): task functions restore it
as the worker's ambient context so spans and records produced in the
worker carry the originating request's ids.  A chase payload opens with
``(mapping, instance, variant, scratch)``: *scratch* is the engine's
kernel choice for the item (``None`` for the tuple chase, else the SQL
chase's scratch store spec, one per item), so a batch item runs on the
same kernel as a single :meth:`~repro.engine.ExchangeEngine.exchange`."""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..chase.disjunctive import Branches, reverse_disjunctive_chase
from ..chase.standard import ChaseResult
from ..errors import BudgetExhausted, FaultInjected
from ..instance import Instance
from ..limits import Exhausted, Fault, Limits, trip
from ..mappings.schema_mapping import SchemaMapping
from ..obs.context import TraceContext, context_scope
from ..obs.tracer import Tracer, TraceState

#: Failures worth retrying: injected crash faults (deterministically
#: transient by construction) and infrastructure-level breakage (an
#: ``OSError``, such as a pool worker that died without a result).  A
#: :class:`BudgetExhausted` is *not* transient — retrying an exhausted
#: budget would just exhaust it again.
_TRANSIENT = (FaultInjected, OSError)


def is_transient(error: BaseException) -> bool:
    """True when a retry of *error* would plausibly succeed."""
    return isinstance(error, _TRANSIENT) and not isinstance(error, BudgetExhausted)


@dataclass
class ItemOutcome:
    """One batch item's fate: a value or the exception that ended it.

    ``elapsed`` is the item's wall time across *all* its attempts
    (first dispatch to final resolution), so failed items get their
    cost attributed in ``engine.stats()`` just like successful ones.
    ``kills`` counts hard terminations the item's workers needed — it
    stays 0 in the serial loop and on a pool without a grace period
    (:mod:`repro.engine.supervisor`).
    """

    value: Any = None
    error: Optional[BaseException] = None
    attempts: int = 1
    elapsed: float = 0.0
    kills: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def _deadline_exhausted(attempts: int, elapsed: float = 0.0) -> ItemOutcome:
    """The outcome recorded for items still unfinished at the deadline."""
    diagnosis = Exhausted(
        resource="deadline", where="engine.batch", used="batch deadline passed"
    )
    return ItemOutcome(
        error=BudgetExhausted(diagnosis=diagnosis),
        attempts=attempts,
        elapsed=elapsed,
    )


def _rebudgeted(payload: tuple, elapsed: float) -> tuple:
    """Carry an item's spent time into its retry payload.

    A retried item continues the *same* per-item budget rather than
    restarting its deadline from zero: ``limits`` sits at
    ``payload[-3]`` (the payload-shape contract above), and the retry
    ships a replacement whose deadline is the original minus the wall
    time already burned, floored at zero so a hopeless retry still
    resolves promptly as deadline-exhausted instead of running another
    full deadline's worth of work.
    """
    limits = payload[-3] if len(payload) >= 3 else None
    if not isinstance(limits, Limits) or limits.deadline is None:
        return payload
    remaining = max(0.0, limits.deadline - elapsed)
    return payload[:-3] + (limits.replace(deadline=remaining),) + payload[-2:]


def _scope(ctx: Optional[dict]):
    """The worker-side ambient-context scope for a payload's ``ctx``."""
    if ctx:
        return context_scope(TraceContext.from_dict(ctx))
    return nullcontext()


def _chase_body(payload: tuple, tracer: Optional[Tracer]) -> ChaseResult:
    """Chase one instance on the payload's kernel; *tracer* goes to it as given."""
    from .engine import run_chase  # the engine module imports this one

    mapping, instance, variant, scratch, ctx, limits, fault, attempt = payload
    trip(fault, attempt)
    with _scope(ctx):
        return run_chase(mapping, instance, variant, scratch, tracer, limits)


def _reverse_body(payload: tuple, tracer: Optional[Tracer]) -> Branches:
    """Reverse-chase one target with a disjunctive mapping.

    ``reverse_many`` sends plain-tgd reverse mappings through
    ``chase_many``, so only disjunctive ones reach this task.
    """
    mapping, target, max_nulls, minimize, ctx, limits, fault, attempt = payload
    trip(fault, attempt)
    with _scope(ctx):
        return reverse_disjunctive_chase(
            target,
            mapping.dependencies,
            result_relations=mapping.target.names,
            max_nulls=max_nulls,
            minimize=minimize,
            limits=limits,
            tracer=tracer,
        )


def chase_task(
    payload: Tuple[
        SchemaMapping, Instance, str, Optional[str], Optional[dict],
        Optional[Limits], Optional[Fault], int,
    ]
) -> ChaseResult:
    """Chase one instance (runs inside a worker; must stay picklable)."""
    return _chase_body(payload, None)


def chase_task_traced(
    payload: Tuple[
        SchemaMapping, Instance, str, Optional[str], Optional[dict],
        Optional[Limits], Optional[Fault], int,
    ]
) -> Tuple[ChaseResult, TraceState]:
    """Chase one instance under a private tracer; ship the trace back.

    Worker processes cannot share the parent's tracer, so each traced
    task records into a fresh local tracer and returns its picklable
    :class:`TraceState`; the engine absorbs the states on join.  The
    same shape runs in serial batches for uniformity.
    """
    local = Tracer()
    return _chase_body(payload, local), local.export_state()


def reverse_task(
    payload: Tuple[
        SchemaMapping, Instance, int, bool, Optional[dict], Optional[Limits], Optional[Fault], int
    ]
) -> Branches:
    """Reverse-chase one target instance inside a worker."""
    return _reverse_body(payload, None)


def reverse_task_traced(
    payload: Tuple[
        SchemaMapping, Instance, int, bool, Optional[dict], Optional[Limits], Optional[Fault], int
    ]
) -> Tuple[Branches, TraceState]:
    """Traced counterpart of :func:`reverse_task`.

    See :func:`chase_task_traced` for the per-worker tracer protocol."""
    local = Tracer()
    return _reverse_body(payload, local), local.export_state()


def run_batch_isolated(
    payloads: Sequence[tuple],
    fn,
    retries: int = 0,
    deadline: Optional[float] = None,
) -> List[ItemOutcome]:
    """Run *fn* over *payloads* in this process, one item at a time.

    Returns one :class:`ItemOutcome` per payload, in payload order; no
    item's failure affects any other item.  Transient failures (see
    :func:`is_transient`) are retried up to *retries* extra attempts,
    resubmitting the payload with its remaining deadline and its
    trailing attempt counter bumped.  *deadline* is a wall-clock
    duration (seconds) for the whole batch: items not yet started when
    it passes are reported as deadline-exhausted outcomes, and a
    running item stops cooperatively via the deadline in its own
    ``Limits``.
    """
    deadline_at = None if deadline is None else time.monotonic() + deadline

    def expired() -> bool:
        return deadline_at is not None and time.monotonic() >= deadline_at

    outcomes: List[ItemOutcome] = []
    for payload in payloads:
        attempt = 1
        started = time.monotonic()
        while True:
            if expired():
                outcome = _deadline_exhausted(
                    attempt - 1, elapsed=time.monotonic() - started
                )
                break
            try:
                value = fn(payload)
            except Exception as error:
                elapsed = time.monotonic() - started
                if is_transient(error) and attempt <= retries and not expired():
                    attempt += 1
                    payload = _rebudgeted(payload, elapsed)[:-1] + (attempt,)
                    continue
                outcome = ItemOutcome(error=error, attempts=attempt, elapsed=elapsed)
                break
            outcome = ItemOutcome(
                value=value, attempts=attempt, elapsed=time.monotonic() - started
            )
            break
        outcomes.append(outcome)
    return outcomes
