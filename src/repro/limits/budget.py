"""Live budget accounting and cooperative cancellation.

A :class:`Budget` is the mutable runtime counterpart of an immutable
:class:`~repro.limits.config.Limits`: created when an operation starts,
charged from inside the fixpoint loops (standard chase, disjunctive
chase, homomorphism backtracking), and consulted cheaply — each check
is a handful of comparisons, plus one monotonic-clock read when a
deadline is set.

A :class:`CancelToken` adds external, thread-safe cancellation: any
thread may call ``token.cancel()`` and every budget holding the token
reports exhaustion at its next cooperative checkpoint.

The *ambient budget* mirrors the ambient tracer pattern but is
**thread-local**: ``with budget_scope(budget): ...`` makes nested
library calls on the same thread (e.g. the hom searches inside
``minimize_branches``) respect an enclosing deadline without threading
a parameter through every signature.  Pool workers start every job
without one — each builds its own budget from the ``Limits`` in its
payload, which for a batch without limits of its own are the ambient
budget's, with the deadline it has left; that deadline also ends the
batch, so a pooled batch respects the enclosing deadline too.

:func:`resolve_guards` is the one default-guard policy every chase
kernel calls: it picks the call's budget (shared, fresh from limits,
ambient, or a raising default) and its effective round and branch
bounds, with the :data:`FALLBACK_BOUNDS` filling a bound only when the
limits set neither it nor a deadline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import NamedTuple, Optional

from ..errors import BudgetExhausted, Cancelled, ChaseNonTermination
from ..obs.context import current_context
from ..obs.progress import current_reporter
from .config import Exhausted, Limits


class CancelToken:
    """A thread-safe, one-way cancellation flag.

    ``cancel()`` may be called from any thread (a signal handler, a
    watchdog, a request-scoped reaper); budgets holding the token pick
    the cancellation up at their next cooperative checkpoint.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        """A fresh, uncancelled token."""
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        state = f"cancelled: {self.reason}" if self.cancelled else "live"
        return f"CancelToken({state})"


# ----------------------------------------------------------------------
# The ambient (process-wide) cancellation token
# ----------------------------------------------------------------------
#
# A SIGINT handler runs on the main thread but must reach budgets on
# every thread, so unlike the ambient *budget* below the ambient token
# is a plain module global: freshly constructed budgets adopt it (see
# ``Budget.__init__``) and a single ``token.cancel()`` stops them all
# at their next cooperative checkpoint.

_ambient_token: Optional[CancelToken] = None


def current_cancel_token() -> Optional[CancelToken]:
    """The process-wide cancellation token, or ``None`` (the default)."""
    return _ambient_token


def set_cancel_token(token: Optional[CancelToken]) -> Optional[CancelToken]:
    """Install *token* as the ambient token; returns the previous one."""
    global _ambient_token
    previous = _ambient_token
    _ambient_token = token
    return previous


@contextmanager
def cancel_scope(token: Optional[CancelToken] = None):
    """Scope an ambient token: ``with cancel_scope() as tok: ...``."""
    if token is None:
        token = CancelToken()
    previous = set_cancel_token(token)
    try:
        yield token
    finally:
        set_cancel_token(previous)


class Budget:
    """Mutable accounting for one operation under a :class:`Limits`.

    The chase calls :meth:`start_round` at the top of every fixpoint
    round and :meth:`charge` after every firing; the hom search calls
    :meth:`checkpoint` every few hundred candidate extensions.  Each
    returns ``None`` while within budget, or an :class:`Exhausted`
    diagnosis the moment a bound is crossed (also remembered as
    ``self.exhausted`` — a budget stays exhausted).

    A budget may be *shared* across sub-operations (the quotient worlds
    of a reverse chase, every item of an engine batch) so one deadline
    governs the whole composite.
    """

    __slots__ = (
        "limits",
        "token",
        "reporter",
        "context",
        "rounds",
        "steps",
        "exhausted",
        "_deadline_at",
        "_clock",
    )

    def __init__(
        self,
        limits: Optional[Limits] = None,
        token: Optional[CancelToken] = None,
        clock=time.monotonic,
        reporter=None,
    ) -> None:
        self.limits = limits if limits is not None else Limits()
        # Fresh budgets inherit the process-wide cancellation token and
        # progress reporter (one global read each) unless given their
        # own; both default to None, keeping checkpoints at slot reads.
        self.token = token if token is not None else current_cancel_token()
        self.reporter = reporter if reporter is not None else current_reporter()
        # Budgets are request-scoped: capture the ambient TraceContext
        # once at construction so every Exhausted diagnosis this budget
        # marks carries the ids of the request whose work ran out.
        self.context = current_context()
        self.rounds = 0
        self.steps = 0
        self.exhausted: Optional[Exhausted] = None
        self._clock = clock
        self._deadline_at = (
            clock() + self.limits.deadline
            if self.limits.deadline is not None
            else None
        )

    # ------------------------------------------------------------------
    # Checks (each returns None while within budget)
    # ------------------------------------------------------------------

    def mark(self, resource: str, where: str, limit, used) -> Exhausted:
        """Record an exhaustion detected by the caller (first mark wins).

        The chase kernels use this for bounds they track themselves
        (per-branch rounds, frontier size); once marked, every later
        check reports the same diagnosis."""
        if self.exhausted is None:
            context = self.context
            self.exhausted = Exhausted(
                resource=resource,
                where=where,
                limit=limit,
                used=used,
                rounds=self.rounds,
                steps=self.steps,
                trace_id=context.trace_id if context is not None else "",
                request_id=context.request_id if context is not None else "",
            )
        return self.exhausted

    def checkpoint(self, where: str) -> Optional[Exhausted]:
        """The cheap cooperative check: cancellation and deadline only."""
        if self.reporter is not None:
            self.reporter.heartbeat(where, self.rounds, self.steps)
        if self.exhausted is not None:
            return self.exhausted
        if self.token is not None and self.token.cancelled:
            return self.mark("cancelled", where, None, self.token.reason)
        if self._deadline_at is not None and self._clock() > self._deadline_at:
            return self.mark(
                "deadline", where, self.limits.deadline, "deadline passed"
            )
        return None

    def start_round(self, where: str) -> Optional[Exhausted]:
        """Charge one fixpoint round; check rounds, deadline, cancel.

        Mirrors the historical guard: a chase may *use* ``max_rounds``
        rounds; starting round ``max_rounds + 1`` exhausts.
        """
        self.rounds += 1
        ex = self.checkpoint(where)
        if ex is not None:
            return ex
        max_rounds = self.limits.max_rounds
        if max_rounds is not None and self.rounds > max_rounds:
            return self.mark("rounds", where, max_rounds, self.rounds)
        return None

    def charge(
        self,
        where: str,
        facts: Optional[int] = None,
        nulls: Optional[int] = None,
        branches: Optional[int] = None,
    ) -> Optional[Exhausted]:
        """Check current resource gauges against their bounds.

        Gauges are absolute ("the instance now has N facts"), not
        deltas, so the caller never double-counts.  One chase step may
        overshoot a bound by the facts of a single conclusion — the
        check is cooperative, not preemptive.
        """
        self.steps += 1
        if self.reporter is not None:
            self.reporter.heartbeat(
                where, self.rounds, self.steps,
                facts=facts, nulls=nulls, branches=branches,
            )
        if self.exhausted is not None:
            return self.exhausted
        limits = self.limits
        if facts is not None and limits.max_facts is not None:
            if facts > limits.max_facts:
                return self.mark("facts", where, limits.max_facts, facts)
        if nulls is not None and limits.max_nulls is not None:
            if nulls > limits.max_nulls:
                return self.mark("nulls", where, limits.max_nulls, nulls)
        if branches is not None and limits.max_branches is not None:
            if branches > limits.max_branches:
                return self.mark("branches", where, limits.max_branches, branches)
        # Deadline/cancel piggyback on the per-step charge so runaway
        # single rounds (one round can fire thousands of triggers) still
        # observe the clock.
        return self.checkpoint(where)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def remaining_time(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no deadline)."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - self._clock())

    def raise_exhausted(self) -> None:
        """Raise the typed error for the recorded diagnosis."""
        ex = self.exhausted
        if ex is None:  # pragma: no cover - defensive
            raise BudgetExhausted("budget not exhausted")
        if ex.resource == "cancelled":
            raise Cancelled(diagnosis=ex)
        if ex.resource == "rounds":
            raise ChaseNonTermination(
                f"{ex.where} did not terminate within {ex.limit} rounds",
                diagnosis=ex,
            )
        raise BudgetExhausted(diagnosis=ex)


# ----------------------------------------------------------------------
# The ambient (thread-local) budget
# ----------------------------------------------------------------------

_ambient = threading.local()


def current_budget() -> Optional[Budget]:
    """This thread's ambient budget, or ``None`` (the default)."""
    return getattr(_ambient, "budget", None)


def set_budget(budget: Optional[Budget]) -> Optional[Budget]:
    """Install *budget* as this thread's ambient budget.

    Returns the previous ambient budget so callers can restore it."""
    previous = getattr(_ambient, "budget", None)
    _ambient.budget = budget
    return previous


@contextmanager
def budget_scope(budget):
    """Scope an ambient budget over nested library calls on this thread.

    Accepts a :class:`Budget` or, as a convenience, a bare
    :class:`Limits` (a fresh budget is built from it).
    """
    if isinstance(budget, Limits):
        budget = Budget(budget)
    previous = set_budget(budget)
    try:
        yield budget
    finally:
        set_budget(previous)


# ----------------------------------------------------------------------
# The default-guard policy
# ----------------------------------------------------------------------

#: The fallback bounds, per kernel: ``(rounds, branches)``.  Rounds are
#: per branch for the disjunctive chase.  A fallback applies only when
#: the effective limits set neither that bound nor a deadline, so
#: unbounded recursion ends in a tagged partial result or a typed
#: error, never a hang.  A chase of full tgds gets no round fallback:
#: it mints no null, so it always reaches a fixpoint.
FALLBACK_BOUNDS = {
    "chase": (64, None),
    "sql_chase": (64, None),
    "disjunctive_chase": (32, 10_000),
}


class Guards(NamedTuple):
    """A kernel call's budget and its effective round and branch bounds."""

    budget: Budget
    max_rounds: Optional[int]
    max_branches: Optional[int]

    def start_round(self, where: str, rounds: int) -> Optional[Exhausted]:
        """Charge one round; check the call's own *rounds* count too.

        :meth:`Budget.start_round` checks the budget's bounds; then
        *rounds* is checked against the effective round bound, which
        may be a fallback the budget's limits do not carry.
        """
        exhausted = self.budget.start_round(where)
        bound = self.max_rounds
        if exhausted is None and bound is not None and rounds > bound:
            exhausted = self.budget.mark("rounds", where, bound, rounds)
        return exhausted


def resolve_guards(
    kernel: str,
    limits: Optional[Limits],
    budget: Optional[Budget],
    full: bool = False,
) -> Guards:
    """The budget and bounds one call of *kernel* runs under.

    The budget is a shared *budget* as given, else a fresh one from
    *limits*, else the thread's ambient budget; when the caller gives
    no limits at all, a fresh budget that raises on exhaustion.  Each
    bound is the budget's own ``max_rounds``/``max_branches``, or, when
    that is unset and the budget has no deadline, the kernel's fallback
    from :data:`FALLBACK_BOUNDS`, whatever the budget's source.  A
    *full* call — a chase of tgds without existential variables — gets
    no round fallback, since it cannot run forever.
    """
    if budget is None and limits is None:
        budget = current_budget()
    if budget is None:
        budget = Budget(limits if limits is not None else Limits(on_exhausted="raise"))
    own = budget.limits
    fallbacks = FALLBACK_BOUNDS[kernel]
    if own.deadline is not None:
        fallbacks = (None, None)
    elif full:
        fallbacks = (None, fallbacks[1])
    return Guards(
        budget,
        own.max_rounds if own.max_rounds is not None else fallbacks[0],
        own.max_branches if own.max_branches is not None else fallbacks[1],
    )
