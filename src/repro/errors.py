"""The ``repro`` exception hierarchy.

Every error the library raises deliberately derives from
:class:`ReproError`, so ``except ReproError`` is the one catch-all a
service loop needs.  The stable, supported import paths are::

    from repro.errors import (
        ReproError,            # root of the hierarchy
        BudgetExhausted,       # a resource budget ran out (carries a diagnosis)
        Cancelled,             # a CancelToken fired
        ChaseNonTermination,   # round budget exhausted in "raise" mode
        BatchItemError,        # one item of an engine batch failed
        FaultInjected,         # a deterministic test fault tripped
        ParseError,            # malformed dependency, query or instance text
        WorkerKilled,          # the supervisor hard-killed a hung worker
    )

(the same names are re-exported from the top-level ``repro`` package).

Design notes:

* :class:`BudgetExhausted` subclasses :class:`RuntimeError` because the
  pre-hierarchy guards (``max_rounds``/``max_branches``) raised
  ``RuntimeError`` subclasses; existing ``except RuntimeError`` call
  sites keep working.
* :class:`ParseError` subclasses :class:`ValueError` for the same
  reason: the parsers raised ``ValueError`` before the hierarchy did.
  It is also importable from :mod:`repro.parsing.parser`, where it
  used to live.
* :class:`ChaseNonTermination` subclasses :class:`BudgetExhausted`:
  non-termination *is* exhaustion of the round budget.  Its historical
  import path ``repro.chase.standard.ChaseNonTermination`` remains
  valid (the chase module re-exports it).
* Errors that wrap a budget diagnosis expose it as ``.diagnosis`` — an
  :class:`repro.limits.Exhausted` value naming the resource, where it
  ran out, and how far the computation got.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class BudgetExhausted(ReproError, RuntimeError):
    """A resource budget (deadline, rounds, facts, nulls, branches) ran out.

    Raised only when the governing :class:`repro.limits.Limits` says
    ``on_exhausted="raise"``; in ``"partial"`` mode the chase returns a
    tagged partial result instead.  ``diagnosis`` (when present) is the
    :class:`repro.limits.Exhausted` record of what ran out and where.
    ``partial`` is what an anytime operation had when the budget ran
    out — :func:`repro.homs.core.core` puts its last fold there — and
    ``None`` otherwise.
    """

    def __init__(self, message: str = "", diagnosis=None) -> None:
        """Describe the exhaustion; *diagnosis* supplies the message."""
        if not message and diagnosis is not None:
            message = diagnosis.describe()
        super().__init__(message)
        self.diagnosis = diagnosis
        self.partial = None


class Cancelled(BudgetExhausted):
    """A :class:`repro.limits.CancelToken` was cancelled mid-operation."""


class ChaseNonTermination(BudgetExhausted):
    """The chase exceeded its round budget without reaching a fixpoint."""


class FaultInjected(ReproError):
    """A deterministic fault from a :class:`repro.limits.FaultPlan` tripped.

    Simulates a transient worker crash: the engine's retry policy treats
    it as retryable, so a fault with ``times=1`` and ``retries>=1``
    succeeds on the second attempt.
    """

    def __init__(self, message: str = "injected fault", item: int = -1) -> None:
        """Tag the injected failure with the batch *item* it hit."""
        super().__init__(message)
        self.item = item


class ParseError(ReproError, ValueError):
    """Malformed or ill-formed dependency, query, or instance text."""


class WorkerKilled(ReproError):
    """A supervised pool worker was hard-killed after going silent.

    Raised (as a batch item's error) by the worker supervisor
    (:mod:`repro.engine.supervisor`) when a worker's heartbeat stayed
    stale for more than ``Limits.grace`` seconds past its cooperative
    deadline and escalation — cooperative cancel, then
    ``Process.terminate()`` — had to end it.  Treated as *transient* by
    the retry policy: a retried item runs again on a pool worker with
    the remaining deadline.

    Attributes
    ----------
    item:
        The batch index of the killed item (``-1`` when unknown).
    pid:
        OS process id of the terminated worker (``None`` when it never
        started).
    diagnosis:
        The :class:`repro.limits.Exhausted` record (``resource=
        "killed"``) describing how long the heartbeat had been stale.
    """

    def __init__(
        self,
        message: str = "",
        item: int = -1,
        pid: Optional[int] = None,
        diagnosis=None,
    ) -> None:
        if not message and diagnosis is not None:
            message = diagnosis.describe()
        super().__init__(message or "supervised worker hard-killed")
        self.item = item
        self.pid = pid
        self.diagnosis = diagnosis


class BatchItemError(ReproError):
    """One item of an engine batch failed; the rest of the batch survived.

    Appears *in the result list* of ``chase_many``/``reverse_many`` when
    ``on_error="skip"``: each failed item resolves to one of these in
    its input position instead of poisoning the whole batch.

    Attributes
    ----------
    index:
        The item's position in the input batch.
    op:
        The engine operation (``"chase"`` or ``"reverse"``).
    kind:
        Failure kind: the class name of the underlying exception, or
        the explicit override passed by the runner (the supervisor
        reports hard-killed items as ``kind="killed"``).
    error:
        The underlying exception object.
    attempts:
        How many attempts were made (> 1 when a retry policy re-ran it).
    elapsed:
        Wall-clock seconds the item consumed across all its attempts
        (``0.0`` when the runner could not measure it).
    diagnosis:
        The :class:`repro.limits.Exhausted` record when the failure was
        a budget exhaustion, else ``None``.
    """

    def __init__(
        self,
        index: int,
        op: str,
        error: BaseException,
        attempts: int = 1,
        diagnosis=None,
        elapsed: float = 0.0,
        kind: Optional[str] = None,
    ) -> None:
        super().__init__(
            f"{op} batch item {index} failed after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: "
            f"{type(error).__name__}: {error}"
        )
        self.index = index
        self.op = op
        self.error = error
        self.kind = kind if kind is not None else type(error).__name__
        self.attempts = attempts
        self.elapsed = elapsed
        self.diagnosis = diagnosis if diagnosis is not None else getattr(
            error, "diagnosis", None
        )


__all__ = [
    "ReproError",
    "BudgetExhausted",
    "Cancelled",
    "ChaseNonTermination",
    "FaultInjected",
    "ParseError",
    "WorkerKilled",
    "BatchItemError",
]
