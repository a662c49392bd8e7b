"""The chase kernels' one instrumentation seam.

Every chase kernel — the tuple chase (:func:`repro.chase.standard.chase`),
the disjunctive chase (:func:`repro.chase.disjunctive.disjunctive_chase`)
and the SQL chase (:func:`repro.store.sqlplan.sql_chase`) — reports what
it does through one :class:`ChaseObserver`, or through nothing at all.
At entry a kernel hands its ``tracer=``/``profiler=`` arguments (and,
for the disjunctive chase, its budget's progress reporter) to
:func:`chase_observer`, which returns ``None`` when nothing is attached.
The kernel then guards each hook with one ``observer is not None`` test:
with nothing attached it builds no hook arguments, reads no clock, and
calls nothing per binding.

The observer has exactly the hooks that have a consumer:

* :meth:`~ChaseObserver.cell` — one unit of attributed work (a tuple
  dependency × round, one disjunctive pop, or one SQL trigger plan ×
  round); consumed by :class:`repro.obs.profile.ChaseProfiler`;
* :meth:`~ChaseObserver.fired` — one trigger firing; the tracer builds
  its :class:`~repro.obs.events.NullMinted` and
  :class:`~repro.obs.events.TriggerFired` events from it;
* :meth:`~ChaseObserver.branch` — one step of a disjunctive branch's
  lifecycle (``opened``, ``forked``, ``closed``); the tracer emits
  :class:`~repro.obs.events.BranchOpened`/
  :class:`~repro.obs.events.BranchClosed` and the progress reporter
  counts it;
* :meth:`~ChaseObserver.exhausted` — the run's budget ran out; the
  tracer emits :class:`~repro.obs.events.ResourceExhausted` and bumps
  the ``budget.exhausted.*``/``chase.nontermination`` counters.

Subclass :class:`ChaseObserver` and override the hooks you need; the
kernels' ``profiler=`` slot takes any observer (a
:class:`~repro.obs.profile.ChaseProfiler` is one).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .events import (
    BranchClosed,
    BranchOpened,
    NullMinted,
    TriggerFired,
    exhaustion_event,
    freeze_binding,
)

__all__ = ["ChaseObserver", "chase_observer"]


class ChaseObserver:
    """What a chase kernel reports; every hook is a no-op here.

    *dependency* arguments are the kernel's own dependency objects
    (:class:`~repro.logic.dependencies.Tgd` or
    :class:`~repro.logic.dependencies.DisjunctiveTgd`); *branch* is the
    disjunctive chase's branch id (``None`` in the other kernels).
    """

    __slots__ = ()

    def cell(
        self,
        dependency,
        round_number: int,
        seconds: float,
        considered: int,
        fired: int,
        facts: int,
        nulls: int,
        branch: Optional[str] = None,
    ) -> None:
        """One attributed unit of work: its self time and counters."""

    def fired(
        self,
        dependency,
        index: int,
        round_number: int,
        binding: dict,
        full: dict,
        added: Sequence,
        branch: Optional[str] = None,
        disjunct_index: Optional[int] = None,
    ) -> None:
        """One trigger fired: its premise binding and the facts it added.

        *full* is *binding* extended with the fresh nulls the firing
        minted for the existential variables.
        """

    def branch(
        self,
        kind: str,
        branch: str,
        reason: Optional[str] = None,
        facts: int = 0,
        parent: Optional[str] = None,
        disjunct_index: Optional[int] = None,
        round_number: int = 0,
    ) -> None:
        """One branch lifecycle step: ``opened``, ``forked`` or ``closed``."""

    def exhausted(self, diagnosis) -> None:
        """The run's budget ran out (:class:`repro.limits.Exhausted`)."""


class _TracerObserver(ChaseObserver):
    """Turns the hooks into tracer events and counters."""

    __slots__ = ("tracer",)

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def fired(
        self,
        dependency,
        index,
        round_number,
        binding,
        full,
        added,
        branch=None,
        disjunct_index=None,
    ) -> None:
        emit = self.tracer.emit
        text = str(dependency)
        # The kernel binds exactly the existential variables beyond the
        # premise binding; sorted, they are in minting order.
        fresh_vars = sorted(full.keys() - binding.keys())
        minted = tuple((var.name, full[var]) for var in fresh_vars)
        for var_name, fresh in minted:
            emit(
                NullMinted(
                    null=fresh,
                    var=var_name,
                    tgd=text,
                    tgd_index=index,
                    round=round_number,
                    branch=branch,
                )
            )
        emit(
            TriggerFired(
                tgd=text,
                tgd_index=index,
                round=round_number,
                binding=freeze_binding(binding),
                added=tuple(added),
                premises=tuple(a.instantiate(binding) for a in dependency.premise),
                minted=minted,
                branch=branch,
                disjunct_index=disjunct_index,
            )
        )

    def branch(
        self,
        kind,
        branch,
        reason=None,
        facts=0,
        parent=None,
        disjunct_index=None,
        round_number=0,
    ) -> None:
        if kind == "opened":
            self.tracer.emit(
                BranchOpened(
                    branch=branch,
                    parent=parent,
                    disjunct_index=disjunct_index,
                    round=round_number,
                )
            )
        elif kind == "closed":
            self.tracer.emit(BranchClosed(branch=branch, reason=reason, facts=facts))

    def exhausted(self, diagnosis) -> None:
        tracer = self.tracer
        tracer.emit(exhaustion_event(diagnosis))
        tracer.metrics.inc(f"budget.exhausted.{diagnosis.resource}")
        if diagnosis.resource == "rounds":
            tracer.metrics.inc("chase.nontermination")


class _Fanout(ChaseObserver):
    """Several observers behind one: each hook reaches all of them."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[ChaseObserver]) -> None:
        self.parts = tuple(parts)

    def cell(self, *args, **kwargs) -> None:
        for part in self.parts:
            part.cell(*args, **kwargs)

    def fired(self, *args, **kwargs) -> None:
        for part in self.parts:
            part.fired(*args, **kwargs)

    def branch(self, *args, **kwargs) -> None:
        for part in self.parts:
            part.branch(*args, **kwargs)

    def exhausted(self, diagnosis) -> None:
        for part in self.parts:
            part.exhausted(diagnosis)


def chase_observer(
    tracer=None,
    profiler: Optional[ChaseObserver] = None,
    reporter=None,
) -> Optional[ChaseObserver]:
    """One observer for a kernel call, or ``None`` when nothing is attached.

    *tracer* is the already-resolved tracer (explicit or ambient);
    *profiler* is any :class:`ChaseObserver`; *reporter* is a budget's
    progress reporter.  A reporter is attached only when it is a
    :class:`ChaseObserver` (:class:`~repro.obs.progress.ProgressReporter`
    is one): the supervisor's heartbeat cell, also installed as a
    reporter, has only ``heartbeat()`` and is left out.
    """
    parts = []
    if tracer is not None:
        parts.append(_TracerObserver(tracer))
    if profiler is not None:
        parts.append(profiler)
    if isinstance(reporter, ChaseObserver):
        parts.append(reporter)
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else _Fanout(parts)
