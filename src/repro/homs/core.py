"""Cores of instances.

The *core* of an instance ``I`` is a minimal subinstance ``C ⊆ I`` such
that ``I → C`` (a minimal retract).  Cores are unique up to isomorphism and
give canonical representatives of homomorphic-equivalence classes: two
instances are hom-equivalent iff their cores are isomorphic.  The paper
works "up to homomorphic equivalence" throughout (e.g. chase-inverses
recover the source up to hom-equivalence), so cores are the natural
normal form for reporting recovered instances.

Algorithm: fold the instance one retraction at a time.  A probe drops a
fact ``f`` and looks for a homomorphism ``I → I \\ {f}``, whose image is
a proper retract; when no probe succeeds, ``I`` is its core (a proper
retract avoids some fact, so single-fact probes are complete).  A probe
searches only the *null block* of ``f`` — the facts joined to it through
shared nulls — and fixes every other null, whose facts map to themselves
(Fagin, Kolaitis and Popa, "Data exchange: getting to the core", TODS
2005).  :func:`core`, :func:`is_core` and :func:`retraction_to_core`
share the probe loop, so ``I.substitute(retraction_to_core(I))`` is
``core(I)``.  The loop honors this thread's ambient budget
(:func:`repro.limits.budget_scope`): it checks cancellation and the
deadline before every probe, as the search does inside a long one, and
on exhaustion raises the budget's typed error.  Folding is anytime:
every fold is a retract of the input, hom-equivalent to it, so the
error :func:`core` raises carries its last fold as ``partial``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import BudgetExhausted
from ..instance import Fact, Instance
from ..limits import Budget, current_budget
from ..obs.tracer import current_tracer, maybe_span
from ..terms import Null, Value
from .search import _homomorphisms


def core(instance: Instance) -> Instance:
    """Return the core of *instance*.

    Ground instances are their own cores.  The result is a subinstance of
    the input (we retract rather than rename).  When the ambient budget
    runs out, the raised error's ``partial`` is the last fold (the input
    itself before the first).
    """
    tracer = current_tracer()
    current = instance
    with maybe_span(tracer, "core", input_facts=len(instance)):
        try:
            for _step, current in _folds(instance):
                if tracer is not None:
                    tracer.metrics.inc("core.folds")
        except BudgetExhausted as error:
            error.partial = current
            raise
    return current


def is_core(instance: Instance) -> bool:
    """True when the instance has no proper retract."""
    return next(_folds(instance), None) is None


def retraction_to_core(instance: Instance) -> Dict[Null, Value]:
    """A homomorphism from *instance* onto its core.

    Composes the per-step retractions; the identity on nulls that survive.
    """
    mapping: Dict[Null, Value] = {n: n for n in instance.nulls}
    for step, _retract in _folds(instance):
        mapping = {
            n: (step.get(v, v) if isinstance(v, Null) else v)
            for n, v in mapping.items()
        }
    return mapping


def _folds(instance: Instance) -> Iterator[Tuple[Dict[Null, Value], Instance]]:
    """Yield ``(step, retract)`` per fold of *instance*, down to its core.

    A fact whose probe failed is not probed again: were ``g`` to fold it
    from a later retract ``h(I)``, ``g ∘ h`` would fold it from ``I``.
    """
    current = instance
    unfoldable: Set[Fact] = set()
    budget = current_budget()
    while not current.is_ground():
        step = _fold(current, unfoldable, budget)
        if step is None:
            return
        current = current.substitute(step)
        yield step, current


def _fold(
    instance: Instance, unfoldable: Set[Fact], budget: Optional[Budget]
) -> Optional[Dict[Null, Value]]:
    """The first successful probe's homomorphism, on the dropped fact's block."""
    facts = sorted(instance.facts, key=Fact.sort_key)
    for f, block in zip(facts, _null_blocks(facts)):
        if block is None or f in unfoldable:
            continue  # ground facts map to themselves; failed probes stay failed
        if budget is not None and budget.checkpoint("core") is not None:
            budget.raise_exhausted()
        step = next(_homomorphisms(block, instance, avoid=f, budget=budget), None)
        if step is not None:
            return step
        unfoldable.add(f)
    return None


def _null_blocks(facts: Sequence[Fact]) -> List[Optional[List[Fact]]]:
    """Per fact, its block (the *facts* joined to it by nulls), or None."""
    parent: Dict[Null, Null] = {}

    def find(n: Null) -> Null:
        while parent[n] is not n:
            parent[n] = n = parent[parent[n]]
        return n

    firsts: List[Optional[Null]] = []
    for f in facts:
        nulls = [v for v in f.values if isinstance(v, Null)]
        for n in nulls:
            parent.setdefault(n, n)
        for n in nulls[1:]:
            parent[find(n)] = find(nulls[0])
        firsts.append(nulls[0] if nulls else None)
    members: Dict[Null, List[Fact]] = {}
    for f, null in zip(facts, firsts):
        if null is not None:
            members.setdefault(find(null), []).append(f)
    return [None if null is None else members[find(null)] for null in firsts]
