"""The standard chase with tuple-generating dependencies.

Given an instance and a set of tgds, the chase repeatedly finds a *trigger*
— a premise match whose conclusion is not (yet) witnessed — and fires it,
adding the conclusion facts with fresh nulls for the existential variables.
For a schema mapping specified by s-t tgds, chasing a source instance
yields a universal solution [FKMP, TCS 2005], and by Proposition 3.11 of
the paper an *extended* universal solution as well — crucially, this holds
even when the source instance itself contains nulls, because premise
matching treats nulls as plain values.

Two variants are provided (design decision D1 in DESIGN.md):

* ``restricted`` (default): a trigger fires only if the conclusion cannot
  be satisfied in the current instance by any extension of the premise
  binding.  Produces smaller results.
* ``oblivious``: every premise match fires exactly once (memoized by the
  premise binding).  Simpler, always terminates for s-t tgds, and the
  result is hom-equivalent to the restricted result.

Both run to a fixpoint in rounds, so they also work when conclusions feed
premises (not the s-t case).  Rounds are evaluated **semi-naively** by
default (decision D5 in DESIGN.md): facts live in a
:class:`~repro.logic.delta.TriggerIndex` maintained incrementally as
triggers fire, and round ``k`` enumerates only the bindings that touch a
fact new in round ``k-1`` (:func:`~repro.logic.delta.match_atoms_delta`)
instead of re-matching the whole instance.  The firing sequence — and
therefore every null name, budget truncation point, and tracer event —
is identical to the naive loop's, which remains available as
``evaluation="naive"``.  Resource governance goes through
:class:`repro.limits.Limits`: the chase checks a cooperative
:class:`~repro.limits.Budget` (wall-clock deadline, fixpoint rounds,
total facts, minted nulls, cancellation) inside the fixpoint loop, and
on exhaustion either raises (``on_exhausted="raise"``, the historical
behavior) or returns the work done so far as a *partial result* tagged
with an :class:`~repro.limits.Exhausted` diagnosis.  Because the chase
is deterministic and truncation only drops a suffix of the firing
sequence, a partial instance is always a sound sub-instance of the full
chase result.  Limits that bound neither rounds nor time get a 64-round
fallback unless every tgd is full (no existential variable, so no null
is minted and a fixpoint is certain), and with no limits at all a cut
raises :class:`ChaseNonTermination` (:func:`repro.limits.resolve_guards`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import ChaseNonTermination
from ..facts import Fact
from ..instance import Instance
from ..limits import Budget, Exhausted, Limits, resolve_guards
from ..logic.atoms import Atom
from ..logic.delta import TriggerIndex, match_atoms_delta
from ..logic.dependencies import Dependency, DisjunctiveTgd, Tgd, iter_disjunctive
from ..logic.matching import match_atoms
from ..obs.observer import ChaseObserver, chase_observer
from ..obs.tracer import Tracer, current_tracer, maybe_span
from ..terms import NullFactory, Value, Var

__all__ = [
    "ChaseNonTermination",
    "ChaseResult",
    "chase",
    "chase_atoms_canonical",
    "resolve_evaluation",
]

@dataclass(frozen=True)
class ChaseResult:
    """Outcome of a chase run.

    ``instance`` is the full chased instance: the input extended by
    ``generated``, the facts the chase added (it shares the input's
    facts); ``steps`` is the number of trigger firings and ``rounds``
    the number of fixpoint rounds used.

    ``exhausted`` is ``None`` for a completed fixpoint; on a
    budget-limited run it carries the :class:`repro.limits.Exhausted`
    diagnosis and ``instance`` is the sound partial result (a
    sub-instance of what the unlimited chase would produce).

    Per-round statistics make the semi-naive win observable:
    ``delta_sizes[k]`` is how many facts were new going into round
    ``k+1`` (independent of the evaluation mode), and
    ``triggers_considered`` counts the premise bindings the loop
    actually enumerated — under delta evaluation this stays close to
    ``steps``, while the naive loop re-enumerates every old binding
    every round.
    """

    instance: Instance
    generated: FrozenSet
    steps: int
    rounds: int
    exhausted: Optional[Exhausted] = None
    delta_sizes: Tuple[int, ...] = ()
    triggers_considered: int = 0

    @property
    def completed(self) -> bool:
        """True when the chase reached its fixpoint within budget."""
        return self.exhausted is None

    def restricted_to(self, relations: Sequence[str]) -> Instance:
        """The chased instance projected onto the given relation names."""
        return self.instance.restrict(relations)


def _witness_plan(dtgd: DisjunctiveTgd) -> List[tuple]:
    """Per disjunct, how a trigger's witness is checked (once per chase).

    ``(atoms, None)`` when the disjunct has no existential variable — a
    premise binding then instantiates it to facts, and membership
    decides; otherwise ``(atoms, shared)``, the premise variables
    (sorted) to seed a match with.  A plain tgd is one disjunct.
    """
    premise = dtgd.premise_variables
    plan = []
    for i, disjunct in enumerate(dtgd.disjuncts):
        if dtgd.existential_variables(i):
            shared = {v for a in disjunct for v in a.variables()} & premise
            plan.append((disjunct, sorted(shared)))
        else:
            plan.append((disjunct, None))
    return plan


def _witnessed(
    plan: List[tuple],
    binding: Dict[Var, Value],
    source,
    conclusion: Optional[List[Fact]] = None,
) -> bool:
    """Is some disjunct of *plan* already witnessed under *binding*?

    *source* holds facts (``fact in source``) and is a
    :class:`~repro.logic.matching.MatchSource`: the chase's live
    :class:`~repro.logic.delta.TriggerIndex`, or the naive disjunctive
    chase's frozen world.  A disjunct with no existential variable is
    instantiated and each of its facts looked up; when it is not
    witnessed and *conclusion* is a list, its facts are appended there,
    so the standard chase fires a full tgd with the facts built here
    (:func:`_fire`).  Any other disjunct is matched with its frontier
    seeded.
    """
    for atoms, shared in plan:
        if shared is None:
            facts = [atom.instantiate(binding) for atom in atoms]
            if all(map(source.__contains__, facts)):
                return True
            if conclusion is not None:
                conclusion += facts
            continue
        seed = {v: binding[v] for v in shared}
        if next(match_atoms(atoms, source, initial=seed), None) is not None:
            return True
    return False


def _fire(
    tgd: Tgd,
    binding: Dict[Var, Value],
    index: TriggerIndex,
    factory: NullFactory,
    existentials: Sequence[Var],
    added: List[Fact],
    observer: Optional[ChaseObserver] = None,
    tgd_index: int = -1,
    round_number: int = 0,
    conclusion: Optional[List[Fact]] = None,
) -> None:
    """Add the conclusion facts for one trigger to *index*.

    Each fact that is new is also appended to *added*, the chase's
    record of what it fired; *existentials* are the tgd's existential
    variables in minting order.  A non-empty *conclusion* is the facts
    the restricted chase's witness check built for a full tgd
    (:func:`_witnessed`), so they are built once; otherwise the
    conclusion is instantiated here, with fresh nulls for the
    existential variables.
    """
    full = binding
    if existentials:
        full = dict(binding)
        for var in existentials:
            full[var] = factory.fresh()
    start = len(added)
    if conclusion:
        for f in conclusion:
            if index.add(f):
                added.append(f)
    else:
        for atom in tgd.conclusion:
            f = atom.instantiate(full)
            if index.add(f):
                added.append(f)
    if observer is not None:
        observer.fired(tgd, tgd_index, round_number, binding, full, added[start:])


def resolve_evaluation(evaluation: Optional[str]) -> str:
    """The effective evaluation mode: *evaluation*, else delta.

    ``"delta"`` (semi-naive, the default) enumerates only bindings that
    touch facts new in the previous round; ``"naive"`` re-matches the
    whole instance each round.  Both produce fact-for-fact identical
    results; naive survives as the in-process differential-testing
    oracle (``tests/differential/``).
    """
    if evaluation is None:
        evaluation = "delta"
    if evaluation not in ("delta", "naive"):
        raise ValueError(f"unknown chase evaluation {evaluation!r}")
    return evaluation


def chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    variant: str = "restricted",
    null_prefix: str = "N",
    tracer: Optional[Tracer] = None,
    limits: Optional[Limits] = None,
    budget: Optional[Budget] = None,
    evaluation: Optional[str] = None,
    profiler: Optional[ChaseObserver] = None,
) -> ChaseResult:
    """Chase *instance* with plain tgds; returns the full chased instance.

    Dependencies must be plain or guarded :class:`Tgd`s (disjunctive tgds
    need :func:`repro.chase.disjunctive.disjunctive_chase`).  Guards on
    premises are honored during matching.

    Rounds are evaluated semi-naively by default; ``evaluation`` picks
    the mode explicitly (``"delta"``/``"naive"``, see
    :func:`resolve_evaluation`).  The two modes fire the same triggers
    in the same order against the same canonical
    :class:`~repro.logic.delta.TriggerIndex` view, so results — null
    names, partial prefixes, traces — are identical; only the number of
    bindings *considered* differs (``ChaseResult.triggers_considered``).

    Resource governance: pass ``limits`` (a :class:`repro.limits.Limits`)
    to bound wall-clock time, rounds, facts, or minted nulls; with
    ``on_exhausted="partial"`` (the ``Limits`` default) exhaustion
    returns the tagged partial result instead of raising.  A shared
    ``budget`` (:class:`repro.limits.Budget`) may be passed instead for
    composite operations; otherwise the thread's ambient budget
    (:func:`repro.limits.budget_scope`) applies.  Whatever the budget's
    source, one that bounds neither rounds nor time gets a 64-round
    fallback (:func:`repro.limits.resolve_guards`) unless every tgd is
    full: a chase that mints no null always reaches its fixpoint.

    With a *tracer* (explicit, or the ambient one from
    :func:`repro.obs.tracing`) every trigger firing and minted null is
    emitted as a typed event and recorded in the tracer's provenance
    graph; tracing never changes the chase result.  On non-termination
    the events emitted so far stay on the tracer (a partial trace).

    With a *profiler* (:class:`repro.obs.ChaseProfiler`, or any
    :class:`repro.obs.observer.ChaseObserver`) each dependency's
    match-and-fire block is timed per round — self time, triggers
    considered/fired, facts added, nulls minted — at a cost of two
    clock reads per (dependency, round); profiling, like tracing, never
    changes the chase result.  Both report through one observer
    (:func:`repro.obs.observer.chase_observer`); with neither attached
    the loop reads no clock and builds no event.

    With no limits at all, a chase of tgds with existential variables
    raises :class:`ChaseNonTermination` after 64 fixpoint rounds; full
    tgds run to their fixpoint, and for source-to-target tgds one round
    always suffices.
    """
    tgds: List[Tgd] = []
    for dep in dependencies:
        if not isinstance(dep, Tgd):
            raise TypeError(
                f"standard chase handles plain tgds only, got {dep!r}; "
                "use disjunctive_chase for disjunctive dependencies"
            )
        tgds.append(dep)
    if variant not in ("restricted", "oblivious"):
        raise ValueError(f"unknown chase variant {variant!r}")
    evaluation = resolve_evaluation(evaluation)
    tracer = tracer or current_tracer()
    observer = chase_observer(tracer, profiler)
    guards = resolve_guards(
        "chase", limits, budget, full=all(tgd.is_full() for tgd in tgds)
    )
    budget = guards.budget

    # Each tgd's witness plan and existentials (in minting order), once.
    plans = [_witness_plan(dtgd) for dtgd in iter_disjunctive(tgds)]
    existentials = [sorted(tgd.existential_variables) for tgd in tgds]
    index = TriggerIndex(instance)
    factory = NullFactory.avoiding(instance.active_domain, prefix=null_prefix)
    fired: Set[Tuple[int, Tuple[Tuple[Var, Value], ...]]] = set()
    added: List[Fact] = []
    steps = 0
    rounds = 0
    minted_total = 0
    triggers_considered = 0
    delta_sizes: List[int] = []
    exhausted: Optional[Exhausted] = None

    with maybe_span(tracer, "chase", variant=variant, input_facts=len(instance)):
        while exhausted is None:
            rounds += 1
            exhausted = guards.start_round("chase", rounds)
            if exhausted is not None:
                rounds -= 1  # the exhausted round never ran
                break
            # Rotate the round boundary: facts fired last round become
            # visible (and are the delta), facts fired this round stay
            # invisible to premise matching until the next rotation —
            # exactly what the per-round snapshot used to enforce.
            delta = index.begin_round()
            delta_sizes.append(sum(len(rows) for rows in delta.values()))
            view = index.round_view()
            progressed = False
            for tgd_index, tgd in enumerate(tgds):
                if exhausted is not None:
                    break
                if observer is not None:
                    started = time.perf_counter()
                    before = (triggers_considered, steps, len(index), minted_total)
                if evaluation == "delta":
                    bindings = match_atoms_delta(
                        tgd.premise, view, delta, tgd.guards
                    )
                else:
                    bindings = match_atoms(tgd.premise, view, tgd.guards)
                for binding in bindings:
                    triggers_considered += 1
                    conclusion = []
                    if variant == "oblivious":
                        key = (tgd_index, tuple(sorted(binding.items())))
                        if key in fired:
                            continue
                        fired.add(key)
                    else:
                        # Restricted: check satisfaction against the *live*
                        # index state so one round does not add duplicate
                        # witnesses for overlapping triggers (decision D5:
                        # deltas drive premise matching only; satisfaction
                        # must see everything, or a witness fired earlier
                        # in the same round would be missed).  A full
                        # tgd fires the facts the check built.
                        if _witnessed(plans[tgd_index], binding, index, conclusion):
                            continue
                    _fire(
                        tgd,
                        binding,
                        index,
                        factory,
                        existentials[tgd_index],
                        added,
                        observer,
                        tgd_index,
                        rounds,
                        conclusion,
                    )
                    steps += 1
                    progressed = True
                    minted_total += len(existentials[tgd_index])
                    exhausted = budget.charge(
                        "chase", facts=len(index), nulls=minted_total
                    )
                    if exhausted is not None:
                        break
                if observer is not None:
                    observer.cell(
                        tgd,
                        rounds,
                        time.perf_counter() - started,
                        triggers_considered - before[0],
                        steps - before[1],
                        len(index) - before[2],
                        minted_total - before[3],
                    )
            if not progressed and exhausted is None:
                break
        if exhausted is not None:
            if observer is not None:
                observer.exhausted(exhausted)
            if budget.limits.raises:
                budget.raise_exhausted()

    # The result is the input plus what fired: no fact is rebuilt.
    return ChaseResult(
        instance=instance.extended(added),
        generated=frozenset(added),
        steps=steps,
        rounds=rounds,
        exhausted=exhausted,
        delta_sizes=tuple(delta_sizes),
        triggers_considered=triggers_considered,
    )


def chase_atoms_canonical(
    premise: Sequence[Atom], null_prefix: str = "C"
) -> Instance:
    """The canonical instance of a premise: variables become fresh nulls.

    Used to build canonical test families for the semi-decision checkers
    (the "frozen premise" construction standard in chase theory).
    """
    factory = NullFactory(prefix=null_prefix)
    seen: Dict[Var, Value] = {}
    facts = []
    for atom in premise:
        for term in atom.terms:
            if isinstance(term, Var) and term not in seen:
                seen[term] = factory.fresh()
        facts.append(atom.instantiate(seen))
    return Instance(facts)
