"""The disjunctive chase, with inequality guards and quotient branching.

Section 6 of the paper performs *reverse* data exchange by chasing a
target instance with a maximum extended recovery given by **disjunctive
tgds with inequalities**.  "The disjunctive chase is an extension of the
standard chase where each step branches out several instances, each
satisfying one of the disjuncts" — so the result is a *set* of instances.

Over instances that contain nulls there is an extra subtlety the paper's
abstract treatment leaves implicit: distinct labeled nulls may still stand
for the same unknown value, so both syntactic pattern matching (``P'(x,x)``
against ``P'(n1, n2)``) and inequality guards must be evaluated *in every
world of null identifications*.  :func:`reverse_disjunctive_chase`
therefore first branches over the quotients of the input (see
:mod:`repro.homs.quotient`) and then runs the plain disjunctive chase in
each world, where matching is syntactic and an inequality between distinct
values holds.  DESIGN.md (substitution table) explains why this is exactly
the completion needed for the paper's Theorems 6.2 and 6.5 to hold; the
tests verify it on the paper's own mappings.

Resource governance matters most here: branching is worst-case
exponential in both directions (frontier width and per-branch depth),
and the quotient pre-pass multiplies everything by a Bell number.  Both
entry points take a :class:`repro.limits.Limits` (or a shared
:class:`~repro.limits.Budget`); in ``on_exhausted="partial"`` mode an
exhausted chase stops cleanly and returns the branches explored so far
(unfinished frontier worlds included, each closed with a
``BranchClosed(reason="exhausted")`` event) as a :class:`Branches` list
tagged with the :class:`~repro.limits.Exhausted` diagnosis.
"""

from __future__ import annotations

import time
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import BudgetExhausted, ChaseNonTermination
from ..homs.quotient import enumerate_quotients
from ..homs.search import is_homomorphic
from ..instance import Fact, Instance, InstanceBuilder
from ..limits import Budget, Exhausted, Limits, budget_scope, current_budget
from ..logic.delta import TriggerIndex, binding_sort_key, match_atoms_delta
from ..logic.dependencies import Dependency, DisjunctiveTgd, iter_disjunctive
from ..logic.matching import match_atoms
from ..obs.observer import ChaseObserver, chase_observer
from ..obs.tracer import Tracer, current_tracer, maybe_span
from ..terms import NullFactory
from .standard import resolve_budget, resolve_evaluation

#: Per-branch rounds guard when neither rounds nor deadline is bounded.
DEFAULT_MAX_ROUNDS = 32

#: Frontier-width guard when neither branches nor deadline is bounded.
DEFAULT_MAX_BRANCHES = 10_000

#: The pre-``Limits`` behavior of both entry points.
_LEGACY_LIMITS = Limits(
    max_rounds=DEFAULT_MAX_ROUNDS,
    max_branches=DEFAULT_MAX_BRANCHES,
    on_exhausted="raise",
)


class Branches(List[Instance]):
    """The result of a disjunctive chase: a list of branch instances.

    Behaves exactly like the plain ``List[Instance]`` it used to be
    (equality, iteration, indexing), with one addition: ``exhausted``
    carries the :class:`repro.limits.Exhausted` diagnosis when the run
    was truncated by its budget (``None`` for a complete enumeration).
    """

    exhausted: Optional[Exhausted] = None

    @property
    def completed(self) -> bool:
        return self.exhausted is None


def _trigger_satisfied(
    dtgd: DisjunctiveTgd, binding: dict, instance: Instance
) -> bool:
    """Is some disjunct already witnessed in *instance* under *binding*?"""
    for disjunct in dtgd.disjuncts:
        shared = {
            v: binding[v]
            for a in disjunct
            for v in a.variables()
            if v in binding
        }
        if next(match_atoms(disjunct, instance, initial=shared), None) is not None:
            return True
    return False


def _witness_plan(dtgd: DisjunctiveTgd) -> List[tuple]:
    """Per disjunct, how the delta path checks it is already witnessed.

    ``(atoms, None)`` when the disjunct has no existential variable — a
    premise binding then instantiates it to facts, and membership in the
    live index decides; otherwise ``(atoms, shared)``, the premise
    variables to seed a match with.
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


def _witnessed(plan: List[tuple], binding: dict, index: TriggerIndex) -> bool:
    """:func:`_trigger_satisfied` against a live index, by its plan."""
    for atoms, shared in plan:
        if shared is None:
            if all(atom.instantiate(binding) in index for atom in atoms):
                return True
            continue
        seed = {v: binding[v] for v in shared}
        if next(match_atoms(atoms, index, initial=seed), None) is not None:
            return True
    return False


def _guard(bound: Optional[int], deadline: Optional[float], default: int):
    """A fallback bound: applied only when nothing else limits the run."""
    if bound is not None:
        return bound
    return default if deadline is None else None


def disjunctive_chase(
    instance: Instance,
    dependencies: Sequence[Dependency],
    null_prefix: str = "D",
    tracer: Optional[Tracer] = None,
    branch_root: str = "b",
    limits: Optional[Limits] = None,
    budget: Optional[Budget] = None,
    evaluation: Optional[str] = None,
    profiler: Optional[ChaseObserver] = None,
) -> Branches:
    """Chase *instance* with disjunctive tgds; return the branch instances.

    Plain tgds are accepted too (treated as one-disjunct disjunctions).
    Matching is syntactic; inequality guards hold between distinct values.
    Branches are *full* instances (input facts plus generated facts);
    callers typically restrict to the source schema afterwards.

    Triggers are selected canonically — first dtgd in declaration order
    with an unsatisfied match, smallest match by
    :func:`~repro.logic.delta.binding_sort_key` — and, by default,
    *semi-naively*: each branch carries a
    :class:`~repro.logic.delta.TriggerIndex` plus per-dtgd agendas of
    open triggers, and a child only re-matches against the facts its
    disjunct added (:func:`~repro.logic.delta.match_atoms_delta`,
    skipped for dtgds whose premise reads none of those relations)
    instead of the whole instance.  Branch worlds are allocation-light:
    a child world is its parent's frozen fact set extended by the
    disjunct's facts (:meth:`~repro.instance.Instance.extended`, which
    shares the parent's untouched relation sets), satisfaction is
    checked against the branch's live index (by fact membership when a
    disjunct has no existential variable), and the last disjunct's
    child inherits the parent's index and agendas instead of forking
    them.  ``evaluation="naive"`` (or ``REPRO_NAIVE_CHASE=1``) rebuilds
    every world fact by fact and re-matches it from scratch; both
    modes fire identical triggers and build identical branch trees.

    With a *tracer*, the branch genealogy is emitted as
    ``BranchOpened``/``BranchClosed`` events (*branch_root* names the
    root; children append ``.<disjunct index>``), and every disjunct
    firing carries its branch id, so the provenance graph can replay
    each finished branch exactly.  Every branch closes exactly once,
    for the tracer and the budget's progress reporter alike.

    Resource governance: pass ``limits`` / ``budget`` as for
    :func:`repro.chase.standard.chase`.  In the raise mode (the default
    without limits) a branch exceeding the round bound raises
    :class:`ChaseNonTermination` and frontier explosion raises
    :class:`repro.errors.BudgetExhausted` (a ``RuntimeError``); in
    partial mode the chase stops and returns the worlds explored so far,
    tagged via ``Branches.exhausted``.

    With a *profiler* (:class:`repro.obs.ChaseProfiler`, or any
    :class:`repro.obs.observer.ChaseObserver`) each fired trigger's
    selection-and-fork block is attributed to its dtgd,
    **branch-aware**: cells carry the id of the world being extended,
    so hot dependencies can be pinned to the branch lineages that pay
    for them.  ``considered`` counts the agenda entries the canonical
    selection examined for that firing.  Tracer, profiler and progress
    reporter share one observer
    (:func:`repro.obs.observer.chase_observer`).
    """
    dtgds: List[DisjunctiveTgd] = list(iter_disjunctive(dependencies))
    tracer = tracer or current_tracer()
    evaluation = resolve_evaluation(evaluation)
    budget = resolve_budget(limits, budget, _LEGACY_LIMITS)
    observer = chase_observer(tracer, profiler, budget.reporter)
    lim = budget.limits
    guard_rounds = _guard(lim.max_rounds, lim.deadline, DEFAULT_MAX_ROUNDS)
    guard_branches = _guard(lim.max_branches, lim.deadline, DEFAULT_MAX_BRANCHES)

    # Each disjunct's existential variables, in minting order.
    existentials = [
        [sorted(dtgd.existential_variables(i)) for i in range(len(dtgd.disjuncts))]
        for dtgd in dtgds
    ]
    finished = Branches()
    # Frontier entries: (instance, rounds, branch id, delta state).
    # Delta state is (TriggerIndex, per-dtgd agendas) under semi-naive
    # evaluation, None under naive (agendas are then rebuilt per pop).
    if evaluation == "delta":
        plans = [_witness_plan(dtgd) for dtgd in dtgds]
        premise_relations = [
            frozenset(a.relation for a in dtgd.premise) for dtgd in dtgds
        ]
        root_index = TriggerIndex(instance)
        root_state = (
            root_index,
            [_sorted_matches(dtgd, root_index) for dtgd in dtgds],
        )
    else:
        root_state = None
    frontier: List[tuple] = [(instance, 0, branch_root, root_state)]
    seen: Set[Instance] = set()
    if observer is not None:
        observer.branch("opened", branch_root)

    def stop(exhausted: Exhausted, pending: List[tuple]) -> Branches:
        """Partial mode: unfinished worlds become results, tagged closed."""
        for inst, _rounds, br, _state in pending:
            if inst not in seen:
                seen.add(inst)
                finished.append(inst)
            if observer is not None:
                observer.branch("closed", br, "exhausted", len(inst))
        finished.exhausted = exhausted
        return finished

    with maybe_span(tracer, "disjunctive_chase", input_facts=len(instance)):
        while frontier:
            width = len(frontier) + len(finished)
            exhausted = budget.checkpoint("disjunctive_chase")
            if (
                exhausted is None
                and guard_branches is not None
                and width > guard_branches
            ):
                exhausted = budget.mark(
                    "branches", "disjunctive_chase", guard_branches, width
                )
            if exhausted is not None:
                if observer is not None:
                    observer.exhausted(exhausted)
                if lim.raises:
                    if exhausted.resource == "branches":
                        raise BudgetExhausted(
                            "disjunctive chase exceeded "
                            f"max_branches={guard_branches}",
                            diagnosis=exhausted,
                        )
                    budget.raise_exhausted()
                return stop(exhausted, frontier)
            current, rounds, branch, state = frontier.pop()
            if guard_rounds is not None and rounds > guard_rounds:
                exhausted = budget.mark(
                    "rounds", "disjunctive_chase", guard_rounds, rounds
                )
                if observer is not None:
                    observer.branch("closed", branch, "nonterminating", len(current))
                    observer.exhausted(exhausted)
                if lim.raises:
                    raise ChaseNonTermination(
                        f"disjunctive chase branch exceeded {guard_rounds} rounds",
                        diagnosis=exhausted,
                    )
                # The diverging world still flushes as a partial result;
                # its branch is already closed.
                if current not in seen:
                    seen.add(current)
                    finished.append(current)
                return stop(exhausted, frontier)
            if observer is not None:
                pop_started = time.perf_counter()
                scanned = [0]
                pop_facts = pop_nulls = 0
            else:
                scanned = None
            if state is None:
                index = None
                agendas = [_sorted_matches(dtgd, current) for dtgd in dtgds]

                def satisfied(di: int, binding: dict) -> bool:
                    return _trigger_satisfied(dtgds[di], binding, current)

            else:
                index, agendas = state

                def satisfied(di: int, binding: dict) -> bool:
                    return _witnessed(plans[di], binding, index)

            trigger = _select_trigger(agendas, satisfied, scanned)
            if trigger is None:
                if current not in seen:
                    seen.add(current)
                    finished.append(current)
                    reason = "finished"
                else:
                    reason = "duplicate"
                if observer is not None:
                    observer.branch("closed", branch, reason, len(current))
                continue
            dtgd_index, binding = trigger
            dtgd = dtgds[dtgd_index]
            if observer is not None:
                observer.branch("forked", branch)
            factory = NullFactory.avoiding(current.nulls, prefix=null_prefix)
            last = len(dtgd.disjuncts) - 1
            for disjunct_index, disjunct in enumerate(dtgd.disjuncts):
                full = dict(binding)
                for var in existentials[dtgd_index][disjunct_index]:
                    full[var] = factory.fresh()
                if index is None:
                    accumulator = InstanceBuilder(current)
                elif disjunct_index == last:
                    # The parent world is done once its last child is
                    # built, so that child inherits the index unforked.
                    accumulator = index
                else:
                    accumulator = index.fork()
                child_branch = f"{branch}.{disjunct_index}"
                added = []
                for atom in disjunct:
                    f = atom.instantiate(full)
                    if accumulator.add(f):
                        added.append(f)
                if observer is not None:
                    pop_facts += len(added)
                    pop_nulls += len(full) - len(binding)
                    observer.branch(
                        "opened",
                        child_branch,
                        parent=branch,
                        disjunct_index=disjunct_index,
                        round_number=rounds + 1,
                    )
                    observer.fired(
                        dtgd,
                        dtgd_index,
                        rounds + 1,
                        binding,
                        full,
                        added,
                        branch=child_branch,
                        disjunct_index=disjunct_index,
                    )
                if index is None:
                    child = accumulator.snapshot()
                else:
                    child = current.extended(added)
                budget.charge("disjunctive_chase", facts=len(child))
                if child not in seen:
                    if index is None:
                        child_state = None
                    else:
                        # The child resumes its own delta set: only the
                        # disjunct's added facts need re-matching.  The
                        # fired entry is stripped everywhere — each
                        # disjunct's facts witness it in that child.
                        delta: dict = {}
                        for f in added:
                            delta.setdefault(f.relation, set()).add(f.values)
                        child_agendas = []
                        for di, d in enumerate(dtgds):
                            if di == dtgd_index:
                                base = agendas[di][1:]
                            elif accumulator is index:
                                # The parent is done with its agendas
                                # too: the inheriting child takes them.
                                base = agendas[di]
                            else:
                                base = list(agendas[di])
                            if premise_relations[di].isdisjoint(delta):
                                # No premise atom reads an added fact,
                                # so there is no delta match to merge.
                                child_agendas.append(base)
                                continue
                            fresh_entries = [
                                (binding_sort_key(b), b)
                                for b in match_atoms_delta(
                                    d.premise, accumulator, delta, d.guards
                                )
                            ]
                            fresh_entries.sort(key=lambda entry: entry[0])
                            child_agendas.append(
                                _merge_agendas(base, fresh_entries)
                            )
                        child_state = (accumulator, child_agendas)
                    frontier.append((child, rounds + 1, child_branch, child_state))
                elif observer is not None:
                    observer.branch("closed", child_branch, "duplicate", len(child))
            if observer is not None:
                observer.cell(
                    dtgd,
                    rounds + 1,
                    time.perf_counter() - pop_started,
                    scanned[0],
                    len(dtgd.disjuncts),
                    pop_facts,
                    pop_nulls,
                    branch=branch,
                )
    return finished


def _sorted_matches(dtgd: DisjunctiveTgd, source) -> List[tuple]:
    """All premise matches over *source* as a key-sorted agenda.

    Entries are ``(binding_sort_key(b), b)`` pairs; the canonical key
    order makes trigger selection content-determined (independent of
    enumeration order), which is what lets per-branch delta agendas and
    the naive full re-match agree on every firing.
    """
    entries = [
        (binding_sort_key(binding), binding)
        for binding in match_atoms(dtgd.premise, source, dtgd.guards)
    ]
    entries.sort(key=lambda entry: entry[0])
    return entries


def _merge_agendas(base: List[tuple], fresh: List[tuple]) -> List[tuple]:
    """Merge two key-sorted agendas (delta matches never duplicate base)."""
    if not fresh:
        return base
    if not base:
        return fresh
    merged: List[tuple] = []
    i = j = 0
    while i < len(base) and j < len(fresh):
        if base[i][0] <= fresh[j][0]:
            merged.append(base[i])
            i += 1
        else:
            merged.append(fresh[j])
            j += 1
    merged.extend(base[i:])
    merged.extend(fresh[j:])
    return merged


def _select_trigger(
    agendas: List[List[tuple]],
    satisfied,
    scanned: Optional[list] = None,
):
    """First unsatisfied trigger in canonical (dtgd, binding-key) order.

    Scans each dtgd's agenda in key order, *permanently dropping*
    satisfied entries along the way: satisfaction is monotone under fact
    addition, and every descendant branch is a superset of the current
    world, so a dropped entry could never fire again on this lineage.
    On success the fired entry is left at the head of its agenda (the
    caller strips it when building child agendas, since each disjunct's
    added facts witness it in every child).  ``satisfied(dtgd_index,
    binding)`` answers for the world being extended; returns
    ``(dtgd_index, binding)`` or ``None``.

    *scanned*, when given, is a one-element accumulator the profiler
    uses: ``scanned[0]`` gains the number of agenda entries examined.
    """
    for dtgd_index, agenda in enumerate(agendas):
        done = 0
        for _key, binding in agenda:
            if scanned is not None:
                scanned[0] += 1
            if satisfied(dtgd_index, binding):
                done += 1
                continue
            if done:
                del agenda[:done]
            return dtgd_index, binding
        agenda.clear()
    return None


def minimize_branches(branches: Iterable[Instance]) -> List[Instance]:
    """Keep only hom-minimal branches (an antichain under ``→``).

    Dropping a branch ``V`` when some kept ``V'`` has ``V' → V`` preserves
    all three universal-faithfulness conditions of Definition 6.1:
    condition (1) is per-element, and for condition (3) any ``V → I'`` is
    witnessed by ``V' → V → I'``.  Hom-equivalent branches collapse to one
    representative.

    Each ``V' → V`` test first checks that the ground facts of ``V'``
    are facts of ``V`` — necessary, since a homomorphism fixes
    constants, and exact when ``V'`` is ground — and only searches for
    a homomorphism when that passes and ``V'`` has nulls.

    The ambient budget (:func:`repro.limits.budget_scope`) governs the
    pass: it is checked before each candidate and inside every hom
    search, and exhaustion raises the budget's typed error.
    """
    budget = current_budget()
    kept: List[Tuple[Instance, FrozenSet[Fact]]] = []
    for instance in _deduplicated(branches):
        if budget is not None:
            if budget.checkpoint("minimize_branches") is not None:
                budget.raise_exhausted()
        candidate = (instance, _ground_facts(instance))
        if any(_maps_to(existing, candidate) for existing in kept):
            continue
        kept = [
            existing for existing in kept if not _maps_to(candidate, existing)
        ]
        kept.append(candidate)
    return [instance for instance, _ground in kept]


def _deduplicated(branches: Iterable[Instance]) -> List[Instance]:
    """Distinct branches in canonical (size, text) order."""
    return sorted(set(branches), key=lambda inst: (len(inst), str(inst)))


def _ground_facts(instance: Instance) -> FrozenSet[Fact]:
    """The facts of *instance* that mention no null."""
    nulls = instance.nulls
    if not nulls:
        return instance.facts
    return frozenset(f for f in instance.facts if nulls.isdisjoint(f.values))


def _maps_to(source: tuple, target: tuple) -> bool:
    """``V' → V`` over ``(instance, ground facts)`` pairs."""
    instance, ground = source
    if not ground <= target[0].facts:
        return False
    return len(ground) == len(instance) or is_homomorphic(instance, target[0])


def reverse_disjunctive_chase(
    target_instance: Instance,
    dependencies: Sequence[Dependency],
    result_relations: Sequence[str] | None = None,
    max_nulls: int = 8,
    minimize: bool = True,
    tracer: Optional[Tracer] = None,
    limits: Optional[Limits] = None,
    budget: Optional[Budget] = None,
    evaluation: Optional[str] = None,
    profiler: Optional[ChaseObserver] = None,
) -> Branches:
    """Reverse data exchange: chase a target instance back to source worlds.

    Branches first over the quotients of *target_instance* (worlds of null
    identifications), then runs the disjunctive chase in each world.  When
    *result_relations* is given, each branch is restricted to those
    relations (the source schema); otherwise branches keep all facts.

    With a *tracer*, each quotient world becomes a branch-genealogy root
    named ``q<index>`` and the per-world chases trace under it.

    One :class:`~repro.limits.Budget` (built from *limits*, or passed in
    directly) spans the whole composite — quotient enumeration and every
    per-world chase — so a deadline governs the operation end to end.
    (``max_nulls`` is *not* a limit: it bounds the quotient enumeration
    and is part of the operation's semantics.)

    Returns a hom-minimal antichain of branch instances unless
    ``minimize=False`` (the raw set is exponentially redundant).  The
    budget governs minimization too: in partial mode a budget that runs
    out there — or had already run out in the chase — yields the
    deduplicated, unminimized branch set (still universally faithful,
    Def. 6.1) tagged with the diagnosis; in raise mode the typed error
    propagates.
    """
    tracer = tracer or current_tracer()
    # The per-world chases resolve their own observers; this one
    # reports only an exhaustion during minimization.
    observer = chase_observer(tracer, profiler)
    budget = resolve_budget(limits, budget, _LEGACY_LIMITS)
    collected: List[Instance] = []
    exhausted: Optional[Exhausted] = None
    for quotient_index, quotient in enumerate(
        enumerate_quotients(target_instance, max_nulls=max_nulls)
    ):
        branches = disjunctive_chase(
            quotient.instance,
            dependencies,
            tracer=tracer,
            branch_root=f"q{quotient_index}",
            budget=budget,
            evaluation=evaluation,
            profiler=profiler,
        )
        for branch in branches:
            if result_relations is not None:
                branch = branch.restrict(result_relations)
            collected.append(branch)
        if branches.exhausted is not None:
            exhausted = branches.exhausted
            break
    result = None
    if minimize:
        try:
            with budget_scope(budget):
                result = Branches(minimize_branches(collected))
        except BudgetExhausted:
            if budget.limits.raises or budget.exhausted is None:
                raise
            if exhausted is None:
                exhausted = budget.exhausted
                if observer is not None:
                    observer.exhausted(exhausted)
    if result is None:
        result = Branches(_deduplicated(collected))
    result.exhausted = exhausted
    return result
