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
therefore first branches over quotients of the input (see
:mod:`repro.homs.quotient`) and then runs the plain disjunctive chase in
each world, where matching is syntactic and an inequality between distinct
values holds.  DESIGN.md (substitution table) explains why this is exactly
the completion needed for the paper's Theorems 6.2 and 6.5 to hold; the
tests verify it on the paper's own mappings.

Which worlds: when it minimizes and the dependencies are
source-to-target (no premise reads a relation a conclusion writes, as
for every recovery), the reverse chase chases only the *observable
closure* of the target — the worlds generated by identifying two values
an inequality guard compares.  Every other world's branches are
dominated by the closure's, so minimization would drop them anyway
(DESIGN.md D10).  Otherwise (``minimize=False``, or a premise that reads
generated facts) it chases every quotient, which keeps the exhaustive
enumeration as the oracle.

Resource governance matters most here: branching is worst-case
exponential in both directions (frontier width and per-branch depth),
and the exhaustive quotient pre-pass multiplies everything by a Bell
number.  Both entry points take a :class:`repro.limits.Limits` (or a
shared :class:`~repro.limits.Budget`); in ``on_exhausted="partial"``
mode an exhausted chase stops cleanly and returns the branches explored
so far (unfinished frontier worlds included, each closed with a
``BranchClosed(reason="exhausted")`` event) as a :class:`Branches` list
tagged with the :class:`~repro.limits.Exhausted` diagnosis.
"""

from __future__ import annotations

import itertools
import time
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

from ..errors import BudgetExhausted, ChaseNonTermination
from ..homs.quotient import enumerate_quotients
from ..homs.search import is_homomorphic
from ..instance import Instance, InstanceBuilder, render_instances
from ..limits import (
    Budget,
    Exhausted,
    Limits,
    budget_scope,
    current_budget,
    resolve_guards,
)
from ..logic.delta import TriggerIndex, binding_sort_key, match_atoms_delta
from ..logic.dependencies import Dependency, DisjunctiveTgd, iter_disjunctive
from ..logic.guards import Inequality
from ..logic.matching import match_atoms
from ..obs.observer import ChaseObserver, chase_observer
from ..obs.tracer import Tracer, current_tracer, maybe_span
from ..terms import Const, Null
from .standard import _witness_plan, _witnessed, resolve_evaluation


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
    instead of the whole instance: those facts are the trailing rows of
    the child's index, the window its ``begin_round()`` returns.  Branch
    worlds are allocation-light: a child world is its parent's frozen
    fact set extended by the disjunct's facts
    (:meth:`~repro.instance.Instance.extended`, which shares the
    parent's untouched relation sets), satisfaction is checked against
    the branch's live index, and the last disjunct's child inherits the
    parent's index and agendas instead of forking them (a fork is
    copy-on-write, so it costs the relations the branch writes).
    ``evaluation="naive"`` rebuilds every world fact by fact and
    re-matches it from scratch; both modes fire identical triggers and
    build identical branch trees, and both check satisfaction the
    standard chase's way (:func:`repro.chase.standard._witnessed`: by
    fact membership when a disjunct has no existential variable).

    With a *tracer*, the branch genealogy is emitted as
    ``BranchOpened``/``BranchClosed`` events (*branch_root* names the
    root; children append ``.<disjunct index>``), and every disjunct
    firing carries its branch id, so the provenance graph can replay
    each finished branch exactly.  Every branch closes exactly once,
    for the tracer and the budget's progress reporter alike.

    Resource governance: pass ``limits`` / ``budget`` as for
    :func:`repro.chase.standard.chase`.  Limits that set neither a
    round bound nor a deadline get 32 rounds per branch, and neither a
    branch bound nor a deadline 10,000 branches
    (:func:`repro.limits.resolve_guards`).  In the raise mode (the
    default without limits) a branch exceeding the round bound raises
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
    budget, guard_rounds, guard_branches = resolve_guards(
        "disjunctive_chase", limits, budget
    )
    observer = chase_observer(tracer, profiler, budget.reporter)
    lim = budget.limits

    # Each disjunct's existential variables, in minting order, and each
    # dtgd's witness plan.
    existentials = [
        [sorted(dtgd.existential_variables(i)) for i in range(len(dtgd.disjuncts))]
        for dtgd in dtgds
    ]
    plans = [_witness_plan(dtgd) for dtgd in dtgds]
    finished = Branches()
    # Frontier entries: (instance, rounds, branch id, delta state, low).
    # Delta state is (TriggerIndex, per-dtgd agendas) under semi-naive
    # evaluation, None under naive (agendas are then rebuilt per pop).
    # ``low`` is the parent world's lowest free null number: a world
    # holds its parent's nulls, so its own lowest free number is no
    # lower, and the pop advances it past the names the world holds.
    if evaluation == "delta":
        premise_relations = [
            frozenset(a.relation for a in dtgd.premise) for dtgd in dtgds
        ]
        root_index = TriggerIndex(instance)
        # The seeds are matched in full; a child's delta is what it adds.
        root_index.begin_round()
        root_state = (
            root_index,
            [_sorted_matches(dtgd, root_index) for dtgd in dtgds],
        )
    else:
        root_state = None
    frontier: List[tuple] = [(instance, 0, branch_root, root_state, 0)]
    seen: Set[Instance] = set()
    if observer is not None:
        observer.branch("opened", branch_root)

    def stop(exhausted: Exhausted, pending: List[tuple]) -> Branches:
        """Partial mode: unfinished worlds become results, tagged closed."""
        for inst, _rounds, br, _state, _low in pending:
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
            current, rounds, branch, state, low = frontier.pop()
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
            else:
                index, agendas = state
            world = current if index is None else index

            def satisfied(di: int, binding: dict) -> bool:
                return _witnessed(plans[di], binding, world)

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
            held = current.nulls
            while Null(f"{null_prefix}{low}") in held:
                low += 1
            # Siblings draw from one stream, so their nulls differ.
            minted = _fresh_nulls(null_prefix, low, held)
            last = len(dtgd.disjuncts) - 1
            for disjunct_index, disjunct in enumerate(dtgd.disjuncts):
                full = dict(binding)
                for var in existentials[dtgd_index][disjunct_index]:
                    full[var] = next(minted)
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
                        # The child resumes its own delta: only the
                        # disjunct's added facts, its index's trailing
                        # rows, need re-matching.  The fired entry is
                        # stripped everywhere — each disjunct's facts
                        # witness it in that child.
                        delta = accumulator.begin_round()
                        view = accumulator.round_view()
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
                                    d.premise, view, delta, d.guards
                                )
                            ]
                            fresh_entries.sort(key=lambda entry: entry[0])
                            child_agendas.append(
                                _merge_agendas(base, fresh_entries)
                            )
                        child_state = (accumulator, child_agendas)
                    frontier.append(
                        (child, rounds + 1, child_branch, child_state, low)
                    )
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


def _fresh_nulls(
    prefix: str, start: int, held: FrozenSet[Null]
) -> Iterator[Null]:
    """Nulls ``<prefix><k>`` for ``k = start, start + 1, ...`` not in *held*.

    A pop mints upward from its world's lowest free number and looks
    each name up in the world's null set, so minting costs the names
    it tries.  A pass over every null of the world at each pop would
    make a branch's minting quadratic in its depth.  The names are
    those :meth:`repro.terms.NullFactory.avoiding` would give, since
    every number below *start* is held.
    """
    for k in itertools.count(start):
        null = Null(f"{prefix}{k}")
        if null not in held:
            yield null


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
    constants, and exact when ``V'`` is ground — and only then searches,
    for the facts of ``V'`` with nulls alone, so no fact is checked
    twice (see :class:`_Branch`).

    The ambient budget (:func:`repro.limits.budget_scope`) governs the
    pass: it is checked before each candidate and inside every hom
    search, and exhaustion raises the budget's typed error.
    """
    budget = current_budget()
    kept: List[_Branch] = []
    for instance in _deduplicated(branches):
        if budget is not None:
            if budget.checkpoint("minimize_branches") is not None:
                budget.raise_exhausted()
        candidate = _Branch(instance)
        if any(existing.maps_to(candidate) for existing in kept):
            continue
        kept = [existing for existing in kept if not candidate.maps_to(existing)]
        kept.append(candidate)
    return [branch.instance for branch in kept]


class _Branch:
    """A branch with its ground facts split off, for ``V' → V`` tests.

    The ground facts are one cached set per branch, so most tests end
    in one subset check; :func:`is_homomorphic` on every pair instead
    made minimization about four times slower on ``reverse-nulls``.
    The facts with nulls become an instance only when a test first
    searches for them.
    """

    __slots__ = ("instance", "ground", "_rest")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        nulls = instance.nulls
        self.ground = instance.facts
        if nulls:
            self.ground = frozenset(
                f for f in instance.facts if nulls.isdisjoint(f.values)
            )
        self._rest: Optional[Instance] = None

    def maps_to(self, other: "_Branch") -> bool:
        """``self → other``: look up the ground facts, search the rest."""
        if not self.ground <= other.instance.facts:
            return False
        if len(self.ground) == len(self.instance):
            return True
        if self._rest is None:
            self._rest = Instance(self.instance.facts - self.ground)
        return is_homomorphic(self._rest, other.instance)


def _deduplicated(branches: Iterable[Instance]) -> List[Instance]:
    """Distinct branches in canonical (size, text) order.

    Only branches whose size ties another's are printed for the text
    key, all in one :func:`~repro.instance.render_instances` call, which
    prints each distinct fact once: this runs after a deadline has
    passed too, and printing every branch there was most of the
    overshoot.
    """
    by_size: Dict[int, List[Instance]] = {}
    for instance in set(branches):
        by_size.setdefault(len(instance), []).append(instance)
    tied = [i for group in by_size.values() if len(group) > 1 for i in group]
    text = dict(zip(tied, render_instances(tied)))
    ordered: List[Instance] = []
    for size in sorted(by_size):
        group = by_size[size]
        if len(group) > 1:
            group.sort(key=text.__getitem__)
        ordered.extend(group)
    return ordered


def _source_to_target(dtgds: Sequence[DisjunctiveTgd]) -> bool:
    """No premise reads a relation that some conclusion writes."""
    read = set().union(*(d.premise_relations() for d in dtgds))
    return read.isdisjoint(
        set().union(*(d.conclusion_relations() for d in dtgds))
    )


def _guard_constants(dependencies: Sequence[Dependency]) -> Set[Const]:
    """The constants named by inequality guards (``x != c``)."""
    return {
        term
        for d in dependencies
        for g in d.guards
        if isinstance(g, Inequality)
        for term in (g.left, g.right)
        if isinstance(term, Const)
    }


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

    Branches first over quotients of *target_instance* (worlds of null
    identifications), then runs the disjunctive chase in each world.  When
    *result_relations* is given, each branch is restricted to those
    relations (the source schema); otherwise branches keep all facts.

    Which worlds are chased: with ``minimize=True`` and source-to-target
    *dependencies*, the observable closure of the target
    (:func:`~repro.homs.quotient.enumerate_quotients` with
    ``observed_by``), whose branches dominate every other world's
    (DESIGN.md D10); otherwise every quotient, anchored also to the
    constants the inequality guards name.  Either way the candidate
    antichain is the same up to hom-equivalence.

    With a *tracer*, each chased world becomes a branch-genealogy root
    named ``q<index>``, *index* counting the chased worlds in order, and
    the per-world chases trace under it.

    One :class:`~repro.limits.Budget` (built from *limits*, or passed in
    directly) spans the whole composite — quotient enumeration and every
    per-world chase — so a deadline governs the operation end to end.
    (``max_nulls`` is *not* a limit: it bounds the quotient enumeration
    and is part of the operation's semantics.)

    Returns a hom-minimal antichain of branch instances unless
    ``minimize=False`` (the raw set is exponentially redundant).  The
    budget governs minimization too: in partial mode a budget that runs
    out there — or had already run out in the chase, in which case
    minimization is skipped — yields the deduplicated, unminimized
    branches of the worlds the call chased, tagged with the diagnosis
    (universally faithful, Def. 6.1, when the chase itself completed);
    in raise mode the typed error propagates.
    """
    tracer = tracer or current_tracer()
    # The per-world chases resolve their own observers; this one
    # reports only an exhaustion during minimization.
    observer = chase_observer(tracer, profiler)
    budget = resolve_guards("disjunctive_chase", limits, budget).budget
    dtgds = list(iter_disjunctive(dependencies))
    if minimize and _source_to_target(dtgds):
        worlds = enumerate_quotients(
            target_instance, max_nulls=max_nulls, observed_by=dtgds
        )
    else:
        worlds = enumerate_quotients(
            target_instance,
            max_nulls=max_nulls,
            extra_anchors=_guard_constants(dtgds),
        )
    collected: List[Instance] = []
    exhausted: Optional[Exhausted] = None
    for quotient_index, quotient in enumerate(worlds):
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
    if minimize and exhausted is None:
        try:
            with budget_scope(budget):
                result = Branches(minimize_branches(collected))
        except BudgetExhausted:
            if budget.limits.raises or budget.exhausted is None:
                raise
            exhausted = budget.exhausted
            if observer is not None:
                observer.exhausted(exhausted)
    if result is None:
        result = Branches(_deduplicated(collected))
    result.exhausted = exhausted
    return result
