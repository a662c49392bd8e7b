"""Homomorphism search between instances.

A homomorphism ``h : I1 → I2`` (Definition 3.1) maps every constant to
itself and every fact of ``I1``, pointwise through ``h``, to a fact of
``I2``.  The binary relation ``I1 → I2`` ("there is a homomorphism") is the
backbone of the whole paper: it *is* the extended identity schema mapping
``e(Id)``, and every extended notion is phrased through it.

The search is backtracking over the facts of ``I1`` with a
most-constrained-first ordering and per-relation candidate indexes on
``I2``.  Constants prune immediately since they must map to themselves.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from ..instance import Fact, Instance
from ..limits import Budget, current_budget
from ..obs.events import HomBacktrack
from ..obs.tracer import current_tracer
from ..terms import Const, Null, Value

#: Candidate extensions between cooperative budget checkpoints.  The
#: search has no partial-result semantics (half a homomorphism is
#: nothing), so exhaustion always raises; checking every extension would
#: put a clock read in the innermost loop, so we amortize.
_CHECK_EVERY = 256


def _fact_order(source: Instance, target) -> list:
    """Order source facts cheapest-first: few target candidates, many constants."""

    def key(f) -> tuple:
        candidates = len(target.tuples(f.relation))
        constants = sum(1 for v in f.values if isinstance(v, Const))
        return (candidates, -constants)

    return sorted(source.facts, key=key)


def _extend(
    fact_values: tuple, target_values: tuple, assignment: Dict[Null, Value]
) -> Optional[Dict[Null, Value]]:
    """Try mapping one source fact onto one target fact; return the delta."""
    delta: Dict[Null, Value] = {}
    for v, w in zip(fact_values, target_values):
        if isinstance(v, Const):
            if v != w:
                return None
        else:
            known = assignment.get(v, delta.get(v))
            if known is None:
                delta[v] = w
            elif known != w:
                return None
    return delta


def homomorphisms(
    source: Instance,
    target,
    seed: Optional[Mapping[Null, Value]] = None,
    ordering: str = "constrained",
    budget: Optional[Budget] = None,
) -> Iterator[Dict[Null, Value]]:
    """Yield every homomorphism from *source* to *target*.

    Homomorphisms are returned as ``{null: value}`` maps over the nulls of
    *source* (constants are implicitly fixed).  *seed* pre-commits some
    nulls — useful for extending partial homomorphisms.

    *target* may be any :class:`~repro.logic.matching.MatchSource`, not
    just an :class:`~repro.instance.Instance`: candidate probing uses
    ``tuples``/``tuples_at``, so the chase's live
    :class:`~repro.logic.delta.TriggerIndex` works directly — hom
    search over a mid-chase state costs no snapshot.  Sources without
    ``tuples_at`` fall back to full-relation scans.

    *ordering* selects the fact-processing order: ``"constrained"``
    (default) sorts most-constrained-first; ``"naive"`` takes an arbitrary
    deterministic order — kept for the D3 ablation benchmark, not for use.

    The search honors a cooperative *budget* (explicit, or this thread's
    ambient :func:`repro.limits.budget_scope`): every few hundred
    candidate extensions it checks cancellation and the deadline, and on
    exhaustion raises the budget's typed error — there is no partial
    homomorphism to return.  Without a budget the check costs nothing.
    """
    if ordering == "constrained":
        ordered = _fact_order(source, target)
    elif ordering == "naive":
        ordered = sorted(source.facts, key=Fact.sort_key)
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    assignment: Dict[Null, Value] = dict(seed) if seed else {}
    tracer = current_tracer()
    tracing = tracer is not None
    if budget is None:
        budget = current_budget()
    governed = budget is not None
    probes = [0]
    rejected = [0]
    lookup = getattr(target, "tuples_at", None)

    def candidates(f: Fact):
        """Index-backed candidate tuples: probe the smallest bucket among
        the positions already fixed (constants or assigned nulls)."""
        if lookup is None:
            return target.tuples(f.relation)
        best = None
        for position, v in enumerate(f.values):
            value = v if isinstance(v, Const) else assignment.get(v)
            if value is None:
                continue
            bucket = lookup(f.relation, position, value)
            if best is None or len(bucket) < len(best):
                best = bucket
                if not best:
                    break
        if best is None:
            return target.tuples(f.relation)
        return best

    def search(index: int) -> Iterator[Dict[Null, Value]]:
        if index == len(ordered):
            yield dict(assignment)
            return
        f = ordered[index]
        for values in candidates(f):
            if governed:
                probes[0] += 1
                if probes[0] % _CHECK_EVERY == 0:
                    if budget.checkpoint("hom_search") is not None:
                        budget.raise_exhausted()
            delta = _extend(f.values, values, assignment)
            if delta is None:
                if tracing:
                    rejected[0] += 1
                continue
            assignment.update(delta)
            yield from search(index + 1)
            for null in delta:
                del assignment[null]

    if not tracing:
        yield from search(0)
        return
    # Traced: summarize the whole search as one HomBacktrack event, also
    # when the caller abandons the generator after the first solution
    # (the ``finally`` runs on generator close).
    found = False
    try:
        for h in search(0):
            found = True
            yield h
    finally:
        tracer.emit(
            HomBacktrack(
                backtracks=rejected[0],
                found=found,
                source_size=len(source),
                target_size=len(target),
            )
        )


def find_homomorphism(
    source: Instance,
    target: Instance,
    seed: Optional[Mapping[Null, Value]] = None,
) -> Optional[Dict[Null, Value]]:
    """Return one homomorphism ``source → target``, or None."""
    return next(homomorphisms(source, target, seed), None)


def all_homomorphisms(source: Instance, target: Instance) -> list:
    """All homomorphisms as a list (beware: can be exponential)."""
    return list(homomorphisms(source, target))


def is_homomorphic(source: Instance, target: Instance) -> bool:
    """The relation ``source → target`` of the paper."""
    return find_homomorphism(source, target) is not None


def is_hom_equivalent(left: Instance, right: Instance) -> bool:
    """Homomorphic equivalence: ``left → right`` and ``right → left``."""
    return is_homomorphic(left, right) and is_homomorphic(right, left)


def verify_homomorphism(
    h: Mapping[Null, Value], source: Instance, target: Instance
) -> bool:
    """Independent check that *h* really is a homomorphism source → target.

    Used by the test suite to validate search results and by the
    counterexample objects of the semi-decision checkers.
    """
    for f in source.facts:
        image = f.substitute(dict(h))
        if image not in target.facts:
            return False
    return True
