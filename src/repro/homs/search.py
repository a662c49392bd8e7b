"""Homomorphism search between instances.

A homomorphism ``h : I1 → I2`` (Definition 3.1) maps every constant to
itself and every fact of ``I1``, pointwise through ``h``, to a fact of
``I2``.  The binary relation ``I1 → I2`` ("there is a homomorphism") is the
backbone of the whole paper: it *is* the extended identity schema mapping
``e(Id)``, and every extended notion is phrased through it.

A homomorphism is a match of the source facts with their nulls read as
variables, so the search is premise matching's own
(:func:`repro.logic.matching._backtrack`): the ground facts of ``I1``
are checked as a subset of ``I2`` first, and the rest are placed
most-constrained-first — at every step the fact with the fewest
candidate rows among the ``I2`` index buckets its constants and bound
nulls select, re-ranked only when one of its nulls is bound.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, Mapping, Optional

from ..instance import Fact, Instance
from ..limits import Budget, current_budget
from ..logic.matching import _backtrack
from ..obs.events import HomBacktrack
from ..obs.tracer import current_tracer
from ..terms import Null, Value


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

    *target* may be any :class:`~repro.logic.matching.MatchSource` that
    also answers fact membership (``fact in target``), not just an
    :class:`~repro.instance.Instance`: the ground facts of *source* are
    looked up as facts, the rest probed through ``tuples``/``tuples_at``,
    so the chase's live :class:`~repro.logic.delta.TriggerIndex` works
    directly — hom search over a mid-chase state costs no snapshot.
    Sources without ``tuples_at`` fall back to full-relation scans.

    *ordering* selects how the search places facts: ``"constrained"``
    (default) places most-constrained-first; ``"naive"`` takes them in
    :meth:`~repro.facts.Fact.sort_key` order — kept for the D3 ablation
    benchmark, not for use.  Equally constrained facts are taken in the
    source's iteration order, so which homomorphism comes first may
    vary between processes; the set does not.

    The search honors a cooperative *budget* (explicit, or this thread's
    ambient :func:`repro.limits.budget_scope`): every few hundred
    candidate rows it checks cancellation and the deadline, and on
    exhaustion raises the budget's typed error — there is no partial
    homomorphism to return.  Without a budget the check costs nothing.
    """
    if ordering == "constrained":
        return _homomorphisms(source.facts, target, seed, budget=budget)
    if ordering == "naive":
        facts = sorted(source.facts, key=Fact.sort_key)
        return _homomorphisms(facts, target, seed, ranked=False, budget=budget)
    raise ValueError(f"unknown ordering {ordering!r}")


def _homomorphisms(
    facts: Collection[Fact],
    target,
    seed: Optional[Mapping[Null, Value]] = None,
    ranked: bool = True,
    budget: Optional[Budget] = None,
    avoid: Optional[Fact] = None,
) -> Iterator[Dict[Null, Value]]:
    """:func:`homomorphisms` of some *facts*, into *target* less *avoid*.

    Their order breaks ties between equally constrained facts.  A traced
    search is summarized as one ``HomBacktrack`` event, also when the
    caller abandons the generator early.
    """
    tracer = current_tracer()
    rejected = [0] if tracer is not None else None
    patterns, ground = [], []
    for f in facts:
        (ground if f.is_ground() else patterns).append(f)
    if all(f != avoid and f in target for f in ground):
        search = _backtrack(
            [(f.relation, f.values) for f in patterns],
            target,
            dict(seed) if seed else {},
            ranked=ranked,
            avoid=(avoid.relation, avoid.values) if avoid is not None else None,
            budget=budget if budget is not None else current_budget(),
            rejected=rejected,
        )
    else:
        search = iter(())
    if tracer is None:
        yield from search
        return
    found = False
    try:
        for h in search:
            found = True
            yield h
    finally:
        tracer.emit(
            HomBacktrack(
                backtracks=rejected[0],
                found=found,
                source_size=len(facts),
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
