"""Matching conjunctions of atoms against a match source.

This is the shared engine under chase steps, conjunctive-query
evaluation and homomorphism search: enumerate all variable bindings
under which every atom of a premise is a fact of the source and every
guard holds.  A hom search matches the source's facts, nulls read as
variables; the semi-naive chase adds delta windows.  All of them run
one backtracking loop, :func:`_backtrack`, which at each step places the
first pending atom with the fewest candidate facts given the bindings so
far (most-constrained-first), re-ranking only the atoms that share a
newly bound variable.  Guards are checked as soon as all their variables
are bound.  Under a delta, an atom with no new rows that is placed while
exactly one pending atom can still use a new row reads only the rows
that join that atom's new rows (the semi-join cut): a filter of its
candidate sequence, never a reordering, so every delta search yields
what the naive one yields, in the same order.

The matching contract
---------------------

What used to be informal ``getattr(store, "tuples_at", ...)`` duck
typing is now the documented contract, named :class:`MatchSource`: any
object offering

* ``tuples(relation) -> Sequence[Tuple[Value, ...]]`` — the rows of a
  relation (an empty sequence when the relation is absent); and,
  optionally,
* ``tuples_at(relation, position, value) -> Sequence[Tuple[Value, ...]]``
  — the rows holding *value* at *position*

can be matched against.  ``tuples`` alone is sufficient (the matcher
falls back to full-relation scans); ``tuples_at`` is the accelerator
that lets the matcher probe only the smallest index bucket among the
bound positions.  Satisfying sources include :class:`~repro.instance.
Instance` (over any store backend), a live :class:`~repro.instance.
InstanceBuilder`, every :class:`~repro.store.InstanceStore`, and the
:class:`~repro.logic.delta.TriggerIndex` (whose round view powers the
semi-naive chase — see :func:`repro.logic.delta.match_atoms_delta`).

``match_atoms``/``has_match`` take the source as their second
argument, ``source``.
"""

from __future__ import annotations

import sys
from itertools import compress
from operator import itemgetter
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..terms import Const, Value, Var
from .atoms import Atom
from .guards import Guard

__all__ = [
    "MatchSource",
    "has_match",
    "match_atoms",
]

#: Candidate rows between a governed search's budget checkpoints (a
#: clock read per row would dominate the innermost loop).
_CHECK_EVERY = 256
#: The cached candidate count of a placed pattern: never the minimum.
_PLACED = sys.maxsize


@runtime_checkable
class MatchSource(Protocol):
    """Anything premise atoms can be matched against.

    See the module docstring for the full contract; ``tuples`` is the
    one required method.  ``tuples_at`` is optional and detected with
    ``getattr`` — a source without it still matches correctly, only
    slower (full-relation scans instead of index-bucket probes).
    """

    def tuples(self, relation: str) -> Sequence[Tuple[Value, ...]]:
        """The rows of *relation* (an empty sequence when absent)."""
        ...


def _bucket(
    relation: str, terms: tuple, source: MatchSource, lookup, binding: Mapping
) -> Tuple[int, Sequence]:
    """How many rows could match the pattern now, and the rows to probe.

    The rows are the smallest index bucket among the bound positions, or
    the whole relation; the count is their number, at most 1 when every
    position is bound (a membership test).
    """
    best = None
    bound = 0
    for position, term in enumerate(terms):
        if isinstance(term, Const):
            value = term
        else:
            value = binding.get(term)
            if value is None:
                continue
        bound += 1
        if lookup is not None:
            bucket = lookup(relation, position, value)
            if best is None or len(bucket) < len(best):
                best = bucket
                if not best:
                    return 0, best
    if best is None:
        best = source.tuples(relation)
    count = len(best)
    return (min(1, count) if bound == len(terms) else count), best


def _match_fact(
    terms: tuple, values: Tuple[Value, ...], binding: Mapping
) -> Optional[dict]:
    """Try to extend *binding* so that the pattern maps onto *values*."""
    extension: dict = {}
    for term, value in zip(terms, values):
        if isinstance(term, Const):
            if term != value:
                return None
        else:
            known = binding.get(term, extension.get(term))
            if known is None:
                extension[term] = value
            elif known != value:
                return None
    return extension


def _guards_ok(guards: Sequence[Guard], binding: Mapping[Var, Value]) -> bool:
    """Check guards mid-search, deferring only genuinely unbound ones.

    A guard whose variables are all bound is evaluated for real, and any
    exception it raises propagates — historically a ``KeyError`` from a
    buggy ``holds()`` was silently swallowed as "variable not bound
    yet", turning the bug into a wrong answer.  Guards that do not
    expose ``variables()`` (duck-typed third-party guards) keep the old
    defer-on-KeyError behavior.
    """
    for guard in guards:
        variables_of = getattr(guard, "variables", None)
        if variables_of is not None:
            if any(v not in binding for v in variables_of()):
                continue  # genuinely unbound: defer to the leaf check
            if not guard.holds(binding):
                return False
            continue
        try:
            if not guard.holds(binding):
                return False
        except KeyError:
            continue
    return True


def _backtrack(
    patterns: Sequence[Tuple[str, tuple]],
    source: MatchSource,
    binding: dict,
    guards: Sequence[Guard] = (),
    ranked: bool = True,
    delta: Optional[Mapping[str, range]] = None,
    avoid: Optional[Tuple[str, tuple]] = None,
    budget=None,
    rejected: Optional[List[int]] = None,
) -> Iterator[dict]:
    """Yield each extension of *binding* mapping every pattern into *source*.

    *patterns* are ``(relation, terms)`` pairs whose non-constant terms
    are variables; *binding* is extended in place and copied per yield.
    Frames live on a list, so a deep search meets no recursion limit.
    *ranked* false places the patterns in order (the D3 ablation);
    *delta* (relation → the window of new row numbers) yields only
    solutions that use a new row, over a source whose sequences
    ``split`` at a row number (a :class:`~repro.logic.delta.TriggerIndex`
    round view); the *avoid* row ``(relation, values)`` is never a
    candidate; a *budget* is checked every :data:`_CHECK_EVERY`
    candidates; and *rejected* counts the candidates that fail to
    extend the binding.

    Under a delta, a frame placed before any new row splits its rows at
    the window's start: the old rows come first, then the new ones, so
    a placed row's age is the side of the cut it came from.  When no
    other pending pattern could use a new row, the frame reads only the
    new rows.  A frame whose relation has no new rows, placed before
    any new row while exactly one pending pattern could use one, keeps
    only the rows whose values on the unbound variables the two share
    occur among that pattern's new rows, since every yield below places
    it on one.  The set of those values is built in one pass, and only
    when the new rows are fewer than the rows it filters.  Filtering
    keeps the rows' order, so the yields and their order do not change.
    """
    lookup = getattr(source, "tuples_at", None)
    occurs: Dict[object, List[int]] = {}
    counts: List[int] = []
    rows: List[Sequence] = []
    for index, (relation, terms) in enumerate(patterns):
        for term in terms:
            if not isinstance(term, Const):
                occurs.setdefault(term, []).append(index)
        count, candidates = _bucket(relation, terms, source, lookup, binding)
        counts.append(count)
        rows.append(candidates)
    live = [delta is not None and bool(delta.get(r)) for r, _terms in patterns]
    live_pending = sum(live)  # pending patterns that could use a new row
    seen = delta is None  # whether the placed rows include a new one
    probes = placed = 0
    # A frame: [pattern, candidates, the new rows due after them, are
    # the candidates new?, seen before it, its count, the row's
    # extension, the counts it displaced].
    frames: List[list] = []
    descend = True
    while True:
        if descend and (seen or live_pending):
            if placed == len(patterns):
                if all(guard.holds(binding) for guard in guards):
                    yield dict(binding)
            else:
                index = counts.index(min(counts)) if ranked else placed
                relation = patterns[index][0]
                live_pending -= live[index]
                rest = None
                new = False
                if seen:
                    candidates = iter(rows[index])
                elif not live[index]:
                    candidates = rows[index]
                    if live_pending == 1 and candidates:
                        # The semi-join cut: a yield below places the one
                        # live pending pattern on a new row, so read only
                        # the rows whose values on the unbound variables
                        # they share occur among its new rows (the set is
                        # built only when those are the fewer rows).
                        other = next(
                            j
                            for j, is_live in enumerate(live)
                            if is_live and counts[j] != _PLACED
                        )
                        other_relation, other_terms = patterns[other]
                        fresh = rows[other].since(delta[other_relation].start)
                        if len(fresh) < len(candidates):
                            terms = patterns[index][1]
                            shared = [
                                term
                                for term in set(terms).intersection(other_terms)
                                if not isinstance(term, Const) and term not in binding
                            ]
                            if shared:
                                theirs = itemgetter(
                                    *[other_terms.index(v) for v in shared]
                                )
                                ours = itemgetter(*[terms.index(v) for v in shared])
                                keys = set(map(theirs, fresh))
                                candidates = compress(
                                    candidates,
                                    map(keys.__contains__, map(ours, candidates)),
                                )
                            elif not fresh:
                                candidates = ()
                    candidates = iter(candidates)
                else:
                    candidates, rest = rows[index].split(delta[relation].start)
                    if not live_pending:
                        candidates, rest, new = rest, None, True
                if avoid is not None and relation == avoid[0]:
                    candidates = (row for row in candidates if row != avoid[1])
                frames.append(
                    [index, candidates, rest, new, seen, counts[index], (), ()]
                )
                counts[index] = _PLACED
                placed += 1
        if not frames:
            return
        frame = frames[-1]
        index, candidates, rest, new, seen, count, bound, displaced = frame
        for var in bound:
            del binding[var]
        for other, other_count, other_rows in displaced:
            counts[other], rows[other] = other_count, other_rows
        terms = patterns[index][1]
        for values in candidates:
            if budget is not None:
                probes += 1
                if probes % _CHECK_EVERY == 0:
                    if budget.checkpoint("hom_search") is not None:
                        budget.raise_exhausted()
            extension = _match_fact(terms, values, binding)
            if extension is not None:
                break
            if rejected is not None:
                rejected[0] += 1
        else:
            if rest is not None:
                # The old rows are spent; the new rows follow them.
                frame[1:4] = rest, None, True
                frame[6:] = (), ()
                descend = False
                continue
            frames.pop()
            counts[index] = count
            placed -= 1
            live_pending += live[index]
            descend = False
            continue
        binding.update(extension)
        seen = seen or new
        # Re-rank the pending patterns sharing a newly bound variable,
        # each once (marked placed until all are saved).
        displaced = []
        for var in extension:
            for other in occurs[var]:
                if counts[other] != _PLACED:
                    displaced.append((other, counts[other], rows[other]))
                    counts[other] = _PLACED
        for other, _count, _rows in displaced:
            relation, other_terms = patterns[other]
            counts[other], rows[other] = _bucket(
                relation, other_terms, source, lookup, binding
            )
        frame[6:] = extension, displaced
        descend = not guards or _guards_ok(guards, binding)


def match_atoms(
    atoms: Sequence[Atom],
    source: MatchSource,
    guards: Sequence[Guard] = (),
    initial: Optional[Mapping[Var, Value]] = None,
) -> Iterator[Dict[Var, Value]]:
    """Yield every binding satisfying all *atoms* and *guards* in *source*.

    *source* is any :class:`MatchSource` — see the module docstring for
    the contract.  Bindings map exactly the variables of *atoms* plus
    those of *initial*.  With no atoms, yields the initial binding once
    (if the guards hold).

    Enumeration order is deterministic given the source's row order:
    the semi-naive chase relies on this to keep delta-driven firing
    sequences identical to naive ones
    (:func:`repro.logic.delta.match_atoms_delta` runs this same search).
    """
    return _backtrack(
        [(atom.relation, atom.terms) for atom in atoms],
        source,
        dict(initial) if initial else {},
        guards,
    )


def has_match(
    atoms: Sequence[Atom],
    source: MatchSource,
    guards: Sequence[Guard] = (),
    initial: Optional[Mapping[Var, Value]] = None,
) -> bool:
    """True when at least one binding exists (same contract as match_atoms)."""
    return next(match_atoms(atoms, source, guards, initial), None) is not None
