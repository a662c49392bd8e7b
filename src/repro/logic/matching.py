"""Matching conjunctions of atoms against a match source.

This is the shared engine under chase steps and conjunctive-query
evaluation: enumerate all variable bindings under which every relational
atom of a premise is a fact of the source and every guard holds.

The matcher does a backtracking search, at each step picking the pending
atom with the fewest candidate facts given the bindings so far
(most-constrained-first), which keeps premise matching fast on the skewed
instances the workload generators produce.  Guards are checked as soon as
all their variables are bound.

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

from typing import (
    Dict,
    Iterator,
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


def _candidate_count(
    atom: Atom, source: MatchSource, binding: Mapping[Var, Value]
) -> int:
    """Cheap upper bound on how many facts could match *atom* now.

    Mirrors :func:`_candidates`: a partially bound atom will only probe
    the smallest position-index bucket among its bound positions, so
    that bucket size — not the full relation size — is the real cost.
    Counting the full relation here made the most-constrained-first
    ordering prefer fully-bound atoms over tightly-indexed ones and
    scan whole relations for nothing on skewed instances.
    """
    tuples = source.tuples(atom.relation)
    if not tuples:
        return 0
    lookup = getattr(source, "tuples_at", None)
    best: Optional[int] = None
    bound = 0
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const):
            value: Optional[Value] = term
        elif isinstance(term, Var):
            value = binding.get(term)
        else:  # pragma: no cover - terms are Const/Var by construction
            value = None
        if value is None:
            continue
        bound += 1
        if lookup is not None:
            size = len(lookup(atom.relation, position, value))
            if best is None or size < best:
                best = size
                if best == 0:
                    return 0
    # Fully-bound atoms are membership tests (0 or 1 candidates).
    if bound == atom.arity:
        return 1 if best is None else min(1, best)
    if best is not None:
        return best
    return len(tuples)


def _candidates(atom: Atom, source: MatchSource, binding: Mapping[Var, Value]):
    """The tuples worth probing for *atom* given the current binding.

    When a term is already bound (a constant or a bound variable) and the
    source carries a position index, scan only that bucket — the smallest
    one among the bound positions.  Falls back to the full relation for
    unbound atoms or index-less sources (e.g. live chase builders).
    """
    lookup = getattr(source, "tuples_at", None)
    if lookup is None:
        return source.tuples(atom.relation)
    best = None
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const):
            value = term
        elif isinstance(term, Var):
            value = binding.get(term)
            if value is None:
                continue
        else:  # pragma: no cover - terms are Const/Var by construction
            continue
        bucket = lookup(atom.relation, position, value)
        if best is None or len(bucket) < len(best):
            best = bucket
            if not best:
                break
    if best is None:
        return source.tuples(atom.relation)
    return best


def _match_fact(
    atom: Atom, values: Tuple[Value, ...], binding: Dict[Var, Value]
) -> Optional[Dict[Var, Value]]:
    """Try to extend *binding* so that *atom* maps onto *values*."""
    extension: Dict[Var, Value] = {}
    for term, value in zip(atom.terms, values):
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


def _all_guards_ok(
    guards: Sequence[Guard], binding: Mapping[Var, Value]
) -> bool:
    """The leaf check: every variable is bound, every guard must hold."""
    return all(guard.holds(binding) for guard in guards)


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
    (:func:`repro.logic.delta.match_atoms_delta`).
    """
    binding: Dict[Var, Value] = dict(initial) if initial else {}

    def search(pending: list, b: Dict[Var, Value]) -> Iterator[Dict[Var, Value]]:
        if not pending:
            if _all_guards_ok(guards, b):
                yield dict(b)
            return
        # Most-constrained-first: pick the cheapest pending atom.
        index = min(
            range(len(pending)),
            key=lambda i: _candidate_count(pending[i], source, b),
        )
        atom = pending[index]
        rest = pending[:index] + pending[index + 1 :]
        for values in _candidates(atom, source, b):
            extension = _match_fact(atom, values, b)
            if extension is None:
                continue
            b.update(extension)
            if _guards_ok(guards, b):
                yield from search(rest, b)
            for var in extension:
                del b[var]

    yield from search(list(atoms), binding)


def has_match(
    atoms: Sequence[Atom],
    source: MatchSource,
    guards: Sequence[Guard] = (),
    initial: Optional[Mapping[Var, Value]] = None,
) -> bool:
    """True when at least one binding exists (same contract as match_atoms)."""
    return next(match_atoms(atoms, source, guards, initial), None) is not None
