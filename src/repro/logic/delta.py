"""Delta-driven (semi-naive) trigger indexing for the chase.

Both fixpoint loops historically re-matched every premise against the
*whole* instance each round, so round ``k`` paid for rounds ``1..k-1``
again.  This module provides the machinery for semi-naive evaluation:

* :class:`TriggerIndex` — an incrementally maintained per-relation /
  per-(position, value) index.  The chase adds facts through it as they
  are fired (it implements the builder protocol: ``add``/``add_all``/
  ``__len__``) and it simultaneously implements the
  matching protocol (``tuples``/``tuples_at``), so the same object is a
  :class:`~repro.logic.matching.MatchSource` for live satisfaction
  checks and for homomorphism search.  ``begin_round()`` rotates the
  round boundary and returns the *delta* — per relation, the window of
  row numbers added since the previous boundary; ``round_view()`` is a
  MatchSource showing only the facts visible at the current boundary
  (what the naive loop's per-round snapshot used to show).
* :func:`match_atoms_delta` — enumerate exactly the premise bindings
  that use at least one delta fact, **in the same relative order** that
  :func:`~repro.logic.matching.match_atoms` would have produced them.
  This is what lets the semi-naive chase keep its firing sequence (and
  therefore null names, budget truncation points, and tracer streams)
  identical to the naive loop's.

A delta maps each relation to a window of row numbers, the tuple
mirror of the SQL chase's rowid watermarks (DESIGN.md D6): rows enter a
relation in order and are never removed, so "new since the last
boundary" is a range of row numbers, and every bucket keeps its rows'
numbers, increasing.  A round view's sequences split at a window's
start with one bisect, so the matcher reads a frame's new rows as the
tail of its bucket and tells a placed row's age by the side of the cut
it came from, with no per-row set probe.

Order preservation is the design constraint that shapes the code (see
DESIGN.md, decision D5): the textbook semi-naive rewriting — a union
of queries, one per premise position seeded with a delta atom —
enumerates bindings grouped by which atom is "the delta atom" and would
reorder firings.  Instead, :func:`match_atoms_delta` has no search of
its own: it runs ``match_atoms``' loop over the same view with the delta
windows, which abandons a subtree as soon as no delta fact can appear
in it and, when exactly one pending atom's relation carries delta
facts, reads only that atom's new rows (order intact).  An atom with
no delta facts placed while that one atom is still pending reads only
its rows that join the pending atom's new rows, a semi-join that
filters the candidates without reordering them, built only when the
new rows are the fewer.  Each level places the atom ``match_atoms``
places, so the yields are exactly the delta subset of the naive
enumeration, in naive order.

Rows enter the index in a canonical order — seed facts sorted by
:meth:`repro.facts.Fact.sort_key`, fired facts in firing order — so
chase enumeration no longer depends on Python's per-process hash
randomization: equal inputs now chase to byte-identical outputs across
processes and store backends.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..facts import Fact
from ..terms import Value, Var, value_sort_key
from .atoms import Atom
from .guards import Guard
from .matching import _backtrack

if TYPE_CHECKING:
    from ..instance import Instance

__all__ = [
    "Delta",
    "TriggerIndex",
    "binding_sort_key",
    "match_atoms_delta",
]

#: A round's worth of new facts: relation name → the window of row
#: numbers (positions in the relation's rows) that are new.
Delta = Mapping[str, range]


def binding_sort_key(binding: Mapping[Var, Value]) -> tuple:
    """A total, content-determined order over bindings of one premise.

    Bindings of the same premise always bind the same variable set, so
    sorting the items by variable name and keying values through
    :func:`repro.terms.value_sort_key` yields a key that is unique per
    binding and independent of dict insertion order.  The disjunctive
    chase uses it to pick triggers canonically (see
    :mod:`repro.chase.disjunctive`).
    """
    return tuple(
        (var.name, value_sort_key(value))
        for var, value in sorted(binding.items())
    )


class _Prefix(Sequence):
    """A zero-copy prefix view of a growing row list.

    The round view hands these out instead of slices: the matcher only
    needs ``len``/``iter``/truthiness on candidate sequences, and the
    underlying list may gain rows (beyond the prefix) while a generator
    is suspended — list appends never disturb an ``islice`` bounded
    below the append point.  *numbers* are the rows' row numbers (a
    bucket's, increasing); without them a row's number is its position.
    """

    __slots__ = ("_rows", "_stop", "_numbers")

    def __init__(
        self, rows: Sequence, stop: int, numbers: Optional[List[int]] = None
    ) -> None:
        self._rows = rows
        self._stop = stop
        self._numbers = numbers

    def _below(self, number: int) -> int:
        """How many of the rows are numbered below *number* (one bisect)."""
        if self._numbers is None:
            return min(number, self._stop)
        return bisect_left(self._numbers, number, 0, self._stop)

    def split(self, number: int) -> Tuple[Iterator, Iterator]:
        """Iterators over the rows numbered below *number*, and the rest.

        The delta matcher's window cut.
        """
        cut = self._below(number)
        return islice(self._rows, cut), islice(self._rows, cut, self._stop)

    def since(self, number: int) -> Sequence:
        """A copy of the rows numbered *number* or above.

        The new rows of a window starting at *number*: what the delta
        matcher's semi-join cut keys its filter on.
        """
        return self._rows[self._below(number) : self._stop]

    def __len__(self) -> int:
        return self._stop

    def __bool__(self) -> bool:
        return self._stop > 0

    def __iter__(self) -> Iterator:
        return islice(iter(self._rows), self._stop)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._stop
        if not 0 <= index < self._stop:
            raise IndexError("prefix index out of range")
        return self._rows[index]


#: The round view's sequence for a relation or bucket with no rows.
_EMPTY = _Prefix((), 0)


class _RoundView:
    """The facts visible at the index's current round boundary.

    A :class:`~repro.logic.matching.MatchSource`: behaves exactly like a
    frozen snapshot taken at ``begin_round()`` time, without copying —
    ``tuples``/``tuples_at`` expose per-relation (and per-bucket)
    prefixes of the live index, computed against the visibility
    boundary.  Facts fired *during* the round land beyond the boundary
    and stay invisible here until the next ``begin_round()``.
    """

    __slots__ = ("_index",)

    def __init__(self, index: "TriggerIndex") -> None:
        self._index = index

    def tuples(self, relation: str) -> Sequence[Tuple[Value, ...]]:
        """The visible rows of *relation*, in index order."""
        idx = self._index
        rows = idx._rows.get(relation)
        if rows is None:
            return _EMPTY
        return _Prefix(rows, idx._visible.get(relation, 0))

    def tuples_at(
        self, relation: str, position: int, value: Value
    ) -> Sequence[Tuple[Value, ...]]:
        """The visible rows of *relation* holding *value* at *position*."""
        idx = self._index
        buckets = idx._buckets.get(relation)
        if buckets is None:
            return _EMPTY
        entry = buckets.get((position, value))
        if entry is None:
            return _EMPTY
        bucket_rows, bucket_seqs = entry
        visible = idx._visible.get(relation, 0)
        return _Prefix(bucket_rows, bisect_left(bucket_seqs, visible), bucket_seqs)


class TriggerIndex:
    """Per-relation/position indexes maintained as the chase adds facts.

    The index is three things at once, which is the point — one data
    structure serves the whole round loop:

    * a **builder**: ``add``/``add_all`` accumulate fired facts
      (deduplicated) and report which were new — the chase extends its
      input by those (it never copies the index into an
      :class:`~repro.instance.Instance`);
    * a **live MatchSource**: ``tuples``/``tuples_at`` see everything
      added so far, which is exactly what restricted-variant
      satisfaction checks and hom search need (and faster than the old
      index-less builder scans — buckets are appended to, never
      rebuilt);
    * a **delta source**: ``begin_round()`` advances the visibility
      boundary and returns the windows of rows added since the previous
      boundary, and ``round_view()`` is the matching source frozen at
      that boundary.

    Row order is canonical: construction seeds the base instance's
    facts in :meth:`~repro.facts.Fact.sort_key` order, and fired facts
    append in firing order.  Enumeration order therefore never depends
    on hash randomization — see the module docstring.

    ``fork()`` clones the index for disjunctive-chase branches: each
    branch extends its own copy and computes its own deltas.  The copy
    is copy-on-write, so a fork costs the relations a branch writes,
    not the whole index.
    """

    __slots__ = ("_rows", "_row_sets", "_buckets", "_visible", "_count", "_cow")

    def __init__(self, base: Optional["Instance"] = None) -> None:
        """Start empty, or seeded with *base*'s facts (canonical order)."""
        # rows: relation → list of value tuples, in insertion order.
        self._rows: Dict[str, List[Tuple[Value, ...]]] = {}
        # row_sets: relation → set of the same tuples, for O(1) dedup.
        self._row_sets: Dict[str, set] = {}
        # buckets: relation → (position, value) → parallel lists of
        # (rows, row sequence numbers); sequence numbers are the row's
        # index in _rows[relation], strictly increasing per bucket.
        self._buckets: Dict[
            str, Dict[Tuple[int, Value], Tuple[list, List[int]]]
        ] = {}
        # visible: relation → how many rows the round view exposes.
        self._visible: Dict[str, int] = {}
        self._count = 0
        # cow: relation → None while its row list, row set and bucket
        # map are shared with a fork, else the keys of the buckets whose
        # lists this index owns.  Empty until the first fork.
        self._cow: Dict[str, Optional[set]] = {}
        if base is not None:
            for rel in base.relation_names:
                for row in sorted(
                    base.tuples(rel),
                    key=lambda t: tuple(value_sort_key(v) for v in t),
                ):
                    self._append(rel, row)

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------

    def _append(self, relation: str, row: Tuple[Value, ...]) -> bool:
        row_set = self._row_sets.get(relation)
        if row_set is None:
            row_set = set()
            self._row_sets[relation] = row_set
            self._rows[relation] = []
            self._buckets[relation] = {}
        if row in row_set:
            return False
        if relation in self._cow:
            return self._append_shared(relation, row)
        rows = self._rows[relation]
        seq = len(rows)
        row_set.add(row)
        rows.append(row)
        buckets = self._buckets[relation]
        for position, value in enumerate(row):
            entry = buckets.get((position, value))
            if entry is None:
                buckets[(position, value)] = ([row], [seq])
            else:
                entry[0].append(row)
                entry[1].append(seq)
        self._count += 1
        return True

    def _append_shared(self, relation: str, row: Tuple[Value, ...]) -> bool:
        """``_append`` for a relation a fork may still share.

        The first write after a fork copies the relation's row list, row
        set and bucket map; a bucket's two lists are copied when a write
        first appends to that bucket.  What the other side holds is never
        mutated, so either side may keep writing.
        """
        owned = self._cow[relation]
        if owned is None:
            owned = self._cow[relation] = set()
            self._rows[relation] = list(self._rows[relation])
            self._row_sets[relation] = set(self._row_sets[relation])
            self._buckets[relation] = dict(self._buckets[relation])
        rows = self._rows[relation]
        seq = len(rows)
        self._row_sets[relation].add(row)
        rows.append(row)
        buckets = self._buckets[relation]
        for key in enumerate(row):
            entry = buckets.get(key)
            if entry is None:
                buckets[key] = ([row], [seq])
                owned.add(key)
            elif key in owned:
                entry[0].append(row)
                entry[1].append(seq)
            else:
                buckets[key] = (entry[0] + [row], entry[1] + [seq])
                owned.add(key)
        self._count += 1
        return True

    # ------------------------------------------------------------------
    # Builder protocol
    # ------------------------------------------------------------------

    def add(self, f: Fact) -> bool:
        """Add a fact; return True when it was new."""
        return self._append(f.relation, f.values)

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Add many facts; return how many were new."""
        return sum(1 for f in facts if self.add(f))

    def __len__(self) -> int:
        return self._count

    def __contains__(self, f: object) -> bool:
        if not isinstance(f, Fact):
            return False
        row_set = self._row_sets.get(f.relation)
        return row_set is not None and f.values in row_set

    def facts(self) -> Iterator[Fact]:
        """Iterate every fact, in index (insertion) order."""
        for relation, rows in self._rows.items():
            for row in rows:
                yield Fact(relation, row)

    # ------------------------------------------------------------------
    # MatchSource protocol (the live view: everything added so far)
    # ------------------------------------------------------------------

    def tuples(self, relation: str) -> Sequence[Tuple[Value, ...]]:
        """All rows of *relation*, in index order (empty when absent)."""
        return self._rows.get(relation, ())

    def tuples_at(
        self, relation: str, position: int, value: Value
    ) -> Sequence[Tuple[Value, ...]]:
        """All rows of *relation* holding *value* at *position*."""
        buckets = self._buckets.get(relation)
        if buckets is None:
            return ()
        entry = buckets.get((position, value))
        if entry is None:
            return ()
        return entry[0]

    # ------------------------------------------------------------------
    # Delta machinery
    # ------------------------------------------------------------------

    def begin_round(self) -> Dict[str, range]:
        """Advance the round boundary; return the newly visible windows.

        The returned delta maps each relation to the range of row
        numbers added since the previous ``begin_round()`` — on the
        first call, every seeded row; ``tuples(relation)[i]`` is row
        ``i``.  Relations with no new rows are absent.
        """
        delta: Dict[str, range] = {}
        for relation, rows in self._rows.items():
            seen = self._visible.get(relation, 0)
            if seen < len(rows):
                delta[relation] = range(seen, len(rows))
                self._visible[relation] = len(rows)
        return delta

    def round_view(self) -> _RoundView:
        """A MatchSource frozen at the current round boundary."""
        return _RoundView(self)

    def fork(self) -> "TriggerIndex":
        """An independent copy, for disjunctive-chase branch forks.

        Copy-on-write: the clone shares every relation's row list, row
        set and bucket map, and both sides mark every relation shared,
        since the parent keeps writing too (the last disjunct's child
        inherits it).  A side's first write to a shared relation copies
        that relation's maps (:meth:`_append_shared`), so adds and round
        rotations on either side never show through to the other, and
        a fork costs O(relations).
        """
        clone = TriggerIndex.__new__(TriggerIndex)
        clone._rows = dict(self._rows)
        clone._row_sets = dict(self._row_sets)
        clone._buckets = dict(self._buckets)
        clone._visible = dict(self._visible)
        clone._count = self._count
        clone._cow = dict.fromkeys(self._rows)
        self._cow = dict.fromkeys(self._rows)
        return clone


def match_atoms_delta(
    atoms: Sequence[Atom],
    source,
    delta: Delta,
    guards: Sequence[Guard] = (),
    initial: Optional[Mapping[Var, Value]] = None,
) -> Iterator[Dict[Var, Value]]:
    """Yield the bindings of *atoms* over *source* that use a delta fact.

    *source* is a :meth:`TriggerIndex.round_view`, whose sequences know
    their rows' numbers; *delta* maps relation names to the windows of
    row numbers new since the previous round, as
    :meth:`TriggerIndex.begin_round` returns them.  The yields are
    exactly the bindings ``match_atoms(atoms, source, guards, initial)``
    would produce whose instantiated premise includes at least one delta
    row — **in the same relative order** (see the module docstring for
    why that matters and how the pruning stays order-preserving).  The
    search pays for the triggers it finds: when a premise's only atom
    with delta rows is placed last, each atom placed before it reads
    only the rows that join those delta rows (the semi-join cut of
    :func:`repro.logic.matching._backtrack`).

    With an empty delta nothing is yielded; a delta covering the whole
    source makes this equivalent to ``match_atoms``.
    """
    return _backtrack(
        [(atom.relation, atom.terms) for atom in atoms],
        source,
        dict(initial) if initial else {},
        guards,
        delta=delta,
    )
