"""Facts: the atomic unit shared by instances and stores.

A :class:`Fact` is one row ``R(v1, ..., vn)`` with values in
``Const ∪ Null``.  This module sits *below* both :mod:`repro.instance`
and :mod:`repro.store`: the facade (`Instance`) and every storage
backend exchange facts, so the type and its canonical serialization
live here rather than in either consumer.  ``repro.instance`` re-exports
``Fact``/``fact`` for compatibility — existing imports keep working.

The digest machinery is also here because *every* backend must produce
byte-identical digests for equal fact sets: :class:`FactDigest` is the
single incremental serializer both :class:`~repro.store.MemoryStore`
and :class:`~repro.store.SqliteStore` feed (in sorted-fact order), so
engine/registry cache keys stay stable across backends.
"""

from __future__ import annotations

import hashlib
import sys
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Tuple

from .terms import (
    Const,
    Null,
    Value,
    is_value,
    value_from_token,
    value_sort_key,
)

_VALUE_TYPES = (Const, Null)


class Fact(tuple):
    """A single fact ``R(v1, ..., vn)`` with values in ``Const ∪ Null``.

    Like the values it holds, a fact is a ``tuple`` subclass, here
    ``(relation, values)``, so hashing and equality run in C (DESIGN.md
    D13).
    """

    __slots__ = ()

    def __new__(cls, relation: str, values: Tuple[Value, ...]) -> "Fact":
        for v in values:
            if not isinstance(v, _VALUE_TYPES):
                raise TypeError(
                    f"fact {relation} contains non-value {v!r}; "
                    "facts hold Const/Null only (Var belongs in dependencies)"
                )
        return tuple.__new__(cls, (relation, values))

    relation = property(itemgetter(0), doc="The relation name.")
    values = property(itemgetter(1), doc="The values, one per position.")

    def __getnewargs__(self) -> tuple:
        return (self[0], self[1])

    def __repr__(self) -> str:
        return f"Fact(relation={self[0]!r}, values={self[1]!r})"

    @property
    def arity(self) -> int:
        """Number of positions in the fact."""
        return len(self.values)

    def nulls(self) -> Iterator[Null]:
        """Yield the nulls of the fact, with repetitions."""
        for v in self.values:
            if isinstance(v, Null):
                yield v

    def is_ground(self) -> bool:
        """True when every position holds a constant (no nulls)."""
        return all(isinstance(v, Const) for v in self.values)

    def substitute(self, mapping: Mapping[Value, Value]) -> "Fact":
        """Apply a value mapping (identity outside its domain)."""
        return Fact(self.relation, tuple(mapping.get(v, v) for v in self.values))

    def __str__(self) -> str:
        args = ", ".join(str(v) for v in self.values)
        return f"{self.relation}({args})"

    def sort_key(self) -> tuple:
        """A total order over facts with mixed constant/null values."""
        return (self.relation, tuple(value_sort_key(v) for v in self.values))


def fact(relation: str, *tokens: object) -> Fact:
    """Convenience constructor: ``fact("P", "a", "X", 3)``.

    Strings are interpreted by :func:`repro.terms.value_from_token`
    (lowercase/number = constant, uppercase = null); ints become constants;
    ``Const``/``Null`` objects pass through.  The relation name is
    interned, so the facts of one relation share one name object (and a
    pickle of them stores it once).
    """
    values = []
    for tok in tokens:
        if is_value(tok):
            values.append(tok)
        elif isinstance(tok, int):
            values.append(Const(tok))
        elif isinstance(tok, str):
            values.append(value_from_token(tok))
        else:
            raise TypeError(f"cannot build a fact value from {tok!r}")
    return Fact(sys.intern(relation), tuple(values))


def digest_value(value: Value) -> bytes:
    """Type-tagged serialization of one value for instance digests.

    ``Const(3)``, ``Const("3")`` and ``Null("3")`` must all serialize
    differently (``ci:``/``cs:``/``n:`` tags), otherwise distinct
    instances could collide on the engine's content-addressed cache keys.
    """
    if isinstance(value, Const):
        payload = value.value
        tag = b"ci:" if isinstance(payload, int) else b"cs:"
        return tag + str(payload).encode("utf-8") + b";"
    return b"n:" + value.name.encode("utf-8") + b";"


class FactDigest:
    """Incremental SHA-256 over facts, fed in ``Fact.sort_key`` order.

    Both store backends funnel through this class so a digest never
    depends on *where* the facts live — only on the sorted fact
    sequence.  Feeding facts out of order produces a different (wrong)
    digest; callers are responsible for the sort.  A per-relation sort
    is sufficient when relations are visited in sorted-name order,
    because the relation name is the leading component of the fact sort
    key — that is what lets :class:`~repro.store.SqliteStore` digest
    one relation at a time instead of materializing the instance.
    """

    def __init__(self) -> None:
        """Start an empty digest accumulator."""
        self._hash = hashlib.sha256()

    def update(self, f: Fact) -> None:
        """Feed one fact (callers guarantee sorted order)."""
        h = self._hash
        h.update(f.relation.encode("utf-8"))
        h.update(b"(")
        for v in f.values:
            h.update(digest_value(v))
        h.update(b")")

    def update_sorted(self, facts: Iterable[Fact]) -> None:
        """Sort *facts* and feed them all (one relation's worth, say)."""
        for f in sorted(facts, key=Fact.sort_key):
            self.update(f)

    def hexdigest(self) -> str:
        """The hex SHA-256 of everything fed so far."""
        return self._hash.hexdigest()


def digest_facts(facts: Iterable[Fact]) -> str:
    """Digest an arbitrary iterable of facts (sorted internally)."""
    acc = FactDigest()
    acc.update_sorted(facts)
    return acc.hexdigest()


# Backwards-compatible alias: pre-store code imported the serializer as
# a private helper from repro.instance, which re-exports this module.
_digest_value = digest_value
