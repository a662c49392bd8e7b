"""The in-memory store: today's ``Instance`` internals, extracted.

``MemoryStore`` is the historical representation verbatim — a fact set,
a per-relation tuple map, an eagerly maintained active domain, and the
lazily built per-(relation, position, value) hash index — moved out of
``Instance`` so the facade can run against any backend.  Behavior is
intentionally identical: ``Instance`` over a ``MemoryStore`` matches,
chases, hashes, and digests exactly as the pre-store code did.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Tuple,
)

from ..facts import Fact, digest_facts
from ..schema import Schema
from ..terms import Null, Value, value_sort_key
from .base import StoreError, check_mutable

if TYPE_CHECKING:
    from ..instance import Instance


class MemoryStore:
    """Facts in Python sets — the default backend.

    Mutable until :meth:`freeze`; the chase's :class:`InstanceBuilder`
    wraps a mutable one, ``Instance`` wraps a frozen one.  An optional
    *schema* validates relation membership and arities on insert, which
    is where ``Instance(facts, schema=...)``'s validation now lives.
    """

    __slots__ = ("_facts", "_relations", "_values", "_nulls", "_index", "_frozen", "_schema")

    def __init__(self, schema: Optional[Schema] = None) -> None:
        """Start empty and mutable; *schema* adds arity validation."""
        self._facts: set = set()
        self._relations: Dict[str, set] = {}
        self._values: set = set()
        self._nulls: set = set()
        self._index: Optional[Dict[str, dict]] = None
        self._frozen = False
        self._schema = schema

    @classmethod
    def from_instance(cls, instance: "Instance") -> "MemoryStore":
        """A mutable store pre-seeded with *instance*'s facts and domain.

        The fast path the chase uses every time it builds an
        :class:`~repro.instance.InstanceBuilder` from an input instance.
        Facts are inserted in *sorted* order: set iteration order in
        CPython depends on insertion history, and the chase enumerates
        triggers (and therefore names fresh nulls) in that order —
        canonical seeding is what makes a chase over a SQLite-backed
        input fact-for-fact identical to one over a memory-backed input
        instead of merely hom-equivalent.
        """
        store = cls()
        store._facts = set(sorted(instance.facts, key=Fact.sort_key))
        store._values = set(sorted(instance.active_domain, key=value_sort_key))
        store._nulls = set(instance.nulls)
        store._relations = {
            rel: set(
                sorted(
                    instance.tuples(rel),
                    key=lambda t: tuple(value_sort_key(v) for v in t),
                )
            )
            for rel in instance.relation_names
        }
        return store

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, f: Fact) -> bool:
        """Add a fact; return True when it was new."""
        if self._frozen:
            check_mutable(self)
        if not isinstance(f, Fact):
            raise TypeError(f"expected Fact, got {f!r}")
        if self._schema is not None:
            if f.relation not in self._schema:
                raise ValueError(
                    f"fact {f} uses relation outside schema {self._schema!r}"
                )
            if self._schema.arity(f.relation) != f.arity:
                raise ValueError(
                    f"fact {f} has arity {f.arity}, schema says "
                    f"{self._schema.arity(f.relation)}"
                )
        if f in self._facts:
            return False
        self._facts.add(f)
        self._values.update(f.values)
        for v in f.values:
            if isinstance(v, Null):
                self._nulls.add(v)
        self._relations.setdefault(f.relation, set()).add(f.values)
        self._index = None
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Add many facts; return how many were new."""
        return sum(1 for f in facts if self.add(f))

    # ------------------------------------------------------------------
    # The matching protocol
    # ------------------------------------------------------------------

    def relation_names(self) -> Tuple[str, ...]:
        """Sorted names of relations with at least one fact."""
        return tuple(sorted(self._relations))

    def tuples(self, relation: str):
        """The tuples of *relation* (a live set view; empty when absent)."""
        if self._frozen:
            return self._relations.get(relation, frozenset())
        return self._relations.get(relation, set())

    def tuples_at(
        self, relation: str, position: int, value: Value
    ) -> Tuple[Tuple[Value, ...], ...]:
        """Tuples of *relation* carrying *value* at *position*.

        Backed by the lazily built per-(relation, position, value) hash
        index inherited from the pre-store ``Instance``; mutation
        invalidates it, so hot use is on frozen stores.
        """
        if self._index is None:
            index: Dict[str, Dict[Tuple[int, Value], list]] = {}
            for rel, tuples in self._relations.items():
                buckets: Dict[Tuple[int, Value], list] = {}
                for values in tuples:
                    for pos, val in enumerate(values):
                        buckets.setdefault((pos, val), []).append(values)
                index[rel] = buckets
            self._index = index
        buckets = self._index.get(relation)
        if buckets is None:
            return ()
        return tuple(buckets.get((position, value), ()))

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------

    def facts(self) -> Iterator[Fact]:
        """Iterate every fact (set order; callers sort when needed)."""
        return iter(self._facts)

    def fact_set(self) -> FrozenSet[Fact]:
        """The facts as a frozen set (zero-copy once frozen)."""
        if self._frozen and isinstance(self._facts, frozenset):
            return self._facts
        return frozenset(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, f: object) -> bool:
        return f in self._facts

    def active_domain(self) -> FrozenSet[Value]:
        """All values occurring in the store."""
        if self._frozen and isinstance(self._values, frozenset):
            return self._values
        return frozenset(self._values)

    def values_view(self) -> set:
        """The live (mutable) active-domain set, for builder hot paths."""
        return self._values

    def nulls(self) -> FrozenSet[Null]:
        """All labeled nulls occurring in the store."""
        if self._frozen and isinstance(self._nulls, frozenset):
            return self._nulls
        return frozenset(self._nulls)

    def digest(self) -> str:
        """Content digest of the fact set (hex SHA-256, order-free)."""
        return digest_facts(self._facts)

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has run."""
        return self._frozen

    def freeze(self) -> None:
        """Make the store immutable (idempotent)."""
        if self._frozen:
            return
        self._relations = {
            rel: frozenset(tuples) for rel, tuples in self._relations.items()
        }
        self._facts = frozenset(self._facts)
        self._values = frozenset(self._values)
        self._nulls = frozenset(self._nulls)
        self._frozen = True

    def _derived(
        self,
        facts: FrozenSet[Fact],
        relations: Dict[str, FrozenSet[Tuple[Value, ...]]],
        values: FrozenSet[Value],
        nulls: FrozenSet[Null],
    ) -> "MemoryStore":
        """A frozen store over already-frozen contents (no schema: like
        every derived instance, it is not re-validated)."""
        store = MemoryStore.__new__(MemoryStore)
        store._facts = facts
        store._relations = relations
        store._values = values
        store._nulls = nulls
        store._index = None
        store._frozen = True
        store._schema = None
        return store

    def extended(self, facts: Iterable[Fact]) -> "MemoryStore":
        """A frozen store holding this frozen store's facts plus *facts*.

        Structure-sharing, for the disjunctive chase's branch worlds: a
        relation *facts* does not touch keeps its frozen tuple set, and
        the domain and null sets are shared unless a value is new.  The
        copies that remain (the fact set, each touched relation's set)
        run in C over stored hashes, so a child world costs one pass
        per new fact instead of one :meth:`add` per inherited fact.
        Returns ``self`` when every fact is already present.
        """
        if not self._frozen:
            raise StoreError("extended() derives from a frozen store only")
        base = self._facts
        new = [f for f in facts if f not in base]
        if not new:
            return self
        relations = dict(self._relations)
        grouped: Dict[str, list] = {}
        for f in new:
            if not isinstance(f, Fact):
                raise TypeError(f"expected Fact, got {f!r}")
            grouped.setdefault(f.relation, []).append(f.values)
        for rel, rows in grouped.items():
            old = relations.get(rel)
            relations[rel] = frozenset(rows) if old is None else old.union(rows)
        fresh = {v for f in new for v in f.values}
        fresh.difference_update(self._values)
        values, nulls = self._values, self._nulls
        if fresh:
            values = values.union(fresh)
            fresh_nulls = [v for v in fresh if isinstance(v, Null)]
            if fresh_nulls:
                nulls = nulls.union(fresh_nulls)
        return self._derived(base.union(new), relations, values, nulls)

    def restricted(self, relations: Iterable[str]) -> "MemoryStore":
        """A frozen store holding only this frozen store's *relations*.

        Kept relations share their frozen tuple sets; only the fact set
        and the domain are recomputed.  Returns ``self`` when no
        relation is dropped.
        """
        if not self._frozen:
            raise StoreError("restricted() derives from a frozen store only")
        wanted = set(relations)
        kept = {
            rel: rows for rel, rows in self._relations.items() if rel in wanted
        }
        if len(kept) == len(self._relations):
            return self
        values: set = set()
        for rows in kept.values():
            for row in rows:
                values.update(row)
        return self._derived(
            frozenset(f for f in self._facts if f.relation in kept),
            kept,
            frozenset(values),
            frozenset(v for v in values if isinstance(v, Null)),
        )

    def snapshot(self) -> "Instance":
        """Freeze a *copy* of the current contents into an ``Instance``."""
        from ..instance import Instance

        return Instance(self._facts)

    def close(self) -> None:
        """No resources to release for the in-memory backend."""
