"""The ``InstanceStore`` protocol: what a fact backend must provide.

Every layer above the instance core — premise matching, both chases,
hom search, the engine cache — already talks to fact storage through a
narrow surface: per-relation tuple iteration, the position-indexed
``tuples_at`` candidate lookup that :func:`repro.logic.matching._bucket`
duck-types, membership, and digesting.  This module names that surface
so it can be implemented twice: :class:`~repro.store.MemoryStore`
(the historical in-heap representation, extracted from ``Instance``)
and :class:`~repro.store.SqliteStore` (one table per relation, scaling
past the Python heap).

A store has a two-phase life cycle:

1. **mutable** — ``add``/``add_all`` accept facts and deduplicate;
2. **frozen** — after :meth:`InstanceStore.freeze`, mutation raises and
   the store may back an immutable :class:`~repro.instance.Instance`.

Freezing is one-way.  ``Instance`` only ever wraps frozen stores, which
is what keeps its hash/equality/digest semantics sound.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Collection,
    FrozenSet,
    Iterable,
    Iterator,
    Sequence,
    Tuple,
)

try:  # Python 3.8+: typing.Protocol is available everywhere we support
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient interpreters only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from ..errors import ReproError
from ..facts import Fact
from ..terms import Null, Value

if TYPE_CHECKING:  # avoid the instance<->store import cycle at runtime
    from ..instance import Instance


class StoreError(ReproError):
    """A backend rejected an operation (frozen store, arity clash, ...)."""


@runtime_checkable
class InstanceStore(Protocol):
    """Protocol every fact backend implements.

    The matching layer consumes only ``tuples``/``tuples_at`` (duck
    typed); the facade consumes the rest.  Implementations must agree
    on semantics exactly:

    * ``add`` deduplicates and reports whether the fact was new;
    * ``digest`` equals :func:`repro.facts.digest_facts` of the fact
      set, independent of insertion order and backend;
    * ``freeze`` is idempotent and one-way.
    """

    def add(self, f: Fact) -> bool:
        """Insert one fact; return True when it was new."""
        ...

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; return how many were new."""
        ...

    def relation_names(self) -> Tuple[str, ...]:
        """Sorted names of relations holding at least one fact."""
        ...

    def tuples(self, relation: str) -> Collection[Tuple[Value, ...]]:
        """All tuples of *relation* (empty collection when absent)."""
        ...

    def tuples_at(
        self, relation: str, position: int, value: Value
    ) -> Sequence[Tuple[Value, ...]]:
        """Tuples of *relation* carrying *value* at *position*."""
        ...

    def facts(self) -> Iterator[Fact]:
        """Iterate every fact (no order guarantee)."""
        ...

    def fact_set(self) -> FrozenSet[Fact]:
        """The facts as a frozen set (materializes for disk backends)."""
        ...

    def __len__(self) -> int:
        """Number of facts."""
        ...

    def __contains__(self, f: object) -> bool:
        """Fact membership."""
        ...

    def active_domain(self) -> FrozenSet[Value]:
        """Every value occurring in some fact."""
        ...

    def nulls(self) -> FrozenSet[Null]:
        """Every labeled null occurring in some fact."""
        ...

    def digest(self) -> str:
        """Content digest (hex SHA-256); backend- and order-independent."""
        ...

    def freeze(self) -> None:
        """Make the store immutable (idempotent; mutation then raises)."""
        ...

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has run."""
        ...

    def snapshot(self) -> "Instance":
        """A frozen in-memory :class:`Instance` of the current contents."""
        ...

    def close(self) -> None:
        """Release backend resources (no-op for in-memory stores)."""
        ...


def check_mutable(store: InstanceStore) -> None:
    """Raise :class:`StoreError` when *store* is frozen."""
    if store.frozen:
        raise StoreError(
            f"{type(store).__name__} is frozen; "
            "build a new store instead of mutating a snapshot"
        )
