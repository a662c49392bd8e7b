"""Shared machinery for SQL-backed fact stores (SQLite, DuckDB).

Both relational backends keep facts out of the Python heap behind the
same layout — a ``_catalog`` mapping relation names to generated table
names, one table per relation with TEXT columns ``c0..c{arity-1}``,
set semantics enforced by a unique constraint over all columns — and
the same injective tagged-value cell encoding (``i:``/``s:``/``n:``).
Everything that is plain portable SQL lives here; the per-dialect
differences (connection construction, DDL idioms, how inserted-row
counts are obtained) are narrow hooks the concrete stores override.

The layout invariants every subclass must preserve, because the SQL
plan compiler (:mod:`repro.store.sqlplan`) compiles against them:

* cells are encoded with :func:`encode_value` (injective, so ``=``,
  ``<>``, and prefix tests on cells are sound value comparisons);
* each relation table exposes a monotonically increasing ``rowid``
  (never reused — the stores never delete), which the semi-naive chase
  uses as its per-relation round watermark;
* ``INSERT OR IGNORE`` against the all-columns unique constraint is
  the deduplication primitive.

The digest is computed *streamingly*: one relation at a time, rows
sorted in Python by the value sort key, fed to
:class:`repro.facts.FactDigest`.  Because the relation name leads the
fact sort key and relations are visited in sorted-name order, this
equals the digest of the globally sorted fact set — byte-identical to
``MemoryStore`` and across every SQL backend.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..facts import Fact, FactDigest
from ..terms import Const, Null, Value
from .base import StoreError

if TYPE_CHECKING:
    from ..instance import Instance

_CATALOG_SCHEMA = """
CREATE TABLE IF NOT EXISTS _catalog (
    relation TEXT PRIMARY KEY,
    tbl      TEXT NOT NULL UNIQUE,
    arity    INTEGER NOT NULL
)
"""


def encode_value(value: Value) -> str:
    """Encode one value as tagged text for a column cell."""
    if isinstance(value, Const):
        payload = value.value
        if isinstance(payload, int) and not isinstance(payload, bool):
            return f"i:{payload}"
        return f"s:{payload}"
    if isinstance(value, Null):
        return f"n:{value.name}"
    raise TypeError(f"cannot store non-value {value!r}")


def decode_value(cell: str) -> Value:
    """Invert :func:`encode_value`."""
    tag, payload = cell[0], cell[2:]
    if tag == "i":
        return Const(int(payload))
    if tag == "s":
        return Const(payload)
    if tag == "n":
        return Null(payload)
    raise ValueError(f"unknown value tag in cell {cell!r}")


class _DecodedCells(dict):
    """Cell → value, decoding each distinct cell on first lookup."""

    def __missing__(self, cell: str) -> Value:
        value = self[cell] = decode_value(cell)
        return value


class SqlStoreBase:
    """Facts in a relational database; dialect details in subclasses.

    Satisfies the full :class:`~repro.store.InstanceStore` protocol, so
    premise matching, the chases, and the ``Instance`` facade run
    against any subclass unmodified.  Pass a filesystem *path* to spill
    past RAM; ``fresh=True`` drops any prior contents at that path
    first.
    """

    #: Dialect tag subclasses set (``"sqlite"``/``"duckdb"``).
    dialect = "sql"

    def __init__(self, path: str = ":memory:", *, fresh: bool = False) -> None:
        """Open (or create) the store at *path*."""
        self._conn = self._connect(path)
        self._configure()
        if fresh:
            self._drop_all()
        self._conn.execute(_CATALOG_SCHEMA)
        self._tables: Dict[str, Tuple[str, int]] = {
            relation: (tbl, arity)
            for relation, tbl, arity in self._conn.execute(
                "SELECT relation, tbl, arity FROM _catalog"
            ).fetchall()
        }
        self._count: Optional[int] = None
        self._frozen = False

    # ------------------------------------------------------------------
    # Dialect hooks
    # ------------------------------------------------------------------

    def _connect(self, path: str):
        """Open the backend connection for *path*."""
        raise NotImplementedError

    def _configure(self) -> None:
        """Apply per-connection settings (pragmas); default is none."""

    def _table_names(self) -> List[str]:
        """Names of every table currently in the database."""
        raise NotImplementedError

    def _create_relation_table(self, tbl: str, arity: int) -> None:
        """Create *tbl* with TEXT columns ``c0..c{arity-1}``.

        Must install an all-columns uniqueness constraint that
        ``INSERT OR IGNORE`` deduplicates against.
        """
        raise NotImplementedError

    def _exec_insert(self, sql: str, params: Tuple[object, ...]) -> int:
        """Run one INSERT; return how many rows were actually inserted."""
        cur = self._conn.execute(sql, params)
        return max(cur.rowcount, 0)

    def _begin(self) -> None:
        self._conn.execute("BEGIN")

    def _commit(self) -> None:
        self._conn.execute("COMMIT")

    def _rollback(self) -> None:
        self._conn.execute("ROLLBACK")

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------

    def _drop_all(self) -> None:
        for name in self._table_names():
            self._conn.execute(f'DROP TABLE IF EXISTS "{name}"')

    def ensure_relation(self, relation: str, arity: int) -> Tuple[str, int]:
        """Create (or fetch) the table for *relation*; returns (tbl, arity).

        A relation has one fixed arity per store — reusing a name at a
        different arity raises :class:`~repro.store.StoreError` (the
        in-memory representation tolerates this; the relational layout
        cannot).
        """
        known = self._tables.get(relation)
        if known is not None:
            if known[1] != arity:
                raise StoreError(
                    f"relation {relation!r} already stored at arity {known[1]}, "
                    f"cannot also use arity {arity}"
                )
            return known
        tbl = f"r{len(self._tables)}"
        self._create_relation_table(tbl, arity)
        self._conn.execute(
            "INSERT INTO _catalog (relation, tbl, arity) VALUES (?, ?, ?)",
            (relation, tbl, arity),
        )
        self._tables[relation] = (tbl, arity)
        return (tbl, arity)

    def table_for(self, relation: str) -> Optional[Tuple[str, int]]:
        """(table name, arity) for *relation*, or None when absent."""
        return self._tables.get(relation)

    def max_rowid(self, tbl: str) -> int:
        """Current high-water ``rowid`` of *tbl* (0 when empty).

        The semi-naive SQL chase snapshots these per round: rows with
        ``rowid`` above the previous snapshot are exactly the round's
        delta, because both backends assign monotonically increasing
        rowids to appends and the stores never delete.
        """
        (value,) = self._conn.execute(
            f"SELECT MAX(rowid) FROM {tbl}"
        ).fetchone()
        return int(value) if value is not None else 0

    def watermarks(self) -> Dict[str, int]:
        """Every relation's current high-water ``rowid`` (see :meth:`max_rowid`)."""
        return {
            relation: self.max_rowid(tbl)
            for relation, (tbl, _) in self._tables.items()
        }

    def facts_since(self, watermarks: Mapping[str, int]) -> List[Fact]:
        """The facts in rows above *watermarks* (a relation absent: 0).

        What a chase added to the store since :meth:`watermarks` was
        read, one relation at a time in sorted-name order.  Each
        distinct cell is decoded once.
        """
        cells = _DecodedCells()
        added: List[Fact] = []
        for relation in sorted(self._tables):
            tbl, _ = self._tables[relation]
            rows = self._conn.execute(
                f"SELECT * FROM {tbl} WHERE rowid > ?",
                (watermarks.get(relation, 0),),
            ).fetchall()
            added.extend(
                Fact(relation, tuple(map(cells.__getitem__, row))) for row in rows
            )
        return added

    @property
    def connection(self):
        """The underlying connection (the SQL chase executes on it)."""
        return self._conn

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise StoreError(
                f"{type(self).__name__} is frozen; build a new store "
                "instead of mutating a snapshot"
            )

    def add(self, f: Fact) -> bool:
        """Insert one fact; return True when it was new."""
        self._check_mutable()
        if not isinstance(f, Fact):
            raise TypeError(f"expected Fact, got {f!r}")
        tbl, arity = self.ensure_relation(f.relation, f.arity)
        placeholders = ", ".join("?" for _ in range(arity))
        added = self._exec_insert(
            f"INSERT OR IGNORE INTO {tbl} VALUES ({placeholders})",
            tuple(encode_value(v) for v in f.values),
        )
        if added and self._count is not None:
            self._count += added
        return bool(added)

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Bulk insert inside one transaction; return how many were new."""
        self._check_mutable()
        self._begin()
        added = 0
        try:
            for f in facts:
                if not isinstance(f, Fact):
                    raise TypeError(f"expected Fact, got {f!r}")
                tbl, arity = self.ensure_relation(f.relation, f.arity)
                placeholders = ", ".join("?" for _ in range(arity))
                added += self._exec_insert(
                    f"INSERT OR IGNORE INTO {tbl} VALUES ({placeholders})",
                    tuple(encode_value(v) for v in f.values),
                )
        except BaseException:
            self._rollback()
            raise
        self._commit()
        if self._count is not None:
            self._count += added
        return added

    # ------------------------------------------------------------------
    # The matching protocol
    # ------------------------------------------------------------------

    def relation_names(self) -> Tuple[str, ...]:
        """Sorted names of relations holding at least one fact."""
        names = []
        for relation, (tbl, _) in self._tables.items():
            row = self._conn.execute(
                f"SELECT 1 FROM {tbl} LIMIT 1"
            ).fetchone()
            if row is not None:
                names.append(relation)
        return tuple(sorted(names))

    def tuples(self, relation: str) -> List[Tuple[Value, ...]]:
        """All tuples of *relation*, decoded (empty list when absent)."""
        known = self._tables.get(relation)
        if known is None:
            return []
        tbl, _ = known
        return [
            tuple(decode_value(cell) for cell in row)
            for row in self._conn.execute(f"SELECT * FROM {tbl}").fetchall()
        ]

    def tuples_at(
        self, relation: str, position: int, value: Value
    ) -> Tuple[Tuple[Value, ...], ...]:
        """Tuples of *relation* carrying *value* at *position* (indexed)."""
        known = self._tables.get(relation)
        if known is None:
            return ()
        tbl, arity = known
        if not 0 <= position < arity:
            return ()
        rows = self._conn.execute(
            f"SELECT * FROM {tbl} WHERE c{position} = ?",
            (encode_value(value),),
        ).fetchall()
        return tuple(
            tuple(decode_value(cell) for cell in row) for row in rows
        )

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------

    def facts(self) -> Iterator[Fact]:
        """Stream every fact, one relation at a time."""
        for relation in sorted(self._tables):
            tbl, _ = self._tables[relation]
            for row in self._conn.execute(f"SELECT * FROM {tbl}").fetchall():
                yield Fact(relation, tuple(decode_value(cell) for cell in row))

    def fact_set(self) -> FrozenSet[Fact]:
        """Materialize the facts as a frozen set (pulls rows into RAM)."""
        return frozenset(self.facts())

    def __len__(self) -> int:
        if self._count is None:
            total = 0
            for tbl, _ in self._tables.values():
                (n,) = self._conn.execute(
                    f"SELECT COUNT(*) FROM {tbl}"
                ).fetchone()
                total += n
            self._count = total
        return self._count

    def __contains__(self, f: object) -> bool:
        if not isinstance(f, Fact):
            return False
        known = self._tables.get(f.relation)
        if known is None or known[1] != f.arity:
            return False
        tbl, arity = known
        where = " AND ".join(f"c{i} = ?" for i in range(arity))
        row = self._conn.execute(
            f"SELECT 1 FROM {tbl} WHERE {where} LIMIT 1",
            tuple(encode_value(v) for v in f.values),
        ).fetchone()
        return row is not None

    def active_domain(self) -> FrozenSet[Value]:
        """All values occurring in the store (distinct per column)."""
        values: Set[Value] = set()
        for tbl, arity in self._tables.values():
            for i in range(arity):
                for (cell,) in self._conn.execute(
                    f"SELECT DISTINCT c{i} FROM {tbl}"
                ).fetchall():
                    values.add(decode_value(cell))
        return frozenset(values)

    def nulls(self) -> FrozenSet[Null]:
        """All labeled nulls occurring in the store."""
        nulls: Set[Null] = set()
        for tbl, arity in self._tables.values():
            for i in range(arity):
                for (cell,) in self._conn.execute(
                    f"SELECT DISTINCT c{i} FROM {tbl} WHERE c{i} LIKE 'n:%'"
                ).fetchall():
                    nulls.add(Null(cell[2:]))
        return frozenset(nulls)

    def digest(self) -> str:
        """Streaming content digest, byte-identical to ``MemoryStore``.

        Relations are visited in sorted-name order and each relation's
        rows are sorted in Python by the value sort key — equivalent to
        the global fact sort because the relation name leads the fact
        sort key.  (Sorting on the *encoded* text in SQL would be
        unsound: the tag/separator bytes do not preserve the value
        order.)
        """
        acc = FactDigest()
        for relation in sorted(self._tables):
            tbl, _ = self._tables[relation]
            rows = [
                Fact(relation, tuple(decode_value(cell) for cell in row))
                for row in self._conn.execute(f"SELECT * FROM {tbl}").fetchall()
            ]
            acc.update_sorted(rows)
        return acc.hexdigest()

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has run."""
        return self._frozen

    def freeze(self) -> None:
        """Make the store immutable at the facade level (idempotent)."""
        self._frozen = True

    def as_instance(self) -> "Instance":
        """Freeze and wrap *this* store as an ``Instance`` (no copy)."""
        from ..instance import Instance

        self.freeze()
        return Instance(store=self)

    def snapshot(self) -> "Instance":
        """A frozen in-memory copy of the current contents."""
        from ..instance import Instance

        return Instance(self.facts())

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()
