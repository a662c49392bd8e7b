"""DuckDB-backed fact store behind the same ``InstanceStore`` protocol.

DuckDB is an *optional* dependency: this module always imports, and
:func:`duckdb_available` reports whether the wheel is present.
Constructing a :class:`DuckDbStore` without it raises a
:class:`~repro.store.StoreError` with an actionable message — callers
(tests, CI lanes, ``open_store``) gate on availability rather than on
import errors.

The store shares its entire implementation with ``SqliteStore`` via
:class:`repro.store.sqlbase.SqlStoreBase`; only the dialect hooks
differ:

* relation tables declare a table-level ``UNIQUE`` constraint over all
  columns — DuckDB's ``INSERT OR IGNORE`` deduplicates against
  constraints, not standalone unique indexes;
* inserted-row counts come from the statement's result row (DuckDB
  reports the change count as a one-row result rather than via the
  DB-API ``rowcount``, which older versions pin at -1).

Everything observable — the tagged cell encoding, set semantics, the
streaming content digest — is byte-identical to the SQLite and memory
backends; ``tests/unit/test_store_conformance.py`` runs the full suite
against this class when the wheel is installed, and
``tests/unit/test_digest_regression.py`` pins cross-backend digests.
"""

from __future__ import annotations

from typing import List, Tuple

from .base import StoreError
from .sqlbase import SqlStoreBase

try:  # pragma: no cover - exercised only where the wheel is installed
    import duckdb as _duckdb
except ImportError:  # pragma: no cover
    _duckdb = None

__all__ = ["DuckDbStore", "duckdb_available"]


def duckdb_available() -> bool:
    """True when the optional ``duckdb`` package is importable."""
    return _duckdb is not None


class DuckDbStore(SqlStoreBase):
    """Facts in a DuckDB database (``:memory:`` or on disk).

    Same protocol, same encoding, same digest as ``SqliteStore`` — a
    columnar engine with vectorized joins behind the identical store
    spec surface (``duckdb`` / ``duckdb:path``).  Requires the optional
    ``duckdb`` package.
    """

    dialect = "duckdb"

    def __init__(self, path: str = ":memory:", *, fresh: bool = False) -> None:
        """Open (or create) the store at *path*."""
        if _duckdb is None:
            raise StoreError(
                "the duckdb store backend requires the optional 'duckdb' "
                "package; install it or use the sqlite/memory backends"
            )
        super().__init__(path, fresh=fresh)

    def _connect(self, path: str):
        return _duckdb.connect(path)

    def _table_names(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT table_name FROM information_schema.tables "
            "WHERE table_schema = 'main'"
        ).fetchall()
        return [name for (name,) in rows]

    def _create_relation_table(self, tbl: str, arity: int) -> None:
        cols = ", ".join(f"c{i} TEXT NOT NULL" for i in range(arity))
        all_cols = ", ".join(f"c{i}" for i in range(arity))
        self._conn.execute(
            f"CREATE TABLE {tbl} ({cols}, UNIQUE ({all_cols}))"
        )
        for i in range(1, arity):
            self._conn.execute(f"CREATE INDEX {tbl}_c{i} ON {tbl} (c{i})")

    def _exec_insert(self, sql: str, params: Tuple[object, ...]) -> int:
        cur = self._conn.execute(sql, params)
        row = cur.fetchone()
        return int(row[0]) if row else 0

    def _begin(self) -> None:
        self._conn.execute("BEGIN TRANSACTION")
