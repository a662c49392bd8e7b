"""SQLite-backed fact store: one table per relation, tagged values.

``SqliteStore`` keeps facts out of the Python heap, which is what lets
the chase scale past in-memory instances (see ``benchmarks/bench_store.py``)
and gives the SQL plan compiler in :mod:`repro.store.sqlplan` something
to push ``INSERT ... SELECT`` statements into.  The design reuses the
SQLite conventions proven out by :mod:`repro.obs.registry` (SQL kept in
module-level schema strings, ``CREATE TABLE IF NOT EXISTS``, explicit
indexes) but holds one long-lived connection instead of per-call
connections: a store is scratch/working state for a single chase, not a
durable multi-process registry, and temp tables plus bulk transactions
need connection affinity.

All the dialect-independent machinery — the ``_catalog``, the tagged
value encoding, the matching protocol, the streaming digest — lives in
:class:`repro.store.sqlbase.SqlStoreBase`, shared with the DuckDB
backend; this module adds only what is SQLite-specific:

* pragmas tuned for scratch state (``synchronous=OFF``,
  ``journal_mode=MEMORY``) on an autocommit connection;
* per-relation-table DDL: a unique *index* over all columns (the
  ``INSERT OR IGNORE`` dedup target) plus a secondary index per
  non-leading column for the ``tuples_at`` candidate lookups.

The store's connection is its only one: a ``:memory:`` store is a
private database, so two in-memory stores in one process never see
each other's facts.
"""

from __future__ import annotations

import sqlite3
from typing import List

from .sqlbase import SqlStoreBase, decode_value, encode_value

__all__ = ["SqliteStore", "decode_value", "encode_value"]


class SqliteStore(SqlStoreBase):
    """Facts in a SQLite database (``:memory:`` or on disk).

    Satisfies the full :class:`~repro.store.InstanceStore` protocol, so
    premise matching, the chases, and the ``Instance`` facade run
    against it unmodified.  Pass a filesystem *path* to spill past RAM;
    ``fresh=True`` drops any prior contents at that path first.
    """

    dialect = "sqlite"

    def _connect(self, path: str) -> sqlite3.Connection:
        conn = sqlite3.connect(path, check_same_thread=False)
        conn.isolation_level = None  # autocommit; bulk ops BEGIN explicitly
        return conn

    def _configure(self) -> None:
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA journal_mode=MEMORY")

    def _table_names(self) -> List[str]:
        return [
            name
            for (name,) in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            ).fetchall()
        ]

    def _create_relation_table(self, tbl: str, arity: int) -> None:
        cols = ", ".join(f"c{i} TEXT NOT NULL" for i in range(arity))
        self._conn.execute(f"CREATE TABLE {tbl} ({cols})")
        all_cols = ", ".join(f"c{i}" for i in range(arity))
        self._conn.execute(
            f"CREATE UNIQUE INDEX {tbl}_row ON {tbl} ({all_cols})"
        )
        for i in range(1, arity):
            self._conn.execute(f"CREATE INDEX {tbl}_c{i} ON {tbl} (c{i})")
