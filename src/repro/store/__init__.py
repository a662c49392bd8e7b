"""Pluggable fact storage: the ``InstanceStore`` protocol and backends.

``Instance`` is a thin facade over a store.  Three backends ship:

* :class:`MemoryStore` — the historical in-heap representation
  (default; extracted from the pre-store ``Instance`` internals);
* :class:`SqliteStore` — one SQLite table per relation, for instances
  that should not live in the Python heap and for the set-at-a-time
  SQL chase (:func:`sql_chase` in :mod:`repro.store.sqlplan`);
* :class:`DuckDbStore` — the same relational layout on DuckDB's
  columnar engine (optional dependency; :func:`duckdb_available`
  reports whether the wheel is installed).

Use :func:`open_store` to construct a backend from a CLI-style spec
string: ``memory``, ``sqlite`` (in-memory database),
``sqlite:/path/to.db``, ``duckdb``, or ``duckdb:/path/to.db``.  See
``docs/STORES.md`` for the backend × chase-strategy matrix and the
SQL-chase fragment (dependencies outside it run on the tuple chase).

``sql_chase`` and friends are re-exported lazily: the plan compiler
imports the chase layer, which sits above this package, so an eager
import here would cycle.
"""

from __future__ import annotations

from .base import InstanceStore, StoreError
from .duckdb import DuckDbStore, duckdb_available
from .memory import MemoryStore
from .sqlbase import SqlStoreBase
from .sqlite import SqliteStore, decode_value, encode_value

__all__ = [
    "DuckDbStore",
    "InstanceStore",
    "MemoryStore",
    "SqlStoreBase",
    "SqliteStore",
    "StoreError",
    "CompiledTgd",
    "SqlChaseResult",
    "SqlPlanError",
    "compile_tgd",
    "decode_value",
    "duckdb_available",
    "encode_value",
    "in_sql_fragment",
    "open_store",
    "sql_chase",
]

#: Names resolved lazily from repro.store.sqlplan (PEP 562) — the plan
#: compiler imports layers above this package.
_SQLPLAN_NAMES = {
    "CompiledTgd",
    "SqlChaseResult",
    "SqlPlanError",
    "compile_tgd",
    "in_sql_fragment",
    "sql_chase",
}


def __getattr__(name: str):
    if name in _SQLPLAN_NAMES:
        from . import sqlplan

        return getattr(sqlplan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def open_store(spec: str, *, fresh: bool = False):
    """Build a store from a spec string (the CLI's ``--store`` values).

    ``memory`` → :class:`MemoryStore`; ``sqlite`` → in-memory SQLite;
    ``sqlite:<path>`` → SQLite at *path* (``fresh=True`` recreates it);
    ``duckdb`` / ``duckdb:<path>`` → the same on DuckDB (raises
    :class:`StoreError` when the optional wheel is absent).
    """
    if spec == "memory":
        return MemoryStore()
    if spec == "sqlite":
        return SqliteStore(":memory:")
    if spec.startswith("sqlite:"):
        path = spec[len("sqlite:"):]
        if not path:
            return SqliteStore(":memory:")
        return SqliteStore(path, fresh=fresh)
    if spec == "duckdb":
        return DuckDbStore(":memory:")
    if spec.startswith("duckdb:"):
        path = spec[len("duckdb:"):]
        if not path:
            return DuckDbStore(":memory:")
        return DuckDbStore(path, fresh=fresh)
    raise ValueError(
        f"unknown store spec {spec!r}; expected 'memory', 'sqlite', "
        "'sqlite:<path>', 'duckdb', or 'duckdb:<path>'"
    )
