"""Digest regression pins: identical across backends and over time.

The engine's content-addressed caches, the run registry, and CI's
store-smoke diff all key on ``Instance.digest()``.  These tests pin the
exact hex values for a catalogue of deterministic instances so that any
backend or encoding change that silently shifts the digest fails loudly
— including the SqliteStore streaming digest, which must be
byte-identical to the in-memory one.

Only *deterministic* artifacts are pinned: parsed instances, full-tgd
chase results, and canonically renamed (``freshen_nulls``) chase
results.  Raw *tuple* chase outputs with minted nulls are hash-seed
dependent in their null names and must never be pinned directly — but
raw *SQL* chase outputs are pinnable even with existentials, because
SQL-minted null names come from the deterministic trigger numbering
(``base + (trig_n-1)*stride + j``), and the pin must hold across
evaluation modes (delta/naive) and SQL backends.
"""

import pytest

from repro.chase.standard import chase
from repro.instance import Instance
from repro.parsing.parser import parse_dependencies
from repro.store import (
    DuckDbStore,
    MemoryStore,
    SqliteStore,
    duckdb_available,
)
from repro.store.sqlplan import sql_chase

PINNED = {
    "P(a, b, c)":
        "b5d3ec18ddd0ea522d4675df890f6e64bb959504ca7ae3f428b9fcc04810e69e",
    "Q(a, b), R(b, c)":
        "761db2c676887c078a2a463a112ac5c53869d15fc1614da178b6cd800603517b",
    "P(a, N0), Q(1, 2), R(x, x)":
        "c484458b6f8aab3ec6e7b8f769d0777fc4284ef53571ef510c65854c259ebf0b",
    "Emp(alice, 1), Emp(bob, 2), Dept(1, eng), Dept(2, ops)":
        "4bae107a8147f46f3fffaa99388bcb9c30daeab55d8fc69860159764283d0b93",
}

EMPTY_DIGEST = (
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


@pytest.mark.parametrize("text", sorted(PINNED))
def test_parsed_instance_digest_pinned(text):
    assert Instance.parse(text).digest() == PINNED[text]


@pytest.mark.parametrize("text", sorted(PINNED))
def test_digest_identical_across_backends(text):
    facts = Instance.parse(text).facts
    memory = MemoryStore()
    memory.add_all(facts)
    sqlite = SqliteStore(":memory:")
    sqlite.add_all(facts)
    assert memory.digest() == PINNED[text]
    assert sqlite.digest() == PINNED[text]


@pytest.mark.parametrize("text", sorted(PINNED))
def test_digest_insertion_order_independent(text):
    facts = sorted(Instance.parse(text).facts, key=lambda f: f.sort_key())
    for backend in (MemoryStore, lambda: SqliteStore(":memory:")):
        forward, backward = backend(), backend()
        forward.add_all(facts)
        backward.add_all(reversed(facts))
        assert forward.digest() == backward.digest() == PINNED[text]


def test_empty_digest_pinned():
    assert Instance().digest() == EMPTY_DIGEST
    assert MemoryStore().digest() == EMPTY_DIGEST
    assert SqliteStore(":memory:").digest() == EMPTY_DIGEST


def test_full_tgd_chase_digest_pinned():
    # Full tgds mint no nulls, so the chase result digest is stable.
    source = Instance.parse("P(a, b, c), P(a, b, d)")
    result = chase(source, parse_dependencies("P(x, y, z) -> Q(x, y) & R(y, z)"))
    assert result.instance.digest() == (
        "bf116f03d815dfb6d160b1d91f62b2f4c64c37050c8909792c6d7106188d9de3"
    )


def test_freshened_chase_digest_pinned():
    # With existentials, pin the canonical renaming, not raw null names.
    source = Instance.parse("P(a, b)")
    result = chase(source, parse_dependencies("P(x, y) -> Q(x, z)"))
    assert result.instance.freshen_nulls().digest() == (
        "0b8f81bffa86089efffdc7b0d73715f1602ec3503326b6d8187972be83f84880"
    )


# A recursive closure plus an existential head: multi-round, null-minting,
# and still fully deterministic under the SQL chase.
SQL_CHASE_TEXT = (
    "E(x, y) -> P(x, y)\n"
    "P(x, y) & E(y, z) -> P(x, z)\n"
    "P(x, y) -> H(y, w)"
)
SQL_CHASE_SOURCE = "E(a, b), E(b, c), E(c, d), E(d, e)"
SQL_CHASE_DIGEST = (
    "f6e6626e7e9c2b855b82b40d27d9d706bc6dd759e03bb7c3bd0fed2394a608b5"
)


def _sql_chase_digest(store, **kw):
    store.add_all(Instance.parse(SQL_CHASE_SOURCE).facts)
    result = sql_chase(store, parse_dependencies(SQL_CHASE_TEXT), **kw)
    assert (result.steps, result.rounds) == (14, 5)
    return store.digest()


@pytest.mark.parametrize("evaluation", ["delta", "naive"])
def test_sql_chase_digest_pinned(evaluation):
    store = SqliteStore(":memory:")
    assert _sql_chase_digest(store, evaluation=evaluation) == SQL_CHASE_DIGEST


@pytest.mark.skipif(not duckdb_available(), reason="duckdb wheel not installed")
def test_duckdb_sql_chase_digest_pinned():
    store = DuckDbStore(":memory:")
    assert _sql_chase_digest(store) == SQL_CHASE_DIGEST


@pytest.mark.skipif(not duckdb_available(), reason="duckdb wheel not installed")
@pytest.mark.parametrize("text", sorted(PINNED))
def test_duckdb_digest_identical(text):
    store = DuckDbStore(":memory:")
    store.add_all(Instance.parse(text).facts)
    assert store.digest() == PINNED[text]
