"""Conformance suite: every InstanceStore backend, same semantics.

Every test runs against :class:`MemoryStore`, an in-memory
:class:`SqliteStore`, an on-disk :class:`SqliteStore`, and — when the
optional wheel is installed — in-memory and on-disk
:class:`DuckDbStore` — the behaviors the matching layer, the chases,
and the ``Instance`` facade rely on (insertion/dedup, candidate
lookup, digesting, freezing) must be indistinguishable across them.
"""

import itertools

import pytest

from repro.facts import digest_facts
from repro.instance import Fact, Instance, fact
from repro.store import (
    DuckDbStore,
    InstanceStore,
    MemoryStore,
    SqliteStore,
    StoreError,
    duckdb_available,
    open_store,
)
from repro.store.sqlite import decode_value, encode_value
from repro.terms import Const, Null

from .test_instance import assert_same_instance

_counter = itertools.count()

needs_duckdb = pytest.mark.skipif(
    not duckdb_available(), reason="duckdb wheel not installed"
)

BACKENDS = [
    "memory",
    "sqlite",
    "sqlite-file",
    pytest.param("duckdb", marks=needs_duckdb),
    pytest.param("duckdb-file", marks=needs_duckdb),
]


@pytest.fixture(params=BACKENDS)
def make_store(request, tmp_path):
    """A zero-argument factory for a fresh store of the current backend."""

    def build():
        if request.param == "memory":
            return MemoryStore()
        if request.param == "sqlite":
            return SqliteStore(":memory:")
        if request.param == "sqlite-file":
            return SqliteStore(str(tmp_path / f"store{next(_counter)}.db"))
        if request.param == "duckdb":
            return DuckDbStore(":memory:")
        return DuckDbStore(str(tmp_path / f"store{next(_counter)}.duckdb"))

    return build


FACTS = [
    fact("P", "a", "b"),
    fact("P", "a", "X"),
    fact("P", 1, 2),
    fact("Q", "b"),
    fact("R", "X", "X"),
]


class TestInsertion:
    def test_add_reports_new(self, make_store):
        store = make_store()
        assert store.add(fact("P", "a", "b")) is True
        assert store.add(fact("P", "a", "b")) is False
        assert len(store) == 1

    def test_add_all_counts_new(self, make_store):
        store = make_store()
        assert store.add_all(FACTS) == len(FACTS)
        assert store.add_all(FACTS) == 0
        assert store.add_all([fact("S", "z"), fact("P", "a", "b")]) == 1
        assert len(store) == len(FACTS) + 1

    def test_membership(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert fact("P", "a", "X") in store
        assert fact("P", "X", "a") not in store
        assert "not a fact" not in store

    def test_relation_names_sorted_nonempty(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert store.relation_names() == ("P", "Q", "R")
        assert store.tuples("missing") in ([], set(), frozenset())

    def test_fact_set_roundtrip(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert store.fact_set() == frozenset(FACTS)
        assert set(store.facts()) == set(FACTS)

    def test_protocol_membership(self, make_store):
        assert isinstance(make_store(), InstanceStore)


class TestCandidateLookup:
    def test_tuples(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert set(store.tuples("Q")) == {(Const("b"),)}
        assert set(store.tuples("P")) == {
            (Const("a"), Const("b")),
            (Const("a"), Null("X")),
            (Const(1), Const(2)),
        }

    def test_tuples_at_position_index(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert set(store.tuples_at("P", 0, Const("a"))) == {
            (Const("a"), Const("b")),
            (Const("a"), Null("X")),
        }
        assert set(store.tuples_at("P", 1, Null("X"))) == {
            (Const("a"), Null("X")),
        }
        assert list(store.tuples_at("P", 1, Const("z"))) == []
        assert list(store.tuples_at("missing", 0, Const("a"))) == []

    def test_tuples_at_distinguishes_value_types(self, make_store):
        # Const(1), Const("1"), and a null must never alias.
        store = make_store()
        store.add(Fact("T", (Const(1),)))
        store.add(Fact("T", (Const("1"),)))
        store.add(Fact("T", (Null("N1"),)))
        assert set(store.tuples_at("T", 0, Const(1))) == {(Const(1),)}
        assert set(store.tuples_at("T", 0, Const("1"))) == {(Const("1"),)}
        assert set(store.tuples_at("T", 0, Null("N1"))) == {(Null("N1"),)}


class TestDigest:
    def test_digest_matches_reference(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert store.digest() == digest_facts(FACTS)

    def test_digest_insertion_order_independent(self, make_store):
        forward, backward = make_store(), make_store()
        forward.add_all(FACTS)
        backward.add_all(list(reversed(FACTS)))
        assert forward.digest() == backward.digest()

    def test_digest_agrees_across_backends(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        reference = MemoryStore()
        reference.add_all(FACTS)
        assert store.digest() == reference.digest()
        assert store.digest() == Instance(FACTS).digest()

    def test_digest_empty(self, make_store):
        assert make_store().digest() == digest_facts([])


class TestDomainAndNulls:
    def test_active_domain(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert store.active_domain() == frozenset(
            {Const("a"), Const("b"), Const(1), Const(2), Null("X")}
        )

    def test_nulls(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert store.nulls() == frozenset({Null("X")})

    def test_null_freshening_visibility(self, make_store):
        # Nulls added later must appear immediately: NullFactory.avoiding
        # consults the live domain when minting fresh names.
        store = make_store()
        store.add(fact("P", "a", "b"))
        assert store.nulls() == frozenset()
        store.add(fact("P", "a", "N0"))
        assert Null("N0") in store.nulls()
        assert Null("N0") in store.active_domain()


class TestFreeze:
    def test_freeze_is_idempotent_and_one_way(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        assert store.frozen is False
        store.freeze()
        store.freeze()
        assert store.frozen is True

    def test_mutation_after_freeze_raises(self, make_store):
        store = make_store()
        store.freeze()
        with pytest.raises(StoreError):
            store.add(fact("P", "a", "b"))
        with pytest.raises(StoreError):
            store.add_all(FACTS)

    def test_reads_still_work_after_freeze(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        store.freeze()
        assert len(store) == len(FACTS)
        assert store.fact_set() == frozenset(FACTS)
        assert store.digest() == digest_facts(FACTS)


class TestSnapshotAndFacade:
    def test_snapshot_is_equal_instance(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        snap = store.snapshot()
        assert isinstance(snap, Instance)
        assert snap == Instance(FACTS)
        # The snapshot is decoupled from further store mutation.
        store.add(fact("S", "z"))
        assert fact("S", "z") not in snap.facts

    def test_instance_wraps_store(self, make_store):
        store = make_store()
        store.add_all(FACTS)
        inst = Instance(store=store)
        assert store.frozen  # wrapping freezes
        assert inst == Instance(FACTS)
        assert inst.digest() == Instance(FACTS).digest()
        assert set(inst.tuples("Q")) == {(Const("b"),)}


class TestDerivedInstances:
    """``Instance.extended``/``restrict`` over every backend match a
    per-fact build; only frozen memory stores take the structure-sharing
    path, the SQL backends keep the generic one."""

    EXTRA = [fact("P", "c", "Y"), fact("S", "Y"), fact("Q", "b")]

    def base(self, make_store) -> Instance:
        store = make_store()
        store.add_all(FACTS)
        return Instance(store=store)

    def test_extended_matches_per_fact_build(self, make_store):
        base = self.base(make_store)
        child = base.extended(self.EXTRA)
        assert_same_instance(child, Instance(FACTS + self.EXTRA))
        assert isinstance(child.store, MemoryStore)
        assert_same_instance(base, Instance(FACTS))  # the parent is untouched

    @pytest.mark.parametrize("keep", [["P"], ["P", "R"], ["Q", "Absent"], []])
    def test_restrict_matches_per_fact_build(self, make_store, keep):
        want = Instance(f for f in FACTS if f.relation in keep)
        assert_same_instance(self.base(make_store).restrict(keep), want)

    def test_only_memory_stores_share_structure(self, make_store):
        base = self.base(make_store)
        shared = isinstance(base.store, MemoryStore)
        assert (base.restrict(["P", "Q", "R"]) is base) == shared
        assert (base.extended(FACTS[:1]) is base) == shared


class TestSqliteSpecifics:
    def test_value_encoding_roundtrip(self):
        for value in (
            Const("a"),
            Const(""),
            Const("a;b"),
            Const("n:sneaky"),
            Const("ünïcode"),
            Const(0),
            Const(-17),
            Null("N0"),
            Null("weird name"),
        ):
            assert decode_value(encode_value(value)) == value

    def test_quoted_relation_names_are_data(self):
        store = SqliteStore(":memory:")
        store.add(fact("P'", "a"))
        store.add(fact('R"; DROP TABLE _catalog; --', "b"))
        assert set(store.relation_names()) == {"P'", 'R"; DROP TABLE _catalog; --'}
        assert set(store.tuples("P'")) == {(Const("a"),)}

    def test_arity_clash_raises(self):
        store = SqliteStore(":memory:")
        store.add(fact("P", "a"))
        with pytest.raises(StoreError):
            store.add(fact("P", "a", "b"))

    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "persist.db")
        store = SqliteStore(path)
        store.add_all(FACTS)
        store.close()
        reopened = SqliteStore(path)
        assert reopened.fact_set() == frozenset(FACTS)
        assert reopened.digest() == digest_facts(FACTS)
        reopened.close()

    def test_fresh_drops_prior_contents(self, tmp_path):
        path = str(tmp_path / "fresh.db")
        store = SqliteStore(path)
        store.add_all(FACTS)
        store.close()
        fresh = SqliteStore(path, fresh=True)
        assert len(fresh) == 0
        fresh.close()


class TestDuckDbSpecifics:
    @pytest.mark.skipif(
        duckdb_available(), reason="duckdb wheel installed"
    )
    def test_missing_wheel_raises_store_error(self):
        with pytest.raises(StoreError, match="duckdb"):
            DuckDbStore(":memory:")
        with pytest.raises(StoreError, match="duckdb"):
            open_store("duckdb")

    @needs_duckdb
    def test_quoted_relation_names_are_data(self):
        store = DuckDbStore(":memory:")
        store.add(fact("P'", "a"))
        store.add(fact('R"; DROP TABLE _catalog; --', "b"))
        assert set(store.relation_names()) == {
            "P'",
            'R"; DROP TABLE _catalog; --',
        }
        assert set(store.tuples("P'")) == {(Const("a"),)}

    @needs_duckdb
    def test_arity_clash_raises(self):
        store = DuckDbStore(":memory:")
        store.add(fact("P", "a"))
        with pytest.raises(StoreError):
            store.add(fact("P", "a", "b"))

    @needs_duckdb
    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "persist.duckdb")
        store = DuckDbStore(path)
        store.add_all(FACTS)
        store.close()
        reopened = DuckDbStore(path)
        assert reopened.fact_set() == frozenset(FACTS)
        assert reopened.digest() == digest_facts(FACTS)
        reopened.close()

    @needs_duckdb
    def test_fresh_drops_prior_contents(self, tmp_path):
        path = str(tmp_path / "fresh.duckdb")
        store = DuckDbStore(path)
        store.add_all(FACTS)
        store.close()
        fresh = DuckDbStore(path, fresh=True)
        assert len(fresh) == 0
        fresh.close()

    @needs_duckdb
    def test_digest_matches_sqlite(self):
        duck, lite = DuckDbStore(":memory:"), SqliteStore(":memory:")
        duck.add_all(FACTS)
        lite.add_all(FACTS)
        assert duck.digest() == lite.digest()


class TestMemoryIsolation:
    def test_in_memory_sqlite_stores_are_independent(self):
        first, second = SqliteStore(), SqliteStore()
        first.add_all(FACTS)
        assert len(second) == 0 and second.relation_names() == ()
        extra = fact("S", "z")
        second.add(extra)
        assert extra not in first.fact_set() and "S" not in first.relation_names()
        first.close()
        assert second.fact_set() == {extra}
        second.close()


class TestOpenStore:
    def test_specs(self, tmp_path):
        assert isinstance(open_store("memory"), MemoryStore)
        assert isinstance(open_store("sqlite"), SqliteStore)
        assert isinstance(open_store("sqlite:"), SqliteStore)
        on_disk = open_store(f"sqlite:{tmp_path / 'x.db'}")
        assert isinstance(on_disk, SqliteStore)
        on_disk.close()

    @needs_duckdb
    def test_duckdb_specs(self, tmp_path):
        assert isinstance(open_store("duckdb"), DuckDbStore)
        assert isinstance(open_store("duckdb:"), DuckDbStore)
        on_disk = open_store(f"duckdb:{tmp_path / 'x.duckdb'}")
        assert isinstance(on_disk, DuckDbStore)
        on_disk.close()

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            open_store("redis://nope")
