"""Property-based tests: store backends are indistinguishable.

The headline invariant — chase results over a SqliteStore-backed input
equal the MemoryStore results *fact for fact* on generated scenarios —
plus digest agreement, SQL-chase hom-equivalence on the compiled
fragment, and the semi-naive equivalences: sql-delta ≡ sql-naive is
byte-identical (null names included, truncation prefixes included,
across every SQL backend), sql ≡ tuple is
fact-for-fact on full tgds and hom-equivalent when existentials mint
nulls (the tuple chase's depth-first enumeration order cannot — and
need not — be reproduced by set-at-a-time SQL naming).
"""

from hypothesis import given, settings

from repro.chase.standard import chase
from repro.facts import digest_facts
from repro.homs.search import is_hom_equivalent
from repro.instance import Instance
from repro.limits import Limits
from repro.store import (
    DuckDbStore,
    MemoryStore,
    SqliteStore,
    duckdb_available,
    sql_chase,
)
from repro.workloads.scenarios import PAPER_SCENARIOS

from .strategies import instances

DECOMPOSITION = PAPER_SCENARIOS["decomposition"].mapping
PATH2 = PAPER_SCENARIOS["path2"].mapping

P3 = {"P": 3}
P2 = {"P": 2}
MIXED = {"P": 2, "Q": 1, "R": 2}


def _sqlite_backed(inst: Instance) -> Instance:
    store = SqliteStore(":memory:")
    store.add_all(inst.facts)
    return Instance(store=store)


@given(instances(P3, max_size=5))
@settings(max_examples=50, deadline=None)
def test_chase_identical_over_sqlite_input_decomposition(inst):
    reference = chase(inst, DECOMPOSITION.dependencies).instance
    via_sqlite = chase(_sqlite_backed(inst), DECOMPOSITION.dependencies).instance
    assert via_sqlite.facts == reference.facts


@given(instances(P2, max_size=5))
@settings(max_examples=50, deadline=None)
def test_chase_identical_over_sqlite_input_path2(inst):
    reference = chase(inst, PATH2.dependencies).instance
    via_sqlite = chase(_sqlite_backed(inst), PATH2.dependencies).instance
    assert via_sqlite.facts == reference.facts


@given(instances(MIXED, max_size=6))
@settings(max_examples=50, deadline=None)
def test_digest_agrees_across_backends(inst):
    memory = MemoryStore()
    memory.add_all(inst.facts)
    sqlite = SqliteStore(":memory:")
    sqlite.add_all(inst.facts)
    assert memory.digest() == sqlite.digest() == digest_facts(inst.facts)
    assert memory.fact_set() == sqlite.fact_set()


@given(instances(MIXED, max_size=6))
@settings(max_examples=50, deadline=None)
def test_store_roundtrip_preserves_instance(inst):
    assert _sqlite_backed(inst) == inst


@given(instances(P3, max_size=5))
@settings(max_examples=40, deadline=None)
def test_sql_chase_identical_on_full_tgds(inst):
    # Decomposition is full (no existentials): set-at-a-time SQL output
    # must be byte-identical to the tuple-at-a-time result.
    reference = chase(inst, DECOMPOSITION.dependencies).instance
    store = SqliteStore(":memory:")
    store.add_all(inst.facts)
    result = sql_chase(store, DECOMPOSITION.dependencies)
    assert result.instance.facts == reference.facts


@given(instances(P2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_sql_chase_hom_equivalent_with_existentials(inst):
    # path2 mints nulls; names may differ, the structure may not.
    reference = chase(inst, PATH2.dependencies).instance
    store = SqliteStore(":memory:")
    store.add_all(inst.facts)
    result = sql_chase(store, PATH2.dependencies)
    got = result.instance
    assert len(got) == len(reference)
    assert is_hom_equivalent(got, reference)


# ----------------------------------------------------------------------
# Semi-naive equivalences: sql-delta ≡ sql-naive ≡ tuple chase
# ----------------------------------------------------------------------

from repro.parsing.parser import parse_dependencies  # noqa: E402

#: Recursive closure + an existential head: multi-round, null-minting.
CLOSURE_DEPS = parse_dependencies(
    "E(x, y) -> P(x, y)\n"
    "P(x, y) & E(y, z) -> P(x, z)\n"
    "P(x, y) -> H(y, w)"
)
E2 = {"E": 2}

_SQL_BACKENDS = [lambda: SqliteStore(":memory:")]
if duckdb_available():
    _SQL_BACKENDS.append(lambda: DuckDbStore(":memory:"))


def _sql_run(inst, make_store, **kw):
    store = make_store()
    store.add_all(inst.facts)
    result = sql_chase(store, CLOSURE_DEPS, **kw)
    return result, store.digest()


@given(instances(E2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_sql_delta_naive_byte_identical(inst):
    # One (digest, steps, rounds) outcome across evaluation mode and SQL
    # backend — null names included.
    outcomes = set()
    for make_store in _SQL_BACKENDS:
        for evaluation in ("delta", "naive"):
            result, digest = _sql_run(inst, make_store, evaluation=evaluation)
            outcomes.add((digest, result.steps, result.rounds))
    assert len(outcomes) == 1


@given(instances(E2, max_size=6))
@settings(max_examples=25, deadline=None)
def test_sql_truncation_prefixes_byte_identical(inst):
    # Budget-truncated partial results are the same sound prefix in
    # every mode: truncation only drops a suffix of the firing sequence.
    limits = Limits(max_facts=max(len(inst) + 2, 4), on_exhausted="partial")
    outcomes = set()
    for make_store in _SQL_BACKENDS:
        for evaluation in ("delta", "naive"):
            result, digest = _sql_run(
                inst, make_store, evaluation=evaluation, limits=limits
            )
            outcomes.add((digest, result.steps, result.rounds, result.completed))
    assert len(outcomes) == 1


#: Full-tgd closure (no existentials): SQL must equal the tuple chase
#: fact for fact, in both tuple evaluation modes.
FULL_CLOSURE_DEPS = parse_dependencies(
    "E(x, y) -> P(x, y)\n"
    "P(x, y) & E(y, z) -> P(x, z)"
)


@given(instances(E2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_sql_equals_tuple_chase_on_full_tgds(inst):
    tuple_delta = chase(inst, FULL_CLOSURE_DEPS, evaluation="delta").instance
    tuple_naive = chase(inst, FULL_CLOSURE_DEPS, evaluation="naive").instance
    assert tuple_delta.facts == tuple_naive.facts
    for make_store in _SQL_BACKENDS:
        store = make_store()
        store.add_all(inst.facts)
        result = sql_chase(store, FULL_CLOSURE_DEPS)
        assert result.instance.facts == tuple_delta.facts


@given(instances(E2, max_size=5))
@settings(max_examples=20, deadline=None)
def test_sql_hom_equivalent_to_tuple_chase_with_existentials(inst):
    # With existential heads the tuple chase's DFS enumeration order
    # fixes different null names; structure must still agree.
    reference = chase(inst, CLOSURE_DEPS).instance
    for make_store in _SQL_BACKENDS:
        result, _ = _sql_run(inst, make_store)
        got = result.instance
        assert len(got) == len(reference)
        assert is_hom_equivalent(got, reference)
