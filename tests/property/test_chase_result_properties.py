"""A chase result is its input plus the facts the chase added.

Both kernels build the result as the source instance extended by what
the chase fired (DESIGN.md D5), so ``generated`` is exactly the new
facts and the source is a sub-instance of the result.  Checked on random
full-tgd mappings and on the catalogue's mappings with existential
variables, through the tuple chase (both evaluations), the SQL kernel
(both evaluations, and behind ``run_chase``) and
``ExchangeEngine.exchange`` on both kernels, unlimited and truncated by
``max_facts``.  After a SQL chase, the fact count the store carried
forward from its inserts equals a fresh ``COUNT(*)`` over its tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.standard import chase
from repro.engine import ExchangeEngine
from repro.engine.engine import run_chase
from repro.limits import Limits
from repro.store import SqliteStore, in_sql_fragment, sql_chase
from repro.workloads.generators import random_full_tgd_mapping, random_instance
from repro.workloads.scenarios import PAPER_SCENARIOS

#: Catalogue mappings with an existential variable (their chase mints nulls).
EXISTENTIAL = sorted(
    name
    for name, scenario in PAPER_SCENARIOS.items()
    if any(dep.existential_variables for dep in scenario.mapping.dependencies)
)


def assert_extends(source, result):
    full = result.instance
    assert source.facts <= full.facts
    assert result.generated == full.facts - source.facts


def counted(store):
    """A fresh ``COUNT(*)`` per relation table, summed."""
    conn = store.connection
    return sum(
        conn.execute(f"SELECT COUNT(*) FROM {store.table_for(rel)[0]}").fetchone()[0]
        for rel in store.relation_names()
    )


def check(mapping, source):
    deps = mapping.dependencies
    sql = all(map(in_sql_fragment, deps))
    complete = chase(source, deps)
    truncated = Limits(max_facts=len(source) + max(1, len(complete.generated) // 2))
    for limits in (None, truncated):
        for evaluation in ("delta", "naive"):
            assert_extends(source, chase(source, deps, evaluation=evaluation, limits=limits))
            if sql:
                store = SqliteStore()
                store.add_all(source.facts)
                result = sql_chase(store, deps, evaluation=evaluation, limits=limits)
                assert len(store) == counted(store) == len(source) + result.generated_count
        for scratch in (None, "sqlite") if sql else (None,):
            assert_extends(
                source, run_chase(mapping, source, "restricted", scratch, limits=limits)
            )
        for engine in (ExchangeEngine(), ExchangeEngine(sql_chase=True)):
            exchanged = engine.exchange(mapping, source, limits=limits)
            assert_extends(source, exchanged.to_chase_result())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_full_tgd_mappings(seed):
    mapping = random_full_tgd_mapping(seed=seed)
    check(mapping, random_instance(mapping.source, 8, seed=seed, null_ratio=0.3, value_pool=4))


@pytest.mark.parametrize("name", EXISTENTIAL)
def test_catalogue_mappings_with_existentials(name):
    mapping = PAPER_SCENARIOS[name].mapping

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def run(seed):
        check(mapping, random_instance(mapping.source, 10, seed=seed, null_ratio=0.3))

    run()
