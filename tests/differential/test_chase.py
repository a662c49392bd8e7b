"""The forward contract: every chase configuration gives one outcome.

Within one kernel and variant every lane prints the same instance, with
the same null names, digest, generated facts, steps, rounds, delta
sizes and exhausted resource, unlimited and under a facts budget.
Delta considers no more triggers than naive and traces the same
events; a truncated result is a subset of the completed one.  Across
kernels the facts are identical on full tgds, else equal in number and
hom-equivalent (set-at-a-time SQL names nulls in its own order).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.homs.search import is_hom_equivalent
from repro.limits import Limits
from repro.parsing.parser import parse_dependencies
from repro.schema import RelationSymbol, Schema
from repro.workloads.generators import chain_graph_instance, path_closure_mapping
from repro.workloads.generators import random_full_tgd_mapping, random_instance
from repro.workloads.scenarios import PAPER_SCENARIOS

from ..property.strategies import instances
from .harness import STORES, Case, entry_lanes, kernel_lanes, run_lanes
from .harness import assert_evaluations_agree, assert_one_outcome

CLOSURE = path_closure_mapping().dependencies
#: The closure with an existential head: multi-round and null-minting.
CLOSURE_EXISTENTIAL = parse_dependencies(
    "E(x, y) -> P(x, y)\nP(x, y) & E(y, z) -> P(x, z)\nP(x, y) -> H(y, w)"
)
EDGES = Schema([RelationSymbol("E", 2)])
BOTH = ("restricted", "oblivious")


def check_chase(dependencies, sources, everywhere=False, variants=BOTH):
    """Run *sources* through every chase configuration; assert the contract.

    The SQL kernel joins the restricted variant when the dependencies are
    in its fragment.  Without *everywhere* (the Hypothesis draws) only the
    kernels on memory and sqlite, the single call and the serial batch run.
    """
    stores = STORES if everywhere else STORES[:2]
    completed = {}
    for variant in variants:
        case = Case.of(dependencies, variant)
        for sql in (False, True) if case.sql else (False,):
            lanes = {
                **kernel_lanes("sql" if sql else "tuple", stores[1:] if sql else stores),
                **entry_lanes("chase", sql, everywhere),
            }
            runs = run_lanes(lanes, case, sources)
            whole = completed[variant, sql] = assert_one_outcome(runs)
            assert_evaluations_agree(runs)
            generated = max(len(outcome.detail[2]) for outcome in whole)
            budget = max(map(len, sources)) + max(1, generated // 2)
            truncated = run_lanes(lanes, case, sources, Limits(max_facts=budget))
            for prefix, result in zip(assert_one_outcome(truncated), whole):
                assert prefix.result.facts <= result.result.facts
            assert_evaluations_agree(truncated)
    full = all(not dep.existential_variables for dep in dependencies)
    sql_results = completed.get(("restricted", True), [])
    for tuple_, sql_ in zip(completed["restricted", False], sql_results):
        if full:
            assert tuple_.result.facts == sql_.result.facts
        else:
            assert len(tuple_.result) == len(sql_.result)
            assert is_hom_equivalent(tuple_.result, sql_.result)


@pytest.mark.parametrize("name", sorted(PAPER_SCENARIOS))
def test_catalogue_chase(name):
    mapping = PAPER_SCENARIOS[name].mapping
    sources = [random_instance(mapping.source, 12, seed=s, null_ratio=0.3) for s in (11, 12)]
    check_chase(mapping.dependencies, sources, everywhere=True)


#: The 48-chain is profile-smoke's input.  It runs restricted only: on
#: full tgds the oblivious chase fires the same triggers, at twice the cost.
RECURSIVE = {
    "closure/chain48": (
        CLOSURE, [chain_graph_instance(48), chain_graph_instance(5)], ("restricted",)
    ),
    "closure/random": (
        CLOSURE, [random_instance(EDGES, 10, seed=s, value_pool=6) for s in (1, 2)], BOTH
    ),
    "closure_existential/random": (
        CLOSURE_EXISTENTIAL,
        [random_instance(EDGES, 8, seed=s, value_pool=5) for s in (3, 4)],
        BOTH,
    ),
}


@pytest.mark.parametrize("name", sorted(RECURSIVE))
def test_recursive_chase(name):
    dependencies, sources, variants = RECURSIVE[name]
    check_chase(dependencies, sources, everywhere=True, variants=variants)


#: Hypothesis families: dependencies, source schema, example budget.
FAMILIES = {
    "decomposition": (PAPER_SCENARIOS["decomposition"].mapping.dependencies, {"P": 3}, 50),
    "path2": (PAPER_SCENARIOS["path2"].mapping.dependencies, {"P": 2}, 50),
    "closure": (CLOSURE, {"E": 2}, 50),
    "closure_existential": (CLOSURE_EXISTENTIAL, {"E": 2}, 30),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chase_families(family):
    dependencies, schema, examples = FAMILIES[family]

    @settings(max_examples=examples, deadline=None)
    @given(instances(schema, max_size=5))
    def check(source):
        check_chase(dependencies, [source])

    check()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_chase_random_full_tgd_mappings(seed):
    mapping = random_full_tgd_mapping(seed=seed)
    check_chase(
        mapping.dependencies,
        [random_instance(mapping.source, 8, seed=seed, null_ratio=0.3, value_pool=4)],
    )
