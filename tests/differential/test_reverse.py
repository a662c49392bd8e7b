"""The reverse contract: every reverse configuration gives one outcome.

With ``minimize=False`` the reverse chase's branch list is byte-identical
in order and facts across store × evaluation × tracer, and so is the
disjunctive chase's; traced delta and naive runs emit the same events.
The pruned chase, which chases only the observable closure of the target
(DESIGN.md D10), agrees with ``minimize_branches`` of that list.  Every
entry point prints one candidate list per kernel.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.disjunctive import _guard_constants, minimize_branches
from repro.homs.core import core
from repro.homs.isomorphism import is_isomorphic
from repro.homs.quotient import enumerate_quotients
from repro.homs.search import is_hom_equivalent
from repro.instance import Fact, Instance
from repro.inverses.quasi_inverse import maximum_extended_recovery_for_full_tgds
from repro.logic.dependencies import iter_disjunctive
from repro.parsing import parse_dependencies
from repro.terms import Const, Null
from repro.workloads.generators import chain_join_reverse, random_full_tgd_mapping
from repro.workloads.generators import random_instance
from repro.workloads.scenarios import PAPER_SCENARIOS

from ..property.strategies import instances
from .harness import MAX_NULLS, STORES, Case, entry_lanes, kernel_lanes, run_lanes
from .harness import assert_evaluations_agree, assert_one_outcome

HAND_WRITTEN = {
    # an inequality across two premise atoms, with an existential disjunct
    "cross_atom": parse_dependencies(
        "E(x, y) & F(y, z) & x != z -> EXISTS w . S(x, w) | T(z)\nE(x, x) -> T(x)"
    ),
    # x != c, and a constant the target never holds
    "guard_constant": parse_dependencies(
        'R(x, y) & y != 7 -> S(x, y) | T(y)\nR(x, y) & x != "a" -> T(x)'
    ),
    # premise constants next to an inequality
    "premise_constant": parse_dependencies(
        'R(x, "a") -> S(x) | T(x)\nR(x, y) & x != y -> EXISTS z . S(z) | T(y)'
    ),
    # two guards in one premise, existentials in every disjunct
    "two_guards": parse_dependencies(
        "E(x, y) & x != y & y != 2 -> EXISTS z . S(z, y) | EXISTS w . S(x, w)\n"
        "E(x, y) & F(y, x) -> T(x)"
    ),
}

TARGET_VALUES = [Const(c) for c in (1, 2, 7, "a")] + [Null(n) for n in "XYZW"]


def targets(dependencies, max_size=3):
    """Targets over the premise schema with at most 4 nulls (the pool has four)."""
    schema = {a.relation: len(a.terms) for d in iter_disjunctive(dependencies) for a in d.premise}
    fact = st.sampled_from(sorted(schema)).flatmap(
        lambda name: st.tuples(*[st.sampled_from(TARGET_VALUES)] * schema[name]).map(
            lambda values: Fact(name, values)
        )
    )
    return st.lists(fact, max_size=max_size).map(Instance)


def branch_lanes(kind, case, inputs, stores):
    """One branch list per input across store × evaluation × observer."""
    runs = run_lanes(kernel_lanes(kind, stores), case, inputs)
    assert_evaluations_agree(runs)
    return assert_one_outcome(runs)


def assert_closure_matches_oracle(dependencies, target, pruned, unminimized):
    """The pruned reverse chase against the exhaustive oracle."""
    oracle = minimize_branches(unminimized)
    assert len(pruned) == len(oracle)
    for branch in pruned:
        assert any(is_hom_equivalent(branch, other) for other in oracle)
    unmatched = [core(branch) for branch in oracle]
    for candidate in (core(branch) for branch in pruned):
        match = next(i for i, c in enumerate(unmatched) if is_isomorphic(candidate, c))
        del unmatched[match]
    quotients = partial(enumerate_quotients, target, max_nulls=MAX_NULLS)
    closure = [q.substitution for q in quotients(observed_by=dependencies)]
    assert all(null == value for null, value in closure[0])
    exhaustive = {q.substitution for q in quotients(extra_anchors=_guard_constants(dependencies))}
    assert set(closure) <= exhaustive
    assert len(set(closure)) == len(closure)


def check_reverse(case, targets, everywhere=False):
    """Run *targets* through every reverse configuration; assert the contract.

    *everywhere* adds the SQL stores and the entry points on a tuple and a
    ``sql_chase=True`` engine; the Hypothesis draws run the kernels on memory.
    """
    stores = STORES if everywhere else STORES[:1]
    whole = branch_lanes("exhaustive", case, targets, stores)
    pruned = branch_lanes("reverse", case, targets, stores)
    dependencies = case.mapping.dependencies
    for target, unminimized, kept in zip(targets, whole, pruned):
        assert_closure_matches_oracle(dependencies, target, kept.result, unminimized.result)
    if not everywhere:
        return
    for sql in (False, True):
        lanes = entry_lanes("reverse", sql, everywhere=True)
        candidates = assert_one_outcome(run_lanes(lanes, case, targets))
        if case.mapping.is_disjunctive() or case.mapping.uses_inequality():
            for kept, printed in zip(pruned, candidates):
                cored = [str(core(branch)) for branch in kept.result] or ["{}"]
                assert printed.printed == "\n".join(cored)


#: The catalogue's reverses, the maximum extended recoveries of its
#: full-tgd scenarios, the chain joins, and the hand-written guard sets.
REVERSES = {
    **{f"catalogue/{n}": Case.of(s.reverse.dependencies) for n, s in PAPER_SCENARIOS.items()},
    **{
        f"recovery/{n}": Case.of(maximum_extended_recovery_for_full_tgds(s.mapping).dependencies)
        for n, s in PAPER_SCENARIOS.items()
        if all(not dep.existential_variables for dep in s.mapping.dependencies)
    },
    **{f"chain_join/{k}": Case.of(chain_join_reverse(k).dependencies) for k in (2, 3)},
    **{f"hand/{n}": Case.of(deps) for n, deps in HAND_WRITTEN.items()},
}


@pytest.mark.parametrize("name", sorted(n for n in REVERSES if not n.startswith("hand/")))
def test_reverse_everywhere(name):
    """Seeded targets with at most three nulls: quotients grow exponentially."""
    case = REVERSES[name]
    schema = case.mapping.source
    check_reverse(
        case,
        [random_instance(schema, 3, seed=s, null_ratio=0.3, value_pool=3) for s in (3, 4)],
        everywhere=True,
    )


@pytest.mark.parametrize("name", sorted(n for n in REVERSES if not n.startswith("recovery/")))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reverse_closure_oracle(name, data):
    case = REVERSES[name]
    check_reverse(case, [data.draw(targets(case.mapping.dependencies))])


@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
@settings(max_examples=40, deadline=None)
def test_reverse_random_recoveries(seed, data):
    mapping = random_full_tgd_mapping(
        source_relations=2, target_relations=2, tgd_count=3, max_arity=2, seed=seed
    )
    case = Case.of(maximum_extended_recovery_for_full_tgds(mapping).dependencies)
    check_reverse(case, [data.draw(targets(case.mapping.dependencies))])


#: In "chained", disjunct facts feed later premises (delta matches in
#: the children), with a multi-atom ground disjunct, an existential one
#: and a guard.
DISJUNCTIVE = {
    "disjunctive": ("R(x) -> P(x) | Q(x)", {"R": 1, "P": 1}),
    "chained": (
        "R(x) -> P(x) | Q(x); P(x) & R(y) -> S(x, y) & T(y) | (EXISTS z . S(x, z) & T(z)); "
        "Q(x) & Q(y) & x != y -> U(x, y)",
        {"R": 1, "T": 1, "S": 2, "P": 1},
    ),
}


@pytest.mark.parametrize("name", sorted(DISJUNCTIVE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_disjunctive_chase(name, data):
    text, schema = DISJUNCTIVE[name]
    branch_lanes("disjunctive", Case(text), [data.draw(instances(schema, max_size=3))], STORES)
