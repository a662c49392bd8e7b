"""Property-based tests: reverse-chase invariants for algorithmic recoveries.

For any full-tgd mapping M and its computed maximum extended recovery
M', the reverse chase of chase_M(I) must satisfy Definition 6.1's
conditions (1) and (2) on every instance — here hammered with random
instances over the paper scenarios (condition (3)'s universality is
covered by the checker-based suites).

The minimized reverse chase chases only the observable closure of the
target (DESIGN.md D10); the last tests compare it with the exhaustive
oracle, ``minimize_branches`` over the ``minimize=False`` branch set.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.disjunctive import (
    _guard_constants,
    minimize_branches,
    reverse_disjunctive_chase,
)
from repro.homs.core import core
from repro.homs.isomorphism import is_isomorphic
from repro.homs.quotient import enumerate_quotients
from repro.homs.search import is_hom_equivalent, is_homomorphic
from repro.instance import Fact, Instance
from repro.inverses.quasi_inverse import maximum_extended_recovery_for_full_tgds
from repro.inverses.recovery import in_arrow_m
from repro.logic.dependencies import iter_disjunctive
from repro.mappings.schema_mapping import SchemaMapping
from repro.terms import Const, Null
from repro.workloads.generators import chain_join_reverse, random_full_tgd_mapping
from repro.workloads.scenarios import PAPER_SCENARIOS

from .strategies import instances


UNION = PAPER_SCENARIOS["union"].mapping
UNION_RECOVERY = maximum_extended_recovery_for_full_tgds(UNION)
SELF_JOIN = PAPER_SCENARIOS["self_join_target"].mapping
SELF_JOIN_RECOVERY = maximum_extended_recovery_for_full_tgds(SELF_JOIN)

P1Q1 = {"P": 1, "Q": 1}
P2T1 = {"P": 2, "T": 1}


def branches_for(mapping, recovery, source):
    return recovery.reverse_chase(mapping.chase(source), max_nulls=6)


@given(instances(P1Q1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_union_condition_1(source):
    """Every branch exports at least the source's information."""
    for branch in branches_for(UNION, UNION_RECOVERY, source):
        assert in_arrow_m(UNION, source, branch)


@given(instances(P1Q1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_union_condition_2(source):
    """Some branch exports no more than the source."""
    branches = branches_for(UNION, UNION_RECOVERY, source)
    assert any(in_arrow_m(UNION, branch, source) for branch in branches)


@given(instances(P2T1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_self_join_conditions_1_and_2(source):
    branches = branches_for(SELF_JOIN, SELF_JOIN_RECOVERY, source)
    assert branches
    for branch in branches:
        assert in_arrow_m(SELF_JOIN, source, branch)
    assert any(in_arrow_m(SELF_JOIN, branch, source) for branch in branches)


@given(instances(P2T1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_branches_form_antichain(source):
    """Minimization invariant: no branch maps into another."""
    branches = branches_for(SELF_JOIN, SELF_JOIN_RECOVERY, source)
    for i, left in enumerate(branches):
        for j, right in enumerate(branches):
            if i != j:
                assert not is_homomorphic(left, right)


@given(instances(P1Q1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_source_reachable_from_some_branch(source):
    """Condition (3) instantiated at I' = I: some branch maps into I."""
    branches = branches_for(UNION, UNION_RECOVERY, source)
    assert any(is_homomorphic(branch, source) for branch in branches)


def reference_antichain(branches):
    """The plain O(n²) antichain: one ``is_homomorphic`` call per test."""
    pool = sorted(set(branches), key=lambda inst: (len(inst), str(inst)))
    kept = []
    for candidate in pool:
        if any(is_homomorphic(existing, candidate) for existing in kept):
            continue
        kept = [e for e in kept if not is_homomorphic(candidate, e)]
        kept.append(candidate)
    return kept


MIXED_BRANCHES = st.lists(
    st.one_of(
        instances(P2T1, max_size=3, allow_nulls=False),
        instances(P2T1, max_size=3),
    ),
    max_size=10,
)


@given(MIXED_BRANCHES)
@settings(max_examples=150, deadline=None)
def test_minimize_matches_reference_antichain(branches):
    """The ground-subset pre-test never changes the kept list or its order."""
    assert minimize_branches(branches) == reference_antichain(branches)


# -- observable closure vs. the exhaustive oracle (DESIGN.md D10) ----------

HAND_WRITTEN = {
    # an inequality across two premise atoms, with an existential disjunct
    "cross_atom": "E(x, y) & F(y, z) & x != z -> EXISTS w . S(x, w) | T(z)\n"
    "E(x, x) -> T(x)",
    # x != c, and a constant the target never holds
    "guard_constant": "R(x, y) & y != 7 -> S(x, y) | T(y)\n"
    'R(x, y) & x != "a" -> T(x)',
    # premise constants next to an inequality
    "premise_constant": 'R(x, "a") -> S(x) | T(x)\n'
    "R(x, y) & x != y -> EXISTS z . S(z) | T(y)",
    # two guards in one premise, existentials in every disjunct
    "two_guards": "E(x, y) & x != y & y != 2 -> EXISTS z . S(z, y) | EXISTS w . S(x, w)\n"
    "E(x, y) & F(y, x) -> T(x)",
}

TARGET_VALUES = [Const(c) for c in (1, 2, 7, "a")] + [Null(n) for n in "XYZW"]


def _premise_schema(dependencies):
    return {
        atom.relation: len(atom.terms)
        for dep in iter_disjunctive(dependencies)
        for atom in dep.premise
    }


def _conclusion_relations(dependencies):
    return sorted(
        set().union(*(d.conclusion_relations() for d in iter_disjunctive(dependencies)))
    )


@st.composite
def targets(draw, schema, max_size=3):
    """Targets over *schema* with at most 4 nulls (the pool has four)."""
    names = sorted(schema)
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        name = draw(st.sampled_from(names))
        values = tuple(draw(st.sampled_from(TARGET_VALUES)) for _ in range(schema[name]))
        facts.append(Fact(name, values))
    return Instance(facts)


def assert_closure_matches_oracle(dependencies, target):
    """The pruned reverse chase against the exhaustive oracle."""
    relations = _conclusion_relations(dependencies)
    pruned = reverse_disjunctive_chase(
        target, dependencies, result_relations=relations, max_nulls=4
    )
    oracle = minimize_branches(
        reverse_disjunctive_chase(
            target, dependencies, result_relations=relations, max_nulls=4,
            minimize=False,
        )
    )
    assert len(pruned) == len(oracle)
    for branch in pruned:
        assert any(is_hom_equivalent(branch, other) for other in oracle)
    unmatched = [core(branch) for branch in oracle]
    for candidate in (core(branch) for branch in pruned):
        match = next(i for i, c in enumerate(unmatched) if is_isomorphic(candidate, c))
        del unmatched[match]
    closure = [
        q.substitution
        for q in enumerate_quotients(target, max_nulls=4, observed_by=dependencies)
    ]
    assert all(null == value for null, value in closure[0])
    exhaustive = {
        q.substitution
        for q in enumerate_quotients(
            target, max_nulls=4, extra_anchors=_guard_constants(dependencies)
        )
    }
    assert set(closure) <= exhaustive
    assert len(set(closure)) == len(closure)


CLOSURE_CASES = {
    **{
        f"scenario/{name}": scenario.reverse.dependencies
        for name, scenario in PAPER_SCENARIOS.items()
        if scenario.reverse is not None
    },
    **{
        f"chain_join/{length}": chain_join_reverse(length).dependencies
        for length in (2, 3)
    },
    **{
        f"hand/{name}": SchemaMapping.from_text(text).dependencies
        for name, text in HAND_WRITTEN.items()
    },
}


@pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_observable_closure_matches_exhaustive_oracle(case, data):
    dependencies = CLOSURE_CASES[case]
    target = data.draw(targets(_premise_schema(dependencies)))
    assert_closure_matches_oracle(dependencies, target)


@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
@settings(max_examples=40, deadline=None)
def test_observable_closure_matches_oracle_on_random_recoveries(seed, data):
    mapping = random_full_tgd_mapping(
        source_relations=2, target_relations=2, tgd_count=3, max_arity=2, seed=seed
    )
    dependencies = maximum_extended_recovery_for_full_tgds(mapping).dependencies
    target = data.draw(targets(_premise_schema(dependencies)))
    assert_closure_matches_oracle(dependencies, target)
