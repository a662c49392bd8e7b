"""Property-based tests: reverse-chase invariants for algorithmic recoveries.

For any full-tgd mapping M and its computed maximum extended recovery
M', the reverse chase of chase_M(I) must satisfy Definition 6.1's
conditions (1) and (2) on every instance — here hammered with random
instances over the paper scenarios (condition (3)'s universality is
covered by the checker-based suites).  The pruned chase's agreement with
the exhaustive oracle is checked in ``tests/differential/``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.disjunctive import minimize_branches
from repro.homs.search import is_homomorphic
from repro.inverses.quasi_inverse import maximum_extended_recovery_for_full_tgds
from repro.inverses.recovery import in_arrow_m
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
