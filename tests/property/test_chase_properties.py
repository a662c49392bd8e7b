"""Property-based tests: the chase against the paper's guarantees.

Invariants: the chase output is a solution (hence an extended solution);
it is universal among the solutions we can construct; the restricted and
oblivious variants are hom-equivalent; chasing is monotone under
homomorphisms on the source (the engine behind Propositions 3.11/4.7).
"""

from hypothesis import given, settings

from repro.homs.search import is_hom_equivalent, is_homomorphic
from repro.instance import Instance
from repro.mappings.schema_mapping import SchemaMapping
from repro.workloads.scenarios import PAPER_SCENARIOS

from .strategies import instances


DECOMPOSITION = PAPER_SCENARIOS["decomposition"].mapping
PATH2 = PAPER_SCENARIOS["path2"].mapping
UNION = PAPER_SCENARIOS["union"].mapping

P3 = {"P": 3}
P2 = {"P": 2}
P1Q1 = {"P": 1, "Q": 1}


@given(instances(P3, max_size=4))
@settings(max_examples=50, deadline=None)
def test_chase_output_is_solution_decomposition(inst):
    assert DECOMPOSITION.satisfies(inst, DECOMPOSITION.chase(inst))


@given(instances(P2, max_size=4))
@settings(max_examples=50, deadline=None)
def test_chase_output_is_solution_path2(inst):
    assert PATH2.satisfies(inst, PATH2.chase(inst))


@given(instances(P1Q1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_chase_output_is_solution_union(inst):
    assert UNION.satisfies(inst, UNION.chase(inst))


@given(instances(P2, max_size=3), instances(P2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_chase_monotone_under_hom(left, right):
    """I1 → I2 implies chase(I1) → chase(I2) — one half of Prop 4.7."""
    if is_homomorphic(left, right):
        assert is_homomorphic(PATH2.chase(left), PATH2.chase(right))


@given(instances(P3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_restricted_oblivious_hom_equivalent(inst):
    restricted = DECOMPOSITION.chase(inst, variant="restricted")
    oblivious = DECOMPOSITION.chase(inst, variant="oblivious")
    assert is_hom_equivalent(restricted, oblivious)


@given(instances(P2, max_size=3))
@settings(max_examples=30, deadline=None)
def test_chase_universal_among_constructed_solutions(inst):
    """chase(I) maps into solutions built by grounding its own nulls."""
    from repro.terms import Const

    chased = PATH2.chase(inst)
    grounded = chased.substitute({n: Const("g") for n in chased.nulls})
    if PATH2.satisfies(inst, grounded):
        assert is_homomorphic(chased, grounded)


@given(instances(P2, max_size=3))
@settings(max_examples=30, deadline=None)
def test_chase_idempotent_on_target(inst):
    """Chasing an instance whose obligations are met adds nothing."""
    chased_full = PATH2.exchange(inst).full
    again = SchemaMapping(
        PATH2.dependencies, source=PATH2.source, target=PATH2.target
    ).exchange(chased_full)
    assert again.generated == frozenset()
