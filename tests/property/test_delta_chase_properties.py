"""Property-based tests: semi-naive evaluation is invisible.

The delta-driven chase must be *fact-for-fact identical* to the naive
loop — same instance digest (hence same null names), same steps and
rounds, same generated set, same per-round delta sizes, and the same
partial prefix when a budget truncates the run.  The invariants are
checked over random instances on the catalogued s-t families, random
edge sets on the recursive path-closure family (where the two modes
genuinely diverge in work done), on SQLite-backed instances, and on
the disjunctive chase's branch trees — including the paper's own
recoveries, per quotient world and through the whole reverse chase.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.disjunctive import disjunctive_chase, reverse_disjunctive_chase
from repro.chase.standard import chase
from repro.homs.quotient import enumerate_quotients
from repro.inverses.quasi_inverse import maximum_extended_recovery_for_full_tgds
from repro.instance import Fact, Instance
from repro.limits import Limits
from repro.obs import Tracer
from repro.parsing.parser import parse_dependencies, parse_dependency
from repro.store import SqliteStore
from repro.terms import Const
from repro.workloads.generators import path_closure_mapping, random_full_tgd_mapping
from repro.workloads.scenarios import PAPER_SCENARIOS

from .strategies import CONSTANTS, NULLS, instances

DECOMPOSITION = PAPER_SCENARIOS["decomposition"].mapping
PATH2 = PAPER_SCENARIOS["path2"].mapping
CLOSURE = path_closure_mapping()

P3 = {"P": 3}
P2 = {"P": 2}


def edge_instances(max_nodes: int = 5, max_edges: int = 8):
    """Random directed graphs as ``E`` facts (closure chase inputs)."""
    node = st.integers(min_value=0, max_value=max_nodes - 1)
    edge = st.tuples(node, node)
    return st.lists(edge, min_size=1, max_size=max_edges).map(
        lambda edges: Instance(
            [Fact("E", (Const(i), Const(j))) for i, j in edges]
        )
    )


def assert_identical(delta, naive):
    assert delta.instance.digest() == naive.instance.digest()
    assert delta.instance.facts == naive.instance.facts
    assert delta.generated == naive.generated
    assert delta.steps == naive.steps
    assert delta.rounds == naive.rounds
    assert delta.delta_sizes == naive.delta_sizes
    assert (delta.exhausted is None) == (naive.exhausted is None)
    if delta.exhausted is not None:
        assert delta.exhausted.resource == naive.exhausted.resource
    # The whole point: delta never considers more bindings than naive.
    assert delta.triggers_considered <= naive.triggers_considered


def _both(source, dependencies, **kwargs):
    return (
        chase(source, dependencies, evaluation="delta", **kwargs),
        chase(source, dependencies, evaluation="naive", **kwargs),
    )


@given(instances(P3, max_size=4))
@settings(max_examples=50, deadline=None)
def test_delta_equals_naive_decomposition(inst):
    assert_identical(*_both(inst, DECOMPOSITION.dependencies))


@given(instances(P2, max_size=4))
@settings(max_examples=50, deadline=None)
def test_delta_equals_naive_path2_existentials(inst):
    """Null names survive: existential tgds mint identically in both modes."""
    assert_identical(*_both(inst, PATH2.dependencies))


@given(instances(P3, max_size=4))
@settings(max_examples=40, deadline=None)
def test_delta_equals_naive_oblivious(inst):
    assert_identical(
        *_both(inst, DECOMPOSITION.dependencies, variant="oblivious")
    )


@given(edge_instances())
@settings(max_examples=50, deadline=None)
def test_delta_equals_naive_recursive_closure(inst):
    """Multi-round recursion — where semi-naive actually skips work."""
    delta, naive = _both(inst, CLOSURE.dependencies)
    assert_identical(delta, naive)
    assert delta.rounds >= 2  # the family really does run many rounds


@given(edge_instances(), st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_budget_truncation_prefix_identical(inst, max_facts):
    """A facts budget cuts both modes at the same firing."""
    limits = Limits(max_facts=max_facts, on_exhausted="partial")
    delta, naive = _both(inst, CLOSURE.dependencies, limits=limits)
    assert_identical(delta, naive)
    if delta.exhausted is not None:
        # Sound prefix: a sub-instance of the completed chase.
        full = chase(inst, CLOSURE.dependencies).instance
        assert delta.instance <= full


@given(instances(P3, max_size=4))
@settings(max_examples=25, deadline=None)
def test_delta_equals_naive_on_sqlite_backend(inst):
    store = SqliteStore(":memory:")
    store.add_all(inst.facts)
    backed = Instance(store=store)
    delta, naive = _both(backed, DECOMPOSITION.dependencies)
    assert_identical(delta, naive)
    # And the backend itself is invisible.
    memory = chase(inst, DECOMPOSITION.dependencies, evaluation="delta")
    assert delta.instance.digest() == memory.instance.digest()


DISJUNCTIVE = [parse_dependency("R(x) -> P(x) | Q(x)")]
R1 = {"R": 1, "P": 1}


@given(instances(R1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_disjunctive_delta_equals_naive(inst):
    """Identical branch trees: same branches, same order, same facts."""
    delta = disjunctive_chase(inst, DISJUNCTIVE, evaluation="delta")
    naive = disjunctive_chase(inst, DISJUNCTIVE, evaluation="naive")
    assert [b.facts for b in delta] == [b.facts for b in naive]
    assert [b.digest() for b in delta] == [b.digest() for b in naive]


@given(instances(R1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_disjunctive_delta_equals_naive_on_sqlite(inst):
    store = SqliteStore(":memory:")
    store.add_all(inst.facts)
    backed = Instance(store=store)
    delta = disjunctive_chase(backed, DISJUNCTIVE, evaluation="delta")
    naive = disjunctive_chase(backed, DISJUNCTIVE, evaluation="naive")
    assert [b.facts for b in delta] == [b.facts for b in naive]


#: Disjunct facts feed later premises (delta matches in the children),
#: with a multi-atom ground disjunct, an existential one, and a guard.
CHAINED = parse_dependencies(
    "R(x) -> P(x) | Q(x); "
    "P(x) & R(y) -> S(x, y) & T(y) | (EXISTS z . S(x, z) & T(z)); "
    "Q(x) & Q(y) & x != y -> U(x, y)"
)


@given(instances({"R": 1, "T": 1, "S": 2, "P": 1}, max_size=3))
@settings(max_examples=40, deadline=None)
def test_chained_disjunctive_delta_equals_naive(inst):
    """Children re-match their own added facts: same tree as naive."""
    delta = disjunctive_chase(inst, CHAINED, evaluation="delta")
    naive = disjunctive_chase(inst, CHAINED, evaluation="naive")
    assert [b.facts for b in delta] == [b.facts for b in naive]
    assert [b.digest() for b in delta] == [b.digest() for b in naive]


#: The paper's recoveries: Σ* of Theorem 5.2 (disjunction plus
#: inequalities), the union recovery of Example 3.14, and the maximum
#: extended recovery of a random full-tgd mapping.
RECOVERIES = {
    "self_join_target": PAPER_SCENARIOS["self_join_target"].reverse,
    "union": PAPER_SCENARIOS["union"].reverse,
    "random_full": maximum_extended_recovery_for_full_tgds(
        random_full_tgd_mapping(seed=7)
    ),
}


def recovery_targets(recovery, max_size: int = 4):
    """Targets over *recovery*'s premise schema with at most 3 nulls."""
    arities = {name: recovery.source.arity(name) for name in recovery.source.names}
    value = st.sampled_from(CONSTANTS[:3] + NULLS[:3])
    fact_ = st.sampled_from(sorted(arities)).flatmap(
        lambda name: st.tuples(*[value] * arities[name]).map(
            lambda values: Fact(name, values)
        )
    )
    return st.lists(fact_, min_size=1, max_size=max_size).map(Instance)


def assert_same_branches(delta, naive):
    assert [b.facts for b in delta] == [b.facts for b in naive]
    assert [b.digest() for b in delta] == [b.digest() for b in naive]
    assert (delta.exhausted is None) == (naive.exhausted is None)


@pytest.mark.parametrize("name", sorted(RECOVERIES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_recovery_delta_equals_naive_per_quotient_world(name, data):
    """Every quotient world chases to the same branch tree in both modes."""
    recovery = RECOVERIES[name]
    target = data.draw(recovery_targets(recovery))
    for quotient in enumerate_quotients(target, max_nulls=3):
        assert_same_branches(
            disjunctive_chase(
                quotient.instance, recovery.dependencies, evaluation="delta"
            ),
            disjunctive_chase(
                quotient.instance, recovery.dependencies, evaluation="naive"
            ),
        )


@pytest.mark.parametrize("name", sorted(RECOVERIES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_recovery_delta_equals_naive_reverse_chase(name, data):
    """The unminimized reverse chase returns the same branch list, and
    traces the same branch genealogy, firings and minted nulls."""
    recovery = RECOVERIES[name]
    target = data.draw(recovery_targets(recovery))

    def reverse(evaluation):
        tracer = Tracer()
        branches = reverse_disjunctive_chase(
            target,
            recovery.dependencies,
            result_relations=recovery.target.names,
            minimize=False,
            evaluation=evaluation,
            tracer=tracer,
        )
        return branches, tracer.events

    delta, delta_events = reverse("delta")
    naive, naive_events = reverse("naive")
    assert_same_branches(delta, naive)
    assert delta_events == naive_events
